//! `perfbench-job`: runs one SPMD job of one workload of the rupcxx
//! benchmark and writes every raw sample to a JSON file. The Python runner
//! (`perfbench/run.py`) runs several jobs per run, each in a fresh
//! process, turns the samples into metrics and applies the correctness
//! gates.
//!
//! Usage: `perfbench-job --workload W --job J --phase-seconds S --trace 0|1
//! --out FILE --run-dir DIR`, or `perfbench-job --workload W --reference
//! --out FILE` for the serial reference checksum.
//!
//! A job launches the runtime, runs [`WARMUP_STEPS`] steps, then timed
//! steps for `S` seconds. A step is one call of the app's `run()`, timed
//! on every rank after a barrier; its wall time is the slowest rank's.
//! With `--trace 1` the job then runs traced steps (`steps::traced_step`)
//! for another `S` seconds and the layer probes (`probes`).

mod probes;
mod spans;
mod steps;

use rupcxx::prelude::*;
use rupcxx_net::{AggConfig, ConduitSel};
use rupcxx_runtime::{spmd, spmd_procs, HandlerRegistry, ProcOutcome, RuntimeConfig};
use rupcxx_trace::TraceConfig;
use rupcxx_util::GupsRng;
use spans::Spans;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::AtomicU64;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Ranks per job: one per core of the 2-core reference host, never more.
pub const RANKS: usize = 2;
/// GUPS table words: 2 MiB in total, so the table stays cache-resident.
pub const GUPS_TABLE: usize = 1 << 16;
pub const GUPS_UPDATES: usize = 200_000;
pub const STENCIL_EDGE: usize = 32;
pub const STENCIL_GRID: (usize, usize, usize) = (2, 1, 1);
pub const STENCIL_ITERS: usize = 10;
pub const STENCIL_C: f64 = 0.1;
/// Updates per span in the traced GUPS loop (spans sample the xor calls
/// in chunks so the clock reads stay far below the work they time).
pub const XOR_CHUNK: usize = 512;
const SEGMENT_MIB: usize = 8;
const WARMUP_STEPS: usize = 2;
/// Job `j` starts with a live heap block of `HEAP_PAD * j` bytes. The
/// runtime's step time depends on where its shared structures land
/// relative to cache lines (GUPS steps differ by up to 2x between heap
/// offsets 16 bytes apart), so the jobs of a run sample one fixed set of
/// offsets.
const HEAP_PAD: usize = 16;
/// Raw spans are written for every this-many-th traced step.
const SPAN_SAMPLE_EVERY: u32 = 8;

/// Environment variables of the re-exec protocol between the launcher
/// parent and the rank processes of one job.
const LAUNCH_ENV: &str = "PERFBENCH_LAUNCH_NS";
const PROC_RANK_ENV: &str = "RUPCXX_PROC_RANK";
const CONDUIT_ENV: &str = "RUPCXX_CONDUIT";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Gups,
    Stencil,
    ProcsGupsAgg,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "gups" => Workload::Gups,
            "stencil" => Workload::Stencil,
            "procs_gups_agg" => Workload::ProcsGupsAgg,
            _ => return None,
        })
    }

    fn procs(self) -> bool {
        self == Workload::ProcsGupsAgg
    }
}

struct Args {
    workload: Workload,
    /// `None` asks for the reference checksum instead of a job.
    job: Option<u32>,
    /// Budget of each timed phase of the job.
    phase: Duration,
    trace: bool,
    out: String,
    run_dir: String,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let get = |key: &str| -> Result<&str, String> {
        raw.iter()
            .position(|a| a == key)
            .and_then(|i| raw.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {key}"))
    };
    let workload = get("--workload")?;
    let workload =
        Workload::parse(workload).ok_or_else(|| format!("unknown workload {workload}"))?;
    if raw.iter().any(|a| a == "--reference") {
        return Ok(Args {
            workload,
            job: None,
            phase: Duration::ZERO,
            trace: false,
            out: get("--out")?.to_string(),
            run_dir: String::new(),
        });
    }
    let job: u32 = get("--job")?
        .parse()
        .map_err(|_| "--job: not a job index".to_string())?;
    let phase: f64 = get("--phase-seconds")?
        .parse()
        .map_err(|_| "--phase-seconds: not a number".to_string())?;
    if !(phase > 0.0 && phase <= 60.0) {
        return Err(format!("--phase-seconds {phase}: want 0 < s <= 60"));
    }
    Ok(Args {
        workload,
        job: Some(job),
        phase: Duration::from_secs_f64(phase),
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            t => return Err(format!("--trace {t}: want 0 or 1")),
        },
        out: get("--out")?.to_string(),
        run_dir: get("--run-dir")?.to_string(),
    })
}

/// No `RUPCXX_*` variable may reach the measured program; a rank process
/// accepts only the two its launcher sets, and only with the pinned
/// conduit.
fn check_env(expected_conduit: Option<&ConduitSel>) -> Result<(), String> {
    let child = std::env::var_os(PROC_RANK_ENV).is_some();
    for (k, v) in std::env::vars_os() {
        let k = k.to_string_lossy();
        if !k.starts_with("RUPCXX_") {
            continue;
        }
        let allowed = child
            && (k == PROC_RANK_ENV
                || (k == CONDUIT_ENV
                    && expected_conduit.map(|c| c.to_string()) == v.to_str().map(String::from)));
        if !allowed {
            return Err(format!(
                "refusing to run with {k} set: every layer is pinned"
            ));
        }
    }
    Ok(())
}

fn job_seg(run_dir: &str, job: u32) -> String {
    format!("{run_dir}/job-{job}.seg")
}

/// The runtime configuration of every job: each layer assigned
/// explicitly, so nothing depends on the environment.
fn runtime_config(w: Workload, run_dir: &str, job: u32) -> RuntimeConfig {
    let mut c = RuntimeConfig::new(RANKS);
    c.segment_bytes = SEGMENT_MIB << 20;
    c.progress_thread = false;
    c.simnet = None;
    c.trace = TraceConfig::off();
    c.faults = None;
    c.agg = match w {
        Workload::Gups | Workload::Stencil => None,
        Workload::ProcsGupsAgg => Some(AggConfig::new()),
    };
    c.check = None;
    c.cache = None;
    c.prof = None;
    c.schedule = None;
    c.conduit = w.procs().then(|| ConduitSel::Shm(job_seg(run_dir, job)));
    c
}

fn unix_ns() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .expect("clock after 1970")
        .as_nanos() as u64
}

/// Peak resident set of this process in bytes (`VmHWM`), 0 if unknown.
fn peak_rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<u64>().ok())
        })
        .map_or(0, |kb| kb * 1024)
}

/// One step's record, reduced over ranks: wall and app time (max), the
/// checksum (max and min, which must agree), and the step's `CommStats`
/// deltas summed over ranks.
const FIELDS: [&str; 10] = [
    "wall_ns",
    "app_ns",
    "checksum",
    "checksum_min",
    "remote_ops",
    "ams",
    "bytes",
    "agg_ops",
    "agg_batches",
    "get_bytes",
];

enum Stop {
    Steps(usize),
    Budget(Duration),
}

/// Run steps until `stop`; rank 0 decides when a budget is spent and the
/// decision rides the per-step reduction.
fn run_phase(ctx: &Ctx, w: Workload, stop: Stop, mut spans: Option<&mut Spans>) -> Vec<[u64; 10]> {
    let stats = &ctx.fabric().endpoint(ctx.rank()).stats;
    let start = Instant::now();
    let mut rows = Vec::new();
    loop {
        ctx.barrier();
        let before = stats.snapshot();
        let t = Instant::now();
        let out = match spans.as_deref_mut() {
            None => steps::app_step(ctx, w),
            Some(sp) => {
                let s = sp.now();
                let out = steps::traced_step(ctx, w, sp);
                sp.end_step(s);
                out
            }
        };
        let wall = t.elapsed().as_nanos() as u64;
        let d = stats.snapshot().since(&before);
        let vote = match stop {
            Stop::Steps(n) => u64::from(rows.len() + 1 >= n),
            Stop::Budget(b) => u64::from(ctx.rank() == 0 && start.elapsed() >= b),
        };
        let local = [
            wall,
            (out.app_seconds * 1e9) as u64,
            out.checksum,
            out.checksum,
            d.remote_ops(),
            d.ams_sent,
            d.total_bytes(),
            d.agg_ops,
            d.agg_batches,
            d.get_bytes,
            vote,
        ];
        let r = ctx.allreduce(local, |a, b| {
            std::array::from_fn(|i| match i {
                0..=2 => a[i].max(b[i]),
                3 => a[i].min(b[i]),
                _ => a[i] + b[i],
            })
        });
        rows.push(r[..10].try_into().expect("10 fields"));
        if r[10] > 0 {
            return rows;
        }
    }
}

fn rows_json(rows: &[[u64; 10]]) -> String {
    let rows: Vec<String> = rows
        .iter()
        .map(|r| {
            let v: Vec<String> = r.iter().map(u64::to_string).collect();
            format!("[{}]", v.join(","))
        })
        .collect();
    format!("[{}]", rows.join(","))
}

/// Bind the calling thread to the `n`-th core it may run on (modulo the
/// number of such cores), as a launcher binding one rank per core would.
/// Unbound, the two rank processes of a job sometimes shared one core for
/// the whole job and its steps took twice as long. Failure leaves the
/// thread unbound.
fn bind_to_core(n: usize) {
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    {
        const SCHED_SETAFFINITY: usize = 203;
        const SCHED_GETAFFINITY: usize = 204;
        fn syscall3(nr: usize, a: usize, b: usize, c: usize) -> isize {
            let ret: isize;
            // SAFETY: only called below with the affinity syscalls on the
            // calling thread (pid 0), whose pointer argument is a live
            // local buffer of exactly `b` bytes.
            unsafe {
                std::arch::asm!(
                    "syscall",
                    inlateout("rax") nr as isize => ret,
                    in("rdi") a,
                    in("rsi") b,
                    in("rdx") c,
                    lateout("rcx") _,
                    lateout("r11") _,
                    options(nostack)
                );
            }
            ret
        }
        let mut allowed = [0u64; 16];
        let bytes = std::mem::size_of_val(&allowed);
        if syscall3(SCHED_GETAFFINITY, 0, bytes, allowed.as_mut_ptr() as usize) <= 0 {
            return;
        }
        let cores: Vec<usize> = (0..bytes * 8)
            .filter(|&c| allowed[c / 64] >> (c % 64) & 1 == 1)
            .collect();
        if cores.is_empty() {
            return;
        }
        let core = cores[n % cores.len()];
        let mut mask = [0u64; 16];
        mask[core / 64] = 1 << (core % 64);
        syscall3(SCHED_SETAFFINITY, 0, bytes, mask.as_ptr() as usize);
    }
}

/// The rank body of one job. Returns the job record on rank 0.
fn job_body(ctx: &Ctx, args: &Args, launch_ns: u64, floor: &[AtomicU64]) -> Option<String> {
    let body_start = unix_ns();
    bind_to_core(ctx.rank());
    let w = args.workload;
    let warmup = run_phase(ctx, w, Stop::Steps(WARMUP_STEPS), None);
    let first_step = unix_ns();
    let steps = run_phase(ctx, w, Stop::Budget(args.phase), None);
    let mut spans = Spans::new();
    let (traced, probed) = if args.trace {
        let traced = run_phase(ctx, w, Stop::Budget(args.phase), Some(&mut spans));
        (traced, probes::run_all(ctx, floor))
    } else {
        (Vec::new(), Vec::new())
    };
    ctx.barrier();
    let rss = if w.procs() {
        ctx.allreduce(peak_rss_bytes(), u64::wrapping_add)
    } else {
        peak_rss_bytes()
    };
    if ctx.rank() != 0 {
        return None;
    }
    let mut s = String::new();
    write!(
        s,
        "{{\"launch_unix_ns\":{launch_ns},\"body_start_unix_ns\":{body_start},\
         \"first_step_unix_ns\":{first_step},\"peak_rss_bytes\":{rss},\
         \"warmup\":{},\"steps\":{},\"traced_steps\":{},\"spans\":[",
        rows_json(&warmup),
        rows_json(&steps),
        rows_json(&traced)
    )
    .expect("write to String");
    let totals: Vec<String> = spans
        .totals()
        .iter()
        .map(|t| {
            format!(
                "{{\"name\":\"{}\",\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
                t.name, t.count, t.total_ns, t.self_ns
            )
        })
        .collect();
    let probed: Vec<String> = probed
        .iter()
        .map(|(k, v)| format!("\"{k}\":{}", json_f64(*v)))
        .collect();
    write!(
        s,
        "{}],\"span_sample\":{},\"probes\":{{{}}}}}",
        totals.join(","),
        spans.sampled_json(SPAN_SAMPLE_EVERY),
        probed.join(",")
    )
    .expect("write to String");
    Some(s)
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

fn panic_text(e: &(dyn std::any::Any + Send)) -> String {
    let msg = e
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "non-string panic".to_string());
    msg.replace(['"', '\\', '\n'], " ")
}

fn error_record(msg: &str) -> String {
    format!("{{\"error\":\"{msg}\"}}")
}

fn heap_pad(job: u32) -> Vec<u8> {
    std::hint::black_box(Vec::with_capacity(HEAP_PAD * job as usize))
}

fn floor_table() -> Vec<AtomicU64> {
    (0..GUPS_TABLE as u64).map(AtomicU64::new).collect()
}

/// One job in this process (threads), or as the launcher of rank
/// processes. Returns the job record.
fn run_job(args: &Args, job: u32) -> String {
    let config = runtime_config(args.workload, &args.run_dir, job);
    let floor = floor_table();
    let _pad = heap_pad(job);
    let launch = unix_ns();
    if !args.workload.procs() {
        let r = catch_unwind(AssertUnwindSafe(|| {
            spmd(config, |ctx| job_body(ctx, args, launch, &floor))
        }));
        return match r {
            Ok(mut out) => out.swap_remove(0).expect("rank 0 returns the record"),
            Err(e) => error_record(&format!("panic: {}", panic_text(&*e))),
        };
    }
    let seg = job_seg(&args.run_dir, job);
    let record = format!("{}/job-{job}.json", args.run_dir);
    let _ = std::fs::remove_file(&seg);
    let _ = std::fs::remove_file(&record);
    std::env::set_var(LAUNCH_ENV, launch.to_string());
    let outcome = spmd_procs(config, HandlerRegistry::new(), |_| None::<String>);
    let _ = std::fs::remove_file(&seg);
    match outcome {
        ProcOutcome::Launcher(st) if st.iter().all(|s| s.success()) => {
            std::fs::read_to_string(&record)
                .unwrap_or_else(|e| error_record(&format!("rank 0 wrote no record: {e}")))
        }
        ProcOutcome::Launcher(st) => error_record(&format!("rank process failed: {st:?}")),
        _ => unreachable!("a conduit job launches from the parent"),
    }
}

/// Rank-process half of a multi-process job (re-executed by
/// `spmd_procs` with the launcher's arguments and environment).
fn run_rank_process(args: &Args) -> Result<(), String> {
    let job = args.job.ok_or("rank process without --job")?;
    let launch: u64 = std::env::var(LAUNCH_ENV)
        .ok()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("rank process without {LAUNCH_ENV}"))?;
    let config = runtime_config(args.workload, &args.run_dir, job);
    check_env(config.conduit.as_ref())?;
    let floor = floor_table();
    let _pad = heap_pad(job);
    match spmd_procs(config, HandlerRegistry::new(), |ctx| {
        job_body(ctx, args, launch, &floor)
    }) {
        ProcOutcome::Rank(_, Some(record)) => {
            std::fs::write(format!("{}/job-{job}.json", args.run_dir), record)
                .map_err(|e| format!("write job record: {e}"))
        }
        ProcOutcome::Rank(_, None) => Ok(()),
        _ => Err("rank process did not run as a rank".to_string()),
    }
}

/// Serial replay of the HPCC update stream that every GUPS-family step
/// must reproduce: the wrapping sum of the table after all ranks'
/// updates, computed with plain loads and stores.
fn gups_reference() -> u64 {
    let mask = GUPS_TABLE - 1;
    let mut table: Vec<u64> = (0..GUPS_TABLE as u64).collect();
    for r in 0..RANKS {
        let mut rng = GupsRng::starting_at((r * GUPS_UPDATES) as i64);
        for _ in 0..GUPS_UPDATES {
            let ran = rng.next_u64();
            table[ran as usize & mask] ^= ran;
        }
    }
    table.iter().fold(0u64, |a, &v| a.wrapping_add(v))
}

fn stencil_reference() -> f64 {
    let (gx, gy, gz) = STENCIL_GRID;
    rupcxx_apps::stencil::serial_reference(
        (gx * STENCIL_EDGE, gy * STENCIL_EDGE, gz * STENCIL_EDGE),
        STENCIL_ITERS,
        STENCIL_C,
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench-job: {e}");
            std::process::exit(2);
        }
    };
    if std::env::var_os(PROC_RANK_ENV).is_some() {
        if let Err(e) = run_rank_process(&args) {
            eprintln!("perfbench-job: {e}");
            std::process::exit(1);
        }
        return;
    }
    if let Err(e) = check_env(None) {
        eprintln!("perfbench-job: {e}");
        std::process::exit(2);
    }
    let reference = || match args.workload {
        Workload::Stencil => format!("{{\"stencil_checksum\":{}}}", json_f64(stencil_reference())),
        _ => format!("{{\"gups_checksum\":{}}}", gups_reference()),
    };
    let doc = match args.job {
        None => reference(),
        Some(job) => {
            let fields: Vec<String> = FIELDS.iter().map(|f| format!("\"{f}\"")).collect();
            format!(
                "{{\"ranks\":{RANKS},\"host_cores\":{},\"effective_config\":\"{}\",\
                 \"fields\":[{}],\"job\":{}}}\n",
                std::thread::available_parallelism().map_or(0, |n| n.get()),
                format!("{:?}", runtime_config(args.workload, &args.run_dir, job))
                    .replace('"', "'"),
                fields.join(","),
                run_job(&args, job)
            )
        }
    };
    if let Err(e) = std::fs::write(&args.out, doc) {
        eprintln!("perfbench-job: write {}: {e}", args.out);
        std::process::exit(1);
    }
}
