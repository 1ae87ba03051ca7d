//! Cross-conduit conformance suite.
//!
//! The layering claim of the conduit subsystem is that everything above
//! the transport — reliable delivery, fault injection, aggregation,
//! caching, the checker, the profiler — behaves identically whether
//! ranks are threads of one process (loopback) or OS processes over
//! shm/tcp/uds. These tests launch the `conduit_app` workload binary as
//! real processes and compare its deterministic `RESULT` lines
//! bit-for-bit against the in-process run.
//!
//! The whole suite is the CI gate (`make conduit-smoke`, release mode):
//! every frame kind of the wire grammar — aggregated batches, direct
//! AMs, RMA requests and replies, the checker's clock stamps — crosses a
//! real process boundary in at least one test.

use std::collections::BTreeMap;
use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const APP: &str = env!("CARGO_BIN_EXE_conduit_app");
const LAUNCH: &str = env!("CARGO_BIN_EXE_rupcxx-launch");

/// Unique-enough scratch name: pid + a per-process counter.
fn scratch(tag: &str) -> String {
    use std::sync::atomic::{AtomicU64, Ordering};
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    format!(
        "{}/rupcxx-conf-{tag}-{}-{n}",
        std::env::temp_dir().display(),
        std::process::id()
    )
}

struct Run {
    status: std::process::ExitStatus,
    stdout: String,
    stderr: String,
}

/// Run a command to completion with a hard timeout (kills on expiry),
/// capturing both streams without deadlocking on full pipes.
fn run_with_timeout(cmd: &mut Command, timeout: Duration) -> Run {
    let mut child = cmd
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn");
    let mut out_pipe = child.stdout.take().unwrap();
    let mut err_pipe = child.stderr.take().unwrap();
    let out_thread = std::thread::spawn(move || {
        let mut s = String::new();
        let _ = out_pipe.read_to_string(&mut s);
        s
    });
    let err_thread = std::thread::spawn(move || {
        let mut s = String::new();
        let _ = err_pipe.read_to_string(&mut s);
        s
    });
    let deadline = Instant::now() + timeout;
    let status = loop {
        match child.try_wait().expect("wait") {
            Some(s) => break s,
            None if Instant::now() > deadline => {
                let _ = child.kill();
                let s = child.wait().expect("wait after kill");
                let stdout = out_thread.join().unwrap();
                let stderr = err_thread.join().unwrap();
                panic!(
                    "timed out after {timeout:?}\n--- stdout\n{stdout}\n--- stderr\n{stderr}\n{s}"
                );
            }
            None => std::thread::sleep(Duration::from_millis(5)),
        }
    };
    Run {
        status,
        stdout: out_thread.join().unwrap(),
        stderr: err_thread.join().unwrap(),
    }
}

/// Launch `conduit_app mode ranks args...` over `conduit` (None =
/// in-process loopback), assert it succeeded and one `RESULT` line per
/// rank, and return the rank→checksum map plus everything it printed.
fn run_app(
    conduit: Option<&str>,
    mode: &str,
    ranks: usize,
    args: &[&str],
    extra_env: &[(&str, &str)],
) -> (BTreeMap<usize, String>, String) {
    let mut cmd = Command::new(APP);
    cmd.arg(mode).arg(ranks.to_string()).args(args);
    // The test runner's environment must not leak a conduit or fault
    // plan into the jobs this suite parameterizes itself.
    cmd.env_remove("RUPCXX_CONDUIT")
        .env_remove("RUPCXX_PROC_RANK");
    if let Some(sel) = conduit {
        cmd.env("RUPCXX_CONDUIT", sel);
    }
    for (k, v) in extra_env {
        cmd.env(k, v);
    }
    let run = run_with_timeout(&mut cmd, Duration::from_secs(120));
    assert!(
        run.status.success(),
        "conduit_app {mode} over {conduit:?} failed: {}\n--- stdout\n{}\n--- stderr\n{}",
        run.status,
        run.stdout,
        run.stderr
    );
    let mut sums = BTreeMap::new();
    for line in run.stdout.lines() {
        if let Some(rest) = line.strip_prefix("RESULT rank=") {
            let (rank, sum) = rest.split_once(" checksum=").expect("RESULT line");
            sums.insert(rank.parse().unwrap(), sum.to_string());
        }
    }
    assert_eq!(
        sums.len(),
        ranks,
        "expected one RESULT per rank over {conduit:?}:\n{}",
        run.stdout
    );
    (sums, format!("{}\n{}", run.stdout, run.stderr))
}

/// [`run_app`]'s rank→checksum map.
fn checksums(
    conduit: Option<&str>,
    mode: &str,
    ranks: usize,
    args: &[&str],
    extra_env: &[(&str, &str)],
) -> BTreeMap<usize, String> {
    run_app(conduit, mode, ranks, args, extra_env).0
}

fn assert_same_as_loopback(mode: &str, ranks: usize, args: &[&str], conduit: &str) {
    let reference = checksums(None, mode, ranks, args, &[]);
    let got = checksums(Some(conduit), mode, ranks, args, &[]);
    assert_eq!(
        reference, got,
        "{mode} over {conduit} diverged from loopback"
    );
}

/// Run `mode` with the race and deadlock checkers on, in-process and as
/// processes over shm: the checksums must agree, and neither run may
/// report a finding — the clock stamps riding the wire frames must not
/// invent races that the in-process run does not have.
fn assert_checked_same_as_loopback(mode: &str, ranks: usize, args: &[&str], tag: &str) {
    let check = [("RUPCXX_CHECK", "on")];
    let (reference, ref_out) = run_app(None, mode, ranks, args, &check);
    let seg = scratch(tag);
    let shm = format!("shm:{seg}.seg");
    let (got, out) = run_app(Some(&shm), mode, ranks, args, &check);
    let _ = std::fs::remove_file(format!("{seg}.seg"));
    assert_eq!(reference, got, "checked {mode} over shm diverged");
    for text in [&ref_out, &out] {
        assert!(
            !text.contains("(rupcxx-check)"),
            "clean {mode} flagged:\n{text}"
        );
    }
}

// ---- Smoke: 2-process GUPS over shm and uds ----

#[test]
fn smoke_shm_gups_2proc() {
    let seg = scratch("shm-smoke");
    assert_same_as_loopback(
        "gups",
        2,
        &["updates=300", "table=1024"],
        &format!("shm:{seg}.seg"),
    );
    let _ = std::fs::remove_file(format!("{seg}.seg"));
}

#[test]
fn smoke_uds_gups_2proc() {
    let dir = scratch("uds-smoke");
    std::fs::create_dir_all(&dir).unwrap();
    assert_same_as_loopback(
        "gups",
        2,
        &["updates=300", "table=1024"],
        &format!("uds:{dir}"),
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---- Telemetry exports: one file per rank process ----

#[test]
fn traced_processes_export_one_file_per_rank() {
    let dir = scratch("trace-export");
    std::fs::create_dir_all(&dir).unwrap();
    let trace = format!("events,{dir}/t.json");
    let prof = format!("on,{dir}/p.json");
    let env = [("RUPCXX_TRACE", &*trace), ("RUPCXX_PROF", &*prof)];
    let args = ["updates=300", "table=1024"];
    run_app(Some(&format!("uds:{dir}")), "gups", 2, &args, &env);
    let mut files: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|n| n.ends_with(".json"))
        .collect();
    files.sort();
    assert_eq!(
        files,
        [
            "p.rank0.json",
            "p.rank1.json",
            "t.rank0.json",
            "t.rank1.json"
        ]
    );
    // Each rank's trace holds its own timeline and no stub's.
    for (rank, other) in [(0, 1), (1, 0)] {
        let json = std::fs::read_to_string(format!("{dir}/t.rank{rank}.json")).unwrap();
        assert!(json.contains(&format!("\"tid\":{rank},")), "rank {rank}");
        assert!(!json.contains(&format!("\"tid\":{other},")), "rank {rank}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ---- Full conformance ----

#[test]
fn uds_sample_sort_matches_loopback_4proc() {
    let dir = scratch("uds-sort");
    std::fs::create_dir_all(&dir).unwrap();
    assert_same_as_loopback("sort", 4, &["keys=800", "seed=9"], &format!("uds:{dir}"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tcp_gups_matches_loopback() {
    // Derive the port from the pid so parallel test runs don't collide.
    let port = 20000 + (std::process::id() % 20000) as u16;
    assert_same_as_loopback(
        "gups",
        2,
        &["updates=300", "table=1024"],
        &format!("tcp:127.0.0.1:{port}"),
    );
}

#[test]
fn shm_stencil_4proc_matches_loopback() {
    let seg = scratch("shm-stencil");
    assert_same_as_loopback(
        "stencil",
        4,
        &["edge=8", "iters=3", "grid=2x2x1"],
        &format!("shm:{seg}.seg"),
    );
    let _ = std::fs::remove_file(format!("{seg}.seg"));
}

#[test]
fn shm_aggregated_gups_matches_loopback() {
    // The aggregation layer sits above the conduit: coalesced batches
    // cross the wire as one frame and unpack identically.
    let seg = scratch("shm-agg");
    assert_same_as_loopback(
        "gups-agg",
        2,
        &["updates=400", "table=1024"],
        &format!("shm:{seg}.seg"),
    );
    let _ = std::fs::remove_file(format!("{seg}.seg"));
}

#[test]
fn checked_shm_aggregated_gups_matches_loopback() {
    assert_checked_same_as_loopback("gups-agg", 2, &["updates=400", "table=1024"], "check-agg");
}

#[test]
fn checked_shm_stencil_matches_loopback() {
    assert_checked_same_as_loopback("stencil", 2, &[], "check-stencil");
}

#[test]
fn race_checker_flags_aggregated_put_across_processes() {
    // Mirrors check_corpus's race_aggregated_put_vs_unfenced_read, with
    // the batch and its clock stamp crossing a real process boundary.
    let seg = scratch("check-race");
    let (_, out) = run_app(
        Some(&format!("shm:{seg}.seg")),
        "race-agg-put",
        2,
        &[],
        &[("RUPCXX_CHECK", "race")],
    );
    let _ = std::fs::remove_file(format!("{seg}.seg"));
    assert!(
        out.contains("(rupcxx-check) [data-race]"),
        "expected a race finding:\n{out}"
    );
    assert!(
        out.contains("agg-put"),
        "the finding must name agg-put:\n{out}"
    );
}

#[test]
fn chaos_seed_reproducible_over_shm() {
    // Fault injection rides above the conduit: the same seed produces
    // the same retransmission history and the same final answer, in
    // processes exactly as in threads.
    let faults = ("RUPCXX_FAULTS", "seed=7,drop=0.05,dup=0.02,delay=0.05");
    let reference = checksums(None, "gups", 2, &["updates=200", "table=1024"], &[faults]);
    for round in 0..2 {
        let seg = scratch(&format!("shm-chaos-{round}"));
        let got = checksums(
            Some(&format!("shm:{seg}.seg")),
            "gups",
            2,
            &["updates=200", "table=1024"],
            &[faults],
        );
        assert_eq!(reference, got, "chaos round {round} diverged");
        let _ = std::fs::remove_file(format!("{seg}.seg"));
    }
}

#[test]
fn killing_a_process_yields_peer_unreachable() {
    // Kill a real OS process mid-job: the survivors must die with a
    // classified PeerUnreachable through the wait_until panic funnel —
    // flight recorder dumped — rather than hanging in the barrier.
    let dir = scratch("uds-kill");
    std::fs::create_dir_all(&dir).unwrap();
    let mut cmd = Command::new(LAUNCH);
    cmd.args([
        "-n",
        "3",
        "-c",
        &format!("uds:{dir}"),
        "--kill-rank",
        "1",
        "--kill-after-ms",
        "300",
        "--",
        APP,
        "spin",
        "3",
        "iters=100000",
        "sleep_ms=5",
    ]);
    cmd.env("RUPCXX_PROF", "1").env_remove("RUPCXX_CONDUIT");
    let run = run_with_timeout(&mut cmd, Duration::from_secs(90));
    assert!(
        !run.status.success(),
        "launcher must report the killed job as failed"
    );
    let all = format!("{}\n{}", run.stdout, run.stderr);
    assert!(
        all.contains("unreachable"),
        "survivors must classify the dead peer:\n{all}"
    );
    assert!(
        all.contains("rupcxx flight recorder"),
        "profiler must dump the flight recorder on the failure:\n{all}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---- Trait-level contract, all three backends in-process ----

#[test]
fn trait_contract_exactly_once_in_order() {
    use rupcxx_net::{Conduit, ConduitEvent, LoopbackConduit, ShmConduit, SocketConduit};

    fn exercise(mesh: Vec<Box<dyn Conduit>>, name: &str) {
        let n = mesh.len();
        // Every rank sends 50 sequenced frames to every other rank.
        for (src, c) in mesh.iter().enumerate() {
            for dst in 0..n {
                if dst == src {
                    continue;
                }
                for seq in 0..50u32 {
                    let mut frame = vec![src as u8, dst as u8];
                    frame.extend_from_slice(&seq.to_le_bytes());
                    c.send(dst, &frame);
                }
            }
        }
        for c in &mesh {
            for dst in 0..n {
                if dst != c.my_rank() {
                    c.flush(dst);
                }
            }
        }
        // Each receiver sees exactly 50 frames per source, in order.
        for (me, c) in mesh.iter().enumerate() {
            let mut next = vec![0u32; n];
            let mut got = 0;
            let deadline = Instant::now() + Duration::from_secs(30);
            while got < 50 * (n - 1) {
                match c.try_recv() {
                    Some(ConduitEvent::Frame(src, frame)) => {
                        assert_eq!(frame[0] as usize, src, "{name}: src tag");
                        assert_eq!(frame[1] as usize, me, "{name}: dst tag");
                        let seq = u32::from_le_bytes(frame[2..6].try_into().unwrap());
                        assert_eq!(seq, next[src], "{name}: out of order from {src}");
                        next[src] += 1;
                        got += 1;
                    }
                    Some(ConduitEvent::Closed(src)) => {
                        panic!("{name}: premature Closed({src})")
                    }
                    None => {
                        assert!(Instant::now() < deadline, "{name}: stalled at {got}");
                        std::thread::yield_now();
                    }
                }
            }
            assert!(c.try_recv().is_none(), "{name}: extra delivery");
        }
        for c in &mesh {
            c.shutdown();
        }
    }

    exercise(
        LoopbackConduit::mesh(3)
            .into_iter()
            .map(|c| Box::new(c) as Box<dyn Conduit>)
            .collect(),
        "loopback",
    );

    let seg = format!("{}.seg", scratch("trait-shm"));
    let shm: Vec<Box<dyn Conduit>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..3)
            .map(|r| {
                let seg = seg.clone();
                s.spawn(move || Box::new(ShmConduit::attach(&seg, r, 3)) as Box<dyn Conduit>)
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    exercise(shm, "shm");
    let _ = std::fs::remove_file(&seg);

    let dir = scratch("trait-uds");
    std::fs::create_dir_all(&dir).unwrap();
    let uds: Vec<Box<dyn Conduit>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..3)
            .map(|r| {
                let dir = dir.clone();
                s.spawn(move || Box::new(SocketConduit::uds(&dir, r, 3)) as Box<dyn Conduit>)
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    exercise(uds, "uds");
    let _ = std::fs::remove_dir_all(&dir);
}
