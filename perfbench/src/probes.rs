//! Layer probes of the traced run: each times calls into one layer's
//! public functions from outside, inside the workload's own runtime
//! (threads or processes, aggregation on or off), after the traced steps.
//!
//! The GUPS-stream probes all replay the app's update stream (the same
//! table size, the same per-rank HPCC offsets) through a different path,
//! so their per-update costs are directly comparable with each other and
//! with the same-run hardware floor (a bare `AtomicU64::fetch_xor` loop).

use crate::steps::stencil_config;
use crate::{GUPS_TABLE, GUPS_UPDATES, RANKS, STENCIL_C, STENCIL_EDGE, STENCIL_GRID};
use crate::{STENCIL_ITERS, XOR_CHUNK};
use rupcxx::prelude::*;
use rupcxx::UpcDirectTable;
use rupcxx_apps::stencil;
use rupcxx_ndarray::{pt, NdArray, RectDomain};
use rupcxx_util::GupsRng;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Rounds of the GUPS-stream probes (each round runs every path once),
/// and the length of the stream prefix each pass replays: short enough
/// that the non-aggregated paths, one conduit round trip per remote
/// update in a multi-process job, finish in about a second.
const GUPS_ROUNDS: usize = 7;
const PROBE_UPDATES: usize = GUPS_UPDATES / 10;
/// Calls per runtime-collective probe.
const COLLECTIVE_CALLS: usize = 300;
/// `Fabric::get_u64` calls per timed chunk, and chunks.
const GET_CHUNK: usize = 32;
const GET_CHUNKS: usize = 64;
/// Ghost-exchange rounds.
const GHOST_ROUNDS: usize = 40;
/// Whole-app stencil calls and serial-reference calls.
const STENCIL_CALLS: usize = 5;
const SERIAL_CALLS: usize = 3;
/// Updates between explicit `Ctx::advance` calls in the aggregated probe.
const ADVANCE_EVERY: usize = 8 * XOR_CHUNK;

/// Named probe results on rank 0.
pub type Probed = Vec<(&'static str, f64)>;

fn median(mut v: Vec<f64>) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Time `f` on every rank after a barrier; the sample is the slowest
/// rank's time in nanoseconds (the same rule as a step).
fn timed_max(ctx: &Ctx, f: impl FnOnce()) -> f64 {
    ctx.barrier();
    let t = Instant::now();
    f();
    let ns = t.elapsed().as_nanos() as u64;
    ctx.allreduce(ns, u64::max) as f64
}

fn stream(ctx: &Ctx) -> impl Iterator<Item = u64> {
    let mut rng = GupsRng::starting_at((ctx.rank() * GUPS_UPDATES) as i64);
    (0..PROBE_UPDATES).map(move |_| rng.next_u64())
}

/// Run every probe; `floor` is the hardware-floor table (shared by the
/// rank threads of one process).
pub fn run_all(ctx: &Ctx, floor: &[AtomicU64]) -> Probed {
    let mut out = Probed::new();
    gups_paths(ctx, floor, &mut out);
    collectives(ctx, &mut out);
    get_rtt(ctx, &mut out);
    ghost(ctx, &mut out);
    stencil_app(ctx, &mut out);
    out
}

fn gups_paths(ctx: &Ctx, floor: &[AtomicU64], out: &mut Probed) {
    let mask = GUPS_TABLE - 1;
    let table = SharedArray::<u64>::new(ctx, GUPS_TABLE, 1);
    let direct = UpcDirectTable::new(ctx, &table).expect("power-of-two ranks, cyclic table");
    // Pre-resolved packed addresses, so the fabric probe times only
    // `Fabric::xor_u64` on the words the proxy path would touch.
    let resolved: Vec<(GlobalAddr, u64)> = stream(ctx)
        .map(|ran| (table.ptr(ran as usize & mask).addr(), ran))
        .collect();
    let fabric = ctx.fabric();
    let me = ctx.rank();
    let (mut floor_ns, mut xor_ns, mut direct_ns, mut fabric_ns) = (vec![], vec![], vec![], vec![]);
    let (mut agg_ns, mut fence_ns, mut adv_ns) = (vec![], vec![], vec![]);
    let (mut adv_calls, mut adv_msgs) = (0u64, 0u64);
    let per_op = |ns: f64| ns / PROBE_UPDATES as f64;
    for _ in 0..GUPS_ROUNDS {
        floor_ns.push(per_op(timed_max(ctx, || {
            for ran in stream(ctx) {
                floor[ran as usize & mask].fetch_xor(ran, Ordering::Relaxed);
            }
        })));
        xor_ns.push(per_op(timed_max(ctx, || {
            for ran in stream(ctx) {
                table.xor(ctx, ran as usize & mask, ran);
            }
        })));
        direct_ns.push(per_op(timed_max(ctx, || {
            for ran in stream(ctx) {
                direct.xor(ctx, ran as usize & mask, ran);
            }
        })));
        fabric_ns.push(per_op(timed_max(ctx, || {
            for &(addr, ran) in &resolved {
                fabric.xor_u64(me, addr, ran);
            }
        })));
        let mut fence = 0.0;
        agg_ns.push(per_op(timed_max(ctx, || {
            for (i, ran) in stream(ctx).enumerate() {
                table.xor_agg(ctx, ran as usize & mask, ran);
                if (i + 1) % ADVANCE_EVERY == 0 {
                    let t = Instant::now();
                    let n = ctx.advance();
                    adv_ns.push(t.elapsed().as_nanos() as f64);
                    adv_calls += 1;
                    adv_msgs += n as u64;
                }
            }
            let t = Instant::now();
            ctx.agg_fence();
            fence = t.elapsed().as_nanos() as f64;
        })));
        fence_ns.push(fence);
    }
    table.destroy(ctx);
    let floor = median(floor_ns);
    let xor = median(xor_ns);
    let direct = median(direct_ns);
    let fab = median(fabric_ns);
    let agg = median(agg_ns);
    out.extend([
        ("floor.atomic_xor_ns", floor),
        ("core.xor_ns", xor),
        ("core.xor_over_floor", xor / floor),
        ("core.upc_direct_xor_ns", direct),
        ("core.upc_direct_xor_over_floor", direct / floor),
        ("core.proxy_overhead", xor / direct),
        ("net.fabric.xor_u64_ns", fab),
        ("net.fabric.xor_u64_over_floor", fab / floor),
        ("core.xor_agg_ns", agg),
        ("core.xor_agg_over_floor", agg / floor),
        ("net.agg.fence_us", median(fence_ns) / 1e3),
        ("runtime.advance_ns", median(adv_ns)),
        (
            "runtime.advance_yield",
            adv_msgs as f64 / adv_calls.max(1) as f64,
        ),
    ]);
}

fn collectives(ctx: &Ctx, out: &mut Probed) {
    ctx.barrier();
    let barrier: Vec<f64> = (0..COLLECTIVE_CALLS)
        .map(|_| {
            let t = Instant::now();
            ctx.barrier();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    let allreduce: Vec<f64> = (0..COLLECTIVE_CALLS)
        .map(|i| {
            let t = Instant::now();
            black_box(ctx.allreduce(i as u64, u64::wrapping_add));
            t.elapsed().as_nanos() as f64
        })
        .collect();
    out.push(("runtime.barrier_us", median(barrier) / 1e3));
    out.push(("runtime.allreduce_us", median(allreduce) / 1e3));
}

/// `Fabric::get_u64` from rank 0 to a word owned by rank 1: a load in a
/// threaded job, one conduit round trip in a multi-process job. Rank 1
/// serves the gets from inside its barrier wait.
fn get_rtt(ctx: &Ctx, out: &mut Probed) {
    let arr = SharedArray::<u64>::new(ctx, RANKS, 1);
    ctx.barrier();
    let mut chunks = Vec::with_capacity(GET_CHUNKS);
    if ctx.rank() == 0 {
        let addr = arr.ptr(1).addr();
        for _ in 0..GET_CHUNKS {
            let t = Instant::now();
            for _ in 0..GET_CHUNK {
                black_box(ctx.fabric().get_u64(0, black_box(addr)));
            }
            chunks.push(t.elapsed().as_nanos() as f64 / GET_CHUNK as f64);
        }
    }
    ctx.barrier();
    arr.destroy(ctx);
    if ctx.rank() == 0 {
        out.push(("net.remote.get_u64_rtt_ns", median(chunks)));
    }
}

/// The stencil's ghost exchange alone: each rank pulls its neighbour's
/// facing plane, then fences and synchronizes.
fn ghost(ctx: &Ctx, out: &mut Probed) {
    let e = STENCIL_EDGE as i64;
    let r = ctx.rank() as i64;
    let lo = pt![r * e, 0, 0];
    let interior = RectDomain::new(lo, lo + pt![e, e, e]);
    let arr = NdArray::<f64, 3>::new(
        ctx,
        RectDomain::new(lo - pt![1, 1, 1], lo + pt![e + 1, e + 1, e + 1]),
    );
    arr.fill(ctx, 1.0);
    let dir: Vec<NdArray<f64, 3>> = ctx.allgatherv(&[arr]);
    let (side, nb) = if r == 0 { (1i8, 1usize) } else { (-1, 0) };
    let (mut copy_us, mut fence_us) = (vec![], vec![]);
    for _ in 0..GHOST_ROUNDS {
        ctx.barrier();
        let t = Instant::now();
        arr.copy_ghost_from(ctx, &dir[nb], interior, 0, side, 1);
        copy_us.push(t.elapsed().as_nanos() as f64 / 1e3);
        let t = Instant::now();
        async_copy_fence(ctx);
        fence_us.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    ctx.barrier();
    arr.destroy(ctx);
    out.push(("ndarray.copy_ghost_us", median(copy_us)));
    out.push(("core.copy_fence_us", median(fence_us)));
}

/// Whole-app stencil calls against the serial reference on rank 0: the
/// plain single-threaded baseline and the parallel efficiency over it.
fn stencil_app(ctx: &Ctx, out: &mut Probed) {
    let cfg = stencil_config();
    let step: Vec<f64> = (0..STENCIL_CALLS)
        .map(|_| {
            timed_max(ctx, || {
                black_box(stencil::run(ctx, &cfg));
            })
        })
        .collect();
    ctx.barrier();
    let (gx, gy, gz) = STENCIL_GRID;
    let global = (gx * STENCIL_EDGE, gy * STENCIL_EDGE, gz * STENCIL_EDGE);
    let points = (global.0 * global.1 * global.2 * STENCIL_ITERS) as f64;
    let mut serial = Vec::new();
    if ctx.rank() == 0 {
        for _ in 0..SERIAL_CALLS {
            let t = Instant::now();
            black_box(stencil::serial_reference(global, STENCIL_ITERS, STENCIL_C));
            serial.push(t.elapsed().as_nanos() as f64 / points);
        }
    }
    ctx.barrier();
    if ctx.rank() == 0 {
        let serial_point_ns = median(serial);
        let parallel_step_ns = median(step);
        out.push(("apps.stencil.serial_point_ns", serial_point_ns));
        out.push((
            "apps.stencil.parallel_eff",
            serial_point_ns * points / (RANKS as f64 * parallel_step_ns),
        ));
    }
}
