//! Ablation: per-destination aggregation of fine-grained traffic —
//! per-op remote xors (one wire frame each, a round trip on real
//! hardware) vs conveyor-style batching (`xor_u64_buffered` + flush).
//!
//! Two latency benchmarks time a GUPS-style update stream end to end
//! (aggregated timing includes the flush and the receiver's drain), then
//! a fixed-size counted run compares wire frames via `CommStats` and
//! writes `results/BENCH_aggregation.json`. The counted run asserts the
//! batched path used no more wire frames than the per-op path and
//! produced a bit-for-bit identical segment — `make bench-smoke` runs
//! this with `RUPCXX_BENCH_SMOKE=1` as a CI gate.

use rupcxx_bench::criterion_group;
use rupcxx_bench::harness::Criterion;
use rupcxx_bench::report;
use rupcxx_net::wire::Ops;
use rupcxx_net::{AggConfig, AmPayload, Fabric, FabricConfig, GlobalAddr};
use rupcxx_trace::TraceConfig;
use rupcxx_util::SplitMix64;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// Words of table state on the target rank.
const WORDS: usize = 1024;

fn smoke() -> bool {
    std::env::var_os("RUPCXX_BENCH_SMOKE").is_some_and(|v| v != "0")
}

fn fabric(agg: Option<AggConfig>) -> Arc<Fabric> {
    Fabric::new(FabricConfig {
        ranks: 2,
        segment_bytes: WORDS * 8,
        simnet: None,
        trace: TraceConfig::off(),
        faults: None,
        agg,
        check: None,
        cache: None,
        prof: None,
        schedule: None,
        remote: None,
    })
}

/// Target address of the `i`-th update (rank 0 → rank 1's table).
fn addr(rng: &mut SplitMix64) -> GlobalAddr {
    GlobalAddr::new(1, (rng.next_u64() as usize % WORDS) * 8)
}

/// Deliver everything queued at rank 1, applying batched RMA frames.
fn drain(f: &Fabric) {
    while {
        f.pump_incoming(1);
        for m in f.endpoint(1).drain() {
            let src = m.src;
            if let AmPayload::Batch { frames, .. } = m.payload {
                for op in Ops::new(&frames) {
                    f.apply_op(1, src, None, &op, true);
                }
            }
        }
        !f.links_quiescent(1) || f.endpoint(1).pending() != 0
    } {}
}

fn bench_aggregation(c: &mut Criterion) {
    let mut g = c.benchmark_group("fine_grained_xor");
    g.sample_size(if smoke() { 5 } else { 20 });

    g.bench_function("per_op", |b| {
        b.iter_custom(|iters| {
            let f = fabric(None);
            let mut rng = SplitMix64::new(7);
            let t = Instant::now();
            for _ in 0..iters {
                f.xor_u64(0, addr(&mut rng), 0xfeed);
            }
            t.elapsed()
        })
    });

    g.bench_function("aggregated", |b| {
        b.iter_custom(|iters| {
            let f = fabric(Some(AggConfig::new()));
            let mut rng = SplitMix64::new(7);
            let t = Instant::now();
            for _ in 0..iters {
                f.xor_u64_buffered(0, addr(&mut rng), 0xfeed);
            }
            f.flush_agg(0);
            drain(&f);
            t.elapsed()
        })
    });

    g.finish();
}

/// Wire-frame accounting of one fixed update stream on both paths.
struct FrameComparison {
    updates: u64,
    per_op_wire_frames: u64,
    aggregated_wire_frames: u64,
    aggregated_batches: u64,
    logical_ops: u64,
}

fn frame_comparison() -> FrameComparison {
    let updates: u64 = if smoke() { 4096 } else { 65536 };
    let per_op = fabric(None);
    let agg = fabric(Some(AggConfig::new()));
    let mut rng_a = SplitMix64::new(11);
    let mut rng_b = SplitMix64::new(11);
    for i in 0..updates {
        per_op.xor_u64(0, addr(&mut rng_a), i | 1);
        agg.xor_u64_buffered(0, addr(&mut rng_b), i | 1);
    }
    agg.flush_agg(0);
    drain(&agg);

    // Both paths must leave the target's table bit-for-bit identical.
    for w in 0..WORDS {
        let a = GlobalAddr::new(1, w * 8);
        assert_eq!(
            per_op.get_u64(1, a),
            agg.get_u64(1, a),
            "aggregated delivery diverged at word {w}"
        );
    }

    let p = per_op.endpoint(0).stats.snapshot();
    let b = agg.endpoint(0).stats.snapshot();
    // Per-op remote atomics are counted as puts; every batch is one AM.
    FrameComparison {
        updates,
        per_op_wire_frames: p.puts,
        aggregated_wire_frames: b.ams_sent,
        aggregated_batches: b.agg_batches,
        logical_ops: b.agg_ops,
    }
}

/// One row of the GUPS-vs-batch-size sweep.
struct SweepRow {
    flush_count: usize,
    wire_frames: u64,
    ns_per_update: f64,
}

/// Sweep the count threshold over a fixed update stream: wire frames
/// fall as ~updates/flush_count while the end-to-end time per update
/// stays roughly flat on this in-process fabric (the wire win is what
/// the performance model charges per-message overhead for).
fn sweep() -> Vec<SweepRow> {
    let updates: u64 = if smoke() { 4096 } else { 65536 };
    [1usize, 4, 16, 64, 256]
        .into_iter()
        .map(|flush_count| {
            let f = fabric(Some(AggConfig::new().flush_count(flush_count)));
            let mut rng = SplitMix64::new(11);
            let t = Instant::now();
            for i in 0..updates {
                f.xor_u64_buffered(0, addr(&mut rng), i | 1);
            }
            f.flush_agg(0);
            drain(&f);
            let ns = t.elapsed().as_nanos() as f64 / updates as f64;
            let s = f.endpoint(0).stats.snapshot();
            SweepRow {
                flush_count,
                wire_frames: s.ams_sent,
                ns_per_update: ns,
            }
        })
        .collect()
}

fn write_json(
    fc: &FrameComparison,
    rows: &[SweepRow],
    results: &[rupcxx_bench::harness::BenchResult],
) {
    let ns_of = |name: &str| {
        results
            .iter()
            .find(|r| r.name == format!("fine_grained_xor/{name}"))
            .map_or(0.0, |r| r.mean_ns)
    };
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"updates\": {},", fc.updates);
    let _ = writeln!(out, "  \"per_op_wire_frames\": {},", fc.per_op_wire_frames);
    let _ = writeln!(
        out,
        "  \"aggregated_wire_frames\": {},",
        fc.aggregated_wire_frames
    );
    let _ = writeln!(out, "  \"aggregated_batches\": {},", fc.aggregated_batches);
    let _ = writeln!(out, "  \"logical_ops\": {},", fc.logical_ops);
    let _ = writeln!(
        out,
        "  \"wire_frame_reduction\": {:.2},",
        fc.per_op_wire_frames as f64 / fc.aggregated_wire_frames.max(1) as f64
    );
    let _ = writeln!(out, "  \"per_op_mean_ns\": {:.1},", ns_of("per_op"));
    let _ = writeln!(out, "  \"aggregated_mean_ns\": {:.1},", ns_of("aggregated"));
    out.push_str("  \"sweep\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"flush_count\": {}, \"wire_frames\": {}, \"ns_per_update\": {:.1}}}{}",
            r.flush_count,
            r.wire_frames,
            r.ns_per_update,
            if i + 1 < rows.len() { "," } else { "" }
        );
    }
    out.push_str("  ],\n");
    let _ = writeln!(out, "  \"smoke\": {}", smoke());
    out.push_str("}\n");
    let path = format!("{}/BENCH_aggregation.json", report::RESULTS_DIR);
    if let Err(e) =
        std::fs::create_dir_all(report::RESULTS_DIR).and_then(|_| std::fs::write(&path, &out))
    {
        eprintln!("(could not write {path}: {e})");
    } else {
        println!("[written {path}]");
    }
}

criterion_group!(benches, bench_aggregation);

fn main() {
    // Land results/ at the workspace root regardless of cargo's bench CWD
    // (the package directory).
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let _ = std::env::set_current_dir(root);

    benches();
    let results = rupcxx_bench::harness::take_results();
    let fc = frame_comparison();
    println!(
        "frames: {} logical updates -> {} per-op wire frames vs {} batched ({} batches, {:.1}x reduction)",
        fc.updates,
        fc.per_op_wire_frames,
        fc.aggregated_wire_frames,
        fc.aggregated_batches,
        fc.per_op_wire_frames as f64 / fc.aggregated_wire_frames.max(1) as f64
    );
    let rows = sweep();
    println!("sweep: flush_count -> wire frames, ns/update");
    for r in &rows {
        println!(
            "  {:>5} -> {:>6} frames  {:>7.1} ns",
            r.flush_count, r.wire_frames, r.ns_per_update
        );
    }
    write_json(&fc, &rows, &results);
    report::emit_bench_trace(&results);

    // The smoke gate: batching must never cost extra wire frames, and on
    // this stream (default thresholds, 64 logical ops per batch) it must
    // coalesce by at least the tentpole's 8x.
    assert_eq!(fc.per_op_wire_frames, fc.updates);
    assert_eq!(fc.logical_ops, fc.updates);
    assert!(
        fc.aggregated_wire_frames <= fc.per_op_wire_frames,
        "batched path used more wire frames than per-op"
    );
    assert!(
        fc.logical_ops >= 8 * fc.aggregated_wire_frames,
        "under 8x coalescing: {} ops in {} frames",
        fc.logical_ops,
        fc.aggregated_wire_frames
    );
}
