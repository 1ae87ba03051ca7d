//! Integration tests for the `rupcxx-trace` observability layer: a
//! multi-rank GUPS-style workload traced end to end, checking that the
//! event ring agrees with `CommStats`, that the Chrome-trace exporter
//! writes a structurally valid file at job teardown, that the teardown
//! summary of a traced chaos job reports its ring and its fault
//! counters, and that a job with tracing disabled records nothing.

use rupcxx_apps::sample_sort;
use rupcxx_net::{Fabric, FaultPlan, GlobalAddr};
use rupcxx_runtime::{spmd, trace_summary, RuntimeConfig};
use rupcxx_trace::{EventKind, TraceConfig};
use rupcxx_util::sync::Mutex;
use rupcxx_util::GupsRng;
use std::sync::Arc;

/// Per-rank observation returned from inside the traced job.
struct RankObs {
    put_events: usize,
    get_events: usize,
    am_send_events: usize,
    stats_puts: u64,
    stats_gets: u64,
    stats_ams_sent: u64,
}

#[test]
fn gups_trace_events_match_comm_stats() {
    const RANKS: usize = 4;
    const UPDATES: usize = 500;
    let trace_path =
        std::env::temp_dir().join(format!("rupcxx_trace_it_{}.json", std::process::id()));
    let trace_path_str = trace_path.to_str().unwrap().to_string();

    let obs = spmd(
        RuntimeConfig::new(RANKS)
            .segment_bytes(1 << 16)
            .with_trace(TraceConfig::events().with_path(&trace_path_str)),
        |ctx| {
            let me = ctx.rank();
            ctx.barrier();
            // GUPS phase: random remote xor updates plus a verifying get,
            // always to another rank so every op counts as remote.
            let mut rng = GupsRng::new();
            for _ in 0..UPDATES {
                let peer = (me + 1 + (rng.next_u64() as usize % (RANKS - 1))) % RANKS;
                let slot = (rng.next_u64() % 64) * 8;
                ctx.fabric()
                    .xor_u64(me, GlobalAddr::new(peer, slot as usize), rng.next_u64());
            }
            for _ in 0..UPDATES / 4 {
                let peer = (me + 1) % RANKS;
                let _ = ctx.fabric().get_u64(me, GlobalAddr::new(peer, 0));
            }
            // One owner-mediated remote allocation and free: their AM
            // round trips are sends like any other.
            let block = ctx.alloc_on((me + 1) % RANKS, 64).expect("segment space");
            ctx.free(block);
            ctx.barrier();
            // Quiescent for this rank's initiator-side counters: snapshot
            // both the counters and the ring and compare.
            let ep = ctx.fabric().endpoint(me);
            let stats = ep.stats.snapshot();
            let events = ep.trace.events();
            assert_eq!(
                ep.trace.ring().unwrap().dropped(),
                0,
                "ring too small for this workload"
            );
            RankObs {
                put_events: events.iter().filter(|e| e.kind == EventKind::Put).count(),
                get_events: events.iter().filter(|e| e.kind == EventKind::Get).count(),
                am_send_events: events
                    .iter()
                    .filter(|e| e.kind == EventKind::AmSend)
                    .count(),
                stats_puts: stats.puts,
                stats_gets: stats.gets,
                stats_ams_sent: stats.ams_sent,
            }
        },
    );

    for (rank, o) in obs.iter().enumerate() {
        // The acceptance property: per-kind trace event counts equal the
        // CommStats counters for the same run.
        assert_eq!(
            o.put_events as u64, o.stats_puts,
            "rank {rank}: put events vs CommStats.puts"
        );
        assert_eq!(
            o.get_events as u64, o.stats_gets,
            "rank {rank}: get events vs CommStats.gets"
        );
        assert_eq!(
            o.am_send_events as u64, o.stats_ams_sent,
            "rank {rank}: am_send events vs CommStats.ams_sent"
        );
        // And the workload shape itself: every xor is a remote put, every
        // read a remote get.
        assert_eq!(o.stats_puts, UPDATES as u64, "rank {rank} put count");
        assert_eq!(o.stats_gets, (UPDATES / 4) as u64, "rank {rank} get count");
    }

    // Teardown must have written a structurally valid Chrome trace.
    let json = std::fs::read_to_string(&trace_path).expect("trace file written at teardown");
    assert!(json.starts_with("{\"traceEvents\":["));
    assert!(json.contains("\"name\":\"put\""));
    assert!(json.contains("\"name\":\"barrier\""));
    assert!(json.contains("\"ph\":\"X\""));
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    assert_eq!(json.matches('[').count(), json.matches(']').count());
    // One timeline row per rank.
    for r in 0..RANKS {
        assert!(
            json.contains(&format!("\"tid\":{r}")),
            "missing rank {r} events"
        );
    }
    let _ = std::fs::remove_file(&trace_path);
}

#[test]
fn disabled_trace_records_no_events_or_metrics() {
    let obs = spmd(
        RuntimeConfig::new(2)
            .segment_bytes(1 << 16)
            .with_trace(TraceConfig::off()),
        |ctx| {
            let me = ctx.rank();
            ctx.fabric()
                .put_u64(me, GlobalAddr::new((me + 1) % 2, 0), 7);
            ctx.barrier();
            let trace = ctx.trace();
            let m = trace.snapshot();
            (
                trace.enabled(),
                trace.events().len(),
                m.put_ns.count + m.get_ns.count + m.msg_bytes.count,
                m.advance_polls,
            )
        },
    );
    for (enabled, events, hist_count, polls) in obs {
        assert!(!enabled);
        assert_eq!(events, 0);
        assert_eq!(hist_count, 0);
        assert_eq!(polls, 0);
    }
}

#[test]
fn metrics_mode_populates_histograms_without_ring() {
    let obs = spmd(
        RuntimeConfig::new(2)
            .segment_bytes(1 << 16)
            .with_trace(TraceConfig::metrics()),
        |ctx| {
            let me = ctx.rank();
            for i in 0..32u64 {
                ctx.fabric()
                    .put_u64(me, GlobalAddr::new((me + 1) % 2, (i % 8) as usize * 8), i);
            }
            ctx.barrier();
            let trace = ctx.trace();
            let m = trace.snapshot();
            (
                trace.events().len(),
                m.put_ns.count,
                m.advance_polls,
                m.barrier_ns.count,
            )
        },
    );
    for (events, puts, polls, barriers) in obs {
        assert_eq!(events, 0, "metrics mode must not allocate a ring");
        assert_eq!(puts, 32);
        assert!(polls > 0, "advance() polls must be counted");
        assert_eq!(barriers, 1);
    }
}

#[test]
fn traced_chaos_summary_reports_ring_and_fault_counters() {
    const RANKS: usize = 4;
    let trace_path =
        std::env::temp_dir().join(format!("rupcxx_chaos_trace_{}.json", std::process::id()));
    let fabric: Mutex<Option<Arc<Fabric>>> = Mutex::new(None);
    spmd(
        RuntimeConfig::new(RANKS)
            .segment_mib(4)
            .with_faults(FaultPlan::new(202).drop(0.10).dup(0.05).reorder(0.10))
            .with_trace(TraceConfig::events().with_path(trace_path.to_str().unwrap())),
        |ctx| {
            if ctx.rank() == 0 {
                *fabric.lock() = Some(ctx.shared().fabric.clone());
            }
            let cfg = sample_sort::SortConfig {
                keys_per_rank: 500,
                oversample: 16,
                variant: sample_sort::Variant::Upcxx,
                seed: 7,
            };
            assert!(sample_sort::run(ctx, &cfg).verified);
        },
    );
    let _ = std::fs::remove_file(&trace_path);
    // Every rank has drained to quiescence: the summary is final.
    let fabric = fabric.lock().take().expect("rank 0 captured the fabric");
    let csv = trace_summary(&fabric).to_csv();
    let mut lines = csv.lines();
    let header: Vec<&str> = lines.next().expect("header").split(',').collect();
    let col = |name: &str| header.iter().position(|h| *h == name).expect(name);
    let rows: Vec<Vec<&str>> = lines.map(|l| l.split(',').collect()).collect();
    assert_eq!(rows.len(), RANKS + 1, "one row per rank plus `all`");
    for (rank, row) in rows.iter().take(RANKS).enumerate() {
        let c = fabric.endpoint(rank).stats.snapshot();
        let cell = |name: &str| row[col(name)].parse::<u64>().expect(name);
        assert!(cell("events") > 0, "rank {rank}: events column is 0");
        assert_eq!(cell("retx"), c.retransmits, "rank {rank} retx");
        assert_eq!(cell("drops"), c.wire_drops, "rank {rank} drops");
        assert_eq!(cell("dups"), c.dup_arrivals, "rank {rank} dups");
    }
    let total = fabric.total_counts();
    assert!(total.wire_drops > 0, "the plan must have dropped frames");
    assert_eq!(
        rows[RANKS][col("drops")].parse::<u64>().unwrap(),
        total.wire_drops
    );
}
