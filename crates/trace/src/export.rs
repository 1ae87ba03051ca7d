//! Exporters: Chrome `trace_event` JSON and per-rank summary tables.
//!
//! The JSON output loads directly into `chrome://tracing` or
//! <https://ui.perfetto.dev>: one timeline row per rank (`tid` = rank),
//! spans as complete (`"ph":"X"`) events, sends/spawns as instants. The
//! table summary renders with `rupcxx-util`'s [`Table`] like every other
//! reproduction artifact.

use crate::metrics::MetricsSnapshot;
use crate::ring::TraceEvent;
use crate::telemetry::CommCounts;
use rupcxx_util::table::fnum;
use rupcxx_util::Table;
use std::fmt::Write as _;

/// Escape a string for inclusion inside a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Render per-rank event streams as a Chrome trace JSON document.
///
/// Besides the events themselves, the document carries `process_name` /
/// `thread_name` metadata records so Perfetto labels each timeline row
/// with its rank instead of a bare thread id.
pub fn chrome_trace_json(per_rank: &[(usize, Vec<TraceEvent>)]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    if !per_rank.is_empty() {
        let _ = write!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"args\":{{\"name\":\"rupcxx\"}}}}"
        );
        first = false;
        for (rank, _) in per_rank {
            let _ = write!(
                out,
                ",\n{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{rank},\"args\":{{\"name\":\"rank {rank}\"}}}}"
            );
        }
    }
    for (rank, events) in per_rank {
        for e in events {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let ts_us = e.ts_ns as f64 / 1000.0;
            if e.kind.is_span() {
                let dur_us = (e.dur_ns as f64 / 1000.0).max(0.001);
                let _ = write!(
                    out,
                    "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":0,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"peer\":{},\"bytes\":{},\"seq\":{}}}}}",
                    json_escape(e.kind.name()), json_escape(e.kind.category()), rank, ts_us, dur_us,
                    e.peer, e.bytes, e.seq
                );
            } else {
                let _ = write!(
                    out,
                    "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":{},\"ts\":{:.3},\"args\":{{\"peer\":{},\"bytes\":{},\"seq\":{}}}}}",
                    json_escape(e.kind.name()), json_escape(e.kind.category()), rank, ts_us,
                    e.peer, e.bytes, e.seq
                );
            }
        }
    }
    out.push_str("\n],\"displayTimeUnit\":\"ns\"}\n");
    out
}

/// Write a Chrome trace for the given per-rank event streams.
pub fn write_chrome_trace(
    path: &str,
    per_rank: &[(usize, Vec<TraceEvent>)],
) -> std::io::Result<()> {
    std::fs::write(path, chrome_trace_json(per_rank))
}

/// Build the per-rank summary table from each rank's metrics and counter
/// snapshots (plus an `all` aggregate row when more than one rank is
/// given). Latencies are histogram-bound percentiles in microseconds;
/// the fault and cache-hit columns are the counters.
pub fn summary_table(rows: &[(usize, MetricsSnapshot, CommCounts)]) -> Table {
    let mut t = Table::new([
        "rank",
        "puts",
        "put p50us",
        "put p99us",
        "gets",
        "get p50us",
        "ams",
        "am p50us",
        "polls",
        "work%",
        "qdepth p99",
        "bytes p50",
        "retx",
        "drops",
        "dups",
        "batches",
        "occ p50",
        "cfills",
        "hit%",
        "events",
        "evlost",
    ]);
    let mut add_row = |label: String, m: &MetricsSnapshot, c: &CommCounts| {
        t.row([
            label,
            m.put_ns.count.to_string(),
            fnum(m.put_ns.p50() as f64 / 1000.0),
            fnum(m.put_ns.p99() as f64 / 1000.0),
            m.get_ns.count.to_string(),
            fnum(m.get_ns.p50() as f64 / 1000.0),
            m.am_handle_ns.count.to_string(),
            fnum(m.am_handle_ns.p50() as f64 / 1000.0),
            m.advance_polls.to_string(),
            format!("{:.1}", m.poll_work_ratio() * 100.0),
            m.queue_depth.p99().to_string(),
            m.msg_bytes.p50().to_string(),
            c.retransmits.to_string(),
            c.wire_drops.to_string(),
            c.dup_arrivals.to_string(),
            m.batch_frames.count.to_string(),
            m.batch_frames.p50().to_string(),
            m.cache_fill_bytes.count.to_string(),
            format!("{:.1}", c.cache_hit_ratio() * 100.0),
            m.ring_pushed.to_string(),
            m.ring_lost.to_string(),
        ]);
    };
    let (mut total, mut total_counts) = (MetricsSnapshot::default(), CommCounts::default());
    for (rank, m, c) in rows {
        add_row(rank.to_string(), m, c);
        total = total.merged(m);
        total_counts = total_counts.merged(c);
    }
    if rows.len() > 1 {
        add_row("all".to_string(), &total, &total_counts);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::EventKind;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent {
                seq: 0,
                ts_ns: 1000,
                dur_ns: 500,
                bytes: 8,
                peer: 1,
                kind: EventKind::Put,
            },
            TraceEvent {
                seq: 1,
                ts_ns: 2000,
                dur_ns: 0,
                bytes: 16,
                peer: 0,
                kind: EventKind::AmSend,
            },
        ]
    }

    #[test]
    fn chrome_json_shape() {
        let json = chrome_trace_json(&[(0, sample_events())]);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"name\":\"put\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"tid\":0"));
        // Balanced braces/brackets — a cheap structural validity check.
        assert_eq!(json.matches('{').count(), json.matches('}').count(),);
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn empty_trace_is_valid() {
        let json = chrome_trace_json(&[]);
        assert!(json.contains("\"traceEvents\":[\n\n]"));
    }

    #[test]
    fn chrome_json_labels_ranks_with_metadata() {
        let json = chrome_trace_json(&[(0, sample_events()), (3, vec![])]);
        assert!(json.contains("\"name\":\"process_name\""));
        assert!(json.contains("\"name\":\"rupcxx\""));
        assert!(json.contains("\"name\":\"thread_name\""));
        assert!(json.contains("\"name\":\"rank 0\""));
        assert!(json.contains("\"name\":\"rank 3\""));
        assert!(json.contains("\"ph\":\"M\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("plain_name"), "plain_name");
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("x\ny\tz\r"), "x\\ny\\tz\\r");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn summary_surfaces_ring_overflow() {
        // An overflowed ring must show its loss in the summary so a
        // truncated trace is never mistaken for a complete one.
        let t = crate::RankTrace::new(&crate::TraceConfig::events().with_ring_capacity(4));
        for _ in 0..10 {
            t.instant(EventKind::AmSend, 1, 8);
        }
        let m = t.snapshot();
        assert_eq!(m.ring_pushed, 10);
        assert_eq!(m.ring_lost, 6);
        let rendered = summary_table(&[(0, m, CommCounts::default())]).render();
        assert!(rendered.contains("events"));
        assert!(rendered.contains("evlost"));
        let row = rendered.lines().last().unwrap();
        assert!(row.contains("10"), "events column: {row}");
        assert!(row.contains('6'), "evlost column: {row}");
    }

    #[test]
    fn summary_includes_aggregate_row() {
        let m = MetricsSnapshot {
            advance_polls: 10,
            advance_work: 5,
            ..Default::default()
        };
        let c = CommCounts {
            retransmits: 3,
            wire_drops: 4,
            dup_arrivals: 2,
            ..Default::default()
        };
        let t = summary_table(&[(0, m, c), (1, m, c)]);
        assert_eq!(t.len(), 3); // rank 0, rank 1, all
        let rendered = t.render();
        assert!(rendered.contains("all"));
        assert!(rendered.contains("50.0"));
        // Fault columns present, with the aggregate row summing them.
        assert!(rendered.contains("retx"));
        assert!(rendered.contains("drops"));
        assert!(rendered.contains('8'), "aggregate wire_drops 4+4");
        // Aggregation occupancy columns are always present (zero when
        // the feature is off).
        assert!(rendered.contains("batches"));
        assert!(rendered.contains("occ p50"));
        // Read-cache columns are always present (zero when off).
        assert!(rendered.contains("cfills"));
        assert!(rendered.contains("hit%"));
    }

    #[test]
    fn summary_reports_cache_hit_rate() {
        let live = crate::metrics::Metrics::default();
        live.cache_fill_bytes.record(256);
        let c = CommCounts {
            cache_hits: 3,
            cache_misses: 1,
            ..Default::default()
        };
        let t = summary_table(&[(0, live.snapshot(), c)]);
        let rendered = t.render();
        let row = rendered.lines().last().unwrap();
        assert!(row.contains("75.0"), "hit%% column: {row}");
    }

    #[test]
    fn summary_reports_batch_occupancy() {
        let live = crate::metrics::Metrics::default();
        for frames in [4u64, 16, 64] {
            live.batch_frames.record(frames);
        }
        let t = summary_table(&[(0, live.snapshot(), CommCounts::default())]);
        let rendered = t.render();
        assert!(rendered.contains("batches"));
        // 3 batches flushed; the p50 bound of {4,16,64} is the upper
        // bound of 16's bucket, 32.
        let row = rendered.lines().last().unwrap();
        assert!(row.contains('3'), "batch count column: {row}");
        assert!(row.contains("32"), "occupancy p50 column: {row}");
    }
}
