//! The per-rank metrics registry: histograms + progress-engine counters.
//!
//! Fed only while tracing is on, and only with what the always-on
//! counters of [`crate::CommStats`] do not hold: operation latencies,
//! message sizes, `advance()` behaviour and task-queue depth. Live
//! atomics, with a snapshot producing a plain-old-data copy
//! (`RankTrace::snapshot`).

use crate::histogram::{HistogramSnapshot, Log2Histogram};
use std::sync::atomic::{AtomicU64, Ordering};

/// Declares the registry once: the live struct, its snapshot, the
/// snapshot function and the cross-rank merge all come from one list.
macro_rules! metrics {
    (
        histograms { $($(#[$hm:meta])* $h:ident,)* }
        counters { $($(#[$cm:meta])* $c:ident,)* }
    ) => {
        /// Live per-rank metrics.
        #[derive(Debug, Default)]
        pub struct Metrics {
            $($(#[$hm])* pub $h: Log2Histogram,)*
            $($(#[$cm])* pub $c: AtomicU64,)*
        }

        /// A point-in-time copy of [`Metrics`], plus the trace ring's
        /// accounting.
        #[derive(Clone, Copy, Debug, Default)]
        pub struct MetricsSnapshot {
            $($(#[$hm])* pub $h: HistogramSnapshot,)*
            $($(#[$cm])* pub $c: u64,)*
            /// Events ever pushed to this rank's trace ring (0 when the
            /// ring is off).
            pub ring_pushed: u64,
            /// Ring events lost to wraparound or writer collision.
            pub ring_lost: u64,
        }

        impl Metrics {
            /// Point-in-time copy of every histogram and counter (the
            /// ring fields are left to `RankTrace::snapshot`).
            pub(crate) fn snapshot(&self) -> MetricsSnapshot {
                MetricsSnapshot {
                    $($h: self.$h.snapshot(),)*
                    $($c: self.$c.load(Ordering::Relaxed),)*
                    ring_pushed: 0,
                    ring_lost: 0,
                }
            }
        }

        impl MetricsSnapshot {
            /// Merge another rank's snapshot into an aggregate.
            pub fn merged(&self, other: &MetricsSnapshot) -> MetricsSnapshot {
                MetricsSnapshot {
                    $($h: self.$h.merged(&other.$h),)*
                    $($c: self.$c + other.$c,)*
                    ring_pushed: self.ring_pushed + other.ring_pushed,
                    ring_lost: self.ring_lost + other.ring_lost,
                }
            }
        }
    };
}

metrics! {
    histograms {
        /// Remote put latency, ns (includes any synthetic wire time).
        put_ns,
        /// Remote get latency, ns.
        get_ns,
        /// Active-message handler execution time, ns.
        am_handle_ns,
        /// Duration of `advance()` calls that did work, ns.
        advance_ns,
        /// Barrier episode duration, ns.
        barrier_ns,
        /// `Event::wait` / `finish` / future blocking time, ns.
        wait_ns,
        /// Global lock acquisition time (including the spin), ns.
        lock_ns,
        /// Message/transfer sizes, bytes (puts, gets and AM payloads).
        msg_bytes,
        /// AM inbox depth sampled at each `advance()` poll.
        queue_depth,
        /// Batch occupancy: logical frames per flushed aggregation batch
        /// (count = batches sent).
        batch_frames,
        /// Line fill sizes of the software read cache, bytes (count =
        /// cache misses).
        cache_fill_bytes,
    }
    counters {
        /// Total `advance()` calls (polls).
        advance_polls,
        /// `advance()` calls that processed at least one message.
        advance_work,
        /// Messages processed by `advance()` in total.
        advance_msgs,
    }
}

impl MetricsSnapshot {
    /// Fraction of `advance()` polls that found work (the progress
    /// engine's poll-to-work ratio; low values mean wasted spinning).
    pub fn poll_work_ratio(&self) -> f64 {
        if self.advance_polls == 0 {
            0.0
        } else {
            self.advance_work as f64 / self.advance_polls as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_copies_counters() {
        let m = Metrics::default();
        m.put_ns.record(100);
        m.advance_polls.fetch_add(4, Ordering::Relaxed);
        m.advance_work.fetch_add(1, Ordering::Relaxed);
        let s = m.snapshot();
        assert_eq!(s.put_ns.count, 1);
        assert_eq!(s.advance_polls, 4);
        assert!((s.poll_work_ratio() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn empty_ratio_is_zero() {
        assert_eq!(MetricsSnapshot::default().poll_work_ratio(), 0.0);
    }

    #[test]
    fn cache_fill_histogram_merges() {
        let m = Metrics::default();
        m.cache_fill_bytes.record(256);
        let s = m.snapshot();
        assert_eq!(s.cache_fill_bytes.count, 1);
        assert_eq!(s.merged(&s).cache_fill_bytes.count, 2);
    }

    #[test]
    fn merged_aggregates_ranks() {
        let a = Metrics::default();
        a.msg_bytes.record(8);
        a.advance_polls.fetch_add(2, Ordering::Relaxed);
        let b = Metrics::default();
        b.msg_bytes.record(1024);
        b.advance_polls.fetch_add(3, Ordering::Relaxed);
        let m = a.snapshot().merged(&b.snapshot());
        assert_eq!(m.msg_bytes.count, 2);
        assert_eq!(m.advance_polls, 5);
    }
}
