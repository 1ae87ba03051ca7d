//! The per-rank telemetry model: one counter table, one call per fact.
//!
//! Every observable fact a rank produces is recorded by one [`Telemetry`]
//! method: put, get, local op, AM send, batch flush, wire drop,
//! retransmit, duplicate, reorder, cache hit, cache fill and
//! invalidation. The method bumps the fact's single counter in
//! [`CommStats`]; only when tracing or profiling is on does it also feed
//! the metrics histograms, the trace ring and the profiler ring.
//!
//! The reproduction harnesses read the counters to (a) sanity-check
//! benchmark communication volumes and (b) feed the `rupcxx-perfmodel`
//! projections (message counts × modeled per-message cost at paper-scale
//! machines).

use crate::ring::EventKind;
use crate::span::{ProfKind, ProfSpan, ProfState};
use crate::RankTrace;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Per-destination op/byte counters. Allocated only when the profiler is
/// on (`RUPCXX_PROF`) — the per-dest traffic shape is what an adaptive
/// aggregation policy needs, but it is ranks × 16 bytes of atomics per
/// endpoint, so the default path never pays for it.
#[derive(Debug)]
pub struct PerDestStats {
    ops: Box<[AtomicU64]>,
    bytes: Box<[AtomicU64]>,
}

impl PerDestStats {
    fn new(ranks: usize) -> Self {
        PerDestStats {
            ops: (0..ranks).map(|_| AtomicU64::new(0)).collect(),
            bytes: (0..ranks).map(|_| AtomicU64::new(0)).collect(),
        }
    }
}

/// Declares the counter list once: the live [`CommStats`] table, its
/// [`CommCounts`] snapshot, and the snapshot, clear, equality and
/// element-wise arithmetic over every counter.
macro_rules! counters {
    ($($(#[$meta:meta])* $name:ident,)*) => {
        /// Live, thread-safe counters for one endpoint.
        ///
        /// Aligned to 128 bytes (a prefetched cache-line pair) so the
        /// owner's per-op counter writes never share a block with the
        /// endpoint fields peers read on every remote op, such as the
        /// segment pointer.
        #[derive(Debug, Default)]
        #[repr(align(128))]
        pub struct CommStats {
            $($(#[$meta])* pub $name: AtomicU64,)*
            /// Completed [`CommStats::reset`] calls (see that method's
            /// caveats).
            epoch: AtomicU64,
            /// Per-destination accounting (unset unless the profiler
            /// enabled it).
            per_dest: OnceLock<PerDestStats>,
        }

        /// A point-in-time copy of [`CommStats`].
        ///
        /// Equality compares the traffic counters only — the bookkeeping
        /// `epoch` is excluded, so snapshots of identical traffic compare
        /// equal across resets.
        #[derive(Clone, Copy, Debug, Default)]
        pub struct CommCounts {
            $($(#[$meta])* pub $name: u64,)*
            /// Reset epoch of the endpoint at snapshot time (see
            /// [`CommStats::epoch`]). Not part of equality.
            pub epoch: u64,
        }

        impl CommStats {
            /// Snapshot the counters (including the reset epoch, so the
            /// snapshot can later serve as a [`CommStats::delta_since`]
            /// baseline).
            pub fn snapshot(&self) -> CommCounts {
                CommCounts {
                    $($name: self.$name.load(Ordering::Relaxed),)*
                    epoch: self.epoch.load(Ordering::Acquire),
                }
            }

            fn clear(&self) {
                $(self.$name.store(0, Ordering::Relaxed);)*
            }
        }

        impl CommCounts {
            /// `f` applied to each counter pair, stamped with `epoch`.
            fn zip(&self, other: &CommCounts, epoch: u64, f: fn(u64, u64) -> u64) -> CommCounts {
                CommCounts {
                    $($name: f(self.$name, other.$name),)*
                    epoch,
                }
            }
        }

        impl PartialEq for CommCounts {
            fn eq(&self, other: &Self) -> bool {
                true $(&& self.$name == other.$name)*
            }
        }
    };
}

counters! {
    /// Remote puts initiated (remote atomics included).
    puts,
    /// Bytes written by remote puts.
    put_bytes,
    /// Remote gets initiated.
    gets,
    /// Bytes read by remote gets.
    get_bytes,
    /// Active messages sent.
    ams_sent,
    /// Payload bytes in active messages sent.
    am_bytes,
    /// Active messages executed locally (received + handled).
    ams_handled,
    /// Operations that resolved to local memory (no communication).
    local_ops,
    /// Frames retransmitted by the reliable AM layer (initiator side).
    /// Nonzero only under fault injection (`RUPCXX_FAULTS`).
    retransmits,
    /// Transmission attempts lost on the wire by the fault plan
    /// (initiator side). Every wire drop costs one retransmit, so at
    /// quiescence `retransmits == wire_drops` unless a peer was declared
    /// unreachable.
    wire_drops,
    /// Duplicate frame arrivals discarded by the dedup window (receiver
    /// side).
    dup_arrivals,
    /// Frames that arrived ahead of a predecessor and were parked in the
    /// receiver's reorder buffer before in-order release (receiver side).
    reorders,
    /// Logical fine-grained operations absorbed by the per-destination
    /// aggregation layer (initiator side). Nonzero only when aggregation
    /// is enabled (`RUPCXX_AGG`) *and* the op was remote.
    agg_ops,
    /// Wire frames (batches) the aggregation layer actually injected;
    /// each batch is one active message carrying `agg_ops / agg_batches`
    /// logical operations on average (initiator side).
    agg_batches,
    /// Remote gets served from this rank's software read cache without
    /// touching the fabric. Nonzero only with `RUPCXX_CACHE` enabled.
    cache_hits,
    /// Remote gets that missed the read cache and filled a whole line
    /// through one fabric get.
    cache_misses,
    /// Cached lines dropped by write-through or sync-point invalidation.
    cache_invalidations,
}

impl CommStats {
    /// Reset all counters to zero.
    ///
    /// **Semantics:** the counters are cleared one at a time with relaxed
    /// stores — the reset is *not* atomic as a whole. An operation racing
    /// with `reset()` may land some of its increments before the clear and
    /// some after, so counts taken around a concurrent reset can be off by
    /// the in-flight operations. Call it only at quiescent points (e.g.
    /// between benchmark phases, after a barrier). To measure a phase
    /// *without* resetting — immune to this race by construction — take a
    /// baseline [`CommStats::snapshot`] and use [`CommStats::delta_since`].
    pub fn reset(&self) {
        self.clear();
        if let Some(pd) = self.per_dest.get() {
            for d in pd.ops.iter().chain(pd.bytes.iter()) {
                d.store(0, Ordering::Relaxed);
            }
        }
        self.epoch.fetch_add(1, Ordering::Release);
    }

    /// Switch on per-destination accounting for `ranks` destinations.
    /// Idempotent; called by the endpoint constructor when the profiler
    /// is enabled.
    pub fn enable_per_dest(&self, ranks: usize) {
        let _ = self.per_dest.set(PerDestStats::new(ranks));
    }

    /// Count one initiated operation of `bytes` towards `dst`. One
    /// untaken branch when per-destination accounting is off.
    #[inline]
    fn count_dest(&self, dst: usize, bytes: u64) {
        if let Some(pd) = self.per_dest.get() {
            pd.ops[dst].fetch_add(1, Ordering::Relaxed);
            pd.bytes[dst].fetch_add(bytes, Ordering::Relaxed);
        }
    }

    /// Per-destination `(ops, bytes)` snapshot, indexed by destination
    /// rank. `None` unless [`CommStats::enable_per_dest`] ran.
    pub fn per_dest(&self) -> Option<Vec<(u64, u64)>> {
        self.per_dest.get().map(|pd| {
            pd.ops
                .iter()
                .zip(pd.bytes.iter())
                .map(|(o, b)| (o.load(Ordering::Relaxed), b.load(Ordering::Relaxed)))
                .collect()
        })
    }

    /// Number of completed [`CommStats::reset`] calls. A phase measurement
    /// is only valid if the epoch is unchanged between its two snapshots.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Counters accumulated since `baseline` (an earlier
    /// [`CommStats::snapshot`] of this endpoint): the epoch-based way to
    /// measure a phase without resetting.
    ///
    /// # Panics
    /// Panics if the counters were `reset()` after `baseline` was taken
    /// (the subtraction would underflow and the delta would be garbage).
    pub fn delta_since(&self, baseline: &CommCounts) -> CommCounts {
        assert_eq!(
            self.epoch(),
            baseline.epoch,
            "CommStats::delta_since: counters were reset after the baseline snapshot"
        );
        self.snapshot().since(baseline)
    }
}

impl Eq for CommCounts {}

impl CommCounts {
    /// Total remote operations initiated (puts + gets + AMs).
    pub fn remote_ops(&self) -> u64 {
        self.puts + self.gets + self.ams_sent
    }

    /// Total bytes moved by this endpoint's initiated operations.
    pub fn total_bytes(&self) -> u64 {
        self.put_bytes + self.get_bytes + self.am_bytes
    }

    /// Fraction of cached remote gets served without touching the fabric
    /// (`hits / (hits + misses)`; 0 when the cache saw no traffic).
    pub fn cache_hit_ratio(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Element-wise difference (`self - earlier`), for measuring a phase.
    /// Both snapshots must come from the same epoch (no intervening
    /// `reset()`), otherwise the subtraction underflows.
    pub fn since(&self, earlier: &CommCounts) -> CommCounts {
        self.zip(earlier, self.epoch, |a, b| a - b)
    }

    /// Element-wise sum, for aggregating over ranks (the result's `epoch`
    /// is the max of the inputs' — bookkeeping only).
    pub fn merged(&self, other: &CommCounts) -> CommCounts {
        self.zip(other, self.epoch.max(other.epoch), |a, b| a + b)
    }
}

/// One rank's recording handle: its counters, trace and profiler. Each
/// method records one fact — the counter always, the trace and profiler
/// streams only when they are on (one untaken branch each otherwise).
#[derive(Clone, Copy, Debug)]
pub struct Telemetry<'a> {
    /// The recording rank.
    pub rank: usize,
    /// Its counters.
    pub stats: &'a CommStats,
    /// Its trace state.
    pub trace: &'a RankTrace,
    /// Its profiler state, when the profiler is on.
    pub prof: Option<&'a ProfState>,
}

impl Telemetry<'_> {
    /// A one-sided op of `bytes` on `peer`'s memory that started at
    /// `start` (from [`RankTrace::start`]); `kind` is [`EventKind::Put`]
    /// (remote atomics included) or [`EventKind::Get`]. An op on this
    /// rank's own memory is a local op and is not traced.
    #[inline]
    pub fn rma(self, kind: EventKind, peer: usize, bytes: u64, start: u64) {
        self.count_rma(kind, peer, bytes);
        if peer != self.rank {
            self.trace.span(kind, peer as i32, bytes, start);
        }
    }

    /// The counters of [`Telemetry::rma`] alone, for the word fast path
    /// that runs only while tracing is off: one add for a local op, two
    /// plus the per-destination check for a remote one.
    #[inline]
    pub fn count_rma(self, kind: EventKind, peer: usize, bytes: u64) {
        let s = self.stats;
        if peer == self.rank {
            s.local_ops.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let (ops, total) = if kind == EventKind::Put {
            (&s.puts, &s.put_bytes)
        } else {
            (&s.gets, &s.get_bytes)
        };
        ops.fetch_add(1, Ordering::Relaxed);
        total.fetch_add(bytes, Ordering::Relaxed);
        s.count_dest(peer, bytes);
    }

    /// An active message to `peer` carrying `payload` argument bytes;
    /// `wire` (the payload plus any opaque-task header) is what the
    /// per-destination total, the size histogram and the trace see.
    /// Returns the message's causal span when the profiler is on.
    #[inline]
    pub fn am_send(self, peer: usize, payload: u64, wire: u64) -> Option<ProfSpan> {
        self.stats.ams_sent.fetch_add(1, Ordering::Relaxed);
        self.stats.am_bytes.fetch_add(payload, Ordering::Relaxed);
        self.stats.count_dest(peer, wire);
        self.trace.instant(EventKind::AmSend, peer as i32, wire);
        self.prof.map(|p| p.record_send(peer as i32))
    }

    /// An aggregation batch of `frames` logical ops flushed to `peer`.
    #[inline]
    pub fn batch_flush(self, peer: usize, frames: u64) {
        self.stats.agg_ops.fetch_add(frames, Ordering::Relaxed);
        self.stats.agg_batches.fetch_add(1, Ordering::Relaxed);
        self.trace
            .instant(EventKind::BatchFlush, peer as i32, frames);
    }

    /// A transmission attempt to `peer` lost on the wire.
    pub fn wire_drop(self, peer: usize) {
        self.stats.wire_drops.fetch_add(1, Ordering::Relaxed);
        self.trace.instant(EventKind::WireDrop, peer as i32, 0);
    }

    /// A frame to `peer` retransmitted as attempt `attempt`; `span` ties
    /// it to the original injection (0 for an inline RMA retry, which
    /// carries no wire span).
    pub fn retransmit(self, peer: usize, span: u64, attempt: u64) {
        self.stats.retransmits.fetch_add(1, Ordering::Relaxed);
        self.trace.instant(EventKind::AmRetransmit, peer as i32, 0);
        if let Some(p) = self.prof {
            p.record_instant(ProfKind::Retransmit, span, peer as i32, attempt);
        }
    }

    /// A duplicate arrival from `peer`, discarded by the dedup window.
    pub fn dup(self, peer: usize) {
        self.stats.dup_arrivals.fetch_add(1, Ordering::Relaxed);
        self.trace.instant(EventKind::AmDup, peer as i32, 0);
    }

    /// An arrival parked ahead of a missing predecessor.
    pub fn reorder(self) {
        self.stats.reorders.fetch_add(1, Ordering::Relaxed);
    }

    /// A remote get of `bytes` on `peer`'s memory served from the read
    /// cache.
    #[inline]
    pub fn cache_hit(self, peer: usize, bytes: u64) {
        self.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
        self.trace.instant(EventKind::CacheHit, peer as i32, bytes);
    }

    /// A read-cache miss that filled a `bytes`-byte line from `peer`.
    pub fn cache_fill(self, peer: usize, bytes: u64) {
        self.stats.cache_misses.fetch_add(1, Ordering::Relaxed);
        self.trace.instant(EventKind::CacheFill, peer as i32, bytes);
    }

    /// `lines` cached lines dropped by write-through or a sync point.
    #[inline]
    pub fn invalidated(self, lines: u64) {
        if lines != 0 {
            self.stats
                .cache_invalidations
                .fetch_add(lines, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_and_reset() {
        let s = CommStats::default();
        s.puts.fetch_add(3, Ordering::Relaxed);
        s.put_bytes.fetch_add(24, Ordering::Relaxed);
        let c = s.snapshot();
        assert_eq!(c.puts, 3);
        assert_eq!(c.put_bytes, 24);
        s.reset();
        assert_eq!(s.snapshot(), CommCounts::default());
    }

    #[test]
    fn epoch_and_delta_since() {
        let s = CommStats::default();
        s.puts.fetch_add(2, Ordering::Relaxed);
        let base = s.snapshot();
        s.puts.fetch_add(5, Ordering::Relaxed);
        s.gets.fetch_add(1, Ordering::Relaxed);
        let d = s.delta_since(&base);
        assert_eq!(d.puts, 5);
        assert_eq!(d.gets, 1);
        assert_eq!(s.epoch(), 0);
        s.reset();
        assert_eq!(s.epoch(), 1);
        // Snapshots of identical traffic compare equal across resets.
        assert_eq!(s.snapshot(), CommCounts::default());
    }

    #[test]
    #[should_panic(expected = "reset after the baseline")]
    fn delta_since_detects_reset() {
        let s = CommStats::default();
        s.puts.fetch_add(2, Ordering::Relaxed);
        let base = s.snapshot();
        s.reset();
        let _ = s.delta_since(&base);
    }

    #[test]
    fn delta_since_valid_again_after_fresh_baseline_in_new_epoch() {
        // A reset invalidates old baselines, but a baseline taken *after*
        // the reset measures the new epoch normally.
        let s = CommStats::default();
        s.puts.fetch_add(9, Ordering::Relaxed);
        s.reset();
        s.reset();
        assert_eq!(s.epoch(), 2);
        let base = s.snapshot();
        assert_eq!(base.epoch, 2);
        s.puts.fetch_add(4, Ordering::Relaxed);
        s.retransmits.fetch_add(3, Ordering::Relaxed);
        let d = s.delta_since(&base);
        assert_eq!(d.puts, 4);
        assert_eq!(d.retransmits, 3);
        assert_eq!(d.epoch, 2);
    }

    #[test]
    fn fault_counters_round_trip_snapshot_reset_delta() {
        let s = CommStats::default();
        s.retransmits.fetch_add(5, Ordering::Relaxed);
        s.wire_drops.fetch_add(5, Ordering::Relaxed);
        s.dup_arrivals.fetch_add(2, Ordering::Relaxed);
        s.reorders.fetch_add(1, Ordering::Relaxed);
        let base = s.snapshot();
        assert_eq!(base.retransmits, 5);
        assert_eq!(base.wire_drops, 5);
        assert_eq!(base.dup_arrivals, 2);
        assert_eq!(base.reorders, 1);
        s.wire_drops.fetch_add(2, Ordering::Relaxed);
        assert_eq!(s.delta_since(&base).wire_drops, 2);
        s.reset();
        assert_eq!(s.snapshot(), CommCounts::default());
        // Fault counters participate in equality: same traffic but a
        // different drop count must not compare equal.
        let a = CommCounts {
            wire_drops: 1,
            ..Default::default()
        };
        assert_ne!(a, CommCounts::default());
    }

    #[test]
    fn fault_counters_in_since_and_merged() {
        let a = CommCounts {
            retransmits: 7,
            wire_drops: 7,
            dup_arrivals: 3,
            reorders: 2,
            ..Default::default()
        };
        let b = CommCounts {
            retransmits: 2,
            wire_drops: 2,
            dup_arrivals: 1,
            reorders: 2,
            ..Default::default()
        };
        let d = a.since(&b);
        assert_eq!(d.retransmits, 5);
        assert_eq!(d.wire_drops, 5);
        assert_eq!(d.dup_arrivals, 2);
        assert_eq!(d.reorders, 0);
        let m = a.merged(&b);
        assert_eq!(m.retransmits, 9);
        assert_eq!(m.wire_drops, 9);
        assert_eq!(m.dup_arrivals, 4);
        assert_eq!(m.reorders, 4);
    }

    #[test]
    fn aggregation_counters_round_trip() {
        let s = CommStats::default();
        s.agg_ops.fetch_add(128, Ordering::Relaxed);
        s.agg_batches.fetch_add(2, Ordering::Relaxed);
        let base = s.snapshot();
        assert_eq!(base.agg_ops, 128);
        assert_eq!(base.agg_batches, 2);
        s.agg_ops.fetch_add(64, Ordering::Relaxed);
        s.agg_batches.fetch_add(1, Ordering::Relaxed);
        let d = s.delta_since(&base);
        assert_eq!((d.agg_ops, d.agg_batches), (64, 1));
        let m = base.merged(&s.snapshot());
        assert_eq!((m.agg_ops, m.agg_batches), (320, 5));
        s.reset();
        assert_eq!(s.snapshot(), CommCounts::default());
        // The aggregation counters participate in equality: coalescing the
        // same logical traffic into a different number of wire frames must
        // not compare equal.
        let a = CommCounts {
            agg_batches: 1,
            ..Default::default()
        };
        assert_ne!(a, CommCounts::default());
    }

    #[test]
    fn cache_counters_round_trip() {
        let s = CommStats::default();
        s.cache_hits.fetch_add(90, Ordering::Relaxed);
        s.cache_misses.fetch_add(10, Ordering::Relaxed);
        s.cache_invalidations.fetch_add(4, Ordering::Relaxed);
        let base = s.snapshot();
        assert_eq!(base.cache_hits, 90);
        assert_eq!(base.cache_misses, 10);
        assert_eq!(base.cache_invalidations, 4);
        s.cache_hits.fetch_add(10, Ordering::Relaxed);
        s.cache_invalidations.fetch_add(1, Ordering::Relaxed);
        let d = s.delta_since(&base);
        assert_eq!(
            (d.cache_hits, d.cache_misses, d.cache_invalidations),
            (10, 0, 1)
        );
        let m = base.merged(&s.snapshot());
        assert_eq!(
            (m.cache_hits, m.cache_misses, m.cache_invalidations),
            (190, 20, 9)
        );
        s.reset();
        assert_eq!(s.snapshot(), CommCounts::default());
        // Cache counters participate in equality: the same logical reads
        // served with a different hit pattern must not compare equal.
        let a = CommCounts {
            cache_hits: 1,
            ..Default::default()
        };
        assert_ne!(a, CommCounts::default());
    }

    #[test]
    fn per_dest_off_by_default_and_counts_when_enabled() {
        let s = CommStats::default();
        assert!(s.per_dest().is_none());
        s.count_dest(0, 8); // no-op while disabled
        s.enable_per_dest(3);
        assert_eq!(s.per_dest().unwrap(), vec![(0, 0); 3]);
        s.count_dest(1, 8);
        s.count_dest(1, 16);
        s.count_dest(2, 64);
        let pd = s.per_dest().unwrap();
        assert_eq!(pd, vec![(0, 0), (2, 24), (1, 64)]);
        s.reset();
        assert_eq!(s.per_dest().unwrap(), vec![(0, 0); 3]);
        // enable is idempotent — counters survive a second call.
        s.count_dest(0, 1);
        s.enable_per_dest(3);
        assert_eq!(s.per_dest().unwrap()[0], (1, 1));
    }

    #[test]
    fn since_and_merged() {
        let a = CommCounts {
            puts: 5,
            put_bytes: 40,
            ..Default::default()
        };
        let b = CommCounts {
            puts: 2,
            put_bytes: 16,
            ..Default::default()
        };
        let d = a.since(&b);
        assert_eq!(d.puts, 3);
        assert_eq!(d.put_bytes, 24);
        let m = a.merged(&b);
        assert_eq!(m.puts, 7);
        assert_eq!(m.total_bytes(), 56);
        assert_eq!(m.remote_ops(), 7);
    }

    fn tel<'a>(
        stats: &'a CommStats,
        trace: &'a RankTrace,
        prof: Option<&'a ProfState>,
    ) -> Telemetry<'a> {
        Telemetry {
            rank: 0,
            stats,
            trace,
            prof,
        }
    }

    #[test]
    fn each_fact_bumps_its_counter_with_every_stream_off() {
        let (s, t) = (CommStats::default(), RankTrace::disabled());
        let tel = tel(&s, &t, None);
        tel.rma(EventKind::Put, 1, 8, t.start());
        tel.rma(EventKind::Get, 2, 16, t.start());
        tel.rma(EventKind::Put, 0, 8, t.start());
        assert!(tel.am_send(1, 4, 4).is_none());
        tel.batch_flush(1, 10);
        tel.wire_drop(1);
        tel.retransmit(1, 0, 1);
        tel.dup(1);
        tel.reorder();
        tel.cache_hit(1, 8);
        tel.cache_fill(1, 64);
        tel.invalidated(3);
        tel.invalidated(0);
        let c = s.snapshot();
        let expect = CommCounts {
            puts: 1,
            put_bytes: 8,
            gets: 1,
            get_bytes: 16,
            local_ops: 1,
            ams_sent: 1,
            am_bytes: 4,
            agg_ops: 10,
            agg_batches: 1,
            wire_drops: 1,
            retransmits: 1,
            dup_arrivals: 1,
            reorders: 1,
            cache_hits: 1,
            cache_misses: 1,
            cache_invalidations: 3,
            ..Default::default()
        };
        assert_eq!(c, expect);
        assert!(t.events().is_empty());
    }

    #[test]
    fn traced_facts_feed_ring_histograms_and_profiler() {
        let s = CommStats::default();
        let t = RankTrace::new(&crate::TraceConfig::events().with_ring_capacity(64));
        let p = ProfState::new(0, &crate::ProfConfig::on());
        let tel = tel(&s, &t, Some(&p));
        tel.rma(EventKind::Put, 1, 8, t.start());
        tel.rma(EventKind::Put, 0, 8, t.start()); // local: counted, not traced
        let span = tel.am_send(2, 0, 64).expect("profiler on");
        tel.retransmit(2, span.id, 1);
        tel.cache_fill(1, 256);
        let kinds: Vec<EventKind> = t.events().iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            [
                EventKind::Put,
                EventKind::AmSend,
                EventKind::AmRetransmit,
                EventKind::CacheFill
            ]
        );
        let m = t.snapshot();
        assert_eq!((m.put_ns.count, m.msg_bytes.count), (1, 2));
        assert_eq!(m.cache_fill_bytes.max, 256);
        let prof: Vec<(ProfKind, u64)> =
            p.ring.snapshot().iter().map(|e| (e.kind, e.span)).collect();
        assert_eq!(
            prof,
            [(ProfKind::Send, span.id), (ProfKind::Retransmit, span.id)]
        );
        let c = s.snapshot();
        assert_eq!((c.puts, c.local_ops, c.ams_sent, c.am_bytes), (1, 1, 1, 0));
    }

    #[test]
    fn cache_hit_ratio() {
        assert_eq!(CommCounts::default().cache_hit_ratio(), 0.0);
        let c = CommCounts {
            cache_hits: 3,
            cache_misses: 1,
            ..Default::default()
        };
        assert!((c.cache_hit_ratio() - 0.75).abs() < 1e-9);
    }
}
