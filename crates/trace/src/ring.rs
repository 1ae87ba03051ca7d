//! A lock-free, fixed-capacity ring buffer of events.
//!
//! One ring per rank and stream. The common case is a single writer (the rank
//! thread), but concurrent mode adds a progress worker with the same rank
//! id, so writes must be thread-safe: a writer claims a slot with a
//! global `fetch_add` (which doubles as the event's monotonic sequence
//! number), flips the slot's version counter odd→even around the write
//! (a seqlock), and *drops* the event — counting it — if it collides with
//! a writer that lags a full ring behind. Readers only run at export time
//! and retry torn slots, so the hot path never blocks.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicU64, Ordering};

/// What happened. Spans carry a duration; instants have `dur_ns == 0`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum EventKind {
    /// One-sided remote write (span; `bytes` = payload).
    Put,
    /// One-sided remote read (span; `bytes` = payload).
    Get,
    /// Active message sent (instant; `bytes` = packed args).
    AmSend,
    /// Active message executed by the progress engine (span).
    AmHandle,
    /// Async task enqueued towards `peer` (instant).
    TaskSpawn,
    /// One `advance()` call that did work (span; `bytes` = messages run).
    Advance,
    /// Barrier episode (span).
    Barrier,
    /// `Event::wait` block (span).
    EventWait,
    /// `finish` scope quiescence wait (span).
    FinishWait,
    /// Global lock acquisition, including the spin (span).
    LockAcquire,
    /// Frame retransmitted by the reliable AM layer (instant; fault
    /// injection only).
    AmRetransmit,
    /// Transmission attempt lost on the wire by the fault plan (instant).
    WireDrop,
    /// Duplicate arrival discarded by the dedup window (instant).
    AmDup,
    /// Aggregation buffer flushed as one batch AM (instant; `bytes` =
    /// number of logical frames the batch carries, `peer` = destination).
    BatchFlush,
    /// Software read-cache miss filled a line through the fabric
    /// (instant; `bytes` = line fill size, `peer` = owning rank).
    CacheFill,
    /// Remote get served from the software read cache (instant; `bytes`
    /// = bytes returned, `peer` = owning rank).
    CacheHit,
}

impl EventKind {
    /// Stable name used by the exporters.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Put => "put",
            EventKind::Get => "get",
            EventKind::AmSend => "am_send",
            EventKind::AmHandle => "am_handle",
            EventKind::TaskSpawn => "task_spawn",
            EventKind::Advance => "advance",
            EventKind::Barrier => "barrier",
            EventKind::EventWait => "event_wait",
            EventKind::FinishWait => "finish_wait",
            EventKind::LockAcquire => "lock_acquire",
            EventKind::AmRetransmit => "am_retransmit",
            EventKind::WireDrop => "wire_drop",
            EventKind::AmDup => "am_dup",
            EventKind::BatchFlush => "batch_flush",
            EventKind::CacheFill => "cache_fill",
            EventKind::CacheHit => "cache_hit",
        }
    }

    /// Exporter category (Chrome trace `cat` field).
    pub fn category(self) -> &'static str {
        match self {
            EventKind::Put | EventKind::Get => "rma",
            EventKind::AmSend
            | EventKind::AmHandle
            | EventKind::TaskSpawn
            | EventKind::BatchFlush => "am",
            EventKind::Advance => "progress",
            EventKind::Barrier
            | EventKind::EventWait
            | EventKind::FinishWait
            | EventKind::LockAcquire => "sync",
            EventKind::AmRetransmit | EventKind::WireDrop | EventKind::AmDup => "fault",
            EventKind::CacheFill | EventKind::CacheHit => "cache",
        }
    }

    /// True for duration events, false for instants.
    pub fn is_span(self) -> bool {
        !matches!(
            self,
            EventKind::AmSend
                | EventKind::TaskSpawn
                | EventKind::AmRetransmit
                | EventKind::WireDrop
                | EventKind::AmDup
                | EventKind::BatchFlush
                | EventKind::CacheFill
                | EventKind::CacheHit
        )
    }
}

/// One recorded event. `peer` is the other rank involved (-1 = none).
#[derive(Clone, Copy, Debug)]
pub struct TraceEvent {
    /// Monotonic per-rank sequence number (ring claim index).
    pub seq: u64,
    /// Start timestamp, ns since the trace epoch.
    pub ts_ns: u64,
    /// Duration in ns (0 for instants).
    pub dur_ns: u64,
    /// Bytes moved, messages processed, or 0 — kind-dependent.
    pub bytes: u64,
    /// Peer rank, -1 when not applicable.
    pub peer: i32,
    /// Event kind.
    pub kind: EventKind,
}

impl RingEvent for TraceEvent {
    fn seq(&self) -> u64 {
        self.seq
    }
    fn set_seq(&mut self, seq: u64) {
        self.seq = seq;
    }
}

/// An event a [`Ring`] can hold: plain data carrying the claim sequence
/// number the ring stamps on it.
pub trait RingEvent: Copy {
    /// The claim sequence number.
    fn seq(&self) -> u64;
    /// Stamp the claim sequence number.
    fn set_seq(&mut self, seq: u64);
}

struct Slot<E> {
    /// Seqlock version: odd while a writer owns the slot; `version / 2`
    /// is the number of completed writes.
    version: AtomicU64,
    /// Initialized once `version` has reached 2.
    event: UnsafeCell<MaybeUninit<E>>,
}

/// A bounded seqlock ring of events: the trace stream ([`EventRing`]) and
/// the profiler's causal stream (`ProfState::ring`) are both one.
pub struct Ring<E> {
    slots: Box<[Slot<E>]>,
    claim: AtomicU64,
    dropped: AtomicU64,
}

/// The per-rank trace event ring.
pub type EventRing = Ring<TraceEvent>;

// SAFETY: `claim` and `dropped` are atomics. A slot's event is written only
// by the one writer that moved its `version` from even to odd with a CAS,
// and published by the Release store of the next even version; readers copy
// it only while the version is even and nonzero (so at least one write has
// completed and the value is initialized) and discard the copy unless the
// version is unchanged afterwards. Events are `Copy` plain data and cross
// threads by value, hence the `Send` bound.
unsafe impl<E: RingEvent + Send> Sync for Ring<E> {}

impl<E: RingEvent> Ring<E> {
    /// A ring holding up to `capacity` events (rounded up to at least 2).
    pub fn new(capacity: usize) -> Self {
        Ring {
            slots: (0..capacity.max(2))
                .map(|_| Slot {
                    version: AtomicU64::new(0),
                    event: UnsafeCell::new(MaybeUninit::uninit()),
                })
                .collect(),
            claim: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Capacity in events.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total events ever pushed (successfully claimed).
    pub fn pushed(&self) -> u64 {
        self.claim.load(Ordering::Relaxed)
    }

    /// Events dropped due to writer collision on a wrapped slot.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Events no longer retrievable: writer-collision drops plus events
    /// overwritten by wraparound once `pushed` exceeds the capacity.
    pub fn lost(&self) -> u64 {
        self.dropped() + self.pushed().saturating_sub(self.capacity() as u64)
    }

    /// Record an event, stamping its sequence number. Lock-free.
    #[inline]
    pub fn push(&self, mut ev: E) {
        let seq = self.claim.fetch_add(1, Ordering::Relaxed);
        ev.set_seq(seq);
        let slot = &self.slots[(seq % self.slots.len() as u64) as usize];
        let v = slot.version.load(Ordering::Acquire);
        if v & 1 == 1
            || slot
                .version
                .compare_exchange(v, v + 1, Ordering::Acquire, Ordering::Relaxed)
                .is_err()
        {
            // Another writer owns this slot (it lapped us or we lapped
            // it); losing one event beats blocking the hot path.
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        // SAFETY: the CAS above made this thread the slot's only writer
        // until the store below; readers discard what they copy meanwhile.
        unsafe { (*slot.event.get()).write(ev) };
        slot.version.store(v + 2, Ordering::Release);
    }

    /// Copy out the surviving events, oldest first. Torn slots (a writer
    /// was mid-flight) are skipped. Intended for export at quiescence.
    pub fn snapshot(&self) -> Vec<E> {
        let mut out = Vec::new();
        for slot in self.slots.iter() {
            let v0 = slot.version.load(Ordering::Acquire);
            if v0 == 0 || v0 & 1 == 1 {
                continue; // never written, or write in flight
            }
            // SAFETY: an even nonzero version means a write completed, so
            // the slot is initialized; the value is used only if no writer
            // started while it was copied.
            let ev = unsafe { *slot.event.get() };
            if slot.version.load(Ordering::Acquire) != v0 {
                continue; // torn read
            }
            // SAFETY: as above — the copy is of an initialized event.
            out.push(unsafe { ev.assume_init() });
        }
        out.sort_unstable_by_key(|e| e.seq());
        out
    }
}

impl<E> std::fmt::Debug for Ring<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ring")
            .field("capacity", &self.slots.len())
            .field("pushed", &self.claim.load(Ordering::Relaxed))
            .field("dropped", &self.dropped.load(Ordering::Relaxed))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::now_ns;

    fn ev(kind: EventKind, bytes: u64) -> TraceEvent {
        TraceEvent {
            seq: 0,
            ts_ns: now_ns(),
            dur_ns: 1,
            bytes,
            peer: 1,
            kind,
        }
    }

    #[test]
    fn push_and_snapshot_in_order() {
        let r = EventRing::new(16);
        for i in 0..10 {
            r.push(ev(EventKind::Put, i));
        }
        let s = r.snapshot();
        assert_eq!(s.len(), 10);
        assert_eq!(
            s.iter().map(|e| e.bytes).collect::<Vec<_>>(),
            (0..10).collect::<Vec<_>>()
        );
        assert!(s.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn wraparound_keeps_newest_capacity_events() {
        let cap = 8;
        let r = EventRing::new(cap);
        for i in 0..(3 * cap as u64) {
            r.push(ev(EventKind::Get, i));
        }
        assert_eq!(r.pushed(), 3 * cap as u64);
        let s = r.snapshot();
        assert_eq!(s.len(), cap);
        // Oldest surviving event is exactly `pushed - cap`.
        let bytes: Vec<u64> = s.iter().map(|e| e.bytes).collect();
        assert_eq!(bytes, (2 * cap as u64..3 * cap as u64).collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_writers_never_corrupt() {
        let r = std::sync::Arc::new(EventRing::new(64));
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let r = r.clone();
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        r.push(ev(EventKind::AmHandle, t * 1_000_000 + i));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(r.pushed(), 40_000);
        let s = r.snapshot();
        // Every surviving event is one of the written payloads, intact.
        for e in &s {
            let t = e.bytes / 1_000_000;
            let i = e.bytes % 1_000_000;
            assert!(t < 4 && i < 10_000, "corrupt event {e:?}");
            assert_eq!(e.kind, EventKind::AmHandle);
        }
        assert!(s.len() <= 64);
        assert!(r.dropped() < 40_000);
    }

    #[test]
    fn kind_names_and_categories_are_stable() {
        assert_eq!(EventKind::Put.name(), "put");
        assert_eq!(EventKind::Put.category(), "rma");
        assert!(EventKind::Put.is_span());
        assert!(!EventKind::AmSend.is_span());
        assert_eq!(EventKind::Advance.category(), "progress");
        assert_eq!(EventKind::AmRetransmit.name(), "am_retransmit");
        assert_eq!(EventKind::WireDrop.category(), "fault");
        assert!(!EventKind::AmDup.is_span());
        assert_eq!(EventKind::CacheFill.name(), "cache_fill");
        assert_eq!(EventKind::CacheHit.category(), "cache");
        assert!(!EventKind::CacheFill.is_span());
        assert!(!EventKind::CacheHit.is_span());
    }
}
