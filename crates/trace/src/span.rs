//! Causal span propagation — the profiler's cross-rank backbone.
//!
//! Every AM/RMA/batch frame can carry a compact [`ProfSpan`]: the
//! injecting rank packed into the id's high bits plus the injection
//! timestamp. It piggybacks on `AmMessage` exactly the way the checker's
//! `Stamp` does, so it survives retransmits (the whole message rides the
//! limbo/lost queues) and aggregation (a batch is one sequenced frame).
//! On receipt the consuming rank *joins* the span: the profiler learns
//! when the newest message it absorbed was injected, which is what
//! wait-state classification needs to tell a late sender from a starved
//! progress engine.
//!
//! The per-rank [`ProfState`] owns a bounded seqlock ring of
//! [`ProfEvent`]s — the same stream feeds the offline critical-path pass
//! and the postmortem flight recorder. Everything here is optional
//! (`Option<ProfState>` on the endpoint) and costs one untaken branch
//! when `RUPCXX_PROF` is unset.

use crate::clock::now_ns;
use crate::ring::{Ring, RingEvent};
use crate::waitstate::WaitStats;
use std::sync::atomic::{AtomicU64, Ordering};

/// Default per-rank profiler ring capacity (events).
pub const DEFAULT_PROF_RING: usize = 1 << 14;

/// Default critical-path JSON output path.
pub const DEFAULT_PROF_PATH: &str = "rupcxx_prof.json";

/// A causal span id carried on the wire: the injecting rank in the top
/// 16 bits, a per-rank counter below, plus the injection timestamp.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProfSpan {
    /// `(origin rank) << 48 | per-rank counter`.
    pub id: u64,
    /// Injection time, ns since the trace epoch.
    pub inject_ns: u64,
}

impl ProfSpan {
    /// The rank that injected this span.
    pub fn origin(self) -> usize {
        (self.id >> 48) as usize
    }
}

/// What a profiler event records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum ProfKind {
    /// AM/RMA frame injected (instant; `peer` = destination).
    Send,
    /// Frame received and joined to its span (instant; `peer` = origin).
    Recv,
    /// A blocking wait ended (span; `a` packs construct and state — see
    /// [`crate::waitstate::pack_wait`]).
    Wait,
    /// A barrier episode completed (`a` = barrier epoch on this rank).
    BarrierExit,
    /// The reliable layer retransmitted a frame (`a` = attempt number).
    Retransmit,
    /// A peer was declared unreachable (`peer` = the dead destination).
    Unreachable,
}

impl ProfKind {
    /// Stable name used by the flight recorder and exporters.
    pub fn name(self) -> &'static str {
        match self {
            ProfKind::Send => "send",
            ProfKind::Recv => "recv",
            ProfKind::Wait => "wait",
            ProfKind::BarrierExit => "barrier_exit",
            ProfKind::Retransmit => "retransmit",
            ProfKind::Unreachable => "unreachable",
        }
    }
}

/// One causal event in a rank's profiler stream.
#[derive(Clone, Copy, Debug)]
pub struct ProfEvent {
    /// Monotonic per-rank sequence number (ring claim index).
    pub seq: u64,
    /// Start timestamp, ns since the trace epoch.
    pub ts_ns: u64,
    /// Duration (0 for instants).
    pub dur_ns: u64,
    /// Span id involved (0 = none).
    pub span: u64,
    /// Peer rank, -1 when not applicable.
    pub peer: i32,
    /// Kind-dependent extra word (wait packing, epoch, attempt, frames).
    pub a: u64,
    /// Event kind.
    pub kind: ProfKind,
}

impl RingEvent for ProfEvent {
    fn seq(&self) -> u64 {
        self.seq
    }
    fn set_seq(&mut self, seq: u64) {
        self.seq = seq;
    }
}

/// Profiler configuration, usually parsed from `RUPCXX_PROF`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProfConfig {
    /// Critical-path JSON output path (None = [`DEFAULT_PROF_PATH`]).
    pub json_path: Option<String>,
    /// Per-rank profiler ring capacity (None = [`DEFAULT_PROF_RING`]).
    pub ring_capacity: Option<usize>,
}

impl ProfConfig {
    /// Profiling enabled with defaults.
    pub fn on() -> Self {
        ProfConfig::default()
    }

    /// Set the critical-path JSON output path.
    pub fn with_path(mut self, path: impl Into<String>) -> Self {
        self.json_path = Some(path.into());
        self
    }

    /// Set the per-rank profiler ring capacity.
    pub fn with_ring_capacity(mut self, capacity: usize) -> Self {
        self.ring_capacity = Some(capacity);
        self
    }

    /// The JSON output path to use.
    pub fn path(&self) -> &str {
        self.json_path.as_deref().unwrap_or(DEFAULT_PROF_PATH)
    }

    /// Parse a `RUPCXX_PROF` value: `on[,path]` / `off`. `Ok(None)` means
    /// explicitly off; malformed values are `Err`.
    pub fn parse(raw: &str) -> Result<Option<Self>, String> {
        let mut parts = raw.splitn(2, ',');
        match parts.next().unwrap_or("").trim() {
            "on" | "1" | "true" => {}
            "" | "0" | "off" | "false" | "none" => {
                if raw.contains(',') {
                    return Err("output path given but profiling is off".to_string());
                }
                return Ok(None);
            }
            other => return Err(format!("unknown mode {other:?}")),
        }
        let json_path = match parts.next().map(str::trim) {
            Some("") => return Err("empty output path after ','".to_string()),
            p => p.map(String::from),
        };
        Ok(Some(ProfConfig {
            json_path,
            ring_capacity: None,
        }))
    }

    /// Read `RUPCXX_PROF` from the environment. Unset means disabled;
    /// malformed values abort with a clear message.
    pub fn from_env() -> Option<Self> {
        rupcxx_util::env::parse_env("RUPCXX_PROF", "on[,<path>]", ProfConfig::parse)
    }
}

/// Live per-rank profiler state. Owned by the fabric's `Endpoint`; every
/// hook starts with an `Option` check, so the disabled path is one
/// untaken branch.
#[derive(Debug)]
pub struct ProfState {
    /// This rank.
    pub rank: usize,
    /// Next span counter (combined with the rank for the wire id).
    next_span: AtomicU64,
    /// The causal event stream (critical path + flight recorder).
    pub ring: Ring<ProfEvent>,
    /// Injection timestamp of the newest remote span joined here.
    pub last_inject_ns: AtomicU64,
    /// Remote spans joined on this rank (messages absorbed).
    pub msgs_joined: AtomicU64,
    /// Wait-state histograms, per construct and per state.
    pub waits: WaitStats,
    /// Total barrier episode time, ns (the attribution denominator).
    pub barrier_total_ns: AtomicU64,
    /// Barrier episodes completed on this rank.
    pub barrier_epoch: AtomicU64,
}

impl ProfState {
    /// Fresh state for `rank` per `config`.
    pub fn new(rank: usize, config: &ProfConfig) -> Self {
        crate::clock::init_epoch();
        ProfState {
            rank,
            next_span: AtomicU64::new(1),
            ring: Ring::new(config.ring_capacity.unwrap_or(DEFAULT_PROF_RING)),
            last_inject_ns: AtomicU64::new(0),
            msgs_joined: AtomicU64::new(0),
            waits: WaitStats::new(),
            barrier_total_ns: AtomicU64::new(0),
            barrier_epoch: AtomicU64::new(0),
        }
    }

    /// Allocate the wire span of a frame this rank injects towards `dst`
    /// now, and record the injection.
    #[inline]
    pub fn record_send(&self, dst: i32) -> ProfSpan {
        let n = self.next_span.fetch_add(1, Ordering::Relaxed);
        let span = ProfSpan {
            id: ((self.rank as u64) << 48) | (n & ((1u64 << 48) - 1)),
            inject_ns: now_ns(),
        };
        self.push(ProfKind::Send, span.inject_ns, span.id, dst, 0);
        span
    }

    /// Join an arriving span to this rank: the receive is causally tied
    /// to the injection on `span.origin()`.
    pub fn record_recv(&self, span: ProfSpan) {
        self.last_inject_ns
            .fetch_max(span.inject_ns, Ordering::Relaxed);
        self.msgs_joined.fetch_add(1, Ordering::Relaxed);
        self.record_instant(ProfKind::Recv, span.id, span.origin() as i32, 0);
    }

    /// Record an instantaneous event of any kind (`span` 0 = none).
    pub fn record_instant(&self, kind: ProfKind, span: u64, peer: i32, a: u64) {
        self.push(kind, now_ns(), span, peer, a);
    }

    fn push(&self, kind: ProfKind, ts_ns: u64, span: u64, peer: i32, a: u64) {
        self.ring.push(ProfEvent {
            seq: 0,
            ts_ns,
            dur_ns: 0,
            span,
            peer,
            a,
            kind,
        });
    }

    /// Record a completed barrier episode and return its epoch.
    pub fn record_barrier_exit(&self, episode_ns: u64) -> u64 {
        self.barrier_total_ns
            .fetch_add(episode_ns, Ordering::Relaxed);
        let epoch = self.barrier_epoch.fetch_add(1, Ordering::Relaxed);
        self.record_instant(ProfKind::BarrierExit, 0, -1, epoch);
        epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_id_packs_origin() {
        let cfg = ProfConfig::on();
        let p = ProfState::new(3, &cfg);
        let s = p.record_send(1);
        assert_eq!(s.origin(), 3);
        assert!(s.inject_ns > 0);
        let s2 = p.record_send(2);
        assert_ne!(s.id, s2.id);
        assert_eq!(s2.origin(), 3);
    }

    #[test]
    fn recv_joins_and_updates_inject_watermark() {
        let cfg = ProfConfig::on();
        let a = ProfState::new(0, &cfg);
        let b = ProfState::new(1, &cfg);
        let span = a.record_send(1);
        b.record_recv(span);
        assert_eq!(b.msgs_joined.load(Ordering::Relaxed), 1);
        assert_eq!(b.last_inject_ns.load(Ordering::Relaxed), span.inject_ns);
        let evs = b.ring.snapshot();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].kind, ProfKind::Recv);
        assert_eq!(evs[0].span, span.id);
        assert_eq!(evs[0].peer, 0);
    }

    #[test]
    fn ring_wraps_keeping_newest() {
        let cfg = ProfConfig::on().with_ring_capacity(8);
        let p = ProfState::new(0, &cfg);
        for i in 0..20u64 {
            p.record_instant(ProfKind::Retransmit, 0, -1, i);
        }
        let evs = p.ring.snapshot();
        assert_eq!(evs.len(), 8);
        assert_eq!(evs.last().unwrap().a, 19);
        assert_eq!(p.ring.pushed(), 20);
    }

    #[test]
    fn barrier_exit_counts_epochs() {
        let cfg = ProfConfig::on();
        let p = ProfState::new(0, &cfg);
        assert_eq!(p.record_barrier_exit(100), 0);
        assert_eq!(p.record_barrier_exit(50), 1);
        assert_eq!(p.barrier_total_ns.load(Ordering::Relaxed), 150);
    }

    #[test]
    fn config_parser_accepts_and_rejects() {
        assert!(ProfConfig::parse("off").unwrap().is_none());
        assert!(ProfConfig::parse("").unwrap().is_none());
        assert!(ProfConfig::parse("0").unwrap().is_none());
        let c = ProfConfig::parse("on").unwrap().unwrap();
        assert_eq!(c.path(), DEFAULT_PROF_PATH);
        let c = ProfConfig::parse("on,prof.json").unwrap().unwrap();
        assert_eq!(c.path(), "prof.json");
        assert!(ProfConfig::parse("maybe").is_err());
        assert!(ProfConfig::parse("on,").is_err());
        assert!(ProfConfig::parse("off,x.json").is_err());
    }
}
