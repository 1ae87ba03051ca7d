//! `rupcxx-trace` — the telemetry crate of the PGAS stack.
//!
//! The paper's evaluation (Figs. 4–8) depends on knowing exactly what
//! communication each construct generates. This crate provides the
//! observability layer the rest of the workspace hooks into:
//!
//! * the per-rank traffic counters ([`CommStats`]) and the one recording
//!   call per observable fact ([`Telemetry`]), which feeds everything
//!   below from the same place;
//! * a lock-free per-rank ring of timestamped [`TraceEvent`]s
//!   ([`EventRing`]) covering puts/gets, active messages, async tasks,
//!   barrier/finish/event waits and lock acquires;
//! * a metrics registry ([`Metrics`]) of log₂-bucketed histograms
//!   ([`Log2Histogram`]) — op latency, message size, `advance()`
//!   poll-to-work ratio, task-queue depth;
//! * exporters: Chrome `trace_event` JSON (for `chrome://tracing` /
//!   Perfetto) and a per-rank table summary.
//!
//! Tracing is configured at runtime via `RUPCXX_TRACE=events[,path]`
//! (or `metrics` for histograms without the event ring) and is
//! compile-cost-free when disabled: every recording entry point starts
//! with an inlined `if !enabled { return }` guard, so the disabled hot
//! path costs one predictable branch on an immutable bool.

pub mod clock;
pub mod critpath;
pub mod export;
pub mod flight;
pub mod histogram;
pub mod metrics;
pub mod ring;
pub mod span;
pub mod telemetry;
pub mod waitstate;

pub use clock::now_ns;
pub use critpath::{CritPathReport, RankProf};
pub use export::{chrome_trace_json, json_escape, summary_table, write_chrome_trace};
pub use histogram::{HistogramSnapshot, Log2Histogram};
pub use metrics::{Metrics, MetricsSnapshot};
pub use ring::{EventKind, EventRing, TraceEvent};
pub use span::{ProfConfig, ProfEvent, ProfKind, ProfSpan, ProfState};
pub use telemetry::{CommCounts, CommStats, PerDestStats, Telemetry};
pub use waitstate::{WaitConstruct, WaitState, WaitStats, WaitStatsSnapshot};

/// What the trace layer records.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TraceMode {
    /// Nothing (the zero-cost default).
    #[default]
    Off,
    /// Histograms and counters only — no event ring.
    Metrics,
    /// Metrics plus the per-rank event ring.
    Events,
}

/// Default per-rank ring capacity (events). ~12 MiB per rank when active;
/// override with `RUPCXX_TRACE_BUF` or [`TraceConfig::ring_capacity`].
pub const DEFAULT_RING_CAPACITY: usize = 1 << 18;

/// Default Chrome-trace output path for the first traced job in a
/// process; later jobs get a numeric suffix.
pub const DEFAULT_TRACE_PATH: &str = "rupcxx_trace.json";

/// Trace configuration, usually parsed from `RUPCXX_TRACE`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceConfig {
    /// What to record.
    pub mode: TraceMode,
    /// Chrome-trace output path (None = [`DEFAULT_TRACE_PATH`]).
    pub path: Option<String>,
    /// Per-rank event-ring capacity (None = [`DEFAULT_RING_CAPACITY`]).
    pub ring_capacity: Option<usize>,
}

impl TraceConfig {
    /// Tracing disabled.
    pub fn off() -> Self {
        TraceConfig::default()
    }

    /// Metrics histograms only.
    pub fn metrics() -> Self {
        TraceConfig {
            mode: TraceMode::Metrics,
            ..Default::default()
        }
    }

    /// Full event tracing plus metrics.
    pub fn events() -> Self {
        TraceConfig {
            mode: TraceMode::Events,
            ..Default::default()
        }
    }

    /// Set the Chrome-trace output path.
    pub fn with_path(mut self, path: impl Into<String>) -> Self {
        self.path = Some(path.into());
        self
    }

    /// Set the per-rank ring capacity.
    pub fn with_ring_capacity(mut self, capacity: usize) -> Self {
        self.ring_capacity = Some(capacity);
        self
    }

    /// True unless the mode is [`TraceMode::Off`].
    pub fn is_enabled(&self) -> bool {
        self.mode != TraceMode::Off
    }

    /// Parse a `RUPCXX_TRACE` value: `events[,path]` / `metrics` / `off`.
    /// `Ok(None)` means explicitly off; malformed values are `Err`.
    pub fn parse(raw: &str) -> Result<Option<Self>, String> {
        let mut parts = raw.splitn(2, ',');
        let mode = match parts.next().unwrap_or("").trim() {
            "events" | "1" | "on" | "true" => TraceMode::Events,
            "metrics" => TraceMode::Metrics,
            "" | "0" | "off" | "false" | "none" => {
                if raw.contains(',') {
                    return Err("output path given but tracing is off".to_string());
                }
                return Ok(None);
            }
            other => return Err(format!("unknown mode {other:?}")),
        };
        let path = match parts.next().map(str::trim) {
            Some("") => return Err("empty output path after ','".to_string()),
            p => p.map(String::from),
        };
        Ok(Some(TraceConfig {
            mode,
            path,
            ring_capacity: None,
        }))
    }

    /// Read `RUPCXX_TRACE` (and `RUPCXX_TRACE_BUF` for the ring size)
    /// from the environment. Unset means disabled; malformed values
    /// abort with a clear message.
    pub fn from_env() -> Self {
        let mut cfg = rupcxx_util::env::parse_env(
            "RUPCXX_TRACE",
            "metrics|events[,<path>]",
            TraceConfig::parse,
        )
        .unwrap_or_default();
        if let Ok(raw) = std::env::var("RUPCXX_TRACE_BUF") {
            match raw.trim().parse::<usize>() {
                Ok(n) if n > 0 => cfg.ring_capacity = Some(n),
                _ => rupcxx_util::env::invalid(
                    "RUPCXX_TRACE_BUF",
                    &raw,
                    "not a positive integer",
                    "<events-per-rank>",
                ),
            }
        }
        cfg
    }

    /// The output path to use for the `n`-th traced job of this process.
    pub fn numbered_path(&self, n: u64) -> String {
        let base = self.path.as_deref().unwrap_or(DEFAULT_TRACE_PATH);
        if n == 0 {
            base.to_string()
        } else {
            suffixed_path(base, &n.to_string())
        }
    }
}

/// `path` with `.{suffix}` inserted before its extension (appended when
/// it has none): `t.json` + `rank1` = `t.rank1.json`.
pub fn suffixed_path(path: &str, suffix: &str) -> String {
    match path.rsplit_once('.') {
        Some((stem, ext)) => format!("{stem}.{suffix}.{ext}"),
        None => format!("{path}.{suffix}"),
    }
}

/// Per-rank trace state: the mode switch, the optional event ring and the
/// metrics registry. Owned by the fabric's `Endpoint`, shared with the
/// runtime through it.
#[derive(Debug)]
pub struct RankTrace {
    mode: TraceMode,
    ring: Option<EventRing>,
    metrics: Metrics,
}

impl Default for RankTrace {
    fn default() -> Self {
        Self::disabled()
    }
}

impl RankTrace {
    /// A disabled trace: every recording call is a single-branch no-op.
    pub fn disabled() -> Self {
        RankTrace {
            mode: TraceMode::Off,
            ring: None,
            metrics: Metrics::default(),
        }
    }

    /// Build per `config`; the ring is only allocated in events mode.
    pub fn new(config: &TraceConfig) -> Self {
        if config.mode == TraceMode::Events {
            clock::init_epoch();
        }
        RankTrace {
            mode: config.mode,
            ring: (config.mode == TraceMode::Events)
                .then(|| EventRing::new(config.ring_capacity.unwrap_or(DEFAULT_RING_CAPACITY))),
            metrics: Metrics::default(),
        }
    }

    /// True when anything is being recorded.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.mode != TraceMode::Off
    }

    /// True when the event ring is recording.
    #[inline]
    pub fn events_enabled(&self) -> bool {
        self.ring.is_some()
    }

    /// The event ring, when events are enabled.
    pub fn ring(&self) -> Option<&EventRing> {
        self.ring.as_ref()
    }

    /// Span start timestamp — 0 (no clock read) when disabled.
    #[inline]
    pub fn start(&self) -> u64 {
        if self.mode == TraceMode::Off {
            0
        } else {
            now_ns()
        }
    }

    /// Record a completed span that started at `start_ns` (from
    /// [`RankTrace::start`]). No-op when disabled.
    #[inline]
    pub fn span(&self, kind: EventKind, peer: i32, bytes: u64, start_ns: u64) {
        if self.mode == TraceMode::Off {
            return;
        }
        let dur_ns = now_ns().saturating_sub(start_ns);
        self.record(kind, peer, bytes, start_ns, dur_ns);
    }

    /// Record an instantaneous event (AM send, task spawn). No-op when
    /// disabled.
    #[inline]
    pub fn instant(&self, kind: EventKind, peer: i32, bytes: u64) {
        if self.mode == TraceMode::Off {
            return;
        }
        self.record(kind, peer, bytes, now_ns(), 0);
    }

    /// Feed the event's histogram, then the ring. `bytes` is a size for
    /// puts, gets, AM sends and cache fills, and a frame count for batch
    /// flushes.
    #[cold]
    fn record(&self, kind: EventKind, peer: i32, bytes: u64, ts_ns: u64, dur_ns: u64) {
        let m = &self.metrics;
        match kind {
            EventKind::Put => {
                m.put_ns.record(dur_ns);
                m.msg_bytes.record(bytes);
            }
            EventKind::Get => {
                m.get_ns.record(dur_ns);
                m.msg_bytes.record(bytes);
            }
            EventKind::AmSend => m.msg_bytes.record(bytes),
            EventKind::AmHandle => m.am_handle_ns.record(dur_ns),
            EventKind::Advance => m.advance_ns.record(dur_ns),
            EventKind::Barrier => m.barrier_ns.record(dur_ns),
            EventKind::EventWait | EventKind::FinishWait => m.wait_ns.record(dur_ns),
            EventKind::LockAcquire => m.lock_ns.record(dur_ns),
            EventKind::BatchFlush => m.batch_frames.record(bytes),
            EventKind::CacheFill => m.cache_fill_bytes.record(bytes),
            EventKind::TaskSpawn
            | EventKind::AmRetransmit
            | EventKind::WireDrop
            | EventKind::AmDup
            | EventKind::CacheHit => {}
        }
        if let Some(ring) = &self.ring {
            ring.push(TraceEvent {
                seq: 0,
                ts_ns,
                dur_ns,
                bytes,
                peer,
                kind,
            });
        }
    }

    /// Record one `advance()` poll: inbox depth before draining, whether
    /// any message was processed, and how many. No-op when disabled.
    #[inline]
    pub fn poll(&self, depth: u64, msgs: u64) {
        if self.mode == TraceMode::Off {
            return;
        }
        self.poll_slow(depth, msgs);
    }

    #[cold]
    fn poll_slow(&self, depth: u64, msgs: u64) {
        use std::sync::atomic::Ordering;
        self.metrics.queue_depth.record(depth);
        self.metrics.advance_polls.fetch_add(1, Ordering::Relaxed);
        if msgs > 0 {
            self.metrics.advance_work.fetch_add(1, Ordering::Relaxed);
            self.metrics.advance_msgs.fetch_add(msgs, Ordering::Relaxed);
        }
    }

    /// Drain the ring (empty when events are off).
    pub fn events(&self) -> Vec<TraceEvent> {
        self.ring.as_ref().map(|r| r.snapshot()).unwrap_or_default()
    }

    /// Point-in-time copy of the metrics, with the ring's push/loss
    /// accounting filled in so exporters can surface overflow.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut m = self.metrics.snapshot();
        if let Some(ring) = &self.ring {
            m.ring_pushed = ring.pushed();
            m.ring_lost = ring.lost();
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_records_nothing() {
        let t = RankTrace::disabled();
        assert!(!t.enabled());
        let s = t.start();
        assert_eq!(s, 0);
        t.span(EventKind::Put, 1, 8, s);
        t.instant(EventKind::AmSend, 1, 8);
        t.poll(3, 2);
        assert!(t.events().is_empty());
        let m = t.snapshot();
        assert_eq!(m.put_ns.count, 0);
        assert_eq!(m.msg_bytes.count, 0);
        assert_eq!(m.advance_polls, 0);
    }

    #[test]
    fn metrics_mode_has_no_ring() {
        let t = RankTrace::new(&TraceConfig::metrics());
        assert!(t.enabled());
        assert!(!t.events_enabled());
        let s = t.start();
        t.span(EventKind::Get, 2, 64, s);
        assert!(t.events().is_empty());
        let m = t.snapshot();
        assert_eq!(m.get_ns.count, 1);
        assert_eq!(m.msg_bytes.count, 1);
    }

    #[test]
    fn events_mode_records_spans_and_instants() {
        let t = RankTrace::new(&TraceConfig::events().with_ring_capacity(64));
        let s = t.start();
        assert!(s > 0);
        t.span(EventKind::Put, 1, 8, s);
        t.instant(EventKind::TaskSpawn, 2, 0);
        t.poll(1, 1);
        let evs = t.events();
        assert_eq!(evs.len(), 2);
        t.instant(EventKind::AmRetransmit, 1, 0);
        t.instant(EventKind::WireDrop, 1, 0);
        t.instant(EventKind::WireDrop, 1, 0);
        t.instant(EventKind::AmDup, 1, 0);
        let m = t.snapshot();
        assert_eq!((m.ring_pushed, m.ring_lost), (6, 0));
        assert_eq!(t.events().len(), 6);
        assert_eq!(evs[0].kind, EventKind::Put);
        assert_eq!(evs[0].peer, 1);
        assert_eq!(evs[1].kind, EventKind::TaskSpawn);
        assert_eq!(t.snapshot().advance_polls, 1);
    }

    #[test]
    fn batch_flush_instant_feeds_occupancy_histogram() {
        let t = RankTrace::new(&TraceConfig::events().with_ring_capacity(16));
        t.instant(EventKind::BatchFlush, 1, 48);
        t.instant(EventKind::BatchFlush, 2, 64);
        let m = t.snapshot();
        assert_eq!(m.batch_frames.count, 2);
        assert_eq!(m.batch_frames.max, 64);
        let evs = t.events();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].kind, EventKind::BatchFlush);
        assert_eq!(evs[0].bytes, 48);
        assert_eq!(evs[0].peer, 1);
    }

    #[test]
    fn cache_instants_feed_fill_histogram() {
        let t = RankTrace::new(&TraceConfig::events().with_ring_capacity(16));
        t.instant(EventKind::CacheFill, 1, 256);
        t.instant(EventKind::CacheFill, 1, 64);
        t.instant(EventKind::CacheHit, 1, 8);
        t.instant(EventKind::CacheHit, 2, 8);
        t.instant(EventKind::CacheHit, 1, 8);
        let m = t.snapshot();
        assert_eq!(m.cache_fill_bytes.count, 2);
        assert_eq!(m.cache_fill_bytes.max, 256);
        let evs = t.events();
        assert_eq!(evs.len(), 5);
        assert_eq!(evs[0].kind, EventKind::CacheFill);
        assert_eq!(evs[0].bytes, 256);
    }

    #[test]
    fn config_parsing_variants() {
        // from_env reads process-global env; exercise the parser via the
        // pure pieces instead of mutating the environment in tests.
        assert!(!TraceConfig::off().is_enabled());
        assert!(TraceConfig::metrics().is_enabled());
        let c = TraceConfig::events()
            .with_path("x.json")
            .with_ring_capacity(99);
        assert_eq!(c.mode, TraceMode::Events);
        assert_eq!(c.numbered_path(0), "x.json");
        assert_eq!(c.numbered_path(2), "x.2.json");
        let d = TraceConfig::events();
        assert_eq!(d.numbered_path(0), DEFAULT_TRACE_PATH);
        assert_eq!(d.numbered_path(1), "rupcxx_trace.1.json");
        assert_eq!(suffixed_path("t.json", "rank1"), "t.rank1.json");
        assert_eq!(suffixed_path("trace", "rank0"), "trace.rank0");
    }

    #[test]
    fn pure_parser_accepts_and_rejects() {
        assert!(TraceConfig::parse("off").unwrap().is_none());
        assert!(TraceConfig::parse("").unwrap().is_none());
        let e = TraceConfig::parse("events,t.json").unwrap().unwrap();
        assert_eq!(e.mode, TraceMode::Events);
        assert_eq!(e.path.as_deref(), Some("t.json"));
        let m = TraceConfig::parse("metrics").unwrap().unwrap();
        assert_eq!(m.mode, TraceMode::Metrics);
        assert!(TraceConfig::parse("eventz").is_err());
        assert!(TraceConfig::parse("events,").is_err());
        assert!(TraceConfig::parse("off,x.json").is_err());
    }
}
