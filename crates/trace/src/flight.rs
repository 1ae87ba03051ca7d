//! The postmortem flight recorder.
//!
//! When a job dies — a peer declared unreachable, the deadlock/race
//! checker aborting a wait — the profiler formats the tail of every
//! rank's causal event stream into a human-readable dump: the last
//! retransmit attempts, the last frames in flight, the last waits and
//! their states. The dump goes to stderr *and* into a process-global
//! capture buffer so the chaos suite can assert on postmortem contents
//! after catching the panic.

use crate::span::{ProfEvent, ProfKind};
use crate::waitstate::unpack_wait;
use std::fmt::Write as _;
use std::sync::Mutex;

/// How many trailing events per rank a dump includes.
pub const FLIGHT_EVENTS: usize = 64;

static DUMPS: Mutex<Vec<String>> = Mutex::new(Vec::new());

/// Format one event as a flight-recorder line.
fn format_event(rank: usize, e: &ProfEvent) -> String {
    let mut line = format!(
        "  r{rank} +{:>12.3}us {:<12}",
        e.ts_ns as f64 / 1000.0,
        e.kind.name()
    );
    if e.peer >= 0 {
        let _ = write!(line, " peer={}", e.peer);
    }
    if e.span != 0 {
        let _ = write!(line, " span={:#x}", e.span);
    }
    match e.kind {
        ProfKind::Wait => {
            let _ = write!(line, " dur={:.3}us", e.dur_ns as f64 / 1000.0);
            if let Some((c, s)) = unpack_wait(e.a) {
                let _ = write!(line, " {}={}", c.name(), s.name());
            }
        }
        ProfKind::Retransmit => {
            let _ = write!(line, " attempt={}", e.a);
        }
        ProfKind::BarrierExit => {
            let _ = write!(line, " epoch={}", e.a);
        }
        _ => {}
    }
    line
}

/// Format the tail of every rank's event stream as one dump document.
pub fn format_flight(reason: &str, per_rank: &[(usize, Vec<ProfEvent>)]) -> String {
    let mut out = format!("=== rupcxx flight recorder: {reason} ===\n");
    for (rank, events) in per_rank {
        let tail = &events[events.len().saturating_sub(FLIGHT_EVENTS)..];
        let _ = writeln!(
            out,
            "-- rank {rank}: last {} of {} events --",
            tail.len(),
            events.len()
        );
        for e in tail {
            out.push_str(&format_event(*rank, e));
            out.push('\n');
        }
    }
    out.push_str("=== end flight recorder ===\n");
    out
}

/// Emit a dump: stderr for humans, the capture buffer for tests.
pub fn record_dump(dump: String) {
    eprintln!("{dump}");
    DUMPS.lock().unwrap().push(dump);
}

/// Copy of every dump captured so far in this process.
pub fn dumps() -> Vec<String> {
    DUMPS.lock().unwrap().clone()
}

/// Drain the capture buffer (test isolation).
pub fn take_dumps() -> Vec<String> {
    std::mem::take(&mut *DUMPS.lock().unwrap())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::waitstate::{pack_wait, WaitConstruct, WaitState};

    fn ev(kind: ProfKind, ts: u64, peer: i32, a: u64) -> ProfEvent {
        ProfEvent {
            seq: ts,
            ts_ns: ts * 1000,
            dur_ns: 500,
            span: if kind == ProfKind::Send { 0xdead } else { 0 },
            peer,
            a,
            kind,
        }
    }

    #[test]
    fn dump_formats_tail_with_kinds() {
        let events = vec![
            ev(ProfKind::Send, 1, 1, 0),
            ev(ProfKind::Retransmit, 2, 1, 3),
            ev(
                ProfKind::Wait,
                3,
                -1,
                pack_wait(WaitConstruct::Barrier, WaitState::RetransmitStall),
            ),
            ev(ProfKind::Unreachable, 4, 1, 0),
        ];
        let dump = format_flight("peer 1 unreachable", &[(0, events)]);
        assert!(dump.contains("flight recorder: peer 1 unreachable"));
        assert!(dump.contains("retransmit"));
        assert!(dump.contains("attempt=3"));
        assert!(dump.contains("barrier=retransmit_stall"));
        assert!(dump.contains("unreachable"));
        assert!(dump.contains("span=0xdead"));
    }

    #[test]
    fn dump_truncates_to_flight_window() {
        let events: Vec<ProfEvent> = (0..200).map(|i| ev(ProfKind::Send, i, 1, 0)).collect();
        let dump = format_flight("x", &[(0, events)]);
        assert!(dump.contains(&format!("last {FLIGHT_EVENTS} of 200 events")));
        assert_eq!(dump.matches("send").count(), FLIGHT_EVENTS);
    }

    #[test]
    fn capture_buffer_records_dumps() {
        take_dumps();
        record_dump("=== test dump ===".to_string());
        let d = dumps();
        assert!(d.iter().any(|s| s.contains("test dump")));
        assert!(!take_dumps().is_empty());
        assert!(dumps().is_empty());
    }
}
