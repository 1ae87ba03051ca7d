//! Multi-process fabric: the glue between the in-process [`Fabric`] API
//! and a [`Conduit`](crate::conduit::Conduit).
//!
//! With `FabricConfig::remote` set, this OS process hosts exactly one
//! rank; the other endpoints are zero-sized stubs (any accidental direct
//! access to a stub segment panics — a built-in detector for layering
//! violations). Every public fabric operation keeps its full prologue —
//! counters, trace spans, checker hooks, the fault gate, aggregation —
//! bit-for-bit identical to the loopback path, and only the final
//! "touch the peer's memory / push to the peer's inbox" step is swapped
//! for link frames of the wire grammar (see [`crate::wire`]):
//!
//! * puts/gets/atomics become synchronous token-matched `Req`/reply
//!   round trips, preserving the blocking RMA semantics; the receiver
//!   applies the `Req`'s op with the same [`Fabric::apply_op`] that
//!   applies aggregated batches;
//! * an AM travels as an `Am` frame and arrives as a view of the received
//!   bytes, then goes through *exactly* the same delivery tail as a local
//!   send ([`Fabric::deliver`]) — including the reliable layer's fate
//!   draw, so fault injection and retransmission wrap any conduit
//!   unchanged;
//! * teardown quiescence is an explicit FIN/ack handshake per link,
//!   carrying the sender's data-frame count (per-link FIFO makes the
//!   count checkable on arrival).
//!
//! A [`ConduitEvent::Closed`] for a peer that has not completed its FIN
//! handshake is a genuine failure domain: it is classified through the
//! same `mark_unreachable` funnel the reliable layer uses, so killing a
//! real process surfaces as a [`PeerUnreachable`] panic with a flight-
//! recorder dump instead of a hang.

use crate::conduit::{self, Conduit, ConduitEvent, RemoteConfig};
use crate::fabric::{AmMessage, AmPayload, Fabric};
use crate::reliable::PeerUnreachable;
use crate::wire::{self, Link, Op, Reply};
use crate::Rank;
use rupcxx_util::sync::Mutex;
use rupcxx_util::Bytes;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Abandon a blocked reply wait after this long with no conduit progress
/// (backstop against protocol bugs; genuine peer death is classified via
/// `Closed` events or the reliable layer long before this fires).
const REPLY_STALL_TIMEOUT: Duration = Duration::from_secs(120);

/// Per-process state for a conduit-backed fabric.
pub(crate) struct RemoteFabric {
    pub(crate) conduit: Box<dyn Conduit>,
    /// The one rank this process hosts.
    pub(crate) me: Rank,
    next_token: AtomicU64,
    replies: Mutex<HashMap<u64, Reply>>,
    /// Per-destination encode scratch: reused across frames so the
    /// steady-state send path performs no allocation.
    scratch: Box<[Mutex<Vec<u8>>]>,
    /// Data frames sent per link (carried by our FIN).
    data_sent: Box<[AtomicU64]>,
    /// Data frames received per link (checked against the peer's FIN).
    data_recvd: Box<[AtomicU64]>,
    fin_recvd: Box<[AtomicBool]>,
    fin_acked: Box<[AtomicBool]>,
    /// Serializes frame dispatch: per-link FIFO must survive the rank
    /// thread and a progress thread pumping concurrently.
    pump_lock: Mutex<()>,
}

impl RemoteFabric {
    pub(crate) fn new(cfg: &RemoteConfig, ranks: usize) -> RemoteFabric {
        let conduit = conduit::build(&cfg.conduit, cfg.my_rank, ranks);
        RemoteFabric {
            conduit,
            me: cfg.my_rank,
            next_token: AtomicU64::new(1),
            replies: Mutex::new(HashMap::new()),
            scratch: (0..ranks).map(|_| Mutex::new(Vec::new())).collect(),
            data_sent: (0..ranks).map(|_| AtomicU64::new(0)).collect(),
            data_recvd: (0..ranks).map(|_| AtomicU64::new(0)).collect(),
            fin_recvd: (0..ranks).map(|_| AtomicBool::new(false)).collect(),
            fin_acked: (0..ranks).map(|_| AtomicBool::new(false)).collect(),
            pump_lock: Mutex::new(()),
        }
    }

    /// Encode one frame into the link's scratch buffer and send it.
    pub(crate) fn send_encoded(&self, dst: Rank, enc: impl FnOnce(&mut Vec<u8>)) {
        let mut buf = self.scratch[dst].lock();
        enc(&mut buf);
        if wire::is_data_frame(&buf) {
            self.data_sent[dst].fetch_add(1, Ordering::Relaxed);
        }
        self.conduit.send(dst, &buf);
    }

    fn fresh_token(&self) -> u64 {
        self.next_token.fetch_add(1, Ordering::Relaxed)
    }
}

impl Fabric {
    /// True when this fabric reaches its peers through a conduit (one
    /// rank per OS process) rather than in-process endpoints.
    pub fn is_remote(&self) -> bool {
        self.remote.is_some()
    }

    /// The one rank this process hosts in a multi-process job (None
    /// in-process, where every rank is local).
    pub fn hosted_rank(&self) -> Option<Rank> {
        self.remote.as_ref().map(|r| r.me)
    }

    /// The conduit backend name, if a conduit is installed.
    pub fn conduit_name(&self) -> Option<&'static str> {
        self.remote.as_ref().map(|r| r.conduit.name())
    }

    /// The remote state when `target` lives in another process.
    #[inline]
    pub(crate) fn remote_to(&self, target: Rank) -> Option<&RemoteFabric> {
        match &self.remote {
            Some(r) if r.me != target => Some(r),
            _ => None,
        }
    }

    /// Block until the reply for `token` arrives, serving incoming
    /// conduit traffic while spinning (two ranks mid-RMA into each other
    /// must each answer the other's request).
    fn wait_reply(&self, r: &RemoteFabric, token: u64) -> Reply {
        let mut last_progress = Instant::now();
        let mut spins = 0u32;
        loop {
            if let Some(rep) = r.replies.lock().remove(&token) {
                return rep;
            }
            if self.pump_conduit(r.me) > 0 {
                last_progress = Instant::now();
                continue;
            }
            if self.has_failed() {
                let detail = self.failure().expect("failed without detail");
                panic!("{detail}");
            }
            assert!(
                last_progress.elapsed() < REPLY_STALL_TIMEOUT,
                "conduit reply stalled: rank {} waiting on token {token}",
                r.me
            );
            spins += 1;
            if spins >= 64 {
                spins = 0;
                std::thread::yield_now();
            }
        }
    }

    /// Remote RMA tail (the public op's prologue already ran): send `op`
    /// as a `Req` to the rank it addresses and block until the reply.
    /// The `Req` carries the initiator's clock stamp so the receiving
    /// process runs the same race check it runs for aggregated frames.
    /// The bounds check mirrors the segment's own panic for local ops:
    /// the initiator should fail, not the (innocent) target process.
    pub(crate) fn remote_req(&self, r: &RemoteFabric, op: Op<'_>) -> Reply {
        let addr = op.addr().expect("handler ops travel in an Am");
        let len = match op {
            Op::Put { data, .. } => data.len(),
            Op::Get { len, .. } => len,
            Op::PutStrided {
                stride,
                block,
                nblocks,
                ..
            }
            | Op::GetStrided {
                stride,
                block,
                nblocks,
                ..
            } => nblocks.checked_sub(1).map_or(0, |n| n * stride + block),
            _ => 8,
        };
        assert!(
            addr.offset() + len <= self.seg_bytes,
            "remote access out of bounds: offset {} + len {len} > segment {}",
            addr.offset(),
            self.seg_bytes
        );
        let token = r.fresh_token();
        let stamp = self.check.as_ref().map(|ck| ck.send_stamp(r.me));
        r.send_encoded(addr.rank(), |b| {
            wire::encode_req(b, stamp.as_ref(), token, &op)
        });
        self.wait_reply(r, token)
    }

    /// Drain and dispatch pending conduit events. Returns the number of
    /// events processed (0 without a conduit, or when another thread is
    /// already pumping — dispatch is serialized to keep per-link FIFO).
    pub fn pump_conduit(&self, me: Rank) -> usize {
        let Some(r) = &self.remote else { return 0 };
        debug_assert_eq!(me, r.me, "pump_conduit from a stub rank");
        let Some(_guard) = r.pump_lock.try_lock() else {
            return 0;
        };
        let mut work = 0;
        while let Some(ev) = r.conduit.try_recv() {
            work += 1;
            match ev {
                ConduitEvent::Frame(src, frame) => self.dispatch_frame(r, src, frame.into()),
                ConduitEvent::Closed(src) => {
                    // A closure after the peer's FIN is a clean goodbye;
                    // before it, the peer died mid-job.
                    if !r.fin_recvd[src].load(Ordering::Acquire) {
                        self.mark_unreachable(PeerUnreachable {
                            src: r.me,
                            dst: src,
                            seq: 0,
                            attempts: 0,
                        });
                    }
                    // Either way the peer can no longer ack our FIN.
                    r.fin_acked[src].store(true, Ordering::Release);
                }
            }
        }
        work
    }

    /// Decode and execute one frame from `src`. The frame is wrapped in
    /// [`Bytes`] once: an `Am` body goes on as a view of it, and so do the
    /// handler args the runtime later cuts from that body.
    fn dispatch_frame(&self, r: &RemoteFabric, src: Rank, frame: Bytes) {
        let me = r.me;
        if wire::is_data_frame(&frame) {
            r.data_recvd[src].fetch_add(1, Ordering::Relaxed);
        }
        match wire::decode(&frame) {
            Link::Am {
                clock,
                prof,
                count,
                body,
            } => {
                let payload = AmPayload::Batch {
                    frames: frame.slice_ref(body),
                    count,
                };
                self.deliver(
                    src,
                    me,
                    AmMessage {
                        src,
                        payload,
                        clock,
                        prof,
                    },
                );
            }
            Link::Req { stamp, token, op } => {
                let reply = self.apply_op(me, src, stamp.as_ref(), &op, false);
                r.send_encoded(src, |b| wire::encode_reply(b, token, &reply));
            }
            Link::Resp { token, reply } => {
                r.replies.lock().insert(token, reply);
            }
            Link::Fin { frames } => {
                let got = r.data_recvd[src].load(Ordering::Relaxed);
                assert_eq!(
                    got, frames,
                    "conduit FIN from rank {src}: it sent {frames} data frames, \
                     rank {me} received {got} — per-link FIFO violated"
                );
                r.fin_recvd[src].store(true, Ordering::Release);
                r.send_encoded(src, wire::encode_fin_ack);
            }
            Link::FinAck => {
                r.fin_acked[src].store(true, Ordering::Release);
            }
        }
    }

    /// Conduit-level teardown handshake (the out-of-process replacement
    /// for "peek at every peer's queue depth"): flush each link, announce
    /// our per-link data-frame count with a FIN, serve incoming traffic
    /// until every peer has both FIN'd us and acked our FIN, then shut
    /// the transport down. Call only after global completion (all
    /// application sends done and links quiescent).
    pub fn conduit_teardown(&self, me: Rank) {
        let Some(r) = &self.remote else { return };
        debug_assert_eq!(me, r.me);
        for dst in 0..self.ranks() {
            if dst == me {
                continue;
            }
            r.conduit.flush(dst);
            let sent = r.data_sent[dst].load(Ordering::Relaxed);
            r.send_encoded(dst, |b| wire::encode_fin(b, sent));
        }
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            self.pump_conduit(me);
            let done = (0..self.ranks()).filter(|&p| p != me).all(|p| {
                r.fin_recvd[p].load(Ordering::Acquire) && r.fin_acked[p].load(Ordering::Acquire)
            });
            if done || self.has_failed() {
                break;
            }
            if Instant::now() > deadline {
                eprintln!("rupcxx: conduit teardown timed out waiting for FIN handshake");
                break;
            }
            std::thread::yield_now();
        }
        r.conduit.shutdown();
    }
}
