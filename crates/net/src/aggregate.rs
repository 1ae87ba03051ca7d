//! Per-destination message aggregation (a software "conveyor").
//!
//! Fine-grained PGAS traffic — 8-byte remote updates, small RPCs — pays a
//! full `send_am`/RMA cost per operation on this fabric: an allocation, a
//! queue push, stats, trace and (under faults) reliable-layer bookkeeping
//! for every few bytes moved. UPC++ amortizes that per-message injection
//! overhead by packing handler + args into contiguous buffers (paper §IV);
//! DASH/DART report per-destination coalescing as the single largest win
//! for irregular workloads. This module is that layer:
//!
//! * each rank keeps one small coalescing buffer **per destination** into
//!   which buffered operations are packed as op frames of the one wire
//!   grammar ([`crate::wire`]: handler RPCs, `xor`/`add` word updates,
//!   small puts), so the buffer is an `Am` body as it fills;
//! * a buffer flushes as **one** [`AmPayload::Batch`] active message when
//!   it crosses the configured byte or frame-count threshold
//!   ([`AggConfig`]), or when the runtime force-flushes at a completion
//!   point (`advance()`, `fence()`, `barrier()`, `async_copy_fence`);
//! * the receiver pops the batch from its inbox **once** and dispatches
//!   the frames in order ([`Fabric::apply_op`]), so queue, allocation,
//!   stats and trace costs are paid per batch, not per operation;
//! * the reliable/fault layer sees the batch as a single sequenced frame:
//!   a retransmit redelivers the whole batch exactly once, and per-link
//!   FIFO order is preserved — [`Fabric::send_am`] flushes the
//!   destination's buffer before injecting any direct message.
//!
//! Without an [`AggConfig`] installed the layer is zero-cost: every
//! buffered entry point falls through to the direct operation after one
//! untaken branch, and no buffers are allocated.
//!
//! **Consistency:** buffered operations complete at the *next flush
//! point*, not at the call. Mixing buffered updates with direct RMA on
//! the same location without an intervening flush (`fence`/`barrier`)
//! is unordered, exactly like unsynchronized conflicting accesses under
//! the paper's relaxed memory model (§III-F).

use crate::fabric::{AmPayload, Fabric, GlobalAddr};
use crate::inbox::{thread_shard, INBOX_SHARDS};
use crate::wire::{Op, Reply};
use crate::Rank;
use rupcxx_check::{AccessKind, Stamp};
use rupcxx_util::sync::SpinMutex;
use rupcxx_util::{Bytes, SlabPool};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Aggregation thresholds (the `RUPCXX_AGG=bytes,count` knobs).
///
/// A per-destination buffer flushes when it holds `flush_bytes` of packed
/// frames **or** `flush_count` frames, whichever comes first.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AggConfig {
    /// Flush a destination buffer once it holds this many packed bytes.
    pub flush_bytes: usize,
    /// Flush a destination buffer once it holds this many frames.
    pub flush_count: usize,
}

impl Default for AggConfig {
    fn default() -> Self {
        AggConfig {
            flush_bytes: 4096,
            flush_count: 64,
        }
    }
}

impl AggConfig {
    /// Default thresholds (4096 bytes / 64 frames).
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder: set the byte threshold.
    pub fn flush_bytes(mut self, bytes: usize) -> Self {
        self.flush_bytes = bytes.max(1);
        self
    }

    /// Builder: set the frame-count threshold.
    pub fn flush_count(mut self, count: usize) -> Self {
        self.flush_count = count.max(1);
        self
    }

    /// Read a config from the `RUPCXX_AGG` environment variable.
    ///
    /// * unset, empty, `off` or `0` — aggregation disabled (`None`);
    /// * `on` or `1` — enabled with the default thresholds;
    /// * `BYTES,COUNT` (e.g. `RUPCXX_AGG=4096,64`) — explicit thresholds.
    ///
    /// A malformed value aborts with a clear message, mirroring
    /// `RUPCXX_FAULTS`/`RUPCXX_TRACE`/`RUPCXX_CHECK`.
    pub fn from_env() -> Option<Self> {
        rupcxx_util::env::parse_env("RUPCXX_AGG", "off | on | BYTES,COUNT", Self::parse)
    }

    /// Parse an `RUPCXX_AGG` value (see [`AggConfig::from_env`]).
    pub fn parse(raw: &str) -> Result<Option<Self>, String> {
        let raw = raw.trim();
        match raw {
            "" | "off" | "0" => return Ok(None),
            "on" | "1" => return Ok(Some(Self::default())),
            _ => {}
        }
        let (bytes, count) = raw
            .split_once(',')
            .ok_or_else(|| "expected off | on | BYTES,COUNT".to_string())?;
        let bytes: usize = bytes
            .trim()
            .parse()
            .map_err(|_| format!("bad byte threshold {:?}", bytes.trim()))?;
        let count: usize = count
            .trim()
            .parse()
            .map_err(|_| format!("bad frame-count threshold {:?}", count.trim()))?;
        if bytes == 0 || count == 0 {
            return Err("thresholds must be >= 1".into());
        }
        Ok(Some(AggConfig {
            flush_bytes: bytes,
            flush_count: count,
        }))
    }
}

/// Largest `data` accepted by [`Fabric::put_buffered`] (and largest
/// handler args accepted by [`Fabric::am_buffered`]) as a frame; larger
/// payloads are not "fine-grained" and go out directly.
pub const AGG_MAX_PUT: usize = 1024;

/// Headroom reserved beyond the byte threshold so the threshold check
/// (which runs *after* the frame is packed) never forces a slab to grow:
/// the largest frame is an [`AGG_MAX_PUT`]-byte put or handler call plus
/// its header.
const AGG_SLACK: usize = AGG_MAX_PUT + 64;

/// One (shard, destination) coalescing buffer. `bytes` is a slab on loan
/// from the endpoint's [`SlabPool`], taken lazily on first use and
/// pre-reserved to `flush_bytes + AGG_SLACK` so packing a frame is a pure
/// `extend_from_slice` — no reallocation, ever, on the word-frame path.
#[derive(Default)]
struct AggBuf {
    /// Frames currently packed in `bytes`.
    count: u32,
    /// Packed op frames: an `Am` body ([`crate::wire`]).
    bytes: Vec<u8>,
}

/// One injection shard: a buffer per destination plus a dirty flag. Each
/// producer thread owns one shard (by thread hash), so concurrent
/// injectors never contend on a buffer lock — which is why the buffers
/// sit behind a [`SpinMutex`]: the lock is held for a handful of
/// nanoseconds by (almost always) a single thread, and the uncontended
/// spin acquire/release is about half the cost of a futex mutex round
/// trip on the per-operation pack path.
struct AggShard {
    bufs: Box<[SpinMutex<AggBuf>]>,
    /// Set when any destination of this shard may hold frames — the cheap
    /// gate that keeps `flush_agg` in the progress engine's hot loop at
    /// one relaxed load per shard when nothing is pending.
    dirty: AtomicBool,
}

/// Per-endpoint aggregation state: config + per-shard, per-destination
/// buffers + the slab pool that recycles flushed batch buffers. Allocated
/// only when the fabric has an [`AggConfig`] (the slabs stay unallocated
/// until a destination is first used).
pub(crate) struct AggState {
    cfg: AggConfig,
    shards: Box<[AggShard]>,
    /// Recycles batch slabs: a flushed buffer travels to the receiver as
    /// pooled [`Bytes`] and its capacity returns here when the last
    /// reader drops — steady state packs and ships without allocating.
    pool: Arc<SlabPool>,
}

impl AggState {
    pub(crate) fn new(ranks: usize, cfg: AggConfig) -> Self {
        AggState {
            cfg,
            shards: (0..INBOX_SHARDS)
                .map(|_| AggShard {
                    bufs: (0..ranks)
                        .map(|_| SpinMutex::new(AggBuf::default()))
                        .collect(),
                    dirty: AtomicBool::new(false),
                })
                .collect(),
            // Enough idle slabs for every (shard, destination) buffer plus
            // a margin of in-flight batches.
            pool: SlabPool::new(INBOX_SHARDS * ranks + 8),
        }
    }
}

impl Fabric {
    /// True when this initiator has an aggregation layer installed.
    pub fn agg_enabled(&self, initiator: Rank) -> bool {
        self.endpoints[initiator].agg.is_some()
    }

    /// Pack one frame for `dst` into the calling thread's shard buffer,
    /// flushing it if a threshold is crossed. Caller guarantees
    /// aggregation is on and `dst != initiator`.
    ///
    /// Hot-path cost: one uncontended shard-buffer lock, the
    /// `extend_from_slice` of the frame, and (rarely) a dirty-flag store —
    /// per-op stats are accounted at flush time, batched per batch.
    fn agg_push(&self, initiator: Rank, dst: Rank, encode: impl FnOnce(&mut Vec<u8>)) {
        let ep = &self.endpoints[initiator];
        let agg = ep.agg.as_ref().expect("agg_push without aggregation");
        let shard = &agg.shards[thread_shard()];
        let flush = {
            let mut buf = shard.bufs[dst].lock();
            if buf.bytes.capacity() == 0 {
                buf.bytes = agg.pool.take(agg.cfg.flush_bytes + AGG_SLACK);
            }
            encode(&mut buf.bytes);
            buf.count += 1;
            if buf.count == 1 {
                shard.dirty.store(true, Ordering::Release);
            }
            buf.count as usize >= agg.cfg.flush_count || buf.bytes.len() >= agg.cfg.flush_bytes
        };
        if flush {
            // Threshold crossings flush only this thread's shard; other
            // injectors' partial buffers keep filling toward their own
            // thresholds. (The ordering flush in `send_am` sweeps every
            // shard via `flush_agg_to`.)
            self.flush_agg_shard_to(initiator, shard, dst);
        }
    }

    /// Flush one (shard, destination) buffer as a single
    /// [`AmPayload::Batch`]. The slab leaves as pooled [`Bytes`] — no
    /// copy, no shrink — and its capacity returns to the pool when the
    /// last reader (receiver, or the reliable layer's retransmit copy)
    /// drops. Returns whether anything was sent.
    fn flush_agg_shard_to(&self, initiator: Rank, shard: &AggShard, dst: Rank) -> bool {
        let ep = &self.endpoints[initiator];
        let agg = ep.agg.as_ref().expect("flush without aggregation");
        let (count, bytes) = {
            let mut buf = shard.bufs[dst].lock();
            if buf.count == 0 {
                return false;
            }
            (
                std::mem::take(&mut buf.count),
                std::mem::take(&mut buf.bytes),
            )
        };
        self.tel(initiator).batch_flush(dst, count as u64);
        self.send_am(
            initiator,
            dst,
            AmPayload::Batch {
                count,
                frames: Bytes::pooled(bytes, &agg.pool),
            },
        );
        true
    }

    /// Flush the initiator's buffers for one destination (all shards, in
    /// shard order) as [`AmPayload::Batch`] messages. Returns whether
    /// anything was sent.
    pub fn flush_agg_to(&self, initiator: Rank, dst: Rank) -> bool {
        let ep = &self.endpoints[initiator];
        let Some(agg) = &ep.agg else { return false };
        let mut sent = false;
        for shard in agg.shards.iter() {
            sent |= self.flush_agg_shard_to(initiator, shard, dst);
        }
        sent
    }

    /// Force-flush every destination buffer of `initiator`; returns the
    /// number of batches sent. With aggregation off — or nothing buffered
    /// — this is one branch plus one relaxed load per shard.
    pub fn flush_agg(&self, initiator: Rank) -> usize {
        let ep = &self.endpoints[initiator];
        let Some(agg) = &ep.agg else { return 0 };
        if !agg.shards.iter().any(|s| s.dirty.load(Ordering::Acquire)) {
            return 0;
        }
        // Clear the flags before sweeping: a racing push re-marks its
        // shard and is picked up by the next advance() at the latest.
        for shard in agg.shards.iter() {
            shard.dirty.store(false, Ordering::Release);
        }
        let mut batches = 0;
        for dst in 0..self.endpoints.len() {
            for shard in agg.shards.iter() {
                if self.flush_agg_shard_to(initiator, shard, dst) {
                    batches += 1;
                }
            }
        }
        batches
    }

    /// Buffered registered-handler RPC: packed as a frame when
    /// aggregation is on and `dst` is remote, otherwise a direct
    /// [`Fabric::send_am`]. Args over [`AGG_MAX_PUT`] bytes go out
    /// directly too, so a frame never outgrows [`AGG_SLACK`].
    pub fn am_buffered(&self, initiator: Rank, dst: Rank, id: u16, args: &[u8]) {
        if self.endpoints[initiator].agg.is_some() && dst != initiator && args.len() <= AGG_MAX_PUT
        {
            self.agg_push(initiator, dst, |b| Op::Handler { id, args }.encode(b));
        } else {
            self.send_am(
                initiator,
                dst,
                AmPayload::Handler {
                    id,
                    args: Bytes::copy_from_slice(args),
                },
            );
        }
    }

    /// Buffered remote xor (no fetched result — the update is applied by
    /// the destination's progress engine at delivery).
    pub fn xor_u64_buffered(&self, initiator: Rank, dst: GlobalAddr, value: u64) {
        if self.endpoints[initiator].agg.is_some() && dst.rank() != initiator {
            self.invalidate_own(initiator, dst, 8);
            self.agg_push(initiator, dst.rank(), |b| {
                Op::Xor { addr: dst, value }.encode(b)
            });
        } else {
            let _ = self.xor_u64(initiator, dst, value);
        }
    }

    /// Buffered remote add (no fetched result).
    pub fn add_u64_buffered(&self, initiator: Rank, dst: GlobalAddr, value: u64) {
        if self.endpoints[initiator].agg.is_some() && dst.rank() != initiator {
            self.invalidate_own(initiator, dst, 8);
            self.agg_push(initiator, dst.rank(), |b| {
                Op::Add { addr: dst, value }.encode(b)
            });
        } else {
            let _ = self.add_u64(initiator, dst, value);
        }
    }

    /// Buffered small put. Payloads over [`AGG_MAX_PUT`] bytes (or local
    /// / unaggregated ones) go out as a direct one-sided put.
    pub fn put_buffered(&self, initiator: Rank, dst: GlobalAddr, data: &[u8]) {
        if self.endpoints[initiator].agg.is_some()
            && dst.rank() != initiator
            && data.len() <= AGG_MAX_PUT
        {
            self.invalidate_own(initiator, dst, data.len());
            self.agg_push(initiator, dst.rank(), |b| {
                Op::Put { addr: dst, data }.encode(b)
            });
        } else {
            self.put(initiator, dst, data);
        }
    }

    /// Apply one op frame from `src` to `me`'s own segment and return its
    /// reply. Every segment operation that arrives from a peer comes
    /// through here: in-process batches (the runtime's `Ctx::execute`),
    /// and the `Am` bodies and `Req`s that arrive over a conduit.
    /// Handler ops are the caller's to route through its handler table.
    ///
    /// `stamp` is the clock the frame travelled with. The checker records
    /// the access *by the sender* at that clock — not the receiving
    /// rank's current clock, which would order the frame under everything
    /// the receiver has done and hide races with the receiver's own
    /// unfenced accesses. `in_am` names the carrier in the finding: ops in
    /// an `Am` were buffered by the aggregation layer (`agg-*`), ops in a
    /// `Req` are blocking RMA.
    #[inline]
    pub fn apply_op(
        &self,
        me: Rank,
        src: Rank,
        stamp: Option<&Stamp>,
        op: &Op<'_>,
        in_am: bool,
    ) -> Reply {
        let check = |offset: usize, len: usize, kind: AccessKind, label: &'static str| {
            if let (Some(ck), Some(stamp)) = (&self.check, stamp) {
                ck.frame_access(src, me, offset, len, kind, stamp, label);
            }
        };
        // The packed rank bits assert end to end that the frame was packed
        // for this rank's segment.
        debug_assert!(
            op.addr().is_none_or(|a| a.rank() == me),
            "op frame addressed to the wrong rank"
        );
        let (xor, add, put) = if in_am {
            ("agg-xor", "agg-add", "agg-put")
        } else {
            ("rmw", "rmw", "put")
        };
        let seg = &self.endpoints[me].segment;
        match *op {
            Op::Handler { id, .. } => {
                panic!("handler op {id} reached apply_op: the runtime dispatches handlers")
            }
            Op::Xor { addr, value } => {
                check(addr.offset(), 8, AccessKind::Atomic, xor);
                Reply::Word(true, seg.fetch_xor_u64(addr.offset(), value))
            }
            Op::Add { addr, value } => {
                check(addr.offset(), 8, AccessKind::Atomic, add);
                Reply::Word(true, seg.fetch_add_u64(addr.offset(), value))
            }
            Op::Cas { addr, current, new } => {
                check(addr.offset(), 8, AccessKind::Atomic, "rmw");
                match seg.cas_u64(addr.offset(), current, new) {
                    Ok(prev) => Reply::Word(true, prev),
                    Err(prev) => Reply::Word(false, prev),
                }
            }
            Op::Put { addr, data } => {
                check(addr.offset(), data.len(), AccessKind::Write, put);
                if data.len() == 8 && addr.offset().is_multiple_of(8) {
                    seg.store_u64(addr.offset(), u64::from_le_bytes(data.try_into().unwrap()));
                } else {
                    seg.write_bytes(addr.offset(), data);
                }
                Reply::Ack
            }
            Op::Get { addr, len } => {
                check(addr.offset(), len, AccessKind::Read, "get");
                let mut data = vec![0u8; len];
                seg.read_bytes(addr.offset(), &mut data);
                Reply::Data(data)
            }
            Op::PutStrided {
                addr,
                stride,
                block,
                nblocks,
                data,
            } => {
                for b in 0..nblocks {
                    let off = addr.offset() + b * stride;
                    check(off, block, AccessKind::Write, "put-strided");
                    seg.write_bytes(off, &data[b * block..(b + 1) * block]);
                }
                Reply::Ack
            }
            Op::GetStrided {
                addr,
                stride,
                block,
                nblocks,
            } => {
                let mut data = vec![0u8; block * nblocks];
                for b in 0..nblocks {
                    let off = addr.offset() + b * stride;
                    check(off, block, AccessKind::Read, "get-strided");
                    seg.read_bytes(off, &mut data[b * block..(b + 1) * block]);
                }
                Reply::Data(data)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::{AmMessage, FabricConfig};
    use crate::wire::Ops;
    use rupcxx_trace::TraceConfig;
    use std::sync::Arc;

    fn agg_fabric(ranks: usize, cfg: AggConfig) -> Arc<Fabric> {
        Fabric::new(FabricConfig {
            ranks,
            segment_bytes: 4096,
            simnet: None,
            trace: TraceConfig::off(),
            faults: None,
            agg: Some(cfg),
            check: None,
            cache: None,
            prof: None,
            schedule: None,
            remote: None,
        })
    }

    /// Receiver-side dispatch for tests: pop everything, apply segment
    /// frames, return handler ids in arrival order.
    fn dispatch_all(f: &Fabric, me: Rank) -> Vec<u16> {
        let mut ids = Vec::new();
        for AmMessage {
            src,
            payload,
            clock,
            ..
        } in f.endpoint(me).drain()
        {
            match payload {
                AmPayload::Handler { id, .. } => ids.push(id),
                AmPayload::Batch { frames, count } => {
                    let mut seen = 0;
                    for op in Ops::new(&frames) {
                        seen += 1;
                        if let Op::Handler { id, .. } = op {
                            ids.push(id);
                        } else {
                            f.apply_op(me, src, clock.as_ref(), &op, true);
                        }
                    }
                    assert_eq!(seen, count, "batch count must match its frames");
                }
                AmPayload::Task(_) => panic!("unexpected task payload"),
            }
        }
        ids
    }

    #[test]
    fn parse_env_forms() {
        assert_eq!(AggConfig::parse("off"), Ok(None));
        assert_eq!(AggConfig::parse("0"), Ok(None));
        assert_eq!(AggConfig::parse(""), Ok(None));
        assert_eq!(AggConfig::parse("on"), Ok(Some(AggConfig::default())));
        assert_eq!(AggConfig::parse("1"), Ok(Some(AggConfig::default())));
        assert_eq!(
            AggConfig::parse(" 8192 , 32 "),
            Ok(Some(AggConfig {
                flush_bytes: 8192,
                flush_count: 32
            }))
        );
        assert!(AggConfig::parse("many").is_err());
        assert!(AggConfig::parse("8192").is_err());
        assert!(AggConfig::parse("0,64").is_err());
        assert!(AggConfig::parse("x,64").is_err());
    }

    #[test]
    fn count_threshold_flushes_one_batch() {
        let f = agg_fabric(2, AggConfig::new().flush_count(4));
        for i in 0..4 {
            f.xor_u64_buffered(0, GlobalAddr::new(1, 8 * i), 1 << i);
        }
        // The 4th frame crossed the threshold: exactly one wire message.
        let c = f.endpoint(0).stats.snapshot();
        assert_eq!(c.agg_ops, 4);
        assert_eq!(c.agg_batches, 1);
        assert_eq!(c.ams_sent, 1);
        assert_eq!(f.endpoint(1).pending(), 1);
        assert!(dispatch_all(&f, 1).is_empty());
        for i in 0..4 {
            assert_eq!(f.endpoint(1).segment.load_u64(8 * i), 1 << i);
        }
    }

    #[test]
    fn byte_threshold_flushes() {
        let f = agg_fabric(2, AggConfig::new().flush_bytes(64).flush_count(1000));
        // 17-byte xor frames: the 4th crosses 64 bytes.
        for _ in 0..4 {
            f.add_u64_buffered(0, GlobalAddr::new(1, 0), 1);
        }
        assert_eq!(f.endpoint(0).stats.snapshot().agg_batches, 1);
        assert!(dispatch_all(&f, 1).is_empty());
        assert_eq!(f.endpoint(1).segment.load_u64(0), 4);
    }

    #[test]
    fn flush_agg_sends_partial_buffers_per_destination() {
        let f = agg_fabric(3, AggConfig::default());
        f.xor_u64_buffered(0, GlobalAddr::new(1, 0), 3);
        f.add_u64_buffered(0, GlobalAddr::new(2, 8), 4);
        f.put_buffered(0, GlobalAddr::new(2, 16), &[0xAB; 8]);
        assert_eq!(f.endpoint(1).pending(), 0, "below threshold: nothing sent");
        assert_eq!(f.flush_agg(0), 2, "one batch per buffered destination");
        assert_eq!(f.flush_agg(0), 0, "idempotent once empty");
        assert!(dispatch_all(&f, 1).is_empty());
        assert!(dispatch_all(&f, 2).is_empty());
        assert_eq!(f.endpoint(1).segment.load_u64(0), 3);
        assert_eq!(f.endpoint(2).segment.load_u64(8), 4);
        let mut got = [0u8; 8];
        f.endpoint(2).segment.read_bytes(16, &mut got);
        assert_eq!(got, [0xAB; 8]);
        let c = f.endpoint(0).stats.snapshot();
        assert_eq!((c.agg_ops, c.agg_batches), (3, 2));
    }

    #[test]
    fn local_ops_and_oversize_puts_fall_through() {
        let f = agg_fabric(2, AggConfig::default());
        // Local buffered ops never buffer (they are already "delivered").
        f.xor_u64_buffered(0, GlobalAddr::new(0, 0), 7);
        assert_eq!(f.endpoint(0).segment.load_u64(0), 7);
        // A put over AGG_MAX_PUT is not fine-grained: direct one-sided.
        let big = vec![1u8; AGG_MAX_PUT + 1];
        f.put_buffered(0, GlobalAddr::new(1, 0), &big);
        // Nor are handler args over AGG_MAX_PUT: one direct AM.
        f.am_buffered(0, 1, 5, &big);
        let c = f.endpoint(0).stats.snapshot();
        assert_eq!(c.agg_ops, 0);
        assert_eq!(c.local_ops, 1);
        assert_eq!(c.puts, 1);
        assert_eq!(c.put_bytes, big.len() as u64);
        assert_eq!((c.ams_sent, c.am_bytes), (1, big.len() as u64));
        assert_eq!(dispatch_all(&f, 1), vec![5]);
    }

    #[test]
    fn disabled_layer_falls_through_with_identical_counts() {
        let plain = Fabric::new(FabricConfig {
            ranks: 2,
            segment_bytes: 4096,
            simnet: None,
            trace: TraceConfig::off(),
            faults: None,
            agg: None,
            check: None,
            cache: None,
            prof: None,
            schedule: None,
            remote: None,
        });
        assert!(!plain.agg_enabled(0));
        plain.xor_u64_buffered(0, GlobalAddr::new(1, 0), 9);
        plain.add_u64_buffered(0, GlobalAddr::new(1, 8), 2);
        plain.put_buffered(0, GlobalAddr::new(1, 16), &[1, 2, 3]);
        plain.am_buffered(0, 1, 3, &[4, 5]);
        assert_eq!(plain.flush_agg(0), 0);
        let c = plain.endpoint(0).stats.snapshot();
        // Exactly the direct-path counts: 2 word updates + 1 put + 1 AM.
        assert_eq!((c.agg_ops, c.agg_batches), (0, 0));
        assert_eq!(c.puts, 3);
        assert_eq!(c.ams_sent, 1);
        assert_eq!(plain.endpoint(1).segment.load_u64(0), 9);
        assert_eq!(plain.endpoint(1).segment.load_u64(8), 2);
    }

    #[test]
    fn direct_am_flushes_destination_buffer_first() {
        // Per-link FIFO across the layers: frames buffered before a
        // direct AM must be delivered before it.
        let f = agg_fabric(2, AggConfig::default());
        f.am_buffered(0, 1, 10, &[]);
        f.am_buffered(0, 1, 11, &[]);
        f.send_am(
            0,
            1,
            AmPayload::Handler {
                id: 12,
                args: Bytes::new(),
            },
        );
        assert_eq!(dispatch_all(&f, 1), vec![10, 11, 12]);
        let c = f.endpoint(0).stats.snapshot();
        assert_eq!(c.agg_batches, 1, "the direct send forced the flush");
        assert_eq!(c.ams_sent, 2, "one batch + one direct AM");
    }

    #[test]
    fn batch_is_one_reliable_frame_under_total_duplication() {
        // Every wire frame is duplicated: the dedup window must discard
        // the duplicate *batch* so its updates apply exactly once.
        let f = Fabric::new(FabricConfig {
            ranks: 2,
            segment_bytes: 4096,
            simnet: None,
            trace: TraceConfig::off(),
            faults: Some(crate::faults::FaultPlan::new(3).dup(1.0)),
            agg: Some(AggConfig::new().flush_count(8)),
            check: None,
            cache: None,
            prof: None,
            schedule: None,
            remote: None,
        });
        for _ in 0..8 {
            f.add_u64_buffered(0, GlobalAddr::new(1, 0), 1);
        }
        for _ in 0..1000 {
            f.pump_incoming(1);
            assert!(dispatch_all(&f, 1).is_empty());
            if f.links_quiescent(1) && f.endpoint(1).pending() == 0 {
                break;
            }
        }
        assert_eq!(f.endpoint(1).segment.load_u64(0), 8, "exactly once");
        let c = f.total_counts();
        assert_eq!(c.agg_batches, 1);
        assert_eq!(c.dup_arrivals, 1, "one duplicate of the one batch");
    }
}
