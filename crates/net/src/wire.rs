//! The wire grammar: the one codec for every frame the fabric packs.
//!
//! Two kinds of frame share one tag space.
//!
//! * **Op frames** name one operation on the receiving rank: a
//!   registered-handler call, or a segment access addressed by the packed
//!   [`GlobalAddr`] word (whose rank bits double as an end-to-end check
//!   that the frame reached the rank it was packed for).
//! * **Link frames** are what a [`Conduit`](crate::conduit::Conduit)
//!   carries between processes. An `Am` wraps a concatenation of op
//!   frames, a `Req` wraps one op frame for a blocking round trip, and
//!   the replies and the FIN handshake complete the set.
//!
//! An aggregation slab *is* an `Am` body: the aggregation layer packs op
//! frames into it, the in-process receiver walks it with [`Ops`], and a
//! flush that crosses a conduit is an `Am` header followed by the slab
//! bytes. A direct handler AM is an `Am` with one op.
//!
//! | op frame     | bytes          | in `Am` | in `Req` | reply      |
//! |--------------|----------------|---------|----------|------------|
//! | `Handler`    | 7 + args       | yes     | no       | —          |
//! | `Xor`, `Add` | 17             | yes     | yes      | `RespWord` |
//! | `Put`        | 13 + data      | yes     | yes      | `Ack`      |
//! | `Cas`        | 25             | no      | yes      | `RespWord` |
//! | `Get`        | 13             | no      | yes      | `RespData` |
//! | `PutStrided` | 25 + data      | no      | yes      | `Ack`      |
//! | `GetStrided` | 25             | no      | yes      | `RespData` |
//!
//! Link frames: `Am{clock,prof,count,body}`, `Req{stamp,token,op}`,
//! `RespData{token,data}`, `RespWord{token,ok,val}`, `Ack{token}`,
//! `Fin{frames}` and `FinAck`. An `Am` carries the sender's checker clock
//! and profiler span; a `Req` carries the initiator's clock, so the
//! receiver runs the same race check on both (`Fabric::apply_op`).
//!
//! Everything is little-endian: a tag byte, fixed-width fields, then
//! payloads (length-prefixed inside op frames, the rest of the frame in
//! link frames). Encoders append to a caller-supplied `Vec`, so a warm
//! buffer never allocates; the decoder borrows from the received bytes.
//! Frames are produced by this codec and carried by reliable, ordered
//! transports, so a malformed frame is a codec bug and panics.

use crate::fabric::{AmMessage, AmPayload, GlobalAddr};
use rupcxx_check::Stamp;
use rupcxx_trace::ProfSpan;

const TAG_HANDLER: u8 = 0;
const TAG_XOR: u8 = 1;
const TAG_ADD: u8 = 2;
const TAG_PUT: u8 = 3;
const TAG_CAS: u8 = 4;
const TAG_GET: u8 = 5;
const TAG_PUT_STRIDED: u8 = 6;
const TAG_GET_STRIDED: u8 = 7;
const TAG_AM: u8 = 8;
const TAG_REQ: u8 = 9;
const TAG_RESP_DATA: u8 = 10;
const TAG_RESP_WORD: u8 = 11;
const TAG_ACK: u8 = 12;
const TAG_FIN: u8 = 13;
const TAG_FIN_ACK: u8 = 14;

/// One op frame; payload slices borrow from the packed bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op<'a> {
    /// A registered-handler call, dispatched through the runtime's
    /// handler table.
    Handler {
        /// Registered handler id.
        id: u16,
        /// Packed arguments.
        args: &'a [u8],
    },
    /// Atomic xor on an aligned word; a `Req` is answered with the
    /// previous value.
    Xor {
        /// Target word.
        addr: GlobalAddr,
        /// Operand.
        value: u64,
    },
    /// Atomic add on an aligned word; a `Req` is answered with the
    /// previous value.
    Add {
        /// Target word.
        addr: GlobalAddr,
        /// Operand.
        value: u64,
    },
    /// Contiguous write.
    Put {
        /// Destination of the first byte.
        addr: GlobalAddr,
        /// Bytes to write.
        data: &'a [u8],
    },
    /// Compare-and-swap on an aligned word.
    Cas {
        /// Target word.
        addr: GlobalAddr,
        /// Expected value.
        current: u64,
        /// Value stored on a match.
        new: u64,
    },
    /// Contiguous read of `len` bytes.
    Get {
        /// Source of the first byte.
        addr: GlobalAddr,
        /// Bytes wanted.
        len: usize,
    },
    /// `nblocks` blocks of `block` bytes written `stride` bytes apart.
    PutStrided {
        /// Destination of block 0.
        addr: GlobalAddr,
        /// Byte distance between consecutive block starts.
        stride: usize,
        /// Bytes per block.
        block: usize,
        /// Number of blocks.
        nblocks: usize,
        /// Packed block data (`block * nblocks` bytes).
        data: &'a [u8],
    },
    /// `nblocks` blocks of `block` bytes read `stride` bytes apart.
    GetStrided {
        /// Source of block 0.
        addr: GlobalAddr,
        /// Byte distance between consecutive block starts.
        stride: usize,
        /// Bytes per block.
        block: usize,
        /// Number of blocks.
        nblocks: usize,
    },
}

/// The result of applying an op, and what a `Req` is answered with.
#[derive(Debug, PartialEq, Eq)]
pub enum Reply {
    /// Write completion (`Ack`).
    Ack,
    /// Atomic result (`RespWord`): CAS success (always true for xor/add)
    /// and the previous value.
    Word(bool, u64),
    /// Read data (`RespData`).
    Data(Vec<u8>),
}

impl Reply {
    /// The `(ok, previous)` of a word reply.
    pub fn word(self) -> (bool, u64) {
        match self {
            Reply::Word(ok, val) => (ok, val),
            other => panic!("expected a word reply, got {other:?}"),
        }
    }

    /// The bytes of a data reply.
    pub fn data(self) -> Vec<u8> {
        match self {
            Reply::Data(d) => d,
            other => panic!("expected a data reply, got {other:?}"),
        }
    }
}

/// A decoded link frame; payload slices borrow from the received frame.
#[derive(Debug)]
pub enum Link<'a> {
    /// An active message: `count` op frames packed in `body`.
    Am {
        /// Checker clock stamp, if the checker is on.
        clock: Option<Stamp>,
        /// Profiler span, if the profiler is on.
        prof: Option<ProfSpan>,
        /// Number of op frames in `body`.
        count: u32,
        /// The op frames (walk with [`Ops`]).
        body: &'a [u8],
    },
    /// A blocking RMA request, answered by a reply carrying `token`.
    Req {
        /// Initiator's clock stamp for the receiver-side race check.
        stamp: Option<Stamp>,
        /// Reply-matching token.
        token: u64,
        /// The operation.
        op: Op<'a>,
    },
    /// A `RespData`, `RespWord` or `Ack` frame.
    Resp {
        /// Token of the request this answers.
        token: u64,
        /// The reply.
        reply: Reply,
    },
    /// Link teardown: "I sent you exactly `frames` data frames; I will
    /// send no more." FIFO ordering makes the count checkable on arrival.
    Fin {
        /// Data frames (everything except FIN/FIN_ACK) sent on this link.
        frames: u64,
    },
    /// Acknowledges a FIN; after this the sender may drop the link.
    FinAck,
}

// --- encoders ------------------------------------------------------------

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(buf: &mut Vec<u8>, v: usize) {
    let v = u32::try_from(v).expect("wire: field exceeds 4 GiB");
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_bytes(buf: &mut Vec<u8>, b: &[u8]) {
    put_u32(buf, b.len());
    buf.extend_from_slice(b);
}

fn put_stamp(buf: &mut Vec<u8>, stamp: Option<&Stamp>) {
    let words = stamp.map_or(&[][..], |s| &s.0);
    assert!(
        stamp.is_none() || !words.is_empty(),
        "empty clock stamp on the wire"
    );
    let n = u16::try_from(words.len()).expect("stamp > 65535 ranks");
    buf.extend_from_slice(&n.to_le_bytes());
    for w in words {
        put_u64(buf, *w);
    }
}

fn put_prof(buf: &mut Vec<u8>, prof: Option<&ProfSpan>) {
    match prof {
        None => buf.push(0),
        Some(p) => {
            buf.push(1);
            put_u64(buf, p.id);
            put_u64(buf, p.inject_ns);
        }
    }
}

impl Op<'_> {
    /// Append this op frame to `buf`. Always inlined: on the packing hot
    /// path the variant is known, and the match folds to its one arm.
    #[inline(always)]
    pub fn encode(&self, buf: &mut Vec<u8>) {
        match *self {
            Op::Handler { id, args } => {
                buf.push(TAG_HANDLER);
                buf.extend_from_slice(&id.to_le_bytes());
                put_bytes(buf, args);
            }
            Op::Xor { addr, value } => word_frame(buf, TAG_XOR, addr, value),
            Op::Add { addr, value } => word_frame(buf, TAG_ADD, addr, value),
            Op::Put { addr, data } => {
                buf.push(TAG_PUT);
                put_u64(buf, addr.packed());
                put_bytes(buf, data);
            }
            Op::Cas { addr, current, new } => {
                word_frame(buf, TAG_CAS, addr, current);
                put_u64(buf, new);
            }
            Op::Get { addr, len } => {
                buf.push(TAG_GET);
                put_u64(buf, addr.packed());
                put_u32(buf, len);
            }
            Op::PutStrided {
                addr,
                stride,
                block,
                nblocks,
                data,
            } => {
                assert_eq!(data.len(), block * nblocks, "put_strided: data size");
                strided_header(buf, TAG_PUT_STRIDED, addr, stride, block, nblocks);
                buf.extend_from_slice(data);
            }
            Op::GetStrided {
                addr,
                stride,
                block,
                nblocks,
            } => strided_header(buf, TAG_GET_STRIDED, addr, stride, block, nblocks),
        }
    }

    /// The word a segment op addresses (`None` for a handler call).
    pub fn addr(&self) -> Option<GlobalAddr> {
        match *self {
            Op::Handler { .. } => None,
            Op::Xor { addr, .. }
            | Op::Add { addr, .. }
            | Op::Put { addr, .. }
            | Op::Cas { addr, .. }
            | Op::Get { addr, .. }
            | Op::PutStrided { addr, .. }
            | Op::GetStrided { addr, .. } => Some(addr),
        }
    }

    /// True for the ops that may only travel in a `Req`.
    fn request_only(&self) -> bool {
        matches!(
            self,
            Op::Cas { .. } | Op::Get { .. } | Op::PutStrided { .. } | Op::GetStrided { .. }
        )
    }
}

/// A word frame is assembled on the stack and appended with ONE
/// `extend_from_slice`: a single length/capacity check instead of three,
/// lowered to two unaligned 8-byte stores plus a byte.
#[inline]
fn word_frame(buf: &mut Vec<u8>, tag: u8, addr: GlobalAddr, value: u64) {
    let mut frame = [0u8; 17];
    frame[0] = tag;
    frame[1..9].copy_from_slice(&addr.packed().to_le_bytes());
    frame[9..17].copy_from_slice(&value.to_le_bytes());
    buf.extend_from_slice(&frame);
}

fn strided_header(
    buf: &mut Vec<u8>,
    tag: u8,
    addr: GlobalAddr,
    stride: usize,
    block: usize,
    nblocks: usize,
) {
    buf.push(tag);
    put_u64(buf, addr.packed());
    put_u64(buf, stride as u64);
    put_u32(buf, block);
    put_u32(buf, nblocks);
}

/// Encode `msg` as an `Am` link frame. Clears `buf` first. A handler
/// payload becomes a one-op body; a batch's slab is appended verbatim.
///
/// # Panics
/// On a closure payload, which cannot leave its address space.
pub fn encode_am(buf: &mut Vec<u8>, msg: &AmMessage) {
    buf.clear();
    buf.push(TAG_AM);
    put_stamp(buf, msg.clock.as_ref());
    put_prof(buf, msg.prof.as_ref());
    match &msg.payload {
        AmPayload::Handler { id, args } => {
            put_u32(buf, 1);
            Op::Handler { id: *id, args }.encode(buf);
        }
        AmPayload::Batch { frames, count } => {
            put_u32(buf, *count as usize);
            buf.extend_from_slice(frames);
        }
        AmPayload::Task(_) => panic!(
            "closure AMs cannot cross process boundaries: register a handler \
             (send_handler) instead of sending a boxed task to another process"
        ),
    }
}

/// Encode a `Req` carrying `op`. Clears `buf` first.
pub fn encode_req(buf: &mut Vec<u8>, stamp: Option<&Stamp>, token: u64, op: &Op<'_>) {
    assert!(
        !matches!(op, Op::Handler { .. }),
        "handler ops travel in an Am"
    );
    buf.clear();
    buf.push(TAG_REQ);
    put_stamp(buf, stamp);
    put_u64(buf, token);
    op.encode(buf);
}

/// Encode the reply frame answering request `token`. Clears `buf` first.
pub fn encode_reply(buf: &mut Vec<u8>, token: u64, reply: &Reply) {
    buf.clear();
    match reply {
        Reply::Ack => {
            buf.push(TAG_ACK);
            put_u64(buf, token);
        }
        Reply::Word(ok, val) => {
            buf.push(TAG_RESP_WORD);
            put_u64(buf, token);
            buf.push(*ok as u8);
            put_u64(buf, *val);
        }
        Reply::Data(data) => {
            buf.push(TAG_RESP_DATA);
            put_u64(buf, token);
            buf.extend_from_slice(data);
        }
    }
}

/// Encode a link FIN carrying the data-frame count. Clears `buf` first.
pub fn encode_fin(buf: &mut Vec<u8>, frames: u64) {
    buf.clear();
    buf.push(TAG_FIN);
    put_u64(buf, frames);
}

/// Encode a FIN ack. Clears `buf` first.
pub fn encode_fin_ack(buf: &mut Vec<u8>) {
    buf.clear();
    buf.push(TAG_FIN_ACK);
}

/// True for link frames counted by the FIN handshake (everything except
/// the handshake itself).
pub fn is_data_frame(frame: &[u8]) -> bool {
    !matches!(frame.first(), Some(&TAG_FIN) | Some(&TAG_FIN_ACK))
}

// --- decoder -------------------------------------------------------------

/// The unread tail of a frame.
struct Cursor<'a>(&'a [u8]);

impl<'a> Cursor<'a> {
    #[inline]
    fn take(&mut self, n: usize) -> &'a [u8] {
        let (head, rest) = self.0.split_at_checked(n).expect("wire: truncated frame");
        self.0 = rest;
        head
    }

    fn rest(&mut self) -> &'a [u8] {
        std::mem::take(&mut self.0)
    }

    fn u8(&mut self) -> u8 {
        self.take(1)[0]
    }

    fn u16(&mut self) -> u16 {
        u16::from_le_bytes(self.take(2).try_into().unwrap())
    }

    fn u32(&mut self) -> usize {
        u32::from_le_bytes(self.take(4).try_into().unwrap()) as usize
    }

    fn u64(&mut self) -> u64 {
        u64::from_le_bytes(self.take(8).try_into().unwrap())
    }

    fn addr(&mut self) -> GlobalAddr {
        GlobalAddr::from_packed(self.u64())
    }

    fn bytes(&mut self) -> &'a [u8] {
        let n = self.u32();
        self.take(n)
    }

    fn stamp(&mut self) -> Option<Stamp> {
        let words = self.u16() as usize;
        (words > 0).then(|| Stamp((0..words).map(|_| self.u64()).collect()))
    }

    fn prof(&mut self) -> Option<ProfSpan> {
        (self.u8() != 0).then(|| ProfSpan {
            id: self.u64(),
            inject_ns: self.u64(),
        })
    }

    #[inline]
    fn op(&mut self) -> Op<'a> {
        match self.u8() {
            TAG_HANDLER => Op::Handler {
                id: self.u16(),
                args: self.bytes(),
            },
            TAG_XOR => Op::Xor {
                addr: self.addr(),
                value: self.u64(),
            },
            TAG_ADD => Op::Add {
                addr: self.addr(),
                value: self.u64(),
            },
            TAG_PUT => Op::Put {
                addr: self.addr(),
                data: self.bytes(),
            },
            TAG_CAS => Op::Cas {
                addr: self.addr(),
                current: self.u64(),
                new: self.u64(),
            },
            TAG_GET => Op::Get {
                addr: self.addr(),
                len: self.u32(),
            },
            TAG_PUT_STRIDED => {
                let (addr, stride) = (self.addr(), self.u64() as usize);
                let (block, nblocks) = (self.u32(), self.u32());
                Op::PutStrided {
                    addr,
                    stride,
                    block,
                    nblocks,
                    data: self.take(block * nblocks),
                }
            }
            TAG_GET_STRIDED => Op::GetStrided {
                addr: self.addr(),
                stride: self.u64() as usize,
                block: self.u32(),
                nblocks: self.u32(),
            },
            other => panic!("wire: unknown frame tag {other} for an op frame"),
        }
    }
}

/// In-order iterator over the op frames of an `Am` body (an aggregation
/// slab). Panics on a malformed body or a request-only op.
pub struct Ops<'a>(Cursor<'a>);

impl<'a> Ops<'a> {
    /// Walk the op frames packed in `body`.
    pub fn new(body: &'a [u8]) -> Self {
        Ops(Cursor(body))
    }
}

impl<'a> Iterator for Ops<'a> {
    type Item = Op<'a>;

    #[inline]
    fn next(&mut self) -> Option<Op<'a>> {
        if self.0 .0.is_empty() {
            return None;
        }
        let op = self.0.op();
        assert!(
            !op.request_only(),
            "wire: request-only {op:?} in an Am body"
        );
        Some(op)
    }
}

/// Decode one link frame.
///
/// # Panics
/// On a malformed frame: the conduit contract is reliable ordered byte
/// delivery, so corruption here is a codec bug, not a network condition.
pub fn decode(frame: &[u8]) -> Link<'_> {
    let mut c = Cursor(frame);
    let link = match c.u8() {
        TAG_AM => Link::Am {
            clock: c.stamp(),
            prof: c.prof(),
            count: c.u32() as u32,
            body: c.rest(),
        },
        TAG_REQ => {
            let (stamp, token, op) = (c.stamp(), c.u64(), c.op());
            assert!(
                !matches!(op, Op::Handler { .. }),
                "wire: handler op in a Req"
            );
            Link::Req { stamp, token, op }
        }
        TAG_RESP_DATA => Link::Resp {
            token: c.u64(),
            reply: Reply::Data(c.rest().to_vec()),
        },
        TAG_RESP_WORD => Link::Resp {
            token: c.u64(),
            reply: Reply::Word(c.u8() != 0, c.u64()),
        },
        TAG_ACK => Link::Resp {
            token: c.u64(),
            reply: Reply::Ack,
        },
        TAG_FIN => Link::Fin { frames: c.u64() },
        TAG_FIN_ACK => Link::FinAck,
        other => panic!("wire: unknown frame tag {other} for a link frame"),
    };
    assert!(c.0.is_empty(), "wire: trailing bytes in frame");
    link
}

#[cfg(test)]
mod tests {
    use super::*;
    use rupcxx_util::Bytes;

    fn stamp(words: &[u64]) -> Stamp {
        Stamp(words.to_vec().into_boxed_slice())
    }

    fn am(payload: AmPayload, clock: Option<Stamp>, prof: Option<ProfSpan>) -> AmMessage {
        AmMessage {
            src: 0,
            payload,
            clock,
            prof,
        }
    }

    /// Every op frame, packed into an `Am` body (the ones allowed there)
    /// and wrapped in a `Req` (the ones allowed there), decodes to itself;
    /// so do the reply and teardown frames.
    #[test]
    fn every_frame_round_trips() {
        let a = GlobalAddr::new(1, 64);
        let ops = [
            Op::Handler {
                id: 7,
                args: &[1, 2, 3],
            },
            Op::Handler { id: 8, args: &[] },
            Op::Xor {
                addr: a,
                value: 0xDEAD,
            },
            Op::Add { addr: a, value: 5 },
            Op::Put {
                addr: a,
                data: &[9; 16],
            },
            Op::Cas {
                addr: a,
                current: 100,
                new: 200,
            },
            Op::Get { addr: a, len: 32 },
            Op::PutStrided {
                addr: a,
                stride: 256,
                block: 8,
                nblocks: 3,
                data: &[1; 24],
            },
            Op::GetStrided {
                addr: a,
                stride: 512,
                block: 16,
                nblocks: 4,
            },
        ];
        let mut body = Vec::new();
        let am_ops: Vec<Op<'_>> = ops.iter().copied().filter(|o| !o.request_only()).collect();
        for op in &am_ops {
            op.encode(&mut body);
        }
        // The four aggregated kinds keep their fixed frame sizes.
        assert_eq!(body.len(), (7 + 3) + 7 + 17 + 17 + (13 + 16));

        let ck = stamp(&[3, 1, 4, 1]);
        let span = ProfSpan {
            id: 0xdead_beef,
            inject_ns: 777,
        };
        let batch = AmPayload::Batch {
            frames: Bytes::copy_from_slice(&body),
            count: am_ops.len() as u32,
        };
        let mut buf = Vec::new();
        encode_am(&mut buf, &am(batch, Some(ck.clone()), Some(span)));
        match decode(&buf) {
            Link::Am {
                clock,
                prof,
                count,
                body: got,
            } => {
                assert_eq!(clock, Some(ck.clone()));
                assert_eq!(prof, Some(span));
                assert_eq!(count as usize, am_ops.len());
                assert_eq!(got, &body[..], "the slab crosses verbatim");
                assert_eq!(Ops::new(got).collect::<Vec<_>>(), am_ops);
            }
            other => panic!("wrong frame {other:?}"),
        }

        // A direct handler AM is an Am with one op.
        let direct = AmPayload::Handler {
            id: 42,
            args: Bytes::copy_from_slice(b"payload"),
        };
        encode_am(&mut buf, &am(direct, None, None));
        match decode(&buf) {
            Link::Am {
                clock: None,
                prof: None,
                count: 1,
                body,
            } => assert_eq!(
                Ops::new(body).collect::<Vec<_>>(),
                [Op::Handler {
                    id: 42,
                    args: b"payload"
                }]
            ),
            other => panic!("wrong frame {other:?}"),
        }

        for (i, op) in ops
            .iter()
            .filter(|o| !matches!(o, Op::Handler { .. }))
            .enumerate()
        {
            let st = (i % 2 == 0).then(|| ck.clone());
            encode_req(&mut buf, st.as_ref(), i as u64, op);
            match decode(&buf) {
                Link::Req {
                    stamp,
                    token,
                    op: got,
                } => assert_eq!((stamp, token, got), (st, i as u64, *op)),
                other => panic!("wrong frame {other:?}"),
            }
        }

        for reply in [
            Reply::Ack,
            Reply::Word(true, u64::MAX),
            Reply::Data(b"hello".to_vec()),
        ] {
            encode_reply(&mut buf, 21, &reply);
            assert!(is_data_frame(&buf));
            match decode(&buf) {
                Link::Resp {
                    token: 21,
                    reply: got,
                } => assert_eq!(got, reply),
                other => panic!("wrong frame {other:?}"),
            }
        }

        encode_fin(&mut buf, 9001);
        assert!(matches!(decode(&buf), Link::Fin { frames: 9001 }));
        assert!(!is_data_frame(&buf));
        encode_fin_ack(&mut buf);
        assert!(matches!(decode(&buf), Link::FinAck));
        assert!(!is_data_frame(&buf));
    }

    #[test]
    fn scratch_buffer_is_reused_not_grown() {
        let mut buf = Vec::with_capacity(256);
        let put = Op::Put {
            addr: GlobalAddr::new(1, 0),
            data: &[0u8; 64],
        };
        encode_req(&mut buf, None, 1, &put);
        let cap = buf.capacity();
        let ptr = buf.as_ptr();
        for t in 0..100 {
            encode_req(&mut buf, None, t, &put);
        }
        assert_eq!(buf.capacity(), cap, "encode must not grow a warm scratch");
        assert_eq!(buf.as_ptr(), ptr, "encode must not reallocate");
    }

    #[test]
    #[should_panic(expected = "truncated frame")]
    fn truncated_frame_panics() {
        let mut buf = Vec::new();
        let op = Op::Put {
            addr: GlobalAddr::new(0, 0),
            data: &[1, 2, 3],
        };
        encode_req(&mut buf, None, 1, &op);
        buf.truncate(buf.len() - 1);
        decode(&buf);
    }

    #[test]
    #[should_panic(expected = "unknown frame tag")]
    fn unknown_tag_panics() {
        decode(&[0xFF]);
    }

    #[test]
    #[should_panic(expected = "request-only")]
    fn request_only_op_in_am_body_panics() {
        let mut body = Vec::new();
        Op::Get {
            addr: GlobalAddr::new(0, 0),
            len: 8,
        }
        .encode(&mut body);
        let _ = Ops::new(&body).count();
    }
}
