//! Binary wire protocol for the framework's node messages.
//!
//! The simulator passes [`Msg`] values by move; a real deployment needs
//! them on the wire. This module defines a compact, versioned,
//! little-endian binary encoding with no external schema — the layout is
//! fixed per tag so a handful of bytes of framing suffices:
//!
//! ```text
//! [version: u8] [tag: u8] [payload…]
//! ```
//!
//! Payloads:
//! * Newscast request/reply — `u32` descriptor count, then per descriptor
//!   `u64` node id + `u64` timestamp;
//! * optimum-carrying messages (anti-entropy offer/tell, rumor push,
//!   migrant, master report/update) — `u32` dimension, `dim × f64`
//!   coordinates, `f64` fitness;
//! * anti-entropy `Ask` — empty;
//! * rumor feedback — one `u8` (0 = new, 1 = duplicate);
//! * coordination batch — an item-count varint, then per item a source-id
//!   varint, a kind byte (0 = offer, 1 = ask, 2 = tell) and, for
//!   payload-carrying kinds, a `u32` dimension followed by either raw
//!   `f64`s (the frame's first payload, or one whose dimension differs
//!   from that reference) or zig-zag LEB128 varints of the `f64`
//!   bit-pattern deltas against the reference payload;
//! * rumor/migrant batch — the coordination-batch layout minus the kind
//!   byte (the tag already names the payload kind): an item-count varint,
//!   then per item a source-id varint, a `u32` dimension and raw or
//!   delta-coded `f64`s under the same first-payload reference rule.
//!   Because migrant payloads are routinely dissimilar (distinct
//!   particles, not one converged optimum), each follower item is encoded
//!   as the cheaper of delta and raw; raw fallback is signalled by the
//!   top bit of the item's dimension word, which real dimensionalities
//!   never reach.
//!
//! Decoding is strict: trailing bytes, truncation, unknown tags, unknown
//! versions and rumor-feedback flags other than 0/1 are all errors (a
//! corrupted optimum silently accepted would poison the whole epidemic).
//! Overlong varints are rejected as truncation.
//!
//! Cost: [`encode`] writes a frame in one pass into one buffer sized by a
//! cheap estimate — no pre-pass to measure it, no intermediate copy — and
//! [`decode`] builds every payload of up to
//! [`POS_INLINE_DIM`] dimensions on the stack, so neither side touches the
//! allocator per payload below 17 dimensions. Batch varints go through
//! the word-at-a-time LEB128 path of [`gossipopt_util::varint`].

use bytes::Bytes;
use gossipopt_core::messages::{CoordBatch, GossipBatch, Msg};
use gossipopt_core::rumor::{GlobalBest, Pos, POS_INLINE_DIM};
use gossipopt_gossip::view::Descriptor;
use gossipopt_gossip::{AntiEntropyMsg, NewscastMsg, RumorAck};
use gossipopt_sim::NodeId;
use gossipopt_util::varint::{read_f64_delta, read_varint, write_f64_delta, write_varint};

/// Wire format version accepted by this build.
pub const WIRE_VERSION: u8 = 1;

/// Why a datagram failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the payload was complete.
    Truncated,
    /// Unknown message tag.
    BadTag(u8),
    /// Unsupported wire version.
    BadVersion(u8),
    /// Payload longer than its declared content.
    TrailingBytes(usize),
    /// A declared length that cannot possibly fit the buffer.
    LengthOverflow(u64),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated message"),
            WireError::BadTag(t) => write!(f, "unknown message tag {t}"),
            WireError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after payload"),
            WireError::LengthOverflow(n) => write!(f, "declared length {n} exceeds buffer"),
        }
    }
}

impl std::error::Error for WireError {}

mod tag {
    pub const NEWSCAST_REQUEST: u8 = 0;
    pub const NEWSCAST_REPLY: u8 = 1;
    pub const COORD_OFFER: u8 = 2;
    pub const COORD_ASK: u8 = 3;
    pub const COORD_TELL: u8 = 4;
    pub const RUMOR_PUSH: u8 = 5;
    pub const RUMOR_FEEDBACK: u8 = 6;
    pub const MIGRANT: u8 = 7;
    pub const MASTER_REPORT: u8 = 8;
    pub const MASTER_UPDATE: u8 = 9;
    pub const COORD_BATCH: u8 = 10;
    pub const RUMOR_BATCH: u8 = 11;
    pub const MIGRANT_BATCH: u8 = 12;
}

mod kind {
    pub const OFFER: u8 = 0;
    pub const ASK: u8 = 1;
    pub const TELL: u8 = 2;
}

/// Top bit of a gossip-batch item's dimensionality word: set when the
/// follower payload is raw-encoded because bit-pattern deltas against the
/// frame reference would cost more (dissimilar payloads pay up to 10
/// bytes per element for deltas against 8 raw). Real dimensionalities
/// never approach `2^31`, so the bit is otherwise always clear.
const GOSSIP_RAW_FLAG: u32 = 1 << 31;

/// Raw `f64` coordinates followed by the raw fitness.
fn put_raw(out: &mut Vec<u8>, g: &GlobalBest) {
    for &x in g.x.iter() {
        out.extend_from_slice(&x.to_le_bytes());
    }
    out.extend_from_slice(&g.f.to_le_bytes());
}

/// Coordinates and fitness as bit-pattern deltas against `r` (same
/// dimensionality as `g`).
fn put_delta(out: &mut Vec<u8>, g: &GlobalBest, r: &GlobalBest) {
    for (&x, &rx) in g.x.iter().zip(r.x.iter()) {
        write_f64_delta(out, x, rx);
    }
    write_f64_delta(out, g.f, r.f);
}

fn best_len(g: &GlobalBest) -> usize {
    12 + 8 * g.x.len()
}

fn put_best(out: &mut Vec<u8>, g: &GlobalBest) {
    out.extend_from_slice(&(g.x.len() as u32).to_le_bytes());
    put_raw(out, g);
}

fn batch_len(items: usize) -> usize {
    128 + 32 * items
}

fn put_coord_batch(out: &mut Vec<u8>, b: &CoordBatch) {
    write_varint(out, b.items.len() as u64);
    let mut reference: Option<&GlobalBest> = None;
    for (src, m) in &b.items {
        write_varint(out, src.raw());
        let (k, g) = match m {
            AntiEntropyMsg::Offer(g) => (kind::OFFER, g),
            AntiEntropyMsg::Ask => {
                out.push(kind::ASK);
                continue;
            }
            AntiEntropyMsg::Tell(g) => (kind::TELL, g),
        };
        out.push(k);
        out.extend_from_slice(&(g.x.len() as u32).to_le_bytes());
        match reference {
            // Same dimensionality as the frame reference: bit-pattern
            // deltas (one byte per element once the epidemic converges).
            Some(r) if r.x.len() == g.x.len() => put_delta(out, g, r),
            // First payload (or a dimension mismatch): raw, and the first
            // one becomes the reference — a deterministic rule, so the
            // decoder needs no flag byte.
            _ => {
                put_raw(out, g);
                reference.get_or_insert(g);
            }
        }
    }
}

fn put_gossip_batch(out: &mut Vec<u8>, b: &GossipBatch) {
    write_varint(out, b.items.len() as u64);
    let mut reference: Option<&GlobalBest> = None;
    for (src, g) in &b.items {
        write_varint(out, src.raw());
        let dim = g.x.len() as u32;
        let at = out.len();
        out.extend_from_slice(&dim.to_le_bytes());
        match reference {
            // Same dimensionality as the frame reference: bit-pattern
            // deltas (one byte per element once the epidemic converges) —
            // unless the payload is dissimilar enough that raw is
            // cheaper, in which case the deltas are dropped and the
            // dimension word's top bit tells the decoder it is raw.
            Some(r) if r.x.len() == g.x.len() => {
                put_delta(out, g, r);
                if out.len() - at - 4 > 8 * g.x.len() + 8 {
                    out.truncate(at);
                    out.extend_from_slice(&(dim | GOSSIP_RAW_FLAG).to_le_bytes());
                    put_raw(out, g);
                }
            }
            // First payload (or a dimension mismatch): raw, and the first
            // one becomes the reference — a deterministic rule, so no
            // flag is needed here.
            _ => {
                put_raw(out, g);
                reference.get_or_insert(g);
            }
        }
    }
}

fn put_descriptors(out: &mut Vec<u8>, ds: &[Descriptor]) {
    out.extend_from_slice(&(ds.len() as u32).to_le_bytes());
    for d in ds {
        out.extend_from_slice(&d.id.raw().to_le_bytes());
        out.extend_from_slice(&d.stamp.to_le_bytes());
    }
}

/// Encode a framework message into a standalone datagram payload.
pub fn encode(msg: &Msg) -> Bytes {
    // Tag, and a payload size estimate so the frame is written into one
    // allocation: exact for fixed layouts, ≈ one near-converged item per
    // 32 bytes for batches.
    let (t, size) = match msg {
        Msg::Newscast(NewscastMsg::Request(ds)) => (tag::NEWSCAST_REQUEST, 4 + 16 * ds.len()),
        Msg::Newscast(NewscastMsg::Reply(ds)) => (tag::NEWSCAST_REPLY, 4 + 16 * ds.len()),
        Msg::Coord(AntiEntropyMsg::Offer(g)) => (tag::COORD_OFFER, best_len(g)),
        Msg::Coord(AntiEntropyMsg::Ask) => (tag::COORD_ASK, 0),
        Msg::Coord(AntiEntropyMsg::Tell(g)) => (tag::COORD_TELL, best_len(g)),
        Msg::RumorPush(g) => (tag::RUMOR_PUSH, best_len(g)),
        Msg::RumorFeedback(_) => (tag::RUMOR_FEEDBACK, 1),
        Msg::Migrant(g) => (tag::MIGRANT, best_len(g)),
        Msg::MasterReport(g) => (tag::MASTER_REPORT, best_len(g)),
        Msg::MasterUpdate(g) => (tag::MASTER_UPDATE, best_len(g)),
        Msg::CoordBatch(b) => (tag::COORD_BATCH, batch_len(b.items.len())),
        Msg::RumorBatch(b) => (tag::RUMOR_BATCH, batch_len(b.items.len())),
        Msg::MigrantBatch(b) => (tag::MIGRANT_BATCH, batch_len(b.items.len())),
    };
    let mut out = Vec::with_capacity(2 + size);
    out.extend_from_slice(&[WIRE_VERSION, t]);
    match msg {
        Msg::Newscast(NewscastMsg::Request(ds) | NewscastMsg::Reply(ds)) => {
            put_descriptors(&mut out, ds)
        }
        Msg::Coord(AntiEntropyMsg::Offer(g) | AntiEntropyMsg::Tell(g))
        | Msg::RumorPush(g)
        | Msg::Migrant(g)
        | Msg::MasterReport(g)
        | Msg::MasterUpdate(g) => put_best(&mut out, g),
        Msg::Coord(AntiEntropyMsg::Ask) => {}
        Msg::RumorFeedback(ack) => out.push(match ack {
            RumorAck::New => 0,
            RumorAck::Duplicate => 1,
        }),
        Msg::CoordBatch(b) => put_coord_batch(&mut out, b),
        Msg::RumorBatch(b) | Msg::MigrantBatch(b) => put_gossip_batch(&mut out, b),
    }
    Bytes::from(out)
}

/// Take the next `N` bytes off the front of `buf`.
fn take<const N: usize>(buf: &mut &[u8]) -> Result<[u8; N], WireError> {
    let (head, rest) = buf.split_first_chunk().ok_or(WireError::Truncated)?;
    *buf = rest;
    Ok(*head)
}

fn get_u32(buf: &mut &[u8]) -> Result<u32, WireError> {
    take(buf).map(u32::from_le_bytes)
}

fn get_u64(buf: &mut &[u8]) -> Result<u64, WireError> {
    take(buf).map(u64::from_le_bytes)
}

fn get_f64(buf: &mut &[u8]) -> Result<f64, WireError> {
    take(buf).map(f64::from_le_bytes)
}

/// Read a LEB128 varint off the front of `buf`. Truncated *and* overlong
/// encodings both report [`WireError::Truncated`] — neither can have been
/// produced by [`encode`].
fn get_varint(buf: &mut &[u8]) -> Result<u64, WireError> {
    let (v, n) = read_varint(buf).ok_or(WireError::Truncated)?;
    *buf = &buf[n..];
    Ok(v)
}

fn get_f64_delta(buf: &mut &[u8], reference: f64) -> Result<f64, WireError> {
    let (v, n) = read_f64_delta(buf, reference).ok_or(WireError::Truncated)?;
    *buf = &buf[n..];
    Ok(v)
}

/// One payload of `dim` coordinates plus fitness: raw `f64`s, or
/// bit-pattern deltas against `reference` (whose dimensionality is `dim`,
/// which bounds the work). Payloads up to [`POS_INLINE_DIM`] coordinates
/// are decoded on the stack.
fn get_payload(
    buf: &mut &[u8],
    dim: usize,
    reference: Option<&GlobalBest>,
) -> Result<GlobalBest, WireError> {
    // Each raw coordinate is 8 bytes; reject impossible lengths before
    // allocating.
    if reference.is_none() && (dim as u64).saturating_mul(8) > buf.len() as u64 {
        return Err(WireError::LengthOverflow(dim as u64));
    }
    let mut stack = [0.0; POS_INLINE_DIM];
    let mut heap = Vec::new();
    let x = if dim <= POS_INLINE_DIM {
        &mut stack[..dim]
    } else {
        heap.resize(dim, 0.0);
        &mut heap[..]
    };
    let f = match reference {
        Some(r) => {
            for (v, &rx) in x.iter_mut().zip(r.x.as_slice()) {
                *v = get_f64_delta(buf, rx)?;
            }
            get_f64_delta(buf, r.f)?
        }
        None => {
            for v in x.iter_mut() {
                *v = get_f64(buf)?;
            }
            get_f64(buf)?
        }
    };
    Ok(GlobalBest {
        x: Pos::from_slice(x),
        f,
    })
}

fn get_best(buf: &mut &[u8]) -> Result<GlobalBest, WireError> {
    let dim = get_u32(buf)? as usize;
    get_payload(buf, dim, None)
}

/// One batch item's payload under the first-payload reference rule:
/// delta-coded when its dimensionality matches the reference (unless
/// `force_raw`), raw otherwise — and the first raw payload becomes the
/// reference.
fn get_item(
    buf: &mut &[u8],
    dim: usize,
    reference: &mut Option<GlobalBest>,
    force_raw: bool,
) -> Result<GlobalBest, WireError> {
    match reference {
        Some(r) if r.x.len() == dim && !force_raw => get_payload(buf, dim, Some(r)),
        _ => {
            let g = get_payload(buf, dim, None)?;
            reference.get_or_insert_with(|| g.clone());
            Ok(g)
        }
    }
}

fn get_coord_batch(buf: &mut &[u8]) -> Result<CoordBatch, WireError> {
    let count = get_varint(buf)?;
    // Every item costs at least a source varint + a kind byte; reject
    // impossible counts before allocating.
    if count.saturating_mul(2) > buf.len() as u64 {
        return Err(WireError::LengthOverflow(count));
    }
    let mut items = Vec::with_capacity(count as usize);
    let mut reference = None;
    for _ in 0..count {
        let src = NodeId(get_varint(buf)?);
        let [k] = take(buf)?;
        let m = match k {
            kind::ASK => AntiEntropyMsg::Ask,
            kind::OFFER | kind::TELL => {
                let dim = get_u32(buf)? as usize;
                let g = get_item(buf, dim, &mut reference, false)?;
                if k == kind::OFFER {
                    AntiEntropyMsg::Offer(g)
                } else {
                    AntiEntropyMsg::Tell(g)
                }
            }
            other => return Err(WireError::BadTag(other)),
        };
        items.push((src, m));
    }
    Ok(CoordBatch { items })
}

fn get_gossip_batch(buf: &mut &[u8]) -> Result<GossipBatch, WireError> {
    let count = get_varint(buf)?;
    // Every item costs at least a source varint + a `u32` dimension;
    // reject impossible counts before allocating.
    if count.saturating_mul(5) > buf.len() as u64 {
        return Err(WireError::LengthOverflow(count));
    }
    let mut items = Vec::with_capacity(count as usize);
    let mut reference = None;
    for _ in 0..count {
        let src = NodeId(get_varint(buf)?);
        let dim_word = get_u32(buf)?;
        let dim = (dim_word & !GOSSIP_RAW_FLAG) as usize;
        let force_raw = dim_word & GOSSIP_RAW_FLAG != 0;
        items.push((src, get_item(buf, dim, &mut reference, force_raw)?));
    }
    Ok(GossipBatch { items })
}

fn get_descriptors(buf: &mut &[u8]) -> Result<Vec<Descriptor>, WireError> {
    let count = get_u32(buf)? as u64;
    if count.saturating_mul(16) > buf.len() as u64 {
        return Err(WireError::LengthOverflow(count));
    }
    (0..count)
        .map(|_| {
            Ok(Descriptor {
                id: NodeId(get_u64(buf)?),
                stamp: get_u64(buf)?,
            })
        })
        .collect()
}

/// Decode a datagram payload produced by [`encode`].
pub fn decode(mut buf: &[u8]) -> Result<Msg, WireError> {
    let [version, t] = take(&mut buf)?;
    if version != WIRE_VERSION {
        return Err(WireError::BadVersion(version));
    }
    let buf = &mut buf;
    let msg = match t {
        tag::NEWSCAST_REQUEST => Msg::Newscast(NewscastMsg::Request(get_descriptors(buf)?)),
        tag::NEWSCAST_REPLY => Msg::Newscast(NewscastMsg::Reply(get_descriptors(buf)?)),
        tag::COORD_OFFER => Msg::Coord(AntiEntropyMsg::Offer(get_best(buf)?)),
        tag::COORD_ASK => Msg::Coord(AntiEntropyMsg::Ask),
        tag::COORD_TELL => Msg::Coord(AntiEntropyMsg::Tell(get_best(buf)?)),
        tag::RUMOR_PUSH => Msg::RumorPush(get_best(buf)?),
        tag::RUMOR_FEEDBACK => Msg::RumorFeedback(match take(buf)? {
            [0] => RumorAck::New,
            [1] => RumorAck::Duplicate,
            [other] => return Err(WireError::BadTag(other)),
        }),
        tag::MIGRANT => Msg::Migrant(get_best(buf)?),
        tag::MASTER_REPORT => Msg::MasterReport(get_best(buf)?),
        tag::MASTER_UPDATE => Msg::MasterUpdate(get_best(buf)?),
        tag::COORD_BATCH => Msg::CoordBatch(get_coord_batch(buf)?),
        tag::RUMOR_BATCH => Msg::RumorBatch(get_gossip_batch(buf)?),
        tag::MIGRANT_BATCH => Msg::MigrantBatch(get_gossip_batch(buf)?),
        other => return Err(WireError::BadTag(other)),
    };
    if !buf.is_empty() {
        return Err(WireError::TrailingBytes(buf.len()));
    }
    Ok(msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::{BufMut, BytesMut};
    use gossipopt_util::{Rng64, Xoshiro256pp};

    fn best(dim: usize) -> GlobalBest {
        let x: Vec<f64> = (0..dim).map(|i| i as f64 * 1.25 - 3.0).collect();
        GlobalBest::new(&x, 42.5)
    }

    fn descriptors(n: usize) -> Vec<Descriptor> {
        (0..n)
            .map(|i| Descriptor {
                id: NodeId(i as u64 * 7 + 1),
                stamp: 1000 + i as u64,
            })
            .collect()
    }

    fn all_variants() -> Vec<Msg> {
        vec![
            Msg::Newscast(NewscastMsg::Request(descriptors(3))),
            Msg::Newscast(NewscastMsg::Reply(descriptors(0))),
            Msg::Coord(AntiEntropyMsg::Offer(best(10))),
            Msg::Coord(AntiEntropyMsg::Ask),
            Msg::Coord(AntiEntropyMsg::Tell(best(2))),
            Msg::RumorPush(best(5)),
            Msg::RumorFeedback(RumorAck::New),
            Msg::RumorFeedback(RumorAck::Duplicate),
            Msg::Migrant(best(1)),
            Msg::MasterReport(best(4)),
            Msg::MasterUpdate(best(0)),
            // Batch exercising every per-item shape: the raw reference, a
            // payload-free ask, an identical delta-coded payload, a
            // near-identical one, and a dimension mismatch encoded raw.
            Msg::CoordBatch(CoordBatch {
                items: vec![
                    (NodeId(3), AntiEntropyMsg::Offer(best(10))),
                    (NodeId(70_000), AntiEntropyMsg::Ask),
                    (NodeId(12), AntiEntropyMsg::Tell(best(10))),
                    (NodeId(12), AntiEntropyMsg::Offer(perturbed(best(10)))),
                    (NodeId(5), AntiEntropyMsg::Offer(best(3))),
                ],
            }),
            Msg::CoordBatch(CoordBatch { items: Vec::new() }),
            // Gossip batches exercising the raw reference, an identical
            // delta-coded payload, a near-identical one, and a dimension
            // mismatch encoded raw.
            Msg::RumorBatch(GossipBatch {
                items: vec![
                    (NodeId(9), best(10)),
                    (NodeId(70_000), best(10)),
                    (NodeId(2), perturbed(best(10))),
                    (NodeId(1), best(3)),
                ],
            }),
            Msg::RumorBatch(GossipBatch { items: Vec::new() }),
            Msg::MigrantBatch(GossipBatch {
                items: vec![(NodeId(4), best(10)), (NodeId(5), best(10))],
            }),
            Msg::MigrantBatch(GossipBatch { items: Vec::new() }),
        ]
    }

    /// Nudge the last coordinate by one ulp — a near-identical payload
    /// whose deltas stay tiny but non-zero.
    fn perturbed(mut g: GlobalBest) -> GlobalBest {
        let xs: Vec<f64> =
            g.x.iter()
                .enumerate()
                .map(|(i, &v)| {
                    if i == 9 {
                        f64::from_bits(v.to_bits() + 1)
                    } else {
                        v
                    }
                })
                .collect();
        g.x = xs.into();
        g
    }

    fn msg_eq(a: &Msg, b: &Msg) -> bool {
        // Msg intentionally does not derive PartialEq (f64 payloads);
        // compare via the Debug rendering, which is exact for our fields.
        format!("{a:?}") == format!("{b:?}")
    }

    #[test]
    fn wire_bytes_accounting_matches_codec() {
        // `Msg::wire_bytes` is the byte ledger the experiment reports use;
        // it must never drift from what the codec actually emits.
        for m in all_variants() {
            assert_eq!(encode(&m).len(), m.wire_bytes(), "{m:?}");
        }
    }

    #[test]
    fn roundtrip_every_variant() {
        for m in all_variants() {
            let bytes = encode(&m);
            let back = decode(&bytes).unwrap_or_else(|e| panic!("{m:?}: {e}"));
            assert!(msg_eq(&m, &back), "{m:?} != {back:?}");
        }
    }

    #[test]
    fn version_byte_is_checked() {
        let mut bytes = encode(&Msg::Coord(AntiEntropyMsg::Ask)).to_vec();
        bytes[0] = 99;
        assert!(matches!(decode(&bytes), Err(WireError::BadVersion(99))));
    }

    #[test]
    fn unknown_tag_rejected() {
        let bytes = vec![WIRE_VERSION, 250];
        assert!(matches!(decode(&bytes), Err(WireError::BadTag(250))));
    }

    #[test]
    fn truncation_rejected_everywhere() {
        for m in all_variants() {
            let bytes = encode(&m);
            for cut in 0..bytes.len() {
                let r = decode(&bytes[..cut]);
                assert!(
                    r.is_err(),
                    "{m:?} truncated to {cut}/{} bytes decoded to {r:?}",
                    bytes.len()
                );
            }
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = encode(&Msg::Migrant(best(3))).to_vec();
        bytes.push(0);
        assert!(matches!(decode(&bytes), Err(WireError::TrailingBytes(1))));
    }

    #[test]
    fn hostile_length_does_not_allocate() {
        // A datagram claiming 2^32-1 coordinates must fail fast.
        let mut buf = BytesMut::new();
        buf.put_u8(WIRE_VERSION);
        buf.put_u8(5); // rumor push
        buf.put_u32_le(u32::MAX);
        let r = decode(&buf);
        assert!(matches!(r, Err(WireError::LengthOverflow(_))), "{r:?}");
    }

    #[test]
    fn nan_and_infinity_survive() {
        let g = GlobalBest::new(
            &[f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0],
            f64::MAX,
        );
        let bytes = encode(&Msg::Migrant(g));
        let Msg::Migrant(back) = decode(&bytes).unwrap() else {
            panic!("wrong variant");
        };
        assert!(back.x[0].is_nan());
        assert_eq!(back.x[1], f64::INFINITY);
        assert_eq!(back.x[2], f64::NEG_INFINITY);
        assert_eq!(back.x[3].to_bits(), (-0.0f64).to_bits());
        assert_eq!(back.f, f64::MAX);
    }

    #[test]
    fn batch_of_identical_payloads_collapses_to_deltas() {
        // The anti-entropy steady state: every node pushes the same
        // optimum. One 10-D payload is raw (94 bytes incl. framing);
        // each follower costs src varint + kind + dim + 11 delta bytes
        // instead of 86 raw payload bytes.
        let g = best(10);
        let items: Vec<_> = (0..8u64)
            .map(|i| (NodeId(i), AntiEntropyMsg::Offer(g.clone())))
            .collect();
        let fused = Msg::CoordBatch(CoordBatch { items });
        let unbatched: usize = (0..8)
            .map(|_| Msg::Coord(AntiEntropyMsg::Offer(g.clone())).wire_bytes())
            .sum();
        let batched = encode(&fused).len();
        assert_eq!(batched, fused.wire_bytes());
        assert!(
            batched * 3 < unbatched,
            "batched {batched} vs unbatched {unbatched}: identical payloads must collapse"
        );
    }

    #[test]
    fn gossip_batch_of_identical_payloads_collapses_to_deltas() {
        // The rumor-mongering steady state: every node pushes the same
        // optimum. One 10-D payload is raw; each follower costs a src
        // varint + dim + 11 delta bytes instead of 86 raw payload bytes.
        let g = best(10);
        let items: Vec<_> = (0..8u64).map(|i| (NodeId(i), g.clone())).collect();
        let fused = Msg::RumorBatch(GossipBatch { items });
        let unbatched: usize = (0..8).map(|_| Msg::RumorPush(g.clone()).wire_bytes()).sum();
        let batched = encode(&fused).len();
        assert_eq!(batched, fused.wire_bytes());
        assert!(
            batched * 3 < unbatched,
            "batched {batched} vs unbatched {unbatched}: identical payloads must collapse"
        );
    }

    #[test]
    fn gossip_batch_dissimilar_payloads_fall_back_to_raw() {
        // A migrant batch of unrelated bit patterns: deltas against the
        // reference would cost up to 10 bytes per element, so every
        // follower must take the flagged raw fallback — the frame stays
        // within its items' raw sizes and still round-trips bit-exactly.
        let items: Vec<_> = (0..6u64)
            .map(|i| {
                let x: Vec<f64> = (0..10u64)
                    .map(|j| f64::from_bits((i * 10 + j).wrapping_mul(0x9E37_79B9_7F4A_7C15)))
                    .collect();
                let f = f64::from_bits(i.wrapping_mul(0xD1B5_4A32_D192_ED03));
                (NodeId(i + 1), GlobalBest { x: x.into(), f })
            })
            .collect();
        let unbatched: usize = items
            .iter()
            .map(|(_, g)| Msg::Migrant(g.clone()).wire_bytes())
            .sum();
        let m = Msg::MigrantBatch(GossipBatch { items });
        let bytes = encode(&m);
        assert_eq!(bytes.len(), m.wire_bytes());
        // Header 2 + count 1 + 6 × (src 1 + dim 4 + 88 raw).
        assert!(bytes.len() <= 2 + 1 + 6 * 93, "raw fallback must cap size");
        assert!(bytes.len() < unbatched, "batching must still win");
        let back = decode(&bytes).unwrap();
        assert!(msg_eq(&m, &back), "{m:?} != {back:?}");
    }

    #[test]
    fn gossip_batch_hostile_count_does_not_allocate() {
        for t in [tag::RUMOR_BATCH, tag::MIGRANT_BATCH] {
            let mut buf = BytesMut::new();
            buf.put_u8(WIRE_VERSION);
            buf.put_u8(t);
            // count = u64::MAX as an overlong-but-valid 10-byte varint.
            buf.put_slice(&[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01]);
            let r = decode(&buf);
            assert!(matches!(r, Err(WireError::LengthOverflow(_))), "{r:?}");
        }
    }

    #[test]
    fn gossip_batch_hostile_dimension_does_not_allocate() {
        // A batch item claiming 2^32-1 coordinates must fail fast.
        let mut buf = BytesMut::new();
        buf.put_u8(WIRE_VERSION);
        buf.put_u8(tag::MIGRANT_BATCH);
        buf.put_u8(1); // count
        buf.put_u8(0); // src
        buf.put_u32_le(u32::MAX);
        let r = decode(&buf);
        assert!(matches!(r, Err(WireError::LengthOverflow(_))), "{r:?}");
    }

    #[test]
    fn gossip_batch_reference_rule_is_first_payload() {
        // A dimension mismatch must not steal the reference from the
        // frame's first payload.
        let m = Msg::MigrantBatch(GossipBatch {
            items: vec![
                (NodeId(2), best(4)),
                (NodeId(3), best(7)),
                (NodeId(4), best(4)),
            ],
        });
        let bytes = encode(&m);
        assert_eq!(bytes.len(), m.wire_bytes());
        let back = decode(&bytes).unwrap();
        assert!(msg_eq(&m, &back), "{m:?} != {back:?}");
    }

    #[test]
    fn batch_unknown_kind_rejected() {
        // version, tag, count=1, src=0, kind=7.
        let bytes = vec![WIRE_VERSION, 10, 1, 0, 7];
        assert!(matches!(decode(&bytes), Err(WireError::BadTag(7))));
    }

    #[test]
    fn batch_hostile_count_does_not_allocate() {
        let mut buf = BytesMut::new();
        buf.put_u8(WIRE_VERSION);
        buf.put_u8(10);
        // count = u64::MAX as an overlong-but-valid 10-byte varint.
        buf.put_slice(&[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01]);
        let r = decode(&buf);
        assert!(matches!(r, Err(WireError::LengthOverflow(_))), "{r:?}");
    }

    #[test]
    fn batch_reference_rule_is_first_payload() {
        // An Ask before the first payload must not disturb the reference
        // choice, and a dimension mismatch must not steal it.
        let m = Msg::CoordBatch(CoordBatch {
            items: vec![
                (NodeId(1), AntiEntropyMsg::Ask),
                (NodeId(2), AntiEntropyMsg::Offer(best(4))),
                (NodeId(3), AntiEntropyMsg::Tell(best(7))),
                (NodeId(4), AntiEntropyMsg::Tell(best(4))),
            ],
        });
        let bytes = encode(&m);
        assert_eq!(bytes.len(), m.wire_bytes());
        let back = decode(&bytes).unwrap();
        assert!(msg_eq(&m, &back), "{m:?} != {back:?}");
    }

    /// `items` anti-entropy payloads of dimension 10, each within 1e-9 of
    /// one optimum — the converged steady state that delta coding targets.
    fn converged_batch(items: usize) -> Msg {
        let mut rng = Xoshiro256pp::seeded(0x5eed);
        let centre = best(10);
        let items = (0..items as u64)
            .map(|i| {
                let x: Vec<f64> = centre
                    .x
                    .iter()
                    .map(|v| v + rng.range_f64(-1e-9, 1e-9))
                    .collect();
                let g = GlobalBest::new(&x, centre.f);
                let m = if i % 2 == 0 {
                    AntiEntropyMsg::Offer(g)
                } else {
                    AntiEntropyMsg::Tell(g)
                };
                (NodeId(rng.below(1 << 20)), m)
            })
            .collect();
        Msg::CoordBatch(CoordBatch { items })
    }

    #[test]
    fn frame_format_is_pinned() {
        // FNV-1a over every frame: any change to the bytes `encode` emits
        // is a wire-format change and must bump `WIRE_VERSION`.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for m in all_variants().iter().chain([&converged_batch(136)]) {
            for &b in encode(m).as_ref() {
                h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
            }
        }
        assert_eq!(h, 0x4bbe_4943_71a5_ee41, "wire format changed: {h:#018x}");
    }

    #[test]
    fn rumor_feedback_flag_is_strict() {
        assert!(matches!(
            decode(&[WIRE_VERSION, tag::RUMOR_FEEDBACK, 2]),
            Err(WireError::BadTag(2))
        ));
        for ack in [RumorAck::New, RumorAck::Duplicate] {
            let bytes = encode(&Msg::RumorFeedback(ack));
            assert_eq!(encode(&decode(&bytes).unwrap()), bytes);
        }
    }

    #[test]
    fn encoding_is_compact() {
        // 10-D optimum: 2 framing + 4 len + 80 coords + 8 fitness = 94.
        let bytes = encode(&Msg::Coord(AntiEntropyMsg::Offer(best(10))));
        assert_eq!(bytes.len(), 94);
        // The paper's overhead claim ("few hundred bytes per exchange")
        // holds for a 20-entry newscast view as well.
        let view = encode(&Msg::Newscast(NewscastMsg::Request(descriptors(20))));
        assert_eq!(view.len(), 2 + 4 + 20 * 16);
    }
}
