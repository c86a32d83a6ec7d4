//! Property-based tests of the binary wire protocol.

use gossipopt_core::messages::{CoordBatch, GossipBatch, Msg};
use gossipopt_core::rumor::GlobalBest;
use gossipopt_gossip::view::Descriptor;
use gossipopt_gossip::{AntiEntropyMsg, NewscastMsg, RumorAck};
use gossipopt_runtime::{decode, encode};
use gossipopt_sim::NodeId;
use proptest::prelude::*;

fn arb_best() -> impl Strategy<Value = GlobalBest> {
    (
        prop::collection::vec(prop::num::f64::ANY, 0..32),
        prop::num::f64::ANY,
    )
        .prop_map(|(x, f)| GlobalBest { x: x.into(), f })
}

/// Any f64 bit pattern — including every NaN payload, ±inf and both
/// zeros, which `prop::num::f64::ANY` underweights. The delta codec works
/// on raw bits, so these must round-trip exactly.
fn arb_bits_f64() -> impl Strategy<Value = f64> {
    any::<u64>().prop_map(f64::from_bits)
}

/// Dimensions 0–23, wider than any paper experiment, go through a
/// batch's delta and raw branches and its dimension-mismatch rule.
fn arb_bits_best() -> impl Strategy<Value = GlobalBest> {
    (prop::collection::vec(arb_bits_f64(), 0..24), arb_bits_f64())
        .prop_map(|(x, f)| GlobalBest { x: x.into(), f })
}

fn arb_ae_item() -> impl Strategy<Value = (NodeId, AntiEntropyMsg<GlobalBest>)> {
    let msg = prop_oneof![
        arb_bits_best().prop_map(AntiEntropyMsg::Offer),
        Just(AntiEntropyMsg::Ask),
        arb_bits_best().prop_map(AntiEntropyMsg::Tell),
    ];
    (any::<u64>().prop_map(NodeId), msg)
}

fn arb_batch() -> impl Strategy<Value = CoordBatch> {
    prop::collection::vec(arb_ae_item(), 0..12).prop_map(|items| CoordBatch { items })
}

fn arb_gossip_batch() -> impl Strategy<Value = GossipBatch> {
    prop::collection::vec((any::<u64>().prop_map(NodeId), arb_bits_best()), 0..12)
        .prop_map(|items| GossipBatch { items })
}

fn arb_descriptors() -> impl Strategy<Value = Vec<Descriptor>> {
    prop::collection::vec((any::<u64>(), any::<u64>()), 0..64).prop_map(|ds| {
        ds.into_iter()
            .map(|(id, stamp)| Descriptor {
                id: NodeId(id),
                stamp,
            })
            .collect()
    })
}

fn arb_msg() -> impl Strategy<Value = Msg> {
    prop_oneof![
        arb_descriptors().prop_map(|d| Msg::Newscast(NewscastMsg::Request(d))),
        arb_descriptors().prop_map(|d| Msg::Newscast(NewscastMsg::Reply(d))),
        arb_best().prop_map(|g| Msg::Coord(AntiEntropyMsg::Offer(g))),
        Just(Msg::Coord(AntiEntropyMsg::Ask)),
        arb_best().prop_map(|g| Msg::Coord(AntiEntropyMsg::Tell(g))),
        arb_best().prop_map(Msg::RumorPush),
        Just(Msg::RumorFeedback(RumorAck::New)),
        Just(Msg::RumorFeedback(RumorAck::Duplicate)),
        arb_best().prop_map(Msg::Migrant),
        arb_best().prop_map(Msg::MasterReport),
        arb_best().prop_map(Msg::MasterUpdate),
        arb_batch().prop_map(Msg::CoordBatch),
        arb_gossip_batch().prop_map(Msg::RumorBatch),
        arb_gossip_batch().prop_map(Msg::MigrantBatch),
    ]
}

/// Bit-exact structural equality (NaN == NaN) via the debug rendering of
/// bit patterns.
fn canonical(m: &Msg) -> String {
    fn best(g: &GlobalBest) -> String {
        let xs: Vec<u64> = g.x.iter().map(|v| v.to_bits()).collect();
        format!("{xs:?}|{}", g.f.to_bits())
    }
    fn ae(m: &AntiEntropyMsg<GlobalBest>) -> String {
        match m {
            AntiEntropyMsg::Offer(g) => format!("offer{}", best(g)),
            AntiEntropyMsg::Ask => "ask".into(),
            AntiEntropyMsg::Tell(g) => format!("tell{}", best(g)),
        }
    }
    match m {
        Msg::Newscast(NewscastMsg::Request(d)) => format!("req{d:?}"),
        Msg::Newscast(NewscastMsg::Reply(d)) => format!("rep{d:?}"),
        Msg::Coord(m) => ae(m),
        Msg::CoordBatch(b) => {
            let items: Vec<String> = b
                .items
                .iter()
                .map(|(src, m)| format!("{}:{}", src.raw(), ae(m)))
                .collect();
            format!("batch{items:?}")
        }
        Msg::RumorBatch(b) | Msg::MigrantBatch(b) => {
            let tag = if matches!(m, Msg::RumorBatch(_)) {
                "rbatch"
            } else {
                "mbatch"
            };
            let items: Vec<String> = b
                .items
                .iter()
                .map(|(src, g)| format!("{}:{}", src.raw(), best(g)))
                .collect();
            format!("{tag}{items:?}")
        }
        Msg::RumorPush(g) => format!("push{}", best(g)),
        Msg::RumorFeedback(a) => format!("fb{a:?}"),
        Msg::Migrant(g) => format!("mig{}", best(g)),
        Msg::MasterReport(g) => format!("mrep{}", best(g)),
        Msg::MasterUpdate(g) => format!("mupd{}", best(g)),
    }
}

proptest! {
    /// decode(encode(m)) is the identity, bit-exactly, for every message.
    #[test]
    fn roundtrip(m in arb_msg()) {
        let bytes = encode(&m);
        let back = decode(&bytes).expect("well-formed frames must decode");
        prop_assert_eq!(canonical(&m), canonical(&back));
    }

    /// Every strict prefix of a frame fails to decode (no silent
    /// truncation acceptance).
    #[test]
    fn prefixes_always_fail(m in arb_msg(), frac in 0.0f64..1.0) {
        let bytes = encode(&m);
        let cut = ((bytes.len() as f64) * frac) as usize;
        if cut < bytes.len() {
            prop_assert!(decode(&bytes[..cut]).is_err());
        }
    }

    /// Appending garbage to a frame fails to decode.
    #[test]
    fn suffixes_always_fail(m in arb_msg(), extra in prop::collection::vec(any::<u8>(), 1..16)) {
        let mut bytes = encode(&m).to_vec();
        bytes.extend_from_slice(&extra);
        prop_assert!(decode(&bytes).is_err());
    }

    /// Arbitrary byte soup never panics the decoder (it may decode by
    /// coincidence, but must not crash or over-allocate).
    #[test]
    fn fuzz_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = decode(&bytes);
    }

    /// Batch frames round-trip bit-exactly for arbitrary f64 *bit
    /// patterns* (every NaN, ±inf, both zeros) and their accounting via
    /// `Msg::wire_bytes` matches the bytes actually emitted — the ledger
    /// the experiment reports use must never drift from the codec.
    #[test]
    fn batch_roundtrip_and_accounting(b in arb_batch()) {
        let m = Msg::CoordBatch(b);
        let bytes = encode(&m);
        prop_assert_eq!(bytes.len(), m.wire_bytes());
        let back = decode(&bytes).expect("well-formed batch frames must decode");
        prop_assert_eq!(canonical(&m), canonical(&back));
    }

    /// Every strict prefix of a batch frame is rejected: the delta coding
    /// must not let a truncated frame parse as a shorter valid one.
    #[test]
    fn batch_prefixes_always_fail(b in arb_batch(), frac in 0.0f64..1.0) {
        let bytes = encode(&Msg::CoordBatch(b));
        let cut = ((bytes.len() as f64) * frac) as usize;
        if cut < bytes.len() {
            prop_assert!(decode(&bytes[..cut]).is_err());
        }
    }

    /// Gossip batch frames (rumor + migrant) round-trip bit-exactly for
    /// arbitrary f64 bit patterns and their `Msg::wire_bytes` accounting
    /// matches the bytes actually emitted.
    #[test]
    fn gossip_batch_roundtrip_and_accounting(b in arb_gossip_batch(), as_rumor in any::<bool>()) {
        let m = if as_rumor {
            Msg::RumorBatch(b)
        } else {
            Msg::MigrantBatch(b)
        };
        let bytes = encode(&m);
        prop_assert_eq!(bytes.len(), m.wire_bytes());
        let back = decode(&bytes).expect("well-formed gossip batch frames must decode");
        prop_assert_eq!(canonical(&m), canonical(&back));
    }

    /// Every strict prefix of a gossip batch frame is rejected.
    #[test]
    fn gossip_batch_prefixes_always_fail(b in arb_gossip_batch(), frac in 0.0f64..1.0) {
        let bytes = encode(&Msg::RumorBatch(b));
        let cut = ((bytes.len() as f64) * frac) as usize;
        if cut < bytes.len() {
            prop_assert!(decode(&bytes[..cut]).is_err());
        }
    }
}
