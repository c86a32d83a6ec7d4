//! Seeded input generators. The program under test only ever sees what
//! these produce: campaign TOML text, adjacency lists and initial
//! values, and a message corpus with its hostile frames. Same seed, same
//! bytes.

use gossipopt::core::messages::{CoordBatch, Msg};
use gossipopt::core::rumor::GlobalBest;
use gossipopt::gossip::topology::k_out_regular;
use gossipopt::gossip::view::Descriptor;
use gossipopt::gossip::{AntiEntropyMsg, NewscastMsg};
use gossipopt::runtime::{decode, encode};
use gossipopt::sim::NodeId;
use gossipopt::util::{Rng64, StreamId, Xoshiro256pp};
use std::sync::Arc;

/// Size class of a run. `Smoke` is about a twentieth of `Full`: enough
/// to exercise every code path and correctness check, too small to time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

impl Scale {
    fn pick<T>(self, full: T, smoke: T) -> T {
        match self {
            Scale::Full => full,
            Scale::Smoke => smoke,
        }
    }
}

/// Independent generator stream `stream` of the run's `--seed`.
fn stream(seed: u64, stream: u64) -> Xoshiro256pp {
    Xoshiro256pp::derive(seed, StreamId(0xbe7c, stream))
}

/// Replace every `{{key}}` of `template` with its value. A placeholder
/// left unfilled is a harness bug, caught here rather than as a TOML
/// parse error three layers down.
pub fn fill(template: &str, values: &[(&str, String)]) -> String {
    let mut text = template.to_string();
    for (key, value) in values {
        text = text.replace(&format!("{{{{{key}}}}}"), value);
    }
    assert!(
        !text.contains("{{"),
        "unfilled placeholder in template:\n{text}"
    );
    text
}

fn quoted_list(items: &[&str]) -> String {
    items
        .iter()
        .map(|s| format!("\"{s}\""))
        .collect::<Vec<_>>()
        .join(", ")
}

fn number_list(items: &[u64]) -> String {
    items
        .iter()
        .map(u64::to_string)
        .collect::<Vec<_>>()
        .join(", ")
}

/// The four paper tables (NEWSCAST, 1–100 nodes, legacy sequential
/// tick).
pub fn paper_tables(seed: u64, scale: Scale) -> Vec<String> {
    let reps = scale.pick(4u64, 1);
    let templates = [
        include_str!("../workloads/paper_table1.toml"),
        include_str!("../workloads/paper_table2.toml"),
        include_str!("../workloads/paper_table3.toml"),
        include_str!("../workloads/paper_table4.toml"),
    ];
    let mut rng = stream(seed, 1);
    templates
        .iter()
        .map(|t| {
            fill(
                t,
                &[
                    ("seed", rng.next_u64().to_string()),
                    ("reps", reps.to_string()),
                ],
            )
        })
        .collect()
}

/// Hub overlays × both kernels, once per scheduling discipline.
pub fn wire_hubs(seed: u64, scale: Scale) -> Vec<String> {
    let nodes = scale.pick(1024u64, 128);
    let budget = 160u64;
    let mut rng = stream(seed, 2);
    // Wire-volume ceilings in bytes per node-tick, in the template's
    // cell order (star/cycle, star/event, hier:4/cycle, hier:4/event).
    // Measured over eight seeds at both sizes: unbatched (threads = 0)
    // 110–120, 123–151, 105–110, 118–126; coalesced (threads = 1) 46–54,
    // 78–109, 84–91 and — the event kernel fuses only seq-adjacent
    // deliveries, which a hierarchy hardly produces — 117–126.
    [(0u64, [135u64, 170, 125, 145]), (1, [65, 130, 100, 145])]
        .iter()
        .map(|(threads, ceilings)| {
            let ceilings: Vec<u64> = ceilings.iter().map(|c| c * nodes * budget).collect();
            fill(
                include_str!("../workloads/wire_hubs.toml"),
                &[
                    ("seed", rng.next_u64().to_string()),
                    ("nodes", nodes.to_string()),
                    ("budget", budget.to_string()),
                    ("threads", threads.to_string()),
                    ("max_payload_bytes", number_list(&ceilings)),
                ],
            )
        })
        .collect()
}

/// Two large cycle-kernel cells on two workers.
pub fn scale_dpso(seed: u64, scale: Scale) -> Vec<String> {
    let nodes = scale.pick(40_000u64, 2_000);
    let budget = 24u64;
    vec![fill(
        include_str!("../workloads/scale_dpso.toml"),
        &[
            ("seed", stream(seed, 3).next_u64().to_string()),
            ("nodes", nodes.to_string()),
            ("budget", budget.to_string()),
            ("min_population", (nodes * 9 / 10).to_string()),
        ],
    )]
}

/// The store grid: 5 topologies × 5 functions × dims × periods × reps
/// tiny cells.
pub fn store_grid(seed: u64, scale: Scale) -> Vec<String> {
    let dims: &[u64] = scale.pick(&[4, 8], &[4]);
    let periods: &[u64] = scale.pick(&[1, 2, 4, 8], &[2, 8]);
    let reps = scale.pick(3u64, 1);
    vec![fill(
        include_str!("../workloads/store_grid.toml"),
        &[
            ("seed", stream(seed, 4).next_u64().to_string()),
            ("reps", reps.to_string()),
            (
                "topologies",
                quoted_list(&["newscast", "ring", "star", "kregular:4", "hier:4"]),
            ),
            (
                "functions",
                quoted_list(&["sphere", "rastrigin", "griewank", "rosenbrock", "ackley"]),
            ),
            ("dims", number_list(dims)),
            ("gossip_every", number_list(periods)),
        ],
    )]
}

/// Input of the raw-gossip kernel workload: one random 4-out-regular
/// overlay per kernel, private starting values, a fixed tick count.
#[derive(Debug, Clone, PartialEq)]
pub struct GossipInput {
    pub seed: u64,
    pub cycle_adj: Arc<Vec<Vec<usize>>>,
    pub event_adj: Arc<Vec<Vec<usize>>>,
    /// Ticks every leg runs. Fixed (not "until converged") so that the
    /// work does not depend on the seed; convergence within it is a
    /// correctness check.
    pub ticks: u64,
}

pub const GOSSIP_DEGREE: usize = 4;

pub fn gossip(seed: u64, scale: Scale) -> GossipInput {
    let cycle_nodes = scale.pick(150_000, 8_000);
    let event_nodes = scale.pick(60_000, 3_000);
    let mut rng = stream(seed, 5);
    GossipInput {
        seed: rng.next_u64(),
        cycle_adj: Arc::new(k_out_regular(cycle_nodes, GOSSIP_DEGREE, &mut rng)),
        event_adj: Arc::new(k_out_regular(event_nodes, GOSSIP_DEGREE, &mut rng)),
        ticks: 20,
    }
}

/// A node's private starting value (splitmix finaliser of seed + index):
/// value-diverse, so the global maximum lives at one node.
pub fn gossip_initial_value(seed: u64, index: usize) -> u64 {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index as u64)
        .wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^= z >> 27;
    z.wrapping_mul(0x94D0_49BB_1331_11EB)
}

/// Message corpus of the codec workload and the hostile frames that
/// must be rejected.
#[derive(Debug, Clone)]
pub struct CodecInput {
    pub messages: Vec<Msg>,
    pub hostile: Vec<Vec<u8>>,
}

/// Dimensionality of every optimum in the corpus.
pub const CODEC_DIM: usize = 10;

fn optimum(rng: &mut Xoshiro256pp, spread: f64) -> GlobalBest {
    let x: Vec<f64> = (0..CODEC_DIM)
        .map(|_| rng.range_f64(-spread, spread))
        .collect();
    let f = x.iter().map(|v| v * v).sum();
    GlobalBest::new(&x, f)
}

fn coord(rng: &mut Xoshiro256pp, g: GlobalBest) -> AntiEntropyMsg<GlobalBest> {
    if rng.below(2) == 0 {
        AntiEntropyMsg::Offer(g)
    } else {
        AntiEntropyMsg::Tell(g)
    }
}

/// The documented mix, dealt by position so that it is exact and the
/// same for every seed — the seed picks the values, not how much work
/// a pass is: of every 20 messages, 12 are `Coord` offers/replies (dim
/// 10), 4 `Newscast` views of 20 descriptors, 2 `CoordBatch` frames of
/// 16–256 near-converged items, 1 `RumorPush` and 1 `Migrant`.
fn corpus_message(rng: &mut Xoshiro256pp, index: usize) -> Msg {
    match index % 20 {
        0..=11 => {
            let g = optimum(rng, 5.0);
            Msg::Coord(coord(rng, g))
        }
        12..=15 => {
            let view = (0..20)
                .map(|_| Descriptor {
                    id: NodeId(rng.below(1 << 20)),
                    stamp: rng.below(1 << 16),
                })
                .collect();
            Msg::Newscast(if rng.below(2) == 0 {
                NewscastMsg::Request(view)
            } else {
                NewscastMsg::Reply(view)
            })
        }
        16 | 17 => {
            // Near-converged: every item sits within 1e-9 of one optimum,
            // the steady state in which delta coding pays. Sizes sweep
            // 16..=256 with the position (89 is coprime to 241).
            let centre = optimum(rng, 5.0);
            let items = (0..16 + index * 89 % 241)
                .map(|_| {
                    let x: Vec<f64> = centre
                        .x
                        .as_slice()
                        .iter()
                        .map(|v| v + rng.range_f64(-1e-9, 1e-9))
                        .collect();
                    let g = GlobalBest::new(&x, centre.f);
                    (NodeId(rng.below(1 << 20)), coord(rng, g))
                })
                .collect();
            Msg::CoordBatch(CoordBatch { items })
        }
        18 => Msg::RumorPush(optimum(rng, 5.0)),
        _ => Msg::Migrant(optimum(rng, 5.0)),
    }
}

/// One damaged copy of `frame`: truncated, a bit flipped, or a bad
/// version byte. A bit flip in an `f64` payload still decodes (the
/// codec carries no checksum), so candidates are filtered through
/// `decode` and only real rejects are kept.
fn hostile_frame(rng: &mut Xoshiro256pp, frame: &[u8]) -> Vec<u8> {
    loop {
        let mut bad = frame.to_vec();
        match rng.below(3) {
            0 => bad.truncate(rng.index(frame.len())),
            1 => bad[rng.index(frame.len().min(8))] ^= 1 << rng.below(8),
            _ => bad[0] = bad[0].wrapping_add(1 + rng.below(254) as u8),
        }
        if decode(&bad).is_err() {
            return bad;
        }
    }
}

pub fn codec(seed: u64, scale: Scale) -> CodecInput {
    let count = scale.pick(12_000, 600);
    let mut rng = stream(seed, 6);
    let messages: Vec<Msg> = (0..count).map(|i| corpus_message(&mut rng, i)).collect();
    // One hostile frame per ten messages, each derived from a corpus
    // frame so it is plausible up to the damage.
    let hostile = (0..count / 10)
        .map(|_| {
            let victim = encode(&messages[rng.index(messages.len())]);
            hostile_frame(&mut rng, &victim)
        })
        .collect();
    CodecInput { messages, hostile }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus_bytes(input: &CodecInput) -> Vec<u8> {
        let mut all: Vec<u8> = input
            .messages
            .iter()
            .flat_map(|m| encode(m).to_vec())
            .collect();
        all.extend(input.hostile.iter().flatten());
        all
    }

    #[test]
    fn campaign_generators_are_byte_stable_per_seed_and_differ_across_seeds() {
        type Gen = fn(u64, Scale) -> Vec<String>;
        for gen in [paper_tables as Gen, wire_hubs, scale_dpso, store_grid] {
            for scale in [Scale::Full, Scale::Smoke] {
                assert_eq!(gen(7, scale), gen(7, scale));
                assert_ne!(gen(7, scale), gen(8, scale));
            }
        }
    }

    #[test]
    fn every_generated_campaign_parses() {
        for input in [
            paper_tables(1, Scale::Smoke),
            wire_hubs(1, Scale::Smoke),
            scale_dpso(1, Scale::Smoke),
            store_grid(1, Scale::Smoke),
            store_grid(1, Scale::Full),
        ]
        .concat()
        {
            gossipopt::scenarios::parse_campaign(&input).expect("generated TOML is valid");
        }
    }

    #[test]
    fn gossip_and_codec_generators_are_stable_per_seed_and_differ_across_seeds() {
        assert_eq!(gossip(3, Scale::Smoke), gossip(3, Scale::Smoke));
        assert_ne!(gossip(3, Scale::Smoke), gossip(4, Scale::Smoke));
        let a = corpus_bytes(&codec(3, Scale::Smoke));
        assert_eq!(a, corpus_bytes(&codec(3, Scale::Smoke)));
        assert_ne!(a, corpus_bytes(&codec(4, Scale::Smoke)));
    }

    #[test]
    fn corpus_follows_the_documented_mix() {
        let input = codec(11, Scale::Full);
        let share = |pred: fn(&Msg) -> bool| {
            input.messages.iter().filter(|m| pred(m)).count() as f64 / input.messages.len() as f64
        };
        assert_eq!(share(|m| matches!(m, Msg::Coord(_))), 0.60);
        assert_eq!(share(|m| matches!(m, Msg::Newscast(_))), 0.20);
        assert_eq!(share(|m| matches!(m, Msg::CoordBatch(_))), 0.10);
        assert_eq!(share(|m| matches!(m, Msg::RumorPush(_))), 0.05);
        assert_eq!(share(|m| matches!(m, Msg::Migrant(_))), 0.05);
        let batch_items = |input: &CodecInput| -> usize {
            input
                .messages
                .iter()
                .map(|m| match m {
                    Msg::CoordBatch(b) => b.items.len(),
                    _ => 0,
                })
                .sum()
        };
        assert_eq!(batch_items(&input), batch_items(&codec(12, Scale::Full)));
        assert_eq!(input.hostile.len(), input.messages.len() / 10);
    }

    #[test]
    fn hostile_generator_never_emits_a_frame_that_decodes() {
        for seed in 0..4 {
            let input = codec(seed, Scale::Smoke);
            assert!(!input.hostile.is_empty());
            for frame in &input.hostile {
                assert!(decode(frame).is_err(), "hostile frame decoded: {frame:?}");
            }
        }
    }
}
