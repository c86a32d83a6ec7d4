//! Property tests for scenario-spec parsing: TOML and JSON round-trips
//! plus validation (overlapping partition groups, out-of-range
//! fractions) over randomized inputs.

use gossipopt_scenarios::{cell_key, parse_campaign, AssertSpec, CellSpec, FaultSpec};
use proptest::prelude::*;
use serde::Deserialize;

/// Render a cell as a TOML campaign document (the emitter half of the
/// round trip; the crate deliberately only ships a parser).
fn cell_to_toml(cell: &CellSpec) -> String {
    let mut s = String::from("[campaign]\nname = \"prop\"\nseed = 5\n\n[cell]\n");
    s.push_str(&format!("nodes = {}\n", cell.nodes));
    s.push_str(&format!("particles = {}\n", cell.particles));
    s.push_str(&format!("gossip_every = {}\n", cell.gossip_every));
    s.push_str(&format!("budget = {}\n", cell.budget));
    s.push_str(&format!("kernel = \"{}\"\n", cell.kernel));
    s.push_str(&format!("threads = {}\n", cell.threads));
    s.push_str(&format!("topology = \"{}\"\n", cell.topology));
    s.push_str(&format!("coordination = \"{}\"\n", cell.coordination));
    s.push_str(&format!("solver = \"{}\"\n", cell.solver));
    s.push_str(&format!("function = \"{}\"\n", cell.function));
    s.push_str(&format!("dim = {}\n", cell.dim));
    s.push_str(&format!("churn = {:?}\n", cell.churn));
    s.push_str(&format!("loss = {:?}\n", cell.loss));
    if let Some(seed) = cell.seed {
        s.push_str(&format!("seed = {seed}\n"));
    }
    if let Some(q) = cell.stop_at_quality {
        s.push_str(&format!("stop_at_quality = {q:?}\n"));
    }
    s.push_str(&format!(
        "\n[cell.metrics]\nsample_every = {}\ncapacity = {}\n",
        cell.metrics.sample_every, cell.metrics.capacity
    ));
    for f in &cell.fault {
        s.push_str(&format!(
            "\n[[cell.fault]]\nkind = \"{}\"\nat = {}\n",
            f.kind, f.at
        ));
        if let Some(h) = f.heal_at {
            s.push_str(&format!("heal_at = {h}\n"));
        }
        if let Some(groups) = &f.groups {
            let parts: Vec<String> = groups.iter().map(|(a, b)| format!("[{a}, {b}]")).collect();
            s.push_str(&format!("groups = [{}]\n", parts.join(", ")));
        }
        if let Some(j) = f.join {
            s.push_str(&format!("join = {j}\n"));
        }
        if let Some(k) = f.kill_frac {
            s.push_str(&format!("kill_frac = {k:?}\n"));
        }
        if let Some(nf) = f.node_frac {
            s.push_str(&format!("node_frac = {nf:?}\n"));
        }
        if let Some(l) = f.lie {
            s.push_str(&format!("lie = {l:?}\n"));
        }
    }
    s
}

fn topology_strategy() -> BoxedStrategy<String> {
    prop_oneof![
        Just("newscast".to_string()),
        Just("fullmesh".to_string()),
        Just("star".to_string()),
        Just("ring".to_string()),
        Just("grid".to_string()),
        (1usize..4).prop_map(|k| format!("ring-lattice:{k}")),
        (1usize..4).prop_map(|k| format!("kregular:{k}")),
        (1usize..4).prop_map(|k| format!("kout:{k}")),
        (1usize..4).prop_map(|d| format!("hier:{d}")),
        (0u64..=10).prop_map(|p| format!("erdos:{:?}", p as f64 / 10.0)),
    ]
    .boxed()
}

fn coordination_strategy() -> BoxedStrategy<String> {
    prop_oneof![
        Just("gossip-pushpull".to_string()),
        Just("gossip-push".to_string()),
        Just("gossip-pull".to_string()),
        Just("master-slave".to_string()),
        Just("none".to_string()),
        (1usize..4, 0u64..=10).prop_map(|(f, p)| format!("rumor:{f},{:?}", p as f64 / 10.0)),
        (1usize..3).prop_map(|k| format!("migrate:{k}")),
    ]
    .boxed()
}

/// A random *valid* fault schedule against `nodes` (disjoint partition
/// groups built from a sorted cut list).
fn fault_strategy(nodes: usize) -> BoxedStrategy<Vec<FaultSpec>> {
    let n = nodes as u64;
    let partition = (1u64..50, 1u64..100, 1u64..n.max(2)).prop_map(move |(at, dur, cut)| {
        let cut = cut.min(n - 1).max(1);
        FaultSpec {
            kind: "partition".into(),
            at,
            heal_at: Some(at + dur),
            groups: Some(vec![(0, cut), (cut, n)]),
            join: None,
            kill_frac: None,
            node_frac: None,
            lie: None,
        }
    });
    let massacre = (1u64..100, 1u64..=100).prop_map(|(at, pct)| FaultSpec {
        kind: "massacre".into(),
        at,
        heal_at: None,
        groups: None,
        join: None,
        kill_frac: Some(pct as f64 / 100.0),
        node_frac: None,
        lie: None,
    });
    let flash = (1u64..100, 1usize..20).prop_map(|(at, join)| FaultSpec {
        kind: "flash_crowd".into(),
        at,
        heal_at: None,
        groups: None,
        join: Some(join),
        kill_frac: None,
        node_frac: None,
        lie: None,
    });
    let corrupt = (1u64..100, 1u64..=100, -1e9f64..-1.0).prop_map(|(at, pct, lie)| FaultSpec {
        kind: "corrupt_optimum".into(),
        at,
        heal_at: None,
        groups: None,
        join: None,
        kill_frac: None,
        node_frac: Some(pct as f64 / 100.0),
        lie: Some(lie),
    });
    prop::collection::vec(
        prop_oneof![
            partition.boxed(),
            massacre.boxed(),
            flash.boxed(),
            corrupt.boxed()
        ],
        0..3,
    )
    .boxed()
}

fn cell_strategy() -> BoxedStrategy<CellSpec> {
    (
        (8usize..64, 1usize..8, 1u64..16, 1u64..200),
        prop_oneof![Just("cycle".to_string()), Just("event".to_string())],
        topology_strategy(),
        coordination_strategy(),
        (1usize..6, 0u64..=100, 0u64..=100),
        (1u64..32, 1usize..64),
    )
        .prop_map(
            |(
                (nodes, particles, gossip_every, budget),
                kernel,
                topology,
                coordination,
                (dim, churn_pct, loss_pct),
                (sample_every, capacity),
            )| {
                let mut cell = CellSpec {
                    nodes,
                    particles,
                    gossip_every,
                    budget,
                    kernel,
                    topology,
                    coordination,
                    dim,
                    churn: churn_pct as f64 / 100.0,
                    loss: loss_pct as f64 / 100.0,
                    ..CellSpec::default()
                };
                cell.metrics.sample_every = sample_every;
                cell.metrics.capacity = capacity;
                cell
            },
        )
        .boxed()
}

proptest! {
    #[test]
    fn toml_round_trip_preserves_every_cell_field(
        cell in cell_strategy(),
        faults_seed in 0usize..4,
    ) {
        let mut cell = cell;
        // Attach a deterministic sub-sample of valid fault kinds.
        let schedule = fault_strategy(cell.nodes)
            .generate(&mut TestRng::for_case("faults", faults_seed as u64));
        cell.fault = schedule;
        // Only valid grammar+range combos are generated; reject the rare
        // degenerate topology/network pairing (e.g. ring-lattice k >= n
        // is validated at run time, not parse time).
        let text = cell_to_toml(&cell);
        let campaign = match parse_campaign(&text) {
            Ok(c) => c,
            Err(e) => return Err(TestCaseError::Fail(format!("parse failed: {e}\n{text}"))),
        };
        prop_assert_eq!(campaign.cells.len(), 1);
        let parsed = &campaign.cells[0];
        prop_assert_eq!(parsed.nodes, cell.nodes);
        prop_assert_eq!(parsed.particles, cell.particles);
        prop_assert_eq!(parsed.gossip_every, cell.gossip_every);
        prop_assert_eq!(parsed.budget, cell.budget);
        prop_assert_eq!(&parsed.kernel, &cell.kernel);
        prop_assert_eq!(&parsed.topology, &cell.topology);
        prop_assert_eq!(&parsed.coordination, &cell.coordination);
        prop_assert_eq!(parsed.dim, cell.dim);
        prop_assert_eq!(parsed.churn.to_bits(), cell.churn.to_bits());
        prop_assert_eq!(parsed.loss.to_bits(), cell.loss.to_bits());
        prop_assert_eq!(parsed.metrics, cell.metrics);
        prop_assert_eq!(&parsed.fault, &cell.fault);
        prop_assert!(parsed.seed.is_some(), "expansion must assign a seed");
    }

    #[test]
    fn json_round_trip_is_exact(cell in cell_strategy()) {
        let text = serde_json::to_string(&cell).unwrap();
        let back: CellSpec = match serde_json::from_str(&text) {
            Ok(c) => c,
            Err(e) => return Err(TestCaseError::Fail(format!("{e:?}"))),
        };
        // The tree source (the TOML path's) reads the same cell.
        let tree = CellSpec::from_value(&serde_json::parse(&text).unwrap());
        prop_assert_eq!(tree.ok().as_ref(), Some(&back));
        prop_assert_eq!(back, cell);
    }

    #[test]
    fn overlapping_partition_groups_are_always_rejected(
        a in 0u64..40,
        len_a in 2u64..40,
        offset in 0u64..2,
        len_b in 2u64..40,
    ) {
        // Construct two ranges that always overlap: b starts inside a.
        let b = a + offset.min(len_a - 1);
        let text = format!(
            "[cell]\nnodes = 100\n[[cell.fault]]\nkind = \"partition\"\n\
             at = 1\nheal_at = 2\ngroups = [[{a}, {}], [{b}, {}]]\n",
            (a + len_a).min(100),
            (b + len_b).min(100),
        );
        prop_assert!(
            parse_campaign(&text).is_err(),
            "overlapping groups must be rejected"
        );
    }

    #[test]
    fn out_of_range_fractions_are_always_rejected(
        over in 1u64..1000,
        which in 0usize..4,
    ) {
        let frac = 1.0 + over as f64 / 100.0; // strictly > 1
        let text = match which {
            0 => format!("[cell]\nnodes = 16\nchurn = {frac:?}\n"),
            1 => format!("[cell]\nnodes = 16\nloss = {frac:?}\n"),
            2 => format!(
                "[cell]\nnodes = 16\n[[cell.fault]]\nkind = \"massacre\"\nat = 1\nkill_frac = {frac:?}\n"
            ),
            _ => format!(
                "[cell]\nnodes = 16\n[[cell.fault]]\nkind = \"corrupt_optimum\"\nat = 1\nnode_frac = {frac:?}\nlie = -1.0\n"
            ),
        };
        prop_assert!(parse_campaign(&text).is_err(), "fraction {frac} accepted");
    }

    #[test]
    fn store_key_is_stable_and_ignores_non_exec_fields(cell in cell_strategy(), seed in 0u64..1000) {
        let mut cell = cell;
        cell.seed = Some(seed);
        let key = cell_key(&cell);
        // Recomputing (fresh canonicalization, fresh hash state) is
        // bit-identical — the key is a pure function of the cell.
        prop_assert_eq!(&cell_key(&cell).hash, &key.hash);
        prop_assert_eq!(cell_key(&cell).seed, seed);
        // The canonical form is written by hand, field by field; it must
        // stay what the serializer prints for the same fields.
        let reference = serde_json::json!({
            "nodes": cell.nodes,
            "particles": cell.particles,
            "gossip_every": cell.gossip_every,
            "budget": cell.budget,
            "kernel": cell.kernel,
            "threads": cell.threads,
            "topology": cell.topology,
            "coordination": cell.coordination,
            "solver": cell.solver,
            "function": cell.function,
            "dim": cell.dim,
            "churn": cell.churn,
            "loss": cell.loss,
            "stop_at_quality": cell.stop_at_quality,
            "metrics": cell.metrics,
            "fault": cell.fault
        });
        prop_assert_eq!(&key.spec, &serde_json::to_string(&reference).unwrap());
        // The display label and the assert override are report-side
        // concerns: changing them must keep every cache hit.
        let mut renamed = cell.clone();
        renamed.name = format!("{}-renamed", cell.name);
        renamed.assert = Some(AssertSpec { max_quality: Some(0.25), ..AssertSpec::default() });
        prop_assert_eq!(&cell_key(&renamed).hash, &key.hash);
    }

    #[test]
    fn any_single_exec_field_change_changes_the_store_key(
        cell in cell_strategy(),
        field in 0usize..15,
    ) {
        let mut cell = cell;
        cell.seed = Some(42);
        let base = cell_key(&cell);
        let mut mutated = cell.clone();
        match field {
            0 => mutated.nodes += 1,
            1 => mutated.particles += 1,
            2 => mutated.gossip_every += 1,
            3 => mutated.budget += 1,
            4 => mutated.kernel = if cell.kernel == "cycle" { "event".into() } else { "cycle".into() },
            5 => mutated.threads += 1,
            6 => mutated.topology = if cell.topology == "fullmesh" { "star".into() } else { "fullmesh".into() },
            7 => mutated.coordination = if cell.coordination == "none" { "master-slave".into() } else { "none".into() },
            8 => mutated.solver = if cell.solver == "de" { "ga".into() } else { "de".into() },
            9 => mutated.function = if cell.function == "sphere" { "griewank".into() } else { "sphere".into() },
            10 => mutated.dim += 1,
            11 => mutated.churn = if cell.churn < 0.5 { cell.churn + 0.5 } else { cell.churn - 0.5 },
            12 => mutated.loss = if cell.loss < 0.5 { cell.loss + 0.5 } else { cell.loss - 0.5 },
            13 => mutated.seed = Some(43),
            _ => mutated.stop_at_quality = Some(cell.stop_at_quality.map_or(1e-3, |q| q / 2.0)),
        }
        prop_assert_ne!(
            &cell_key(&mutated).hash, &base.hash,
            "mutating field #{} must change the key", field
        );
    }

    #[test]
    fn valid_two_way_partitions_always_parse(
        cut in 1u64..99,
        at in 0u64..50,
        dur in 1u64..50,
    ) {
        let text = format!(
            "[cell]\nnodes = 100\n[[cell.fault]]\nkind = \"partition\"\n\
             at = {at}\nheal_at = {}\ngroups = [[0, {cut}], [{cut}, 100]]\n",
            at + dur
        );
        let campaign = parse_campaign(&text)
            .map_err(|e| TestCaseError::Fail(format!("{e}")))?;
        prop_assert_eq!(campaign.cells[0].compiled_faults().unwrap().len(), 1);
    }
}
