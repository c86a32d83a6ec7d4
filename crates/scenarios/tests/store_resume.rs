//! Integration tests for the content-addressed result store: incremental
//! re-runs, crash resume, selective invalidation, corruption recovery,
//! and the byte-identity of reports regardless of where cells came from.

use gossipopt_obs::{DetSnapshot, WallSnapshot};
use gossipopt_scenarios::{
    cell_key, parse_campaign, run_campaign_observed, run_campaign_stored, run_cell, run_cell_obs,
    CampaignReport, CampaignSpec, CellSpec, Store, StoreEntry, StoreKey,
};
use proptest::prelude::*;
use std::path::PathBuf;

/// Process-independence, pinned by value: the key is a pure function of
/// (schema, code fingerprint, seed, canonical exec JSON) with no
/// addresses, times or RNG state — so this constant holds in every
/// process on every machine. If it changes, the canonical key definition
/// changed and `CODE_FINGERPRINT` must be bumped with it.
#[test]
fn store_key_hash_is_a_cross_process_constant() {
    let cell = CellSpec {
        seed: Some(5),
        ..CellSpec::default()
    };
    assert_eq!(cell_key(&cell).hash, "127d961473baf961b4583918670bfd5f");
}

/// A per-test temporary store rooted under the target dir's temp space.
fn tmp_store(tag: &str) -> (Store, PathBuf) {
    let dir = std::env::temp_dir().join(format!("gossipopt-store-it-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    (Store::open(&dir).unwrap(), dir)
}

/// A small campaign with enough shape to be representative: a sweep, a
/// zip pair, reps, and a per-cell assert override.
fn small_campaign() -> CampaignSpec {
    parse_campaign(
        r#"
[campaign]
name = "resume"
seed = 11
reps = 2

[cell]
particles = 4
gossip_every = 4

[cell.metrics]
sample_every = 10
capacity = 16

[cell.assert]
max_quality = 1e9

[sweep]
topology = ["ring", "kregular:3"]

[sweep.zip]
nodes = [8, 16]
budget = [40, 20]

[assert]
max_quality = 1e-30
min_final_population = 1
"#,
    )
    .unwrap()
}

#[test]
fn acceptance_paper_grid_reruns_execute_zero_cells() {
    // The ISSUE's acceptance criterion, verbatim: running the committed
    // `scenarios/paper_grid.toml` twice against one store executes zero
    // cells the second time, and the reports are byte-identical.
    let spec = parse_campaign(include_str!("../../../scenarios/paper_grid.toml")).unwrap();
    let (store, dir) = tmp_store("paper-grid");
    let cold = run_campaign_stored(&spec, 2, Some(&store)).unwrap();
    assert_eq!(cold.executed, spec.cells.len());
    assert_eq!(cold.loaded, 0);
    let warm = run_campaign_stored(&spec, 2, Some(&store)).unwrap();
    assert_eq!(warm.executed, 0, "second run must execute zero cells");
    assert_eq!(warm.loaded, spec.cells.len());
    assert!(warm.recovered.is_empty());
    assert_eq!(
        cold.report.to_json(),
        warm.report.to_json(),
        "stored and executed cells must render identically"
    );
    assert_eq!(cold.report.to_csv(), warm.report.to_csv());
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn interrupted_run_resumes_where_it_left_off() {
    // Simulate a crash mid-campaign: only the first 3 cells made it into
    // the store (exactly what an interrupted run leaves behind, since
    // every cell is persisted the moment it finishes).
    let spec = small_campaign();
    assert_eq!(spec.cells.len(), 8);
    let (store, dir) = tmp_store("interrupted");
    for cell in &spec.cells[..3] {
        let out = run_cell(cell).unwrap();
        store.save(&cell_key(cell), &out).unwrap();
    }
    let resumed = run_campaign_stored(&spec, 2, Some(&store)).unwrap();
    assert_eq!(resumed.loaded, 3, "the crashed run's work is reused");
    assert_eq!(resumed.executed, 5, "only the remainder is simulated");
    // The resumed report equals a from-scratch run's.
    let (fresh_store, fresh_dir) = tmp_store("interrupted-fresh");
    let fresh = run_campaign_stored(&spec, 1, Some(&fresh_store)).unwrap();
    assert_eq!(resumed.report.to_json(), fresh.report.to_json());
    let _ = std::fs::remove_dir_all(dir);
    let _ = std::fs::remove_dir_all(fresh_dir);
}

#[test]
fn deleting_one_cell_dir_reexecutes_only_that_cell() {
    let spec = small_campaign();
    let (store, dir) = tmp_store("invalidate");
    let cold = run_campaign_stored(&spec, 2, Some(&store)).unwrap();
    assert_eq!(cold.executed, 8);

    let victim = &spec.cells[5];
    let victim_dir = store.dir(&cell_key(victim));
    assert!(victim_dir.exists());
    std::fs::remove_dir_all(&victim_dir).unwrap();

    let warm = run_campaign_stored(&spec, 2, Some(&store)).unwrap();
    assert_eq!(warm.executed, 1, "only the deleted cell re-executes");
    assert_eq!(warm.loaded, 7);
    assert_eq!(cold.report.to_json(), warm.report.to_json());
    assert!(victim_dir.join("entry.json").exists(), "re-persisted");
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn corrupt_entries_are_diagnosed_recomputed_and_overwritten() {
    let spec = small_campaign();
    let (store, dir) = tmp_store("corrupt");
    let cold = run_campaign_stored(&spec, 1, Some(&store)).unwrap();

    // Truncate one entry mid-JSON — a crash during a non-atomic copy, a
    // disk error, a hand edit — then replace it with a hostile one whose
    // nesting would overflow the stack of a parser that recursed freely.
    let victim = &spec.cells[2];
    let key = cell_key(victim);
    let entry_path = store.dir(&key).join("entry.json");
    // The last one is a good entry plus an unknown key whose value nests
    // past the limit: skipping it must hit the limit, not the stack.
    let good = std::fs::read_to_string(&entry_path).unwrap();
    let bad_entries = [
        b"{ \"schema\": \"gossipopt-st".to_vec(),
        b"[".repeat(100_000),
        format!(
            "{{\"x\": {}{},{}",
            "[".repeat(129),
            "]".repeat(129),
            &good[1..]
        )
        .into_bytes(),
    ];
    for bad in bad_entries {
        std::fs::write(&entry_path, bad).unwrap();

        let warm = run_campaign_stored(&spec, 1, Some(&store)).unwrap();
        assert_eq!(warm.executed, 1, "the corrupt cell is recomputed");
        assert_eq!(warm.loaded, 7);
        assert_eq!(warm.recovered.len(), 1, "and the recovery is reported");
        let diag = &warm.recovered[0];
        assert!(
            diag.contains("entry.json") && diag.contains(&key.hash),
            "diagnostic names the path and key: {diag}"
        );
        assert!(diag.contains("corrupt JSON"), "{diag}");
        assert!(diag.contains(&format!("seed={}", key.seed)), "{diag}");
        // The campaign still produced the exact same report...
        assert_eq!(cold.report.to_json(), warm.report.to_json());
        // ...and the bad entry was overwritten in place: a third run is clean.
        let healed = run_campaign_stored(&spec, 1, Some(&store)).unwrap();
        assert_eq!(healed.executed, 0);
        assert!(healed.recovered.is_empty());
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn per_cell_assert_overrides_gate_per_cell() {
    // The campaign-level bound (max_quality = 1e-30) is impossibly
    // strict, but every cell carries a [cell.assert] override loosening
    // it — so no cell fails. Removing the override must fail every cell.
    let spec = small_campaign();
    let outcome = run_campaign_stored(&spec, 1, None).unwrap();
    assert!(
        outcome.report.failures().is_empty(),
        "overrides loosen the campaign bound: {:?}",
        outcome.report.failures()
    );

    let mut strict = spec.clone();
    for cell in &mut strict.cells {
        cell.assert = None;
    }
    let outcome = run_campaign_stored(&strict, 1, None).unwrap();
    assert_eq!(
        outcome.report.failures().len(),
        strict.cells.len(),
        "without overrides the 1e-30 bound fails every cell"
    );
}

#[test]
fn observed_campaign_exports_snapshots_and_reuses_store_sidecars() {
    // Cold run: every cell executes, persisting obs sidecars next to its
    // entry. Warm run into a fresh export dir: zero executions, yet the
    // deterministic snapshots come out byte-identical — the sidecar is a
    // faithful substitute for re-simulation.
    let spec = small_campaign();
    let (store, dir) = tmp_store("observed");
    let obs_a = std::env::temp_dir().join("gossipopt-obs-it-a");
    let obs_b = std::env::temp_dir().join("gossipopt-obs-it-b");
    let _ = std::fs::remove_dir_all(&obs_a);
    let _ = std::fs::remove_dir_all(&obs_b);

    let cold = run_campaign_observed(&spec, 2, Some(&store), Some(&obs_a)).unwrap();
    assert_eq!(cold.executed, spec.cells.len());
    let warm = run_campaign_observed(&spec, 2, Some(&store), Some(&obs_b)).unwrap();
    assert_eq!(warm.executed, 0, "obs sidecars serve the warm run");
    assert_eq!(cold.report.to_json(), warm.report.to_json());

    for i in 0..spec.cells.len() {
        let cell = format!("cell_{i}");
        let a = std::fs::read_to_string(obs_a.join(&cell).join("obs_det.json")).unwrap();
        let b = std::fs::read_to_string(obs_b.join(&cell).join("obs_det.json")).unwrap();
        assert_eq!(a, b, "cell {i}: loaded det snapshot must match executed");
        assert!(obs_a.join(&cell).join("obs.prom").exists());
        assert!(
            !obs_a.join(&cell).join("obs_wall.json").exists(),
            "wall plane stays off unless enabled"
        );
    }
    assert!(obs_a.join("campaign_obs_det.json").exists());
    let _ = std::fs::remove_dir_all(dir);
    let _ = std::fs::remove_dir_all(obs_a);
    let _ = std::fs::remove_dir_all(obs_b);
}

#[test]
fn store_reports_are_independent_of_thread_count() {
    let spec = small_campaign();
    let (store_a, dir_a) = tmp_store("threads-a");
    let (store_b, dir_b) = tmp_store("threads-b");
    let a = run_campaign_stored(&spec, 1, Some(&store_a)).unwrap();
    let b = run_campaign_stored(&spec, 4, Some(&store_b)).unwrap();
    assert_eq!(a.report.to_json(), b.report.to_json());
    // The stores themselves hold the same keys.
    for cell in &spec.cells {
        let key = cell_key(cell);
        assert!(store_a.contains(&key) && store_b.contains(&key));
    }
    let _ = std::fs::remove_dir_all(dir_a);
    let _ = std::fs::remove_dir_all(dir_b);
}

/// The golden entry (`store.rs` pins its bytes) and the key it is filed
/// under, read from the key components the entry records.
fn golden_entry() -> (&'static str, StoreKey) {
    let text = include_str!("golden/entry.json");
    let v = serde_json::parse(text).unwrap();
    let key = StoreKey {
        hash: v["hash"].as_str().unwrap().into(),
        seed: v["seed"].as_u64().unwrap(),
        spec: v["spec"].as_str().unwrap().into(),
    };
    (text, key)
}

/// Read `text` from both sources of the one deserializer, the text
/// reader (`from_str`) and the tree cursor (`from_value` over `parse`);
/// they must agree, compared by what each re-serializes to.
fn read_both_ways<T>(text: &str) -> T
where
    T: serde::de::DeserializeOwned + serde::Serialize,
{
    let direct: T = serde_json::from_str(text).unwrap();
    let tree = T::from_value(&serde_json::parse(text).unwrap()).unwrap();
    assert_eq!(
        serde_json::to_string(&direct).unwrap(),
        serde_json::to_string(&tree).unwrap()
    );
    direct
}

#[test]
fn stored_and_exported_documents_read_the_same_from_text_and_tree() {
    let (golden, _) = golden_entry();
    let entry: StoreEntry = read_both_ways(golden);
    let mut again = serde_json::to_string_pretty(&entry).unwrap();
    again.push('\n');
    assert_eq!(again, golden, "a loaded entry re-renders byte for byte");

    let spec = small_campaign();
    let (store, dir) = tmp_store("two-sources");
    let key = cell_key(&spec.cells[3]);
    store
        .save(&key, &run_cell(&spec.cells[3]).unwrap())
        .unwrap();
    let fresh = std::fs::read_to_string(store.dir(&key).join("entry.json")).unwrap();
    let _: StoreEntry = read_both_ways(&fresh);

    let report = run_campaign_stored(&spec, 1, None)
        .unwrap()
        .report
        .to_json();
    let _: CampaignReport = read_both_ways(&report);
    let (_, snap) = run_cell_obs(&spec.cells[1]).unwrap();
    let _: DetSnapshot = read_both_ways(&snap.det.to_canonical_json());
    let _: WallSnapshot = read_both_ways(&WallSnapshot::capture().to_json());
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn truncated_and_deeply_nested_entries_fail_cleanly() {
    let (text, key) = golden_entry();
    let (store, dir) = tmp_store("truncated");
    std::fs::create_dir_all(store.dir(&key)).unwrap();
    let path = store.dir(&key).join("entry.json");
    std::fs::write(&path, text).unwrap();
    assert!(
        store.load(&key).unwrap().is_some(),
        "the golden entry loads"
    );

    // Every prefix short of the closing brace is an error; the one that
    // drops only the final newline is still the whole entry.
    let close = text.rfind('}').unwrap();
    for cut in 0..text.len() {
        std::fs::write(&path, &text.as_bytes()[..cut]).unwrap();
        let loaded = store.load(&key);
        if cut <= close {
            assert!(loaded.is_err(), "a {cut}-byte prefix loaded");
        } else {
            assert!(loaded.unwrap().is_some(), "a {cut}-byte prefix failed");
        }
    }

    // An unknown key is skipped, and skipping obeys the nesting limit:
    // inside the entry's own object, 127 levels fit and 128 do not.
    let nested = |levels: usize| {
        let value = "[".repeat(levels) + &"]".repeat(levels);
        format!("{{\"x\": {value},{}", &text[1..])
    };
    std::fs::write(&path, nested(127)).unwrap();
    assert!(store.load(&key).unwrap().is_some());
    for levels in [128, 129] {
        std::fs::write(&path, nested(levels)).unwrap();
        let e = store.load(&key).unwrap_err();
        assert!(e.reason.contains("nesting deeper than 128"), "{e}");
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// JSON's own punctuation, digits and keyword letters: what an edit
/// must produce to get past the UTF-8 check and into the parser.
const JSON_BYTES: &[u8] = b"{}[]\",:.-+eE0123456789ntrufals\\ \n";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn store_load_never_panics_on_damaged_entries(
        edits in prop::collection::vec((any::<u64>(), any::<u8>(), any::<bool>()), 1..6)
    ) {
        let (text, key) = golden_entry();
        let mut bytes = text.as_bytes().to_vec();
        for (at, byte, insert) in edits {
            let at = (at % (bytes.len() as u64 + 1)) as usize;
            // Three in four edits are JSON bytes, the rest any byte.
            let byte = if byte % 4 == 0 { byte } else { JSON_BYTES[byte as usize % JSON_BYTES.len()] };
            if insert || at == bytes.len() {
                bytes.insert(at, byte);
            } else {
                bytes[at] = byte;
            }
        }
        let dir = std::env::temp_dir().join("gossipopt-store-it-damaged");
        let store = Store::open(&dir).unwrap();
        std::fs::create_dir_all(store.dir(&key)).unwrap();
        std::fs::write(store.dir(&key).join("entry.json"), &bytes).unwrap();
        // Any verdict will do (a benign edit may still load); a panic
        // would not return here.
        let _ = store.load(&key);
    }
}
