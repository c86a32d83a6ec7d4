//! Content-addressed campaign result store: the persistence layer that
//! turns one-shot campaign runs into incremental, resumable sweeps.
//!
//! Every cell's outcome is filed under a key derived from **what was
//! actually simulated**: the fully-resolved execution fields of its
//! [`CellSpec`], the cell's resolved seed, and a code fingerprint
//! ([`CODE_FINGERPRINT`]) that is bumped whenever simulation semantics
//! change. Re-running a campaign therefore loads every already-computed
//! cell instead of recomputing it — a crashed million-cell sweep resumes
//! where it left off, and editing one sweep axis only executes the new
//! cells.
//!
//! ## Key definition
//!
//! The key hashes, in order and NUL-separated:
//!
//! 1. [`STORE_SCHEMA`] — the on-disk layout version;
//! 2. [`CODE_FINGERPRINT`] — the simulation-semantics version;
//! 3. the cell's resolved seed (8 little-endian bytes);
//! 4. the canonical execution JSON ([`StoreKey::spec`]): every
//!    [`CellSpec`] field that can change a run's trajectory or its
//!    recorded samples (`nodes`, `particles`, `gossip_every`, `budget`,
//!    `kernel`, `threads`, `topology`, `coordination`, `solver`,
//!    `function`, `dim`, `churn`, `loss`, `stop_at_quality`, `metrics`,
//!    `fault`), in fixed declaration order.
//!
//! The cell's `name` (a display label) and its `assert` override (an
//! after-the-fact report check) are deliberately **excluded**: renaming a
//! sweep axis or tightening a bound must not invalidate cached results.
//! The hash is a 128-bit FNV-1a over those bytes, rendered as 32 lowercase
//! hex digits — a pure function of the key material, so keys are stable
//! across processes, machines and thread counts.
//!
//! ## On-disk layout (stable, versioned)
//!
//! ```text
//! <store-root>/
//!   <hash>/entry.json    # StoreEntry: schema, fingerprint, key echo, RunReport
//!   <hash>/samples.csv   # the raw MetricsRing samples, one row per sample
//! ```
//!
//! `entry.json` embeds the full key components, so a loaded entry is
//! verified against the requested key before it is trusted; any mismatch
//! or parse failure is reported as a [`StoreError`] naming the offending
//! path and every key component, and the caller recomputes the cell
//! (overwriting the bad entry) instead of aborting the campaign.
//!
//! ```
//! use gossipopt_scenarios::{cell_key, CellSpec};
//!
//! let cell = CellSpec { seed: Some(7), ..CellSpec::default() };
//! let key = cell_key(&cell);
//! assert_eq!(key.hash.len(), 32);
//! assert_eq!(key.seed, 7);
//! // The label is not part of the key: relabeling keeps cache hits.
//! let renamed = CellSpec { name: "other".into(), ..cell.clone() };
//! assert_eq!(cell_key(&renamed).hash, key.hash);
//! ```

use crate::exec::CellReport;
use crate::spec::CellSpec;
use gossipopt_core::experiment::RunReport;
use gossipopt_obs::snapshot::{DetSnapshot, RunSnapshot};
use serde::{Deserialize, Serialize};
use std::fmt::{self, Write as _};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// On-disk layout version; bump when the entry/file shape changes so old
/// stores are cleanly recomputed instead of misread.
pub const STORE_SCHEMA: &str = "gossipopt-store/v1";

/// Simulation-semantics version folded into every key. Bump the trailing
/// tag whenever seeded trajectories change (the fingerprint CI job is the
/// tripwire for *unintended* changes); the crate version covers releases.
pub const CODE_FINGERPRINT: &str = concat!("gossipopt-", env!("CARGO_PKG_VERSION"), "+sim2");

/// The execution-relevant subset of a [`CellSpec`] as compact JSON in
/// fixed, explicit field order — the canonical form the key hashes.
/// Crate-private on purpose: the canonical form is an implementation
/// detail of the key (the report layer reuses it as its grouping key).
///
/// Written straight into one `String`; the bytes are key material and
/// equal what the serializer prints for the same fields as one object
/// (pinned by `canonical_spec_and_entry_bytes_are_golden`). Only values
/// whose JSON form is not their `Display` form go through the serializer.
pub(crate) fn exec_json(cell: &CellSpec) -> String {
    fn json<T: Serialize + ?Sized>(v: &T) -> String {
        serde_json::to_string(v).expect("plain data serializes")
    }
    format!(
        "{{\"nodes\":{},\"particles\":{},\"gossip_every\":{},\"budget\":{},\"kernel\":{},\
         \"threads\":{},\"topology\":{},\"coordination\":{},\"solver\":{},\"function\":{},\
         \"dim\":{},\"churn\":{},\"loss\":{},\"stop_at_quality\":{},\
         \"metrics\":{{\"sample_every\":{},\"capacity\":{}}},\"fault\":{}}}",
        cell.nodes,
        cell.particles,
        cell.gossip_every,
        cell.budget,
        json(&cell.kernel),
        cell.threads,
        json(&cell.topology),
        json(&cell.coordination),
        json(&cell.solver),
        json(&cell.function),
        cell.dim,
        json(&cell.churn),
        json(&cell.loss),
        json(&cell.stop_at_quality),
        cell.metrics.sample_every,
        cell.metrics.capacity,
        json(&cell.fault),
    )
}

/// A content-addressed store key: the hash plus the components it was
/// derived from (kept for diagnostics and entry verification).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoreKey {
    /// 128-bit FNV-1a of the key material, 32 lowercase hex digits.
    pub hash: String,
    /// The cell's resolved seed.
    pub seed: u64,
    /// Canonical execution JSON (see the module docs for the field list).
    pub spec: String,
}

/// Compute the content-addressed key for a cell (a pure function: stable
/// across processes and machines).
pub fn cell_key(cell: &CellSpec) -> StoreKey {
    let spec = exec_json(cell);
    let seed = cell.resolved_seed();
    StoreKey {
        hash: key_hash(seed, &spec),
        seed,
        spec,
    }
}

/// 128-bit FNV-1a over the NUL-separated key material.
fn key_hash(seed: u64, spec: &str) -> String {
    const OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
    const PRIME: u128 = 0x0000000001000000000000000000013B;
    let mut h = OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u128;
            h = h.wrapping_mul(PRIME);
        }
    };
    eat(STORE_SCHEMA.as_bytes());
    eat(&[0]);
    eat(CODE_FINGERPRINT.as_bytes());
    eat(&[0]);
    eat(&seed.to_le_bytes());
    eat(&[0]);
    eat(spec.as_bytes());
    format!("{h:032x}")
}

/// One persisted cell outcome (`entry.json`). The key components are
/// embedded so the entry self-describes what produced it and can be
/// verified against the key it is loaded under.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StoreEntry {
    /// [`STORE_SCHEMA`] at write time.
    pub schema: String,
    /// [`CODE_FINGERPRINT`] at write time.
    pub fingerprint: String,
    /// The key hash this entry was filed under.
    pub hash: String,
    /// The cell's resolved seed.
    pub seed: u64,
    /// Canonical execution JSON of the cell that ran.
    pub spec: String,
    /// The run's figures of merit (including the metric samples).
    pub report: RunReport,
    /// Messages eaten by partition windows (send + receive side).
    pub blocked_messages: u64,
    /// Did the run end poisoned (see `exec::POISON_EPSILON`)?
    pub poisoned: bool,
}

impl StoreEntry {
    /// Rehydrate a [`CellReport`] for the (equivalent) cell the campaign
    /// is currently running: label and spec echo come from the *caller's*
    /// cell, so reports are byte-identical whether served from the store
    /// or recomputed — even across campaigns that label the cell
    /// differently.
    pub fn into_cell_report(self, cell: &CellSpec) -> CellReport {
        CellReport {
            index: 0,
            label: cell.name.clone(),
            cell: cell.clone(),
            report: self.report,
            blocked_messages: self.blocked_messages,
            poisoned: self.poisoned,
            failures: Vec::new(),
        }
    }
}

/// A present-but-unusable store entry: the path, what is wrong with it,
/// and the key components the caller asked for. Callers recompute the
/// cell and overwrite the entry; campaigns never abort on this.
#[derive(Debug, Clone)]
pub struct StoreError {
    /// The offending file.
    pub path: PathBuf,
    /// What went wrong (parse failure, schema/fingerprint/hash mismatch).
    pub reason: String,
    /// The key the entry was expected to satisfy.
    pub key: StoreKey,
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "store entry {}: {} (expected key hash={} seed={} spec={})",
            self.path.display(),
            self.reason,
            self.key.hash,
            self.key.seed,
            self.key.spec
        )
    }
}

impl std::error::Error for StoreError {}

/// The content-addressed result store (a directory of `<hash>/` entries).
///
/// Concurrent writers are safe: files are written to a temporary name and
/// atomically renamed into place, and two writers racing on one key write
/// byte-identical content by construction.
#[derive(Debug, Clone)]
pub struct Store {
    root: PathBuf,
}

impl Store {
    /// Open (creating if needed) a store rooted at `root`.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<Store> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        Ok(Store { root })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The entry directory for a key.
    pub fn dir(&self, key: &StoreKey) -> PathBuf {
        self.root.join(&key.hash)
    }

    /// Is an entry present for this key (without validating it)?
    pub fn contains(&self, key: &StoreKey) -> bool {
        self.dir(key).join("entry.json").exists()
    }

    /// Load and verify the entry for `key`.
    ///
    /// * `Ok(Some(entry))` — a verified hit;
    /// * `Ok(None)` — nothing stored under this key (a clean miss);
    /// * `Err(e)` — an entry exists but is corrupt or belongs to a
    ///   different key; `e` names the path and the full key components.
    pub fn load(&self, key: &StoreKey) -> Result<Option<StoreEntry>, StoreError> {
        let path = self.dir(key).join("entry.json");
        let err = |reason: String| StoreError {
            path: path.clone(),
            reason,
            key: key.clone(),
        };
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(err(format!("unreadable: {e}"))),
        };
        let entry: StoreEntry =
            serde_json::from_str(&text).map_err(|e| err(format!("corrupt JSON: {}", e.0)))?;
        if entry.schema != STORE_SCHEMA {
            return Err(err(format!(
                "schema `{}` != supported `{STORE_SCHEMA}`",
                entry.schema
            )));
        }
        if entry.fingerprint != CODE_FINGERPRINT {
            return Err(err(format!(
                "code fingerprint `{}` != current `{CODE_FINGERPRINT}`",
                entry.fingerprint
            )));
        }
        if entry.hash != key.hash || entry.seed != key.seed || entry.spec != key.spec {
            return Err(err(format!(
                "hash mismatch: entry was written for hash={} seed={} spec={}",
                entry.hash, entry.seed, entry.spec
            )));
        }
        // Defense in depth: the hash must also recompute from the stored
        // components (detects an entry edited in place).
        if key_hash(entry.seed, &entry.spec) != key.hash {
            return Err(err("hash does not recompute from stored components".into()));
        }
        Ok(Some(entry))
    }

    /// Persist a cell outcome under `key` (overwrites any existing entry).
    pub fn save(&self, key: &StoreKey, cell: &CellReport) -> io::Result<()> {
        let dir = self.dir(key);
        std::fs::create_dir_all(&dir)?;
        let entry = StoreEntry {
            schema: STORE_SCHEMA.into(),
            fingerprint: CODE_FINGERPRINT.into(),
            hash: key.hash.clone(),
            seed: key.seed,
            spec: key.spec.clone(),
            report: cell.report.clone(),
            blocked_messages: cell.blocked_messages,
            poisoned: cell.poisoned,
        };
        let mut json = serde_json::to_string_pretty(&entry).expect("entry serializes");
        json.push('\n');
        write_atomic(&dir.join("entry.json"), json.as_bytes())?;
        write_atomic(
            &dir.join("samples.csv"),
            samples_csv(&entry.report).as_bytes(),
        )
    }

    /// Persist a cell's deterministic observability snapshot alongside
    /// its entry (`obs_det.json` + a det-only `obs.prom` rendering).
    ///
    /// Observability sidecars are **not key material**: they are derived
    /// from the same run the entry records, so storing or deleting them
    /// never changes cache hits. Requires [`Store::save`] to have created
    /// the entry directory (call it first).
    pub fn save_obs(&self, key: &StoreKey, det: &DetSnapshot) -> io::Result<()> {
        let dir = self.dir(key);
        std::fs::create_dir_all(&dir)?;
        write_atomic(
            &dir.join("obs_det.json"),
            det.to_canonical_json().as_bytes(),
        )?;
        let prom = RunSnapshot {
            det: det.clone(),
            wall: None,
        }
        .to_prometheus();
        write_atomic(&dir.join("obs.prom"), prom.as_bytes())
    }

    /// Load the stored deterministic snapshot for `key`, if present and
    /// parseable. Any failure reads as "absent" — the caller re-executes
    /// the cell and overwrites, mirroring entry corruption recovery.
    pub fn load_obs(&self, key: &StoreKey) -> Option<DetSnapshot> {
        let text = std::fs::read_to_string(self.dir(key).join("obs_det.json")).ok()?;
        let det: DetSnapshot = serde_json::from_str(&text).ok()?;
        (det.schema == gossipopt_obs::OBS_SCHEMA).then_some(det)
    }
}

/// The raw `MetricsRing` samples as CSV (the store's analysis-friendly
/// sidecar; `entry.json` is the authoritative copy).
fn samples_csv(report: &RunReport) -> String {
    let mut out = String::from("tick,best_quality,alive,delivered,wire_bytes\n");
    for s in &report.samples {
        // Writing to a `String` cannot fail.
        let _ = writeln!(
            out,
            "{},{:e},{},{},{}",
            s.tick, s.best_quality, s.alive, s.delivered, s.wire_bytes
        );
    }
    out
}

/// Write via a unique temporary file + rename, so concurrent writers and
/// crashes never leave a half-written entry behind. The temporary name
/// is unique per call, not just per process: two worker threads of one
/// campaign may save the same key (cells that differ only in label).
fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    static WRITES: AtomicU64 = AtomicU64::new(0);
    // Relaxed: the counter only has to hand out distinct numbers.
    let nth = WRITES.fetch_add(1, Ordering::Relaxed);
    let tmp = path.with_extension(format!("tmp.{}.{nth}", std::process::id()));
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::run_cell;
    use crate::spec::FaultSpec;
    use gossipopt_core::metrics::MetricsSpec;

    fn tmp_store(tag: &str) -> Store {
        let dir = std::env::temp_dir().join(format!("gossipopt-store-unit-{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        Store::open(dir).unwrap()
    }

    fn tiny_cell() -> CellSpec {
        CellSpec {
            nodes: 8,
            particles: 4,
            budget: 20,
            seed: Some(5),
            ..CellSpec::default()
        }
    }

    #[test]
    fn key_is_a_golden_pure_function() {
        // The key must be stable across processes and machines: it is a
        // pure function of the key material with no addresses, times or
        // RNG state. Locked by value — if this test fails, the canonical
        // key definition changed and CODE_FINGERPRINT must be bumped.
        let key = cell_key(&tiny_cell());
        assert_eq!(key.seed, 5);
        assert_eq!(key.hash, cell_key(&tiny_cell()).hash);
        assert_eq!(key.hash.len(), 32);
        assert!(key.hash.bytes().all(|b| b.is_ascii_hexdigit()));
        assert!(key.spec.contains("\"nodes\""));
        assert!(
            !key.spec.contains("\"name\""),
            "labels are not key material"
        );
        assert!(
            !key.spec.contains("\"assert\""),
            "assert overrides are not key material"
        );
    }

    /// A cell that sets every field the canonical form has to escape or
    /// format: quotes and backslashes, fractional and tiny floats, a
    /// `Some` threshold and a fault with `null` members.
    fn busy_cell() -> CellSpec {
        CellSpec {
            churn: 0.125,
            loss: 1e-7,
            stop_at_quality: Some(1e-3),
            topology: "k\"reg\\ular".into(),
            fault: vec![massacre()],
            ..tiny_cell()
        }
    }

    fn massacre() -> FaultSpec {
        FaultSpec {
            kind: "massacre".into(),
            at: 5,
            heal_at: None,
            groups: None,
            join: None,
            kill_frac: Some(0.5),
            node_frac: None,
            lie: None,
        }
    }

    #[test]
    fn canonical_spec_and_entry_bytes_are_golden() {
        // Key material and the on-disk format are frozen: these are the
        // bytes every build since `+sim2` has written. If this fails,
        // existing stores no longer load — bump CODE_FINGERPRINT /
        // STORE_SCHEMA deliberately or fix the writer.
        let key = cell_key(&tiny_cell());
        assert_eq!(
            key.spec,
            r#"{"nodes":8,"particles":4,"gossip_every":8,"budget":20,"kernel":"cycle","threads":0,"topology":"newscast","coordination":"gossip-pushpull","solver":"pso","function":"sphere","dim":10,"churn":0.0,"loss":0.0,"stop_at_quality":null,"metrics":{"sample_every":10,"capacity":512},"fault":[]}"#
        );
        assert_eq!(key.hash, "91f9d3fd226c1bffce349de779c8c66f");
        let busy = cell_key(&busy_cell());
        assert_eq!(
            busy.spec,
            r#"{"nodes":8,"particles":4,"gossip_every":8,"budget":20,"kernel":"cycle","threads":0,"topology":"k\"reg\\ular","coordination":"gossip-pushpull","solver":"pso","function":"sphere","dim":10,"churn":0.125,"loss":0.0000001,"stop_at_quality":0.001,"metrics":{"sample_every":10,"capacity":512},"fault":[{"kind":"massacre","at":5,"heal_at":null,"groups":null,"join":null,"kill_frac":0.5,"node_frac":null,"lie":null}]}"#
        );
        assert_eq!(busy.hash, "3d6c397315e95f04418bf1f936fed546");

        let store = tmp_store("golden");
        store.save(&key, &run_cell(&tiny_cell()).unwrap()).unwrap();
        let read = |name: &str| std::fs::read_to_string(store.dir(&key).join(name)).unwrap();
        assert_eq!(
            read("entry.json"),
            include_str!("../tests/golden/entry.json")
        );
        assert_eq!(
            read("samples.csv"),
            include_str!("../tests/golden/samples.csv")
        );
    }

    #[test]
    fn label_and_assert_do_not_change_the_key() {
        let base = cell_key(&tiny_cell());
        let renamed = CellSpec {
            name: "some other label".into(),
            ..tiny_cell()
        };
        assert_eq!(cell_key(&renamed).hash, base.hash);
        let asserted = CellSpec {
            assert: Some(crate::spec::AssertSpec {
                max_quality: Some(0.5),
                ..Default::default()
            }),
            ..tiny_cell()
        };
        assert_eq!(cell_key(&asserted).hash, base.hash);
    }

    #[test]
    fn every_exec_field_changes_the_key() {
        let base = cell_key(&tiny_cell());
        let variants: Vec<CellSpec> = vec![
            CellSpec {
                nodes: 9,
                ..tiny_cell()
            },
            CellSpec {
                particles: 5,
                ..tiny_cell()
            },
            CellSpec {
                gossip_every: 7,
                ..tiny_cell()
            },
            CellSpec {
                budget: 21,
                ..tiny_cell()
            },
            CellSpec {
                kernel: "event".into(),
                ..tiny_cell()
            },
            CellSpec {
                threads: 2,
                ..tiny_cell()
            },
            CellSpec {
                topology: "ring".into(),
                ..tiny_cell()
            },
            CellSpec {
                coordination: "none".into(),
                ..tiny_cell()
            },
            CellSpec {
                solver: "de".into(),
                ..tiny_cell()
            },
            CellSpec {
                function: "griewank".into(),
                ..tiny_cell()
            },
            CellSpec {
                dim: 4,
                ..tiny_cell()
            },
            CellSpec {
                churn: 0.1,
                ..tiny_cell()
            },
            CellSpec {
                loss: 0.1,
                ..tiny_cell()
            },
            CellSpec {
                seed: Some(6),
                ..tiny_cell()
            },
            CellSpec {
                stop_at_quality: Some(1e-3),
                ..tiny_cell()
            },
            CellSpec {
                metrics: MetricsSpec {
                    sample_every: 3,
                    capacity: 512,
                },
                ..tiny_cell()
            },
            CellSpec {
                fault: vec![massacre()],
                ..tiny_cell()
            },
        ];
        for v in variants {
            assert_ne!(
                cell_key(&v).hash,
                base.hash,
                "field change must rekey: {v:?}"
            );
        }
    }

    #[test]
    fn save_load_round_trips() {
        let store = tmp_store("roundtrip");
        let cell = tiny_cell();
        let key = cell_key(&cell);
        assert!(store.load(&key).unwrap().is_none(), "clean miss");
        let out = run_cell(&cell).unwrap();
        store.save(&key, &out).unwrap();
        assert!(store.contains(&key));
        let entry = store.load(&key).unwrap().expect("hit");
        let back = entry.into_cell_report(&cell);
        assert_eq!(
            serde_json::to_string(&back.report).unwrap(),
            serde_json::to_string(&out.report).unwrap()
        );
        assert_eq!(back.blocked_messages, out.blocked_messages);
        assert_eq!(back.poisoned, out.poisoned);
        assert!(store.dir(&key).join("samples.csv").exists());
    }

    #[test]
    fn corrupt_and_mismatched_entries_are_diagnosed() {
        let store = tmp_store("corrupt");
        let cell = tiny_cell();
        let key = cell_key(&cell);
        let out = run_cell(&cell).unwrap();
        store.save(&key, &out).unwrap();

        // Truncated JSON.
        let path = store.dir(&key).join("entry.json");
        std::fs::write(&path, b"{ \"schema\": \"gossip").unwrap();
        let e = store.load(&key).unwrap_err();
        assert!(e.reason.contains("corrupt"), "{e}");
        assert!(format!("{e}").contains(&key.hash), "diagnoses the key");
        assert!(format!("{e}").contains("entry.json"), "names the path");

        // Hostile nesting is an error, not a stack overflow; `\u` takes
        // exactly four hex digits.
        for bad in [
            "[".repeat(100_000),
            "{ \"schema\": \"gossipopt-store/v\\u+031\" }".to_string(),
        ] {
            std::fs::write(&path, bad).unwrap();
            let e = store.load(&key).unwrap_err();
            assert!(e.reason.contains("corrupt JSON"), "{e}");
        }

        // An entry moved under the wrong hash: store under key A, copy to
        // key B's directory.
        store.save(&key, &out).unwrap();
        let other = CellSpec {
            budget: 21,
            ..tiny_cell()
        };
        let other_key = cell_key(&other);
        std::fs::create_dir_all(store.dir(&other_key)).unwrap();
        std::fs::copy(
            store.dir(&key).join("entry.json"),
            store.dir(&other_key).join("entry.json"),
        )
        .unwrap();
        let e = store.load(&other_key).unwrap_err();
        assert!(e.reason.contains("mismatch"), "{e}");
    }

    #[test]
    fn threads_of_one_process_may_save_the_same_key() {
        // Two sweep rows that differ only in label share a key, and
        // `campaign --threads 2` may finish them at the same moment.
        let store = tmp_store("same-key");
        let key = cell_key(&tiny_cell());
        let out = run_cell(&tiny_cell()).unwrap();
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    start.wait();
                    for _ in 0..200 {
                        store.save(&key, &out).unwrap();
                    }
                });
            }
        });
        assert!(store.load(&key).unwrap().is_some());
        let left: Vec<_> = std::fs::read_dir(store.dir(&key))
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(left.len(), 2, "no temporary file is left behind: {left:?}");
    }
}
