//! Report layer: render campaign results the way the paper presents
//! them — aggregate tables in the `avg min max Var` format of its
//! Tables 1–4, plus raw convergence-curve CSVs for plotting.
//!
//! Everything here is a pure function of [`CampaignReport`] data:
//! repetitions of the same execution configuration (same exec fields,
//! different seeds — the `reps` axis) are grouped by the store's
//! canonical exec JSON and aggregated with `OnlineStats`, and no
//! wall-clock or path data enters the output. Rendered text is therefore
//! **byte-identical across runs, machines and `--threads` values**,
//! which CI enforces by diffing two independent `campaign report`
//! invocations.
//!
//! Two table shapes:
//!
//! * **quality** (the paper's Tables 1–3): final `best_quality`
//!   aggregated per group;
//! * **time-to-threshold** (Table 4), rendered when any cell sets
//!   `stop_at_quality`: ticks-to-threshold aggregated over the
//!   repetitions that hit the threshold, with a `-` row for groups where
//!   none did (the paper's "–" entries) and a `hits/reps` column.

use crate::campaign::csv_escape;
use crate::exec::CellReport;
use crate::spec::CellSpec;
use crate::store::exec_json;
use crate::CampaignReport;
use gossipopt_util::{OnlineStats, Summary};

/// Which of the paper's four experiment sets (1–4) a campaign encodes:
/// `paper-tableN`, the name of the committed `scenarios/paper_table*.toml`
/// and `scenarios/paper_full/table*.toml` files, is set `N`; `None` for
/// other campaigns. The one place that knows which campaign is which
/// paper experiment — captions and figures both key on it.
pub(crate) fn paper_set(name: &str) -> Option<u8> {
    match name {
        "paper-table1" => Some(1),
        "paper-table2" => Some(2),
        "paper-table3" => Some(3),
        "paper-table4" => Some(4),
        _ => None,
    }
}

/// The paper-table caption for a campaign name (`paper-table1` …
/// `paper-table4`); `None` for other campaigns.
pub fn paper_title(name: &str) -> Option<&'static str> {
    const TITLES: [&str; 4] = [
        "Table 1: solution quality vs swarm size (n\u{d7}k particles, r=k)",
        "Table 2: solution quality vs network size at fixed total budget",
        "Table 3: solution quality vs coordination period r",
        "Table 4: ticks to reach quality 1e-10 (capped budget)",
    ];
    paper_set(name).map(|set| TITLES[usize::from(set) - 1])
}

/// One aggregation group: all cells sharing the same execution
/// configuration (repetitions differ only in seed).
pub(crate) struct Group<'a> {
    pub(crate) label: String,
    pub(crate) cells: Vec<&'a CellReport>,
}

impl Group<'_> {
    /// The configuration every member shares (up to seed and label).
    pub(crate) fn cell(&self) -> &CellSpec {
        &self.cells[0].cell
    }

    /// Final-quality aggregate over the group's repetitions.
    pub(crate) fn quality(&self) -> Summary {
        let stats: OnlineStats = self.cells.iter().map(|c| c.report.best_quality).collect();
        stats.summary()
    }

    /// Ticks-to-threshold over the repetitions that hit the threshold
    /// (`count` is the number of hits).
    pub(crate) fn hit_ticks(&self) -> Summary {
        let stats: OnlineStats = self
            .cells
            .iter()
            .filter(|c| c.report.reached_threshold_at.is_some())
            .map(|c| c.report.ticks as f64)
            .collect();
        stats.summary()
    }
}

/// Group a report's cells by canonical exec JSON, preserving grid order.
/// The group label is the first member's sweep label with the `rep=N`
/// token dropped (repetitions collapse into one row).
pub(crate) fn group_cells(report: &CampaignReport) -> Vec<Group<'_>> {
    let mut groups: Vec<(String, Group<'_>)> = Vec::new();
    for cell in &report.cells {
        let key = exec_json(&cell.cell);
        match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, g)) => g.cells.push(cell),
            None => {
                let label: String = cell
                    .label
                    .split(' ')
                    .filter(|tok| !tok.starts_with("rep="))
                    .collect::<Vec<_>>()
                    .join(" ");
                let label = if label.is_empty() {
                    "(base cell)".to_string()
                } else {
                    label
                };
                groups.push((
                    key,
                    Group {
                        label,
                        cells: vec![cell],
                    },
                ));
            }
        }
    }
    groups.into_iter().map(|(_, g)| g).collect()
}

/// Does the campaign measure time-to-threshold (Table 4) rather than
/// final quality? True when any cell sets `stop_at_quality`.
pub(crate) fn time_mode(report: &CampaignReport) -> bool {
    report
        .cells
        .iter()
        .any(|c| c.cell.stop_at_quality.is_some())
}

/// Render one campaign as a paper-style text table.
pub fn render_table(report: &CampaignReport) -> String {
    let caption = paper_title(&report.name).unwrap_or("campaign results");
    let mut out = format!("== {} — {caption} ==\n", report.name);
    let groups = group_cells(report);
    let width = groups
        .iter()
        .map(|g| g.label.len())
        .max()
        .unwrap_or(0)
        .max(5);
    if time_mode(report) {
        out.push_str(&format!(
            "{:<width$} {:>9} {:<12} {:<12} {:<12}\n",
            "cell", "hits/reps", "avg-ticks", "min", "max"
        ));
        for g in &groups {
            let s = g.hit_ticks();
            let ratio = format!("{}/{}", s.count, g.cells.len());
            if s.count == 0 {
                out.push_str(&format!(
                    "{:<width$} {ratio:>9} {:<12} {:<12} {:<12}\n",
                    g.label, "-", "-", "-"
                ));
            } else {
                out.push_str(&format!(
                    "{:<width$} {ratio:>9} {:<12.5e} {:<12.5e} {:<12.5e}\n",
                    g.label, s.avg, s.min, s.max
                ));
            }
        }
    } else {
        out.push_str(&format!(
            "{:<width$} {:>4} {:<12} {:<12} {:<12} {:<12}\n",
            "cell", "reps", "avg", "min", "max", "Var"
        ));
        for g in &groups {
            out.push_str(&format!(
                "{:<width$} {:>4} {}\n",
                g.label,
                g.cells.len(),
                g.quality().paper_row()
            ));
        }
    }
    out
}

/// Render several campaigns (one section each, input order) — the
/// artifact `campaign report` publishes.
pub fn render_paper_tables(reports: &[CampaignReport]) -> String {
    let mut out = String::new();
    for (i, r) in reports.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        out.push_str(&render_table(r));
    }
    out
}

/// The raw convergence curves of every cell as one CSV (one row per
/// metric sample, grid order): feed it straight to a plotting script to
/// reproduce the paper's figures.
pub fn curves_csv(report: &CampaignReport) -> String {
    let mut out = String::from("cell,seed,tick,best_quality,alive,delivered,wire_bytes\n");
    for c in &report.cells {
        let label = if c.label.is_empty() {
            format!("cell-{}", c.index)
        } else {
            c.label.clone()
        };
        for s in &c.report.samples {
            out.push_str(&format!(
                "{},{},{},{:e},{},{},{}\n",
                csv_escape(&label),
                c.cell.seed.unwrap_or(0),
                s.tick,
                s.best_quality,
                s.alive,
                s.delivered,
                s.wire_bytes
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parse_campaign, run_campaign};

    fn demo_report() -> CampaignReport {
        let spec = parse_campaign(
            r#"
[campaign]
name = "demo"
seed = 3
reps = 2

[cell]
nodes = 8
particles = 4
budget = 20

[cell.metrics]
sample_every = 5
capacity = 16

[sweep]
topology = ["ring", "star"]
"#,
        )
        .unwrap();
        run_campaign(&spec, 2).unwrap()
    }

    #[test]
    fn groups_collapse_reps_and_keep_grid_order() {
        let report = demo_report();
        assert_eq!(report.cells.len(), 4);
        let groups = group_cells(&report);
        assert_eq!(groups.len(), 2, "2 topologies, reps collapsed");
        assert_eq!(groups[0].label, "topology=ring");
        assert_eq!(groups[1].label, "topology=star");
        assert_eq!(groups[0].cells.len(), 2);
    }

    #[test]
    fn quality_table_renders_deterministically() {
        let a = render_table(&demo_report());
        let b = render_table(&demo_report());
        assert_eq!(a, b);
        assert!(a.contains("avg"), "{a}");
        assert!(a.contains("topology=ring"), "{a}");
        assert!(!a.contains("rep="), "reps are aggregated: {a}");
    }

    #[test]
    fn time_mode_renders_hits_and_misses() {
        let spec = parse_campaign(
            r#"
[campaign]
name = "t"
reps = 2

[cell]
nodes = 4
particles = 4
budget = 4096
function = "sphere"
dim = 2
stop_at_quality = 1e-10
"#,
        )
        .unwrap();
        let report = run_campaign(&spec, 1).unwrap();
        let text = render_table(&report);
        assert!(text.contains("hits/reps"), "{text}");
        // Sphere in 2-D with a 4096-evals-per-node budget hits 1e-10.
        assert!(text.contains("2/2"), "{text}");
    }

    #[test]
    fn curves_csv_has_a_row_per_sample() {
        let report = demo_report();
        let csv = curves_csv(&report);
        let expected: usize = report
            .cells
            .iter()
            .map(|c| c.report.samples.len())
            .sum::<usize>()
            + 1;
        assert_eq!(csv.lines().count(), expected);
        assert!(csv.starts_with("cell,seed,tick"), "{csv}");
    }
}
