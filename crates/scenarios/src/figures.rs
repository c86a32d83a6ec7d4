//! Terminal rendering of the paper's figures, plus the per-function
//! "best configuration" rows its Tables 1–3 summarize each set with.
//!
//! The paper presents its four experiment sets as scatter plots (solution
//! quality or time against a swept parameter, one curve per
//! configuration). This module renders the same series from campaign
//! reports as ASCII scatter plots, without a plotting dependency. Each
//! paper-table campaign maps onto one figure, one panel per objective:
//!
//! | figure | campaign | x | y | one series per |
//! |---|---|---|---|---|
//! | 1 | `paper-table1` | `particles` | log10 avg quality | network size |
//! | 2 | `paper-table2` | log2(`nodes`) | log10 avg quality | swarm size |
//! | 3 | `paper-table3` | `gossip_every` | log10 avg quality | network size |
//! | 4 | `paper-table4` | log2(`nodes`) | log10 avg ticks-to-threshold | swarm size |
//!
//! Points are the report layer's groups (repetitions of one execution
//! configuration) and captions are its [`paper_title`]s, so the figures
//! aggregate exactly what `campaign report`'s tables do. Like the tables,
//! the output is a pure function of the reports: byte-identical across
//! runs, stores and `--threads` values.

use crate::report::{group_cells, paper_set, paper_title, time_mode, Group};
use crate::spec::CellSpec;
use crate::CampaignReport;
use gossipopt_util::stats::log10_clamped;
use std::fmt::Write as _;

/// Marker characters assigned to series in order.
const MARKERS: &[char] = &['*', 'o', '+', 'x', '#', '@', '%', '&'];

/// Canvas size in character cells (excluding the y-label gutter), sized
/// for an 80-column terminal.
const WIDTH: usize = 60;
const HEIGHT: usize = 18;

/// One plotted curve.
struct Series {
    /// Legend label.
    label: String,
    /// `(x, y)` points; non-finite points are skipped.
    points: Vec<(f64, f64)>,
}

/// An ASCII plot: a title and two axis captions.
struct Plot<'a> {
    title: &'a str,
    x_label: &'a str,
    y_label: &'a str,
}

impl Plot<'_> {
    /// Render `series` onto the canvas.
    fn render(&self, series: &[Series]) -> String {
        let finite: Vec<(usize, f64, f64)> = series
            .iter()
            .enumerate()
            .flat_map(|(si, s)| {
                s.points
                    .iter()
                    .filter(|(x, y)| x.is_finite() && y.is_finite())
                    .map(move |&(x, y)| (si, x, y))
            })
            .collect();
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.title);
        if finite.is_empty() {
            let _ = writeln!(out, "  (no finite data)");
            return out;
        }
        let (mut xmin, mut xmax) = (f64::INFINITY, f64::NEG_INFINITY);
        let (mut ymin, mut ymax) = (f64::INFINITY, f64::NEG_INFINITY);
        for &(_, x, y) in &finite {
            xmin = xmin.min(x);
            xmax = xmax.max(x);
            ymin = ymin.min(y);
            ymax = ymax.max(y);
        }
        // Degenerate ranges get unit padding so single points still plot.
        if xmax - xmin < 1e-12 {
            xmin -= 1.0;
            xmax += 1.0;
        }
        if ymax - ymin < 1e-12 {
            ymin -= 1.0;
            ymax += 1.0;
        }

        let (w, h) = (WIDTH, HEIGHT);
        let mut grid = vec![vec![' '; w]; h];
        for &(si, x, y) in &finite {
            let cx = ((x - xmin) / (xmax - xmin) * (w - 1) as f64).round() as usize;
            // Row 0 is the top: invert y.
            let cy = (h - 1) - ((y - ymin) / (ymax - ymin) * (h - 1) as f64).round() as usize;
            grid[cy.min(h - 1)][cx.min(w - 1)] = MARKERS[si % MARKERS.len()];
        }

        // Y-axis gutter: top / middle / bottom tick labels.
        let gutter = 10;
        for (row, cells) in grid.iter().enumerate() {
            let tick = if row == 0 {
                format!("{ymax:>9.2}")
            } else if row == h / 2 {
                format!("{:>9.2}", ymin + (ymax - ymin) * 0.5)
            } else if row == h - 1 {
                format!("{ymin:>9.2}")
            } else {
                " ".repeat(9)
            };
            let line: String = cells.iter().collect();
            let _ = writeln!(out, "{tick} |{}", line.trim_end());
        }
        let _ = writeln!(out, "{}+{}", " ".repeat(gutter - 1), "-".repeat(w));
        // X tick labels at the extremes and the midpoint.
        let mid = format!("{:.2}", xmin + (xmax - xmin) * 0.5);
        let right = format!("{xmax:.2}");
        let left = format!("{xmin:<8.2}");
        let total = w.saturating_sub(left.len() + right.len());
        let lpad = total.saturating_sub(mid.len()) / 2;
        let rpad = total.saturating_sub(mid.len()) - lpad;
        let _ = writeln!(
            out,
            "{}{left}{}{mid}{}{right}",
            " ".repeat(gutter),
            " ".repeat(lpad),
            " ".repeat(rpad)
        );
        let _ = writeln!(
            out,
            "{}[y: {}]  [x: {}]",
            " ".repeat(gutter),
            self.y_label,
            self.x_label
        );
        // Legend.
        let mut legend = String::new();
        for (si, s) in series.iter().enumerate() {
            if !s.points.is_empty() {
                let _ = write!(legend, "{} {}   ", MARKERS[si % MARKERS.len()], s.label);
            }
        }
        if !legend.is_empty() {
            let _ = writeln!(out, "{}{}", " ".repeat(gutter), legend.trim_end());
        }
        out
    }
}

/// A cell's coordinate on one figure axis.
type Axis<T> = fn(&CellSpec) -> T;

/// How one paper campaign maps onto its figure.
struct Figure {
    /// The figure's number: the campaign's [`paper_set`].
    number: u8,
    x_label: &'static str,
    x: Axis<f64>,
    series: Axis<String>,
}

/// Figures 1–4 in order.
static FIGURES: [Figure; 4] = [
    Figure {
        number: 1,
        x_label: "particles per node (k)",
        x: |c| c.particles as f64,
        series: |c| format!("size = {}", c.nodes),
    },
    Figure {
        number: 2,
        x_label: "log2(network size)",
        x: |c| (c.nodes as f64).log2(),
        series: |c| format!("particles = {}", c.particles),
    },
    Figure {
        number: 3,
        x_label: "cycle length (r)",
        x: |c| c.gossip_every as f64,
        series: |c| format!("size = {}", c.nodes),
    },
    Figure {
        number: 4,
        x_label: "log2(network size)",
        x: |c| (c.nodes as f64).log2(),
        series: |c| format!("particles = {}", c.particles),
    },
];

/// The figure a paper-table campaign is drawn as (`None` for other
/// campaigns).
fn figure_for(name: &str) -> Option<&'static Figure> {
    paper_set(name).map(|set| &FIGURES[usize::from(set) - 1])
}

/// The objective functions of `groups`, in first-seen order.
fn functions_of<'a>(groups: &'a [Group<'_>]) -> Vec<&'a str> {
    let mut ordered: Vec<&str> = Vec::new();
    for g in groups {
        let f = g.cell().function.as_str();
        if !ordered.contains(&f) {
            ordered.push(f);
        }
    }
    ordered
}

/// One figure, one panel per objective function. In time mode a group
/// that never hit the threshold is omitted, and a function with no hit
/// at all prints the paper's "–" instead of a panel.
fn render_figure(report: &CampaignReport, fig: &Figure) -> String {
    let caption = paper_title(&report.name).unwrap_or("campaign results");
    let time = time_mode(report);
    let y_label = if time {
        "log10(ticks)"
    } else {
        "log10(quality)"
    };
    let groups = group_cells(report);
    let mut out = String::new();
    for function in functions_of(&groups) {
        let mut series: Vec<Series> = Vec::new();
        for g in groups.iter().filter(|g| g.cell().function == function) {
            let avg = if time {
                let ticks = g.hit_ticks();
                if ticks.count == 0 {
                    continue;
                }
                ticks.avg
            } else {
                g.quality().avg
            };
            let label = (fig.series)(g.cell());
            let point = ((fig.x)(g.cell()), log10_clamped(avg));
            match series.iter_mut().find(|s| s.label == label) {
                Some(s) => s.points.push(point),
                None => series.push(Series {
                    label,
                    points: vec![point],
                }),
            }
        }
        let title = format!("Figure {} [{function}] — {caption}", fig.number);
        if series.is_empty() {
            let _ = writeln!(
                out,
                "{title}\n  no configuration reached the threshold (the paper's \"–\")\n"
            );
            continue;
        }
        let plot = Plot {
            title: &title,
            x_label: fig.x_label,
            y_label,
        };
        let _ = writeln!(out, "{}", plot.render(&series));
    }
    out
}

/// Per function (first-seen order), the index of the row with the lowest
/// average; a NaN average loses to any number.
fn best_per_function(rows: &[(&str, f64)]) -> Vec<usize> {
    let mut best: Vec<usize> = Vec::new();
    for (i, &(function, avg)) in rows.iter().enumerate() {
        match best.iter_mut().find(|b| rows[**b].0 == function) {
            None => best.push(i),
            Some(b) => {
                let incumbent = rows[*b].1;
                if !avg.is_nan() && (incumbent.is_nan() || avg < incumbent) {
                    *b = i;
                }
            }
        }
    }
    best
}

/// The per-function best group of a quality campaign, as a table.
fn render_best_rows(report: &CampaignReport) -> String {
    let caption = paper_title(&report.name).unwrap_or("campaign results");
    let groups = group_cells(report);
    let rows: Vec<(&str, f64)> = groups
        .iter()
        .map(|g| (g.cell().function.as_str(), g.quality().avg))
        .collect();
    let best = best_per_function(&rows);
    let fwidth = best
        .iter()
        .map(|&i| rows[i].0.len())
        .max()
        .unwrap_or(0)
        .max(8);
    let width = best
        .iter()
        .map(|&i| groups[i].label.len())
        .max()
        .unwrap_or(0)
        .max(4);
    let mut out = format!("== Best configuration per function — {caption} ==\n");
    let _ = writeln!(
        out,
        "{:<fwidth$} {:<width$} {:>4} {:<12} {:<12} {:<12} {:<12}",
        "function", "cell", "reps", "avg", "min", "max", "Var"
    );
    for &i in &best {
        let g = &groups[i];
        let _ = writeln!(
            out,
            "{:<fwidth$} {:<width$} {:>4} {}",
            rows[i].0,
            g.label,
            g.cells.len(),
            g.quality().paper_row()
        );
    }
    out
}

/// Render the paper's figures for every campaign that has one (input
/// order), then the per-function best rows of every quality campaign
/// among them (Tables 1–3) — the artifact `campaign figures` publishes.
pub fn render_paper_figures(reports: &[CampaignReport]) -> String {
    let mut out = String::new();
    for report in reports {
        match figure_for(&report.name) {
            Some(fig) => out.push_str(&render_figure(report, fig)),
            None => {
                let _ = writeln!(
                    out,
                    "== {}: not a paper-table campaign, no figure ==\n",
                    report.name
                );
            }
        }
    }
    for report in reports {
        if figure_for(&report.name).is_some() && !time_mode(report) {
            out.push_str(&render_best_rows(report));
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parse_campaign, run_campaign};

    fn run(text: &str) -> CampaignReport {
        run_campaign(&parse_campaign(text).unwrap(), 2).unwrap()
    }

    #[test]
    fn render_places_markers_and_legend() {
        let plot = Plot {
            title: "demo",
            x_label: "x",
            y_label: "y",
        };
        let s = vec![
            Series {
                label: "a".into(),
                points: vec![(0.0, 0.0), (1.0, 1.0)],
            },
            Series {
                label: "b".into(),
                points: vec![(0.5, 0.8)],
            },
        ];
        let text = plot.render(&s);
        assert!(text.contains('*'), "first series marker");
        assert!(text.contains('o'), "second series marker");
        assert!(text.contains("* a"), "legend entry");
        assert!(text.contains("[x: x]"));
        assert!(text.contains("demo"));
    }

    #[test]
    fn render_handles_empty_and_degenerate_input() {
        let plot = Plot {
            title: "empty",
            x_label: "x",
            y_label: "y",
        };
        assert!(plot.render(&[]).contains("no finite data"));
        let nan_only = vec![Series {
            label: "nan".into(),
            points: vec![(f64::NAN, 1.0)],
        }];
        assert!(plot.render(&nan_only).contains("no finite data"));
        // A single point must still render without dividing by zero.
        let single = vec![Series {
            label: "dot".into(),
            points: vec![(2.0, 3.0)],
        }];
        let text = plot.render(&single);
        assert!(text.contains('*'));
    }

    #[test]
    fn figure1_groups_series_by_network_size() {
        let report = run(r#"
[campaign]
name = "paper-table1"
reps = 2

[cell]
budget = 20

[sweep]
function = ["sphere", "griewank"]
nodes = [1, 4]

[sweep.zip]
particles = [2, 4]
gossip_every = [2, 4]
"#);
        let text = render_paper_figures(&[report]);
        assert!(text.contains("Figure 1 [sphere] — Table 1:"), "{text}");
        assert!(text.contains("Figure 1 [griewank]"), "{text}");
        assert!(
            text.contains("size = 1") && text.contains("size = 4"),
            "{text}"
        );
        assert!(text.contains("[x: particles per node (k)]"), "{text}");
        // The best-row table follows the figures: one row per function.
        assert!(text.contains("== Best configuration per function — Table 1:"));
        let rows = text.split("== Best configuration").nth(1).unwrap();
        assert_eq!(rows.trim_end().lines().count(), 1 + 1 + 2, "{rows}");
    }

    #[test]
    fn figure4_omits_threshold_misses() {
        let report = run(r#"
[campaign]
name = "paper-table4"

[cell]
nodes = 4
particles = 4
stop_at_quality = 1e-10

# Sphere in 2-D hits the threshold; rastrigin in 8-D misses it.
[sweep.zip]
function = ["sphere", "rastrigin"]
dim = [2, 8]
budget = [4096, 64]
"#);
        let text = render_paper_figures(&[report]);
        assert!(text.contains("Figure 4 [sphere]"), "{text}");
        assert!(text.contains("[y: log10(ticks)]"), "{text}");
        let rastrigin = text.split("Figure 4 [rastrigin]").nth(1).unwrap();
        assert!(rastrigin.contains("the paper's \"–\""), "{text}");
        assert!(
            !text.contains("Best configuration"),
            "Table 4 has no best row"
        );
    }

    #[test]
    fn other_campaigns_get_no_figure() {
        let report = run("[campaign]\nname = \"grid\"\n[cell]\nnodes = 4\nbudget = 10\n");
        let text = render_paper_figures(&[report]);
        assert_eq!(
            text,
            "== grid: not a paper-table campaign, no figure ==\n\n"
        );
    }

    #[test]
    fn best_rows_selects_minimum_avg() {
        let rows = [("a", 2.0), ("a", 1.0), ("b", 0.5), ("a", 3.0)];
        assert_eq!(best_per_function(&rows), [1, 2]);
        // NaN never wins over a number, in either position.
        let rows = [("a", f64::NAN), ("a", 4.0), ("a", f64::NAN)];
        assert_eq!(best_per_function(&rows), [1]);
    }
}
