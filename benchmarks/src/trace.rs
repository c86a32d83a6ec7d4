//! In-memory span recorder for the traced run.
//!
//! Spans are opened by the harness around calls into the library's
//! public functions — nothing in the crates under test knows about
//! them. They are kept in memory and written out once, when the run
//! ends. A span's *self time* is its duration minus its children's.
//!
//! Three kinds of span exist because "not covered by a layer" is itself
//! a number the benchmark reports:
//!
//! * [`Kind::Layer`] — the interval belongs to one module; its self time
//!   is attributed to that module.
//! * [`Kind::Container`] — an interval that crosses several modules (a
//!   whole repetition, one `run_cell`, one kernel leg). Whatever its
//!   children do not cover is *unattributed*.
//! * [`Kind::Aggregate`] — a total the library's own `obs::wall`
//!   recorder reported for the enclosing container (many short
//!   intervals summed), placed at the container's start; it attributes
//!   time like a layer span but is not one contiguous interval.

use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Layer,
    Container,
    Aggregate,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Layer => "layer",
            Kind::Container => "container",
            Kind::Aggregate => "aggregate",
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub kind: Kind,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Repetition the span belongs to (the shared identifier of one
    /// request's spans).
    pub rep: u32,
    /// Intervals summed into an aggregate, or operations a batch span
    /// covers; 1 for a plain span.
    pub count: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The recorder. Disabled, `span` only calls its closure, so untraced
/// repetitions run the same code path with no clock reads.
pub struct Trace {
    enabled: bool,
    origin: Instant,
    rep: u32,
    stack: Vec<u32>,
    last_closed: Option<u32>,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new(enabled: bool) -> Trace {
        Trace {
            enabled,
            origin: Instant::now(),
            rep: 0,
            stack: Vec::new(),
            last_closed: None,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn span<T>(
        &mut self,
        kind: Kind,
        name: &'static str,
        f: impl FnOnce(&mut Trace) -> T,
    ) -> T {
        self.span_n(kind, name, 1, f)
    }

    /// [`Trace::span`] around a batch of `count` like operations, so a
    /// per-operation time can be derived without a clock read each.
    pub fn span_n<T>(
        &mut self,
        kind: Kind,
        name: &'static str,
        count: u64,
        f: impl FnOnce(&mut Trace) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            name,
            kind,
            start_ns,
            end_ns: start_ns,
            rep: self.rep,
            count,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id as usize].end_ns = self.now_ns();
        self.last_closed = Some(id);
        out
    }

    /// Attach a recorder total of `total_ns` over `count` intervals to
    /// `parent` (a span that has just closed) and return its id, so
    /// nested totals (solver step inside kernel callback) can be chained.
    pub fn aggregate(&mut self, parent: u32, name: &'static str, total_ns: u64, count: u64) -> u32 {
        let id = self.spans.len() as u32;
        let start_ns = self.spans[parent as usize].start_ns;
        self.spans.push(Span {
            id,
            parent: Some(parent),
            name,
            kind: Kind::Aggregate,
            start_ns,
            end_ns: start_ns + total_ns,
            rep: self.rep,
            count,
        });
        id
    }

    /// Id of the span that closed most recently — the one an aggregate
    /// hangs under right after its container returned. `None` while
    /// disabled.
    pub fn last_closed(&self) -> Option<u32> {
        self.last_closed
    }

    /// The spans as a JSON document (one object per span).
    pub fn to_json(&self, workload: &str) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "  {{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"kind\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}, \"workload\": \"{workload}\", \"rep\": {}, \
                 \"count\": {}}}{}\n",
                s.id,
                s.name,
                s.kind.name(),
                s.start_ns,
                s.end_ns,
                s.rep,
                s.count,
                if i + 1 == self.spans.len() { "" } else { "," }
            ));
        }
        out.push_str("]\n");
        out
    }
}

/// Self time of every span, indexed like `spans`: duration minus the
/// children's durations, floored at zero (thread-summed aggregates can
/// exceed the wall interval that contains them).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.dur_ns();
        }
    }
    spans
        .iter()
        .zip(child_ns)
        .map(|(s, c)| s.dur_ns().saturating_sub(c))
        .collect()
}

/// Sum of `value(index, span)` over the spans named `name`, one entry
/// per repetition in `reps` (zero where the name does not occur).
pub fn sum_by_rep(
    spans: &[Span],
    name: &str,
    reps: &[u32],
    value: impl Fn(usize, &Span) -> f64,
) -> Vec<f64> {
    reps.iter()
        .map(|&rep| {
            spans
                .iter()
                .enumerate()
                .filter(|(_, s)| s.rep == rep && s.name == name)
                .map(|(i, s)| value(i, s))
                .sum()
        })
        .collect()
}

/// Share of repetition `rep`'s root span that no layer or aggregate
/// span's self time covers, as a fraction of the root's duration.
pub fn unattributed_share(spans: &[Span], rep: u32) -> f64 {
    let selfs = self_times_ns(spans);
    let root: u64 = spans
        .iter()
        .filter(|s| s.rep == rep && s.parent.is_none())
        .map(Span::dur_ns)
        .sum();
    if root == 0 {
        return 0.0;
    }
    let attributed: u64 = spans
        .iter()
        .zip(&selfs)
        .filter(|(s, _)| s.rep == rep && s.kind != Kind::Container)
        .map(|(_, &t)| t)
        .sum();
    root.saturating_sub(attributed) as f64 / root as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, kind: Kind, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "s",
            kind,
            start_ns,
            end_ns,
            rep: 0,
            count: 1,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // root [0,100) ─ a [10,40) ─ a1 [15,25)
        //              └ b [50,90) ─ b1 [50,60), b2 [70,90)
        let spans = vec![
            span(0, None, Kind::Container, 0, 100),
            span(1, Some(0), Kind::Layer, 10, 40),
            span(2, Some(1), Kind::Layer, 15, 25),
            span(3, Some(0), Kind::Layer, 50, 90),
            span(4, Some(3), Kind::Layer, 50, 60),
            span(5, Some(3), Kind::Layer, 70, 90),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 10, 10, 10, 20]);
        // Everything but the root's own 30 ns is attributed.
        assert!((unattributed_share(&spans, 0) - 0.30).abs() < 1e-12);
    }

    #[test]
    fn oversized_aggregate_floors_the_parent_at_zero() {
        let spans = vec![
            span(0, None, Kind::Container, 0, 100),
            span(1, Some(0), Kind::Aggregate, 0, 250),
        ];
        assert_eq!(self_times_ns(&spans), vec![0, 250]);
        assert_eq!(unattributed_share(&spans, 0), 0.0);
    }

    #[test]
    fn recorder_nests_spans_and_chains_aggregates() {
        let mut tr = Trace::new(true);
        tr.set_rep(3);
        tr.span(Kind::Container, "rep", |tr| {
            tr.span(Kind::Layer, "parse", |_| ());
            tr.span(Kind::Container, "cell", |tr| {
                tr.span(Kind::Layer, "inner", |_| ())
            });
            let cell = tr.last_closed().unwrap();
            let cb = tr.aggregate(cell, "callback", 40, 4);
            tr.aggregate(cb, "step", 30, 8);
        });
        let names: Vec<_> = tr.spans().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            vec![
                ("rep", None),
                ("parse", Some(0)),
                ("cell", Some(0)),
                ("inner", Some(2)),
                ("callback", Some(2)),
                ("step", Some(4)),
            ]
        );
        assert!(tr
            .spans()
            .iter()
            .all(|s| s.rep == 3 && s.end_ns >= s.start_ns));
        let by_rep =
            |value: fn(usize, &Span) -> f64| sum_by_rep(tr.spans(), "step", &[3, 4], value);
        assert_eq!(by_rep(|_, s| s.dur_ns() as f64), vec![30.0, 0.0]);
        assert_eq!(by_rep(|_, s| s.count as f64), vec![8.0, 0.0]);
        assert!(tr
            .to_json("w")
            .contains("\"name\": \"callback\", \"kind\": \"aggregate\""));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut tr = Trace::new(false);
        assert_eq!(tr.span(Kind::Layer, "x", |_| 7), 7);
        assert!(tr.spans().is_empty() && tr.last_closed().is_none());
    }
}
