//! The in-memory [`CollectingSink`] and its frozen [`RunReport`].

use crate::json::JsonWriter;
use crate::registry::{MetricsSnapshot, Registry};
use crate::telemetry::{SpanId, Telemetry, TelemetrySink};
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

/// A sink that stores every span and metric in memory.
///
/// Attach it with [`CollectingSink::telemetry`]; once the run finishes,
/// [`report`](CollectingSink::report) freezes everything into a
/// [`RunReport`] for rendering.
#[derive(Debug, Default)]
pub struct CollectingSink {
    registry: Registry,
    spans: Mutex<Vec<SpanNode>>,
}

#[derive(Debug, Clone)]
struct SpanNode {
    name: &'static str,
    parent: Option<SpanId>,
    elapsed_ns: Option<u64>,
}

impl CollectingSink {
    /// Creates an empty sink.
    pub fn new() -> CollectingSink {
        CollectingSink::default()
    }

    /// Creates a sink plus a [`Telemetry`] handle wired to it.
    pub fn telemetry() -> (Telemetry, Arc<CollectingSink>) {
        let sink = Arc::new(CollectingSink::new());
        let handle = Telemetry::with_sink(Arc::clone(&sink) as Arc<dyn TelemetrySink>);
        (handle, sink)
    }

    /// Direct access to the metric store.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Freezes the collected data. Spans still open at this point are
    /// reported with a `null` duration.
    pub fn report(&self) -> RunReport {
        let nodes = self.spans.lock().expect("span store lock").clone();
        // Children were appended after their parents, so one forward
        // pass hangs every subtree off the right root.
        let mut reports: Vec<Option<SpanReport>> = nodes
            .iter()
            .map(|n| {
                Some(SpanReport {
                    name: n.name.to_owned(),
                    elapsed_ns: n.elapsed_ns,
                    children: Vec::new(),
                })
            })
            .collect();
        let mut roots = Vec::new();
        for (i, node) in nodes.iter().enumerate().rev() {
            let report = reports[i].take().expect("each node taken once");
            match node.parent {
                Some(SpanId(p)) => {
                    let parent = reports[p as usize]
                        .as_mut()
                        .expect("parents outlive children in the store");
                    parent.children.insert(0, report);
                }
                None => roots.insert(0, report),
            }
        }
        RunReport {
            spans: roots,
            metrics: self.registry.snapshot(),
        }
    }
}

impl TelemetrySink for CollectingSink {
    fn span_enter(&self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let mut spans = self.spans.lock().expect("span store lock");
        let id = SpanId(spans.len() as u64);
        spans.push(SpanNode {
            name,
            parent,
            elapsed_ns: None,
        });
        id
    }

    fn span_exit(&self, id: SpanId, elapsed_ns: u64) {
        let mut spans = self.spans.lock().expect("span store lock");
        if let Some(node) = spans.get_mut(id.0 as usize) {
            node.elapsed_ns = Some(elapsed_ns);
        }
    }

    fn counter_add(&self, name: &'static str, delta: u64) {
        self.registry.counter_add(name, delta);
    }

    fn histogram_record(&self, name: &'static str, value: u64) {
        self.registry.histogram_record(name, value);
    }
}

/// One reported span with its children.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanReport {
    /// The span's name.
    pub name: String,
    /// Measured wall time; `None` if the span never closed.
    pub elapsed_ns: Option<u64>,
    /// Nested spans, in open order.
    pub children: Vec<SpanReport>,
}

impl SpanReport {
    /// Wall time spent in this span *exclusive* of its closed children
    /// (saturating: a child that outlived its parent clamps to zero).
    ///
    /// Spans measure inclusive wall time, so summing a parent and its
    /// children double-counts; attribution tables must use this.
    pub fn exclusive_ns(&self) -> u64 {
        let own = self.elapsed_ns.unwrap_or(0);
        let children: u64 = self
            .children
            .iter()
            .map(|c| c.elapsed_ns.unwrap_or(0))
            .sum();
        own.saturating_sub(children)
    }
}

/// Everything one run recorded, ready to render.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunReport {
    /// Top-level spans, in open order.
    pub spans: Vec<SpanReport>,
    /// Final counter and histogram values.
    pub metrics: MetricsSnapshot,
}

/// Version tag written into every JSON report.
pub const REPORT_VERSION: u64 = 1;

impl RunReport {
    /// All span names in the report, depth-first, with duplicates.
    pub fn span_names(&self) -> Vec<&str> {
        fn walk<'a>(spans: &'a [SpanReport], out: &mut Vec<&'a str>) {
            for s in spans {
                out.push(&s.name);
                walk(&s.children, out);
            }
        }
        let mut out = Vec::new();
        walk(&self.spans, &mut out);
        out
    }

    /// Total closed wall time across every span named `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        fn walk(spans: &[SpanReport], name: &str, total: &mut u64) {
            for s in spans {
                if s.name == name {
                    *total += s.elapsed_ns.unwrap_or(0);
                }
                walk(&s.children, name, total);
            }
        }
        let mut total = 0;
        walk(&self.spans, name, &mut total);
        total
    }

    /// Renders the report as a JSON document (see the crate docs for
    /// the schema).
    pub fn to_json(&self) -> String {
        fn write_span(w: &mut JsonWriter, span: &SpanReport) {
            w.begin_obj(None);
            w.str(Some("name"), &span.name);
            match span.elapsed_ns {
                Some(ns) => w.u64(Some("elapsed_ns"), ns),
                None => w.null(Some("elapsed_ns")),
            }
            w.begin_arr(Some("children"));
            for child in &span.children {
                write_span(w, child);
            }
            w.end_arr();
            w.end_obj();
        }

        let mut w = JsonWriter::new();
        w.begin_obj(None);
        w.u64(Some("tracelens_telemetry"), REPORT_VERSION);
        w.begin_arr(Some("spans"));
        for span in &self.spans {
            write_span(&mut w, span);
        }
        w.end_arr();
        w.begin_obj(Some("counters"));
        for (name, value) in &self.metrics.counters {
            w.u64(Some(name), *value);
        }
        w.end_obj();
        w.begin_obj(Some("histograms"));
        for (name, h) in &self.metrics.histograms {
            w.begin_obj(Some(name));
            w.begin_arr(Some("bounds"));
            for b in &h.bounds {
                w.u64(None, *b);
            }
            w.end_arr();
            w.begin_arr(Some("counts"));
            for c in &h.counts {
                w.u64(None, *c);
            }
            w.end_arr();
            w.u64(Some("sum"), h.sum);
            w.u64(Some("p50"), h.percentile(0.50));
            w.u64(Some("p95"), h.percentile(0.95));
            w.u64(Some("p99"), h.percentile(0.99));
            w.end_obj();
        }
        w.end_obj();
        w.end_obj();
        let mut text = w.finish();
        text.push('\n');
        text
    }

    /// Renders the report as human-oriented markdown.
    pub fn to_markdown(&self) -> String {
        fn fmt_ns(ns: u64) -> String {
            if ns >= 1_000_000_000 {
                format!("{:.2} s", ns as f64 / 1e9)
            } else if ns >= 1_000_000 {
                format!("{:.2} ms", ns as f64 / 1e6)
            } else if ns >= 1_000 {
                format!("{:.2} µs", ns as f64 / 1e3)
            } else {
                format!("{ns} ns")
            }
        }

        fn write_span(out: &mut String, span: &SpanReport, depth: usize) {
            let indent = "&nbsp;&nbsp;".repeat(depth);
            let elapsed = span.elapsed_ns.map_or_else(|| "(open)".to_owned(), fmt_ns);
            let _ = writeln!(out, "| {indent}{} | {elapsed} |", span.name);
            for child in &span.children {
                write_span(out, child, depth + 1);
            }
        }

        let mut out = String::from("# Telemetry report\n");
        if !self.spans.is_empty() {
            out.push_str("\n## Stages\n\n| span | wall time |\n|---|---|\n");
            for span in &self.spans {
                write_span(&mut out, span, 0);
            }
        }
        if !self.metrics.counters.is_empty() {
            out.push_str("\n## Counters\n\n| counter | value |\n|---|---|\n");
            for (name, value) in &self.metrics.counters {
                let _ = writeln!(out, "| {name} | {value} |");
            }
        }
        if !self.metrics.histograms.is_empty() {
            out.push_str(
                "\n## Histograms\n\n| histogram | n | mean | p50 | p95 | p99 |\n\
                 |---|---|---|---|---|---|\n",
            );
            for (name, h) in &self.metrics.histograms {
                let n = h.n();
                let mean = match h.sum.checked_div(n) {
                    Some(mean) => fmt_ns(mean),
                    None => "-".to_owned(),
                };
                let quantile = |q| {
                    if n == 0 {
                        "-".to_owned()
                    } else {
                        fmt_ns(h.percentile(q))
                    }
                };
                let _ = writeln!(
                    out,
                    "| {name} | {n} | {mean} | {} | {} | {} |",
                    quantile(0.50),
                    quantile(0.95),
                    quantile(0.99)
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collects_span_tree_and_metrics() {
        let (t, sink) = CollectingSink::telemetry();
        {
            let _run = t.span("run");
            {
                let _sim = t.span("sim");
                t.count("sim.events", 42);
            }
            let _mine = t.span("contrast");
            t.record("latency", 5_000);
        }
        let report = sink.report();
        assert_eq!(report.span_names(), vec!["run", "sim", "contrast"]);
        assert_eq!(report.spans.len(), 1);
        assert_eq!(report.spans[0].children.len(), 2);
        assert!(report.spans[0].elapsed_ns.is_some());
        assert_eq!(report.metrics.counters["sim.events"], 42);
        assert_eq!(report.metrics.histograms["latency"].n(), 1);
    }

    #[test]
    fn parent_time_covers_children() {
        let (t, sink) = CollectingSink::telemetry();
        {
            let _outer = t.span("outer");
            let _inner = t.span("inner");
            std::hint::black_box((0..1000).sum::<u64>());
        }
        let report = sink.report();
        let outer = report.total_ns("outer");
        let inner = report.total_ns("inner");
        assert!(
            outer >= inner,
            "outer ({outer}ns) must cover inner ({inner}ns)"
        );
    }

    #[test]
    fn open_spans_render_as_null() {
        let (t, sink) = CollectingSink::telemetry();
        let _held = t.span("never-closed");
        let report = sink.report();
        assert_eq!(report.spans[0].elapsed_ns, None);
        let json = report.to_json();
        assert!(json.contains("\"elapsed_ns\": null"), "{json}");
    }

    #[test]
    fn json_report_is_valid_and_complete() {
        let (t, sink) = CollectingSink::telemetry();
        {
            let _a = t.span("alpha");
            t.count("alpha.items", 3);
        }
        let report = sink.report();
        let text = report.to_json();
        let v = crate::json::parse(&text).expect("report JSON parses");
        assert_eq!(
            v.get("tracelens_telemetry").unwrap().as_u64(),
            Some(REPORT_VERSION)
        );
        let spans = v.get("spans").unwrap().as_arr().unwrap();
        assert_eq!(spans[0].get("name").unwrap().as_str(), Some("alpha"));
        assert_eq!(
            v.get("counters")
                .unwrap()
                .get("alpha.items")
                .unwrap()
                .as_u64(),
            Some(3)
        );
    }

    #[test]
    fn markdown_report_lists_everything() {
        let (t, sink) = CollectingSink::telemetry();
        {
            let _a = t.span("analysis");
            t.count("paths", 7);
            t.record("cost", 2_500_000);
        }
        let md = sink.report().to_markdown();
        for needle in [
            "## Stages",
            "analysis",
            "## Counters",
            "paths | 7",
            "## Histograms",
            "cost",
        ] {
            assert!(md.contains(needle), "missing {needle:?} in:\n{md}");
        }
    }

    #[test]
    fn nested_span_time_is_exclusive_not_double_counted() {
        // Regression guard for telemetry double-accounting: the time a
        // parent span reports must *include* its child exactly once, so
        // exclusive_ns (parent minus children) stays non-negative and
        // the exclusive parts sum back to the root's inclusive time.
        let (t, sink) = CollectingSink::telemetry();
        {
            let _outer = t.span("outer");
            std::hint::black_box((0..20_000).sum::<u64>());
            {
                let _inner = t.span("inner");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            std::hint::black_box((0..20_000).sum::<u64>());
        }
        let report = sink.report();
        let outer = &report.spans[0];
        let inner = &outer.children[0];
        let outer_ns = outer.elapsed_ns.unwrap();
        let inner_ns = inner.elapsed_ns.unwrap();
        assert!(outer_ns >= inner_ns, "inclusive parent covers child");
        assert_eq!(outer.exclusive_ns(), outer_ns - inner_ns);
        assert_eq!(
            outer.exclusive_ns() + inner.exclusive_ns(),
            outer_ns,
            "exclusive times partition the root's inclusive time"
        );
    }

    #[test]
    fn reports_render_percentiles() {
        let (t, sink) = CollectingSink::telemetry();
        for v in [1_000_u64, 2_000, 500_000, 500_000_000] {
            t.record("lat", v);
        }
        let report = sink.report();
        let json = report.to_json();
        let v = crate::json::parse(&json).expect("valid JSON");
        let lat = v.get("histograms").unwrap().get("lat").unwrap();
        for key in ["p50", "p95", "p99"] {
            let q = lat.get(key).and_then(crate::json::Value::as_u64);
            assert!(q.is_some_and(|q| q > 0), "missing {key} in {json}");
        }
        let md = report.to_markdown();
        assert!(md.contains("| p50 | p95 | p99 |"), "{md}");
    }

    #[test]
    fn total_ns_sums_repeated_stage_names() {
        let (t, sink) = CollectingSink::telemetry();
        for _ in 0..3 {
            let _s = t.span("repeat");
        }
        let report = sink.report();
        assert_eq!(report.span_names().len(), 3);
        // All three closed: total is the sum of their (tiny) durations.
        assert!(report.spans.iter().all(|s| s.elapsed_ns.is_some()));
        let _ = report.total_ns("repeat");
    }
}
