//! Every metric the benchmark reports: name, unit, direction and, for
//! the end-to-end ones, the regression bound. `BENCHMARK.json` lists the
//! same table (a test keeps the two in step).

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: Option<f64>,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

use Better::{Higher, Lower};

/// Reported with `--trace 0`: what a user of `tracelens report` sees.
pub const END_TO_END: [Metric; 4] = [
    e2e("report_cost", "ref", Lower, 0.15),
    e2e("events_per_ref", "events/ref", Higher, 0.15),
    e2e("peak_rss_mb", "MB", Lower, 0.05),
    e2e("setup_s", "s", Lower, 0.25),
];

/// Reported with `--trace 1`: the one-pass layer breakdown.
pub const PER_LAYER: [Metric; 29] = [
    m("store.read_s", "s", Lower),
    m("textio.parse_s", "s", Lower),
    m("textio.mb_per_s", "MB/s", Higher),
    m("binio.fingerprint_s", "s", Lower),
    m("binio.read_s", "s", Lower),
    m("binio.pack_s", "s", Lower),
    m("validate.check_s", "s", Lower),
    m("sanitize.run_s", "s", Lower),
    m("sanitize.repairs", "count", Higher),
    m("sanitize.quarantined_instances", "count", Lower),
    m("sanitize.instance_coverage", "ratio", Higher),
    m("index.build_s", "s", Lower),
    m("index.streams", "count", Lower),
    m("waitgraph.build_s", "s", Lower),
    m("waitgraph.graphs", "count", Lower),
    m("waitgraph.nodes", "count", Lower),
    m("impact.account_s", "s", Lower),
    m("impact.nodes_visited", "count", Lower),
    m("classes.split_s", "s", Lower),
    m("aggregate.add_s", "s", Lower),
    m("aggregate.awg_nodes", "count", Lower),
    m("segments.enumerate_s", "s", Lower),
    m("segments.metas", "count", Lower),
    m("contrast.mine_s", "s", Lower),
    m("contrast.patterns", "count", Higher),
    m("contrast.yield", "ratio", Higher),
    m("study.unattributed_s", "s", Lower),
    m("study.unattributed_share", "ratio", Lower),
    m("trace.overhead_ratio", "ratio", Lower),
];

/// The metric named `name`, from either table.
pub fn by_name(name: &str) -> Option<Metric> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
        .copied()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};

    fn spec() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn check(listed: &Json, table: &[Metric]) {
        let listed = listed.as_arr().expect("metric list");
        assert_eq!(listed.len(), table.len());
        for (entry, metric) in listed.iter().zip(table) {
            let field = |k: &str| entry.get(k).and_then(Json::as_str);
            assert_eq!(field("name"), Some(metric.name));
            assert_eq!(field("unit"), Some(metric.unit), "{}", metric.name);
            assert_eq!(
                field("better"),
                Some(metric.better.as_str()),
                "{}",
                metric.name
            );
            assert_eq!(
                entry.get("bound").and_then(Json::as_f64),
                metric.bound,
                "{}",
                metric.name
            );
        }
    }

    #[test]
    fn benchmark_json_lists_these_metrics_and_workloads() {
        let spec = spec();
        check(spec.get("end_to_end").unwrap(), &END_TO_END);
        check(spec.get("per_layer").unwrap(), &PER_LAYER);
        let names: Vec<&str> = spec
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        let ours: Vec<&str> = crate::workload::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names, ours);
    }

    #[test]
    fn setup_has_the_largest_bound() {
        let setup = by_name("setup_s").and_then(|m| m.bound).unwrap();
        assert!(END_TO_END.iter().all(|m| m.bound.unwrap() <= setup));
    }
}
