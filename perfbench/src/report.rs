//! Metric names, failure accounting, and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, printed by an untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 2] = [("setup_s", "s"), ("accesses_per_s", "1/s")];

/// Per-layer metrics, printed by a traced run: `(name, unit)`. A layer a
/// workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("traces.generate_s", "s"),
    ("prefetch.self_s", "s"),
    ("core.on_access_p50_ns", "ns"),
    ("core.on_access_p99_ns", "ns"),
    ("core.on_access_run_ns_per_access", "ns"),
    ("core.snn_cache_hit_ratio", "ratio"),
    ("core.train_table_hit_ratio", "ratio"),
    ("core.prediction_accuracy", "ratio"),
    ("snn.presentations", "count"),
    ("snn.present_ns_per_call", "ns"),
    ("snn.stdp.weight_updates", "count"),
    ("snn.frozen.presentations", "count"),
    ("snn.frozen.batch.queries", "count"),
    ("snn.frozen.batch.lanes_p50", "count"),
    ("sim.run_s", "s"),
    ("sim.prefetch_useful_ratio", "ratio"),
    ("sim.llc_hit_rate", "ratio"),
    ("serve.rtt_p50_us", "us"),
    ("serve.rtt_p99_us", "us"),
    ("serve.drain_p50_ms", "ms"),
    ("serve.peak_rss_mb", "MB"),
    ("serve.protocol.encode_ns", "ns"),
    ("serve.protocol.decode_ns", "ns"),
    ("serve.socket.self_p50_us", "us"),
    ("serve.engine.latency_p50_us", "us"),
    ("serve.engine.latency_p99_us", "us"),
    ("serve.engine.frame_p50_us", "us"),
    ("serve.shard.burst_p50", "count"),
    ("serve.batch.inference_grouped", "count"),
    ("serve.stream.access_run_ns_per_access", "ns"),
    ("serve.stream.drain_ms", "ms"),
    ("budget.e2e_ns", "ns/access"),
    ("budget.socket_ns", "ns/access"),
    ("budget.engine_ns", "ns/access"),
    ("budget.stream_ns", "ns/access"),
    ("budget.prefetch_ns", "ns/access"),
    ("budget.core_ns", "ns/access"),
    ("budget.snn_ns", "ns/access"),
    ("budget.sim_ns", "ns/access"),
    ("budget.other_ns", "ns/access"),
    ("trace.overhead_ns", "ns/access"),
    ("trace.overhead_ratio", "ratio"),
];

/// Attempted, succeeded and failed operations of one phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    /// Operations started.
    pub attempted: u64,
    /// Operations that got the expected reply.
    pub succeeded: u64,
    /// Operations that errored, got an error or wrong-shaped reply, or
    /// were cut off by a transport failure.
    pub failed: u64,
}

impl Tally {
    /// Records one operation's outcome.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if ok {
            self.succeeded += 1;
        } else {
            self.failed += 1;
        }
    }

    /// Folds another tally in.
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.succeeded += other.succeeded;
        self.failed += other.failed;
    }
}

/// Everything one run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Per-phase operation counts, keyed by phase name.
    pub phases: BTreeMap<&'static str, Tally>,
    /// Output-check failures; any makes the run incorrect.
    pub errors: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Detail lines printed ahead of the result (counts, digests).
    pub notes: Vec<String>,
}

impl Report {
    /// The tally of `phase`, created on first use.
    pub fn phase(&mut self, phase: &'static str) -> &mut Tally {
        self.phases.entry(phase).or_default()
    }

    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records an output-check failure unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    /// All phases summed.
    pub fn total(&self) -> Tally {
        let mut t = Tally::default();
        for p in self.phases.values() {
            t.add(*p);
        }
        t
    }

    /// Whether every operation succeeded and every check passed.
    pub fn correct(&self) -> bool {
        let t = self.total();
        self.errors.is_empty() && t.failed == 0 && t.attempted > 0
    }

    /// The result line. Metrics appear only for a correct run, and then
    /// exactly those of `wanted`; a metric the run failed to produce is a
    /// bug in the benchmark.
    pub fn result_line(&self, wanted: &[(&str, &str)]) -> String {
        let t = self.total();
        let correct = self.correct();
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            t.attempted, t.failed
        );
        if correct {
            for (i, (name, unit)) in wanted.iter().enumerate() {
                let v = self
                    .metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("metric {name} was not produced"));
                assert!(v.is_finite(), "metric {name} is not finite: {v}");
                let sep = if i > 0 { ", " } else { "" };
                let _ = write!(
                    out,
                    "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
                );
            }
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathfinder_telemetry::json::{parse, Value};

    fn names(v: &Value, key: &str) -> Vec<(String, String)> {
        let Some(Value::Array(items)) = v.get(key) else {
            panic!("BENCHMARK.json has no {key} list");
        };
        items
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Value::as_str).unwrap().to_string();
                (s("name"), s("unit"))
            })
            .collect()
    }

    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names(&doc, "end_to_end"), own(&END_TO_END));
        assert_eq!(names(&doc, "per_layer"), own(&PER_LAYER));
    }

    #[test]
    fn failures_suppress_metrics() {
        let mut r = Report::default();
        r.phase("access").record(true);
        r.phase("drain").record(false);
        r.set("setup_s", 1.0);
        let line = r.result_line(&[("setup_s", "s")]);
        assert_eq!(
            line,
            "{\"correct\": false, \"attempted\": 2, \"failed\": 1, \"metrics\": {}}"
        );
    }

    #[test]
    fn a_check_failure_alone_makes_the_run_incorrect() {
        let mut r = Report::default();
        r.phase("access").record(true);
        r.check(false, || "schedule diverged".into());
        assert!(!r.correct());
    }

    #[test]
    fn correct_runs_print_every_wanted_metric_with_its_unit() {
        let mut r = Report::default();
        r.phase("access").record(true);
        r.set("setup_s", 0.25);
        r.set("accesses_per_s", 12.5);
        let line = r.result_line(&[("setup_s", "s"), ("accesses_per_s", "1/s")]);
        let v = parse(&line).unwrap();
        assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
        let m = v.get("metrics").unwrap();
        assert_eq!(
            m.get("setup_s").unwrap().get("value").unwrap().as_f64(),
            Some(0.25)
        );
        assert_eq!(
            m.get("accesses_per_s")
                .unwrap()
                .get("unit")
                .unwrap()
                .as_str(),
            Some("1/s")
        );
    }
}
