//! Metric derivations shared by the paper and served workloads.

use std::collections::BTreeMap;

use pathfinder_core::PathfinderStats;
use pathfinder_sim::{Block, PrefetchRequest, SimReport};
use pathfinder_telemetry::json::{parse, Value};
use pathfinder_telemetry::{HistogramSnapshot, Snapshot, TimerSnapshot};

use crate::peel;
use crate::report::Report;
use crate::stats::{median, Tail};

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// `generate_prefetches`' per-access tail: drop repeated blocks, keep at
/// most `degree`, and schedule them on the triggering access.
pub fn issue(schedule: &mut Vec<PrefetchRequest>, trigger: u64, blocks: Vec<Block>, degree: usize) {
    let mut seen: Vec<Block> = Vec::with_capacity(degree);
    for b in blocks {
        if seen.len() < degree && !seen.contains(&b) {
            seen.push(b);
            schedule.push(PrefetchRequest::new(trigger, b));
        }
    }
}

/// Every field of a replay report, in declaration order, for digests.
pub fn report_words(r: &SimReport) -> [u64; 13] {
    [
        r.instructions,
        r.cycles,
        r.loads,
        r.l1d_hits,
        r.l2_hits,
        r.llc_load_accesses,
        r.llc_hits,
        r.llc_misses,
        r.prefetches_requested,
        r.prefetches_issued,
        r.prefetches_useful,
        r.prefetches_late,
        r.prefetches_useless,
    ]
}

/// Peak resident set (VmHWM) of process `pid`, in MB.
pub fn vm_hwm_mb(pid: u32) -> Result<f64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("read /proc/{pid}/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("no VmHWM in /proc/{pid}/status"))?;
    Ok(kb / 1024.0)
}

/// One detail line for a median and tail pair, with sample counts.
pub fn tail_note(what: &str, unit: &str, p50: &Tail, tail: &Tail) -> String {
    format!(
        "{what}: p50 {:.3} {unit} (n={}, {} beyond); p{} {:.3} {unit} (n={}, {} beyond)",
        p50.value, p50.n, p50.beyond, tail.pct, tail.value, tail.n, tail.beyond
    )
}

/// One measured round's end-to-end figures.
pub struct Round {
    /// Set-up seconds.
    pub setup_s: f64,
    /// Accesses the round completed.
    pub accesses: f64,
    /// Seconds the round spent completing them.
    pub seconds: f64,
}

/// Sets the end-to-end metrics, with one note per round: `setup_s` is the
/// median over rounds, and `accesses_per_s` is every round's accesses over
/// every round's seconds, the throughput of the whole run.
pub fn round_metrics(r: &mut Report, rounds: &[Round]) {
    for (i, x) in rounds.iter().enumerate() {
        r.notes.push(format!(
            "round {i}: setup {:.4} s, {} accesses in {:.3} s, {:.0} accesses/s",
            x.setup_s,
            x.accesses,
            x.seconds,
            x.accesses / x.seconds
        ));
    }
    let setups: Vec<f64> = rounds.iter().map(|x| x.setup_s).collect();
    let accesses: f64 = rounds.iter().map(|x| x.accesses).sum();
    let seconds: f64 = rounds.iter().map(|x| x.seconds).sum();
    r.set("setup_s", median(&setups));
    r.set("accesses_per_s", accesses / seconds);
}

/// Total nanoseconds the SNN presentation timers saw (singleton learning
/// and frozen presentations, plus batched frozen ones).
pub fn snn_time_ns(snap: &Snapshot) -> f64 {
    ["snn.present", "snn.present.batch"]
        .iter()
        .filter_map(|n| snap.timer(n))
        .map(|t| t.total_ns as f64)
        .sum()
}

/// The per-access time budget: layer self times, the `other` remainder
/// against the untraced end-to-end figure, and the tracing overhead.
/// Layers `selfs` does not name read 0.
pub fn budget(r: &mut Report, untraced_ns: f64, traced_ns: f64, selfs: &[(&'static str, f64)]) {
    for name in [
        "budget.socket_ns",
        "budget.engine_ns",
        "budget.stream_ns",
        "budget.prefetch_ns",
        "budget.core_ns",
        "budget.snn_ns",
        "budget.sim_ns",
    ] {
        r.set(name, 0.0);
    }
    let values: Vec<f64> = selfs.iter().map(|&(_, v)| v).collect();
    let other = peel::other(untraced_ns, &values);
    let mut line = format!("budget ns/access: e2e {untraced_ns:.1} =");
    for &(name, v) in selfs {
        r.set(name, v);
        line.push_str(&format!(
            " {} {v:.1} +",
            &name["budget.".len()..name.len() - 3]
        ));
    }
    line.push_str(&format!(" other {other:.1}"));
    r.notes.push(line);
    let sum: f64 = values.iter().sum::<f64>() + other;
    assert!(
        (sum - untraced_ns).abs() <= 1e-6 * untraced_ns.abs().max(1.0),
        "self times plus other must sum to the end-to-end figure"
    );
    r.set("budget.e2e_ns", untraced_ns);
    r.set("budget.other_ns", other);
    r.set("trace.overhead_ns", traced_ns - untraced_ns);
    r.set(
        "trace.overhead_ratio",
        (traced_ns - untraced_ns) / untraced_ns,
    );
}

/// Prefetcher-level ratios from the final stats and the telemetry counters.
pub fn core_metrics(r: &mut Report, pf: &[PathfinderStats], snap: &Snapshot) {
    let sum = |f: fn(&PathfinderStats) -> u64| pf.iter().map(f).sum::<u64>();
    let (hits, misses) = (sum(|s| s.snn_cache_hits), sum(|s| s.snn_cache_misses));
    let (right, wrong) = (sum(|s| s.predictions_correct), sum(|s| s.predictions_wrong));
    let (th, tm) = (
        snap.counter("pf.train.hits"),
        snap.counter("pf.train.misses"),
    );
    r.set("core.snn_cache_hit_ratio", ratio(hits, hits + misses));
    r.set("core.train_table_hit_ratio", ratio(th, th + tm));
    r.set("core.prediction_accuracy", ratio(right, right + wrong));
    r.notes.push(format!(
        "core: snn cache {hits} hits / {} probes; train table {th} / {}; predictions {right} / {}",
        hits + misses,
        th + tm,
        right + wrong
    ));
}

/// SNN counters and timers.
pub fn snn_metrics(r: &mut Report, snap: &Snapshot) {
    let present = snap.timer("snn.present").cloned().unwrap_or_default();
    r.set(
        "snn.presentations",
        snap.counter("snn.presentations") as f64,
    );
    r.set("snn.present_ns_per_call", present.mean_ns().unwrap_or(0.0));
    r.set(
        "snn.stdp.weight_updates",
        snap.counter("snn.stdp.weight_updates") as f64,
    );
    r.set(
        "snn.frozen.presentations",
        snap.counter("snn.frozen.presentations") as f64,
    );
    r.set(
        "snn.frozen.batch.queries",
        snap.counter("snn.frozen.batch.queries") as f64,
    );
    r.set(
        "snn.frozen.batch.lanes_p50",
        snap.histogram("snn.frozen.batch.lanes")
            .map_or(0.0, |h| h.p50 as f64),
    );
}

/// Replay metrics: total replay seconds and the exact-count ratios.
pub fn sim_metrics(r: &mut Report, reports: &[SimReport], run_s: f64) {
    let sum = |f: fn(&SimReport) -> u64| reports.iter().map(f).sum::<u64>();
    r.set("sim.run_s", run_s);
    r.set(
        "sim.prefetch_useful_ratio",
        ratio(sum(|x| x.prefetches_useful), sum(|x| x.prefetches_issued)),
    );
    r.set(
        "sim.llc_hit_rate",
        ratio(sum(|x| x.llc_hits), sum(|x| x.llc_load_accesses)),
    );
}

/// The serve-layer metrics of a workload that never touches the daemon.
pub fn zero_serve_metrics(r: &mut Report) {
    for name in [
        "serve.rtt_p50_us",
        "serve.rtt_p99_us",
        "serve.drain_p50_ms",
        "serve.peak_rss_mb",
        "serve.protocol.encode_ns",
        "serve.protocol.decode_ns",
        "serve.socket.self_p50_us",
        "serve.engine.latency_p50_us",
        "serve.engine.latency_p99_us",
        "serve.engine.frame_p50_us",
        "serve.shard.burst_p50",
        "serve.batch.inference_grouped",
        "serve.stream.access_run_ns_per_access",
        "serve.stream.drain_ms",
    ] {
        r.set(name, 0.0);
    }
}

/// Rebuilds a telemetry snapshot from the JSON document the daemon's
/// `status` verb carries.
pub fn snapshot_from_json(doc: &str) -> Result<Snapshot, String> {
    let v = parse(doc)?;
    let section = |k: &str| -> BTreeMap<String, Value> {
        v.get(k)
            .and_then(Value::as_object)
            .cloned()
            .unwrap_or_default()
    };
    let num = |m: &Value, k: &str| m.get(k).and_then(Value::as_f64).unwrap_or(0.0) as u64;
    let mut snap = Snapshot::default();
    for (k, c) in section("counters") {
        snap.counters.insert(k, c.as_f64().unwrap_or(0.0) as u64);
    }
    for (k, h) in section("histograms") {
        let hist = HistogramSnapshot {
            count: num(&h, "count"),
            sum: num(&h, "sum"),
            min: num(&h, "min"),
            max: num(&h, "max"),
            p50: num(&h, "p50"),
            p99: num(&h, "p99"),
            buckets: Vec::new(),
        };
        snap.histograms.insert(k, hist);
    }
    for (k, t) in section("timers") {
        let timer = TimerSnapshot {
            count: num(&t, "count"),
            total_ns: num(&t, "total_ns"),
        };
        snap.timers.insert(k, timer);
    }
    Ok(snap)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_json_round_trips_the_fields_the_metrics_read() {
        let mut h = pathfinder_telemetry::Histogram::new();
        for v in [3, 5, 900] {
            h.record(v);
        }
        let mut snap = Snapshot::default();
        snap.counters.insert("pf.train.hits".into(), 41);
        snap.histograms.insert(
            "serve.shard.burst".into(),
            HistogramSnapshot::from_histogram(&h),
        );
        snap.timers.insert(
            "snn.present".into(),
            TimerSnapshot {
                count: 4,
                total_ns: 1000,
            },
        );
        let back = snapshot_from_json(&snap.to_json()).unwrap();
        assert_eq!(back.counter("pf.train.hits"), 41);
        let b = back.histogram("serve.shard.burst").unwrap();
        let want = snap.histogram("serve.shard.burst").unwrap();
        assert_eq!(
            (b.count, b.p50, b.p99, b.max),
            (want.count, want.p50, want.p99, want.max)
        );
        assert_eq!(back.timer("snn.present"), snap.timer("snn.present"));
    }

    #[test]
    fn budget_remainder_closes_the_sum() {
        let mut r = Report::default();
        budget(
            &mut r,
            100.0,
            103.0,
            &[("budget.core_ns", 60.0), ("budget.sim_ns", 30.0)],
        );
        assert_eq!(r.metrics["budget.other_ns"], 10.0);
        assert_eq!(r.metrics["budget.socket_ns"], 0.0);
        assert_eq!(r.metrics["trace.overhead_ns"], 3.0);
        assert!((r.metrics["trace.overhead_ratio"] - 0.03).abs() < 1e-12);
    }
}
