//! Evaluation results and the §4.5 metrics.

use pathfinder_sim::SimReport;
use pathfinder_traces::Workload;

/// Outcome of evaluating one prefetcher on one workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Evaluation {
    /// Prefetcher label.
    pub prefetcher: String,
    /// Workload evaluated.
    pub workload: Workload,
    /// Timed-replay report.
    pub report: SimReport,
    /// LLC load misses of the no-prefetch baseline on the same trace
    /// (coverage denominator, §4.5).
    pub baseline_misses: u64,
}

impl Evaluation {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        self.report.ipc()
    }

    /// useful / issued (§4.5).
    pub fn accuracy(&self) -> f64 {
        self.report.accuracy()
    }

    /// useful / baseline misses (§4.5).
    pub fn coverage(&self) -> f64 {
        self.report.coverage(self.baseline_misses)
    }

    /// Prefetch requests the prefetcher submitted, before the simulator's
    /// residency/duplicate filtering and DRAM shedding (Table 6's "issued
    /// prefetches", which the paper caps at 2 per access).
    ///
    /// Distinct from [`SimReport::prefetches_issued`] — the post-filter
    /// count the `sim.prefetch.issued` telemetry counter tracks. This
    /// accessor was named `issued()` before PR 2; it was renamed because it
    /// never returned the issued count.
    pub fn requested(&self) -> u64 {
        self.report.prefetches_requested
    }
}

/// Arithmetic mean over a metric of a result slice.
pub fn mean<F: Fn(&Evaluation) -> f64>(evals: &[Evaluation], f: F) -> f64 {
    if evals.is_empty() {
        return 0.0;
    }
    evals.iter().map(f).sum::<f64>() / evals.len() as f64
}

/// Geometric-mean speedup of `a` over `b`, matched by workload.
///
/// # Panics
///
/// Panics if the slices do not cover identical workload sets.
pub fn geomean_speedup(a: &[Evaluation], b: &[Evaluation]) -> f64 {
    assert_eq!(a.len(), b.len(), "mismatched result sets");
    let mut log_sum = 0.0f64;
    for ea in a {
        let eb = b
            .iter()
            .find(|e| e.workload == ea.workload)
            .expect("workload present in both sets");
        log_sum += (ea.ipc() / eb.ipc()).ln();
    }
    (log_sum / a.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eval(w: Workload, ipc_cycles: u64) -> Evaluation {
        Evaluation {
            prefetcher: "x".into(),
            workload: w,
            report: SimReport {
                instructions: 1000,
                cycles: ipc_cycles,
                prefetches_requested: 10,
                prefetches_issued: 8,
                prefetches_useful: 4,
                ..SimReport::default()
            },
            baseline_misses: 16,
        }
    }

    #[test]
    fn metrics_derive() {
        let e = eval(Workload::Cc5, 500);
        assert!((e.ipc() - 2.0).abs() < 1e-12);
        assert!((e.accuracy() - 0.5).abs() < 1e-12);
        assert!((e.coverage() - 0.25).abs() < 1e-12);
        assert_eq!(e.requested(), 10);
    }

    /// `requested()` (prefetches submitted) and `SimReport::prefetches_issued`
    /// (post-filter injections) are different quantities: on a schedule that
    /// re-requests the same resident block, requested counts every submission
    /// while the simulator issues only the first.
    #[test]
    fn requested_differs_from_issued_on_duplicate_schedule() {
        use pathfinder_sim::{Block, MemoryAccess, PrefetchRequest, SimConfig, Simulator, Trace};

        let trace: Trace = (0..10u64)
            .map(|i| MemoryAccess::new(i * 4, 0x400, 0x10_0000 + i * 4096 * 7))
            .collect();
        let target = Block(999_999);
        let schedule: Vec<PrefetchRequest> = trace
            .iter()
            .map(|a| PrefetchRequest::new(a.instr_id, target))
            .collect();
        let report = Simulator::new(SimConfig::default()).run(&trace, &schedule);
        let e = Evaluation {
            prefetcher: "dup".into(),
            workload: Workload::Cc5,
            report,
            baseline_misses: 10,
        };
        assert_eq!(e.requested(), 10, "every submission counts as requested");
        assert_eq!(
            e.report.prefetches_issued, 1,
            "the resident-block filter passes only the first"
        );
        assert!(e.requested() > e.report.prefetches_issued);
    }

    #[test]
    fn mean_and_geomean() {
        let a = vec![eval(Workload::Cc5, 500), eval(Workload::Mcf, 250)];
        let b = vec![eval(Workload::Cc5, 1000), eval(Workload::Mcf, 500)];
        assert!((mean(&a, |e| e.ipc()) - 3.0).abs() < 1e-12);
        assert!((geomean_speedup(&a, &b) - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "mismatched")]
    fn geomean_rejects_uneven_sets() {
        let a = vec![eval(Workload::Cc5, 500)];
        let _ = geomean_speedup(&a, &[]);
    }
}
