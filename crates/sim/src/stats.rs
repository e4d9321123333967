//! End-of-simulation reporting.

use crate::cache::CacheStats;
use crate::dram::DramStats;

/// Everything a timed replay produces.
///
/// The paper's metrics (§4.5) derive directly from these counters:
///
/// * `IPC = instructions / cycles`
/// * `accuracy = useful prefetches / issued prefetches`
/// * `coverage = useful prefetches / baseline LLC load misses` (the baseline
///   miss count comes from a no-prefetch run of the same trace)
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimReport {
    /// Total dynamic instructions represented by the trace.
    pub instructions: u64,
    /// Cycles the replay took.
    pub cycles: u64,
    /// Demand loads replayed.
    pub loads: u64,
    /// Demand loads that hit in the L1D.
    pub l1d_hits: u64,
    /// Demand loads that hit in the L2.
    pub l2_hits: u64,
    /// Demand loads that reached the LLC.
    pub llc_load_accesses: u64,
    /// Demand loads that hit in the LLC (including prefetched blocks).
    pub llc_hits: u64,
    /// Demand loads that missed the LLC and went to DRAM.
    pub llc_misses: u64,
    /// Prefetch requests the prefetcher produced (before filtering).
    pub prefetches_requested: u64,
    /// Prefetches actually sent to memory (not already resident/in-flight).
    pub prefetches_issued: u64,
    /// Prefetched blocks that served at least one demand load.
    pub prefetches_useful: u64,
    /// Useful prefetches whose data had not yet arrived when demanded.
    pub prefetches_late: u64,
    /// Prefetched blocks evicted untouched.
    pub prefetches_useless: u64,
}

impl SimReport {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Fraction of issued prefetches that proved useful (§4.5).
    pub fn accuracy(&self) -> f64 {
        if self.prefetches_issued == 0 {
            0.0
        } else {
            self.prefetches_useful as f64 / self.prefetches_issued as f64
        }
    }

    /// Fraction of `baseline_misses` covered by useful prefetches (§4.5).
    ///
    /// `baseline_misses` must come from a no-prefetch replay of the same
    /// trace under the same configuration.
    pub fn coverage(&self, baseline_misses: u64) -> f64 {
        if baseline_misses == 0 {
            0.0
        } else {
            self.prefetches_useful as f64 / baseline_misses as f64
        }
    }

    /// LLC demand hit rate.
    pub fn llc_hit_rate(&self) -> f64 {
        if self.llc_load_accesses == 0 {
            0.0
        } else {
            self.llc_hits as f64 / self.llc_load_accesses as f64
        }
    }
}

/// Detailed per-component statistics for debugging and ablation.
///
/// Equality is bit-exact on every counter — the engine-equivalence suite
/// compares the flat and reference replays on whole `DetailedStats`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DetailedStats {
    /// L1D counters.
    pub l1d: CacheStats,
    /// L2 counters.
    pub l2: CacheStats,
    /// LLC counters.
    pub llc: CacheStats,
    /// DRAM counters.
    pub dram: DramStats,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_metrics() {
        let r = SimReport {
            instructions: 1000,
            cycles: 500,
            prefetches_issued: 10,
            prefetches_useful: 8,
            llc_load_accesses: 100,
            llc_hits: 60,
            ..SimReport::default()
        };
        assert!((r.ipc() - 2.0).abs() < 1e-12);
        assert!((r.accuracy() - 0.8).abs() < 1e-12);
        assert!((r.coverage(40) - 0.2).abs() < 1e-12);
        assert!((r.llc_hit_rate() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn zero_denominators_do_not_panic() {
        let r = SimReport::default();
        assert_eq!(r.ipc(), 0.0);
        assert_eq!(r.accuracy(), 0.0);
        assert_eq!(r.coverage(0), 0.0);
        assert_eq!(r.llc_hit_rate(), 0.0);
    }
}
