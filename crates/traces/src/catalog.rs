//! The Table 5 workload catalog: the eleven traces the paper evaluates.

use pathfinder_sim::Trace;

use crate::generators::{cloud, gap, spec};

/// Benchmark suite a workload belongs to (Table 5, column 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Suite {
    /// GAP graph-analytics benchmarks.
    Gap,
    /// SPEC CPU 2006.
    Spec06,
    /// SPEC CPU 2017.
    Spec17,
    /// CloudSuite server workloads.
    CloudSuite,
}

impl std::fmt::Display for Suite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Suite::Gap => "GAP",
            Suite::Spec06 => "SPEC06",
            Suite::Spec17 => "SPEC17",
            Suite::CloudSuite => "CloudSuite",
        };
        f.write_str(s)
    }
}

/// One of the paper's eleven evaluation workloads (Table 5).
///
/// # Examples
///
/// ```
/// use pathfinder_traces::Workload;
///
/// let trace = Workload::Cc5.generate(10_000, 42);
/// assert_eq!(trace.len(), 10_000);
/// assert_eq!(Workload::ALL.len(), 11);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    /// GAP connected components, trace `cc-5`.
    Cc5,
    /// GAP breadth-first search, trace `bfs-10`.
    Bfs10,
    /// SPEC06 `471.omnetpp` (discrete-event simulation).
    Omnetpp,
    /// SPEC06 `473.astar` (grid path-finding).
    Astar,
    /// SPEC06 `450.soplex` (simplex LP solver).
    Soplex,
    /// SPEC06 `482.sphinx3` (speech recognition).
    Sphinx,
    /// SPEC17 `605.mcf_s` (network simplex).
    Mcf,
    /// SPEC17 `623.xalancbmk_s` (XSLT processing).
    Xalan,
    /// CloudSuite `cassandra-phase0-core0`.
    Cassandra,
    /// CloudSuite `cloud9-phase0-core0`.
    Cloud9,
    /// CloudSuite `nutch-phase0-core0`.
    Nutch,
}

impl Workload {
    /// All eleven workloads in the paper's Table 5 order.
    pub const ALL: [Workload; 11] = [
        Workload::Cc5,
        Workload::Bfs10,
        Workload::Omnetpp,
        Workload::Astar,
        Workload::Soplex,
        Workload::Sphinx,
        Workload::Mcf,
        Workload::Xalan,
        Workload::Cassandra,
        Workload::Cloud9,
        Workload::Nutch,
    ];

    /// Trace name as reported in Table 5.
    pub fn trace_name(self) -> &'static str {
        match self {
            Workload::Cc5 => "cc-5",
            Workload::Bfs10 => "bfs-10",
            Workload::Omnetpp => "471-omnetpp-s1",
            Workload::Astar => "473-astar-s1",
            Workload::Soplex => "450-soplex-s0",
            Workload::Sphinx => "482-sphinx-s0",
            Workload::Mcf => "605-mcf-s1",
            Workload::Xalan => "623-xalan-s1",
            Workload::Cassandra => "cassandra-phase0-core0",
            Workload::Cloud9 => "cloud9-phase0-core0",
            Workload::Nutch => "nutch-phase0-core0",
        }
    }

    /// The suite this workload comes from.
    pub fn suite(self) -> Suite {
        match self {
            Workload::Cc5 | Workload::Bfs10 => Suite::Gap,
            Workload::Omnetpp | Workload::Astar | Workload::Soplex | Workload::Sphinx => {
                Suite::Spec06
            }
            Workload::Mcf | Workload::Xalan => Suite::Spec17,
            Workload::Cassandra | Workload::Cloud9 | Workload::Nutch => Suite::CloudSuite,
        }
    }

    /// Total dynamic instructions per 1M loads, in millions (Table 5).
    ///
    /// Used as the mean instruction gap between consecutive loads so the
    /// synthetic traces reproduce each workload's memory intensity.
    pub fn instructions_per_load(self) -> u64 {
        match self {
            Workload::Cc5 => 31,
            Workload::Bfs10 => 71,
            Workload::Omnetpp => 65,
            Workload::Astar => 99,
            Workload::Soplex => 39,
            Workload::Sphinx => 95,
            Workload::Mcf => 48,
            Workload::Xalan => 63,
            Workload::Cassandra => 207,
            Workload::Cloud9 => 208,
            Workload::Nutch => 154,
        }
    }

    /// Generates a synthetic trace of `loads` memory accesses.
    ///
    /// Deterministic for a given `(workload, loads, seed)` triple.
    pub fn generate(self, loads: usize, seed: u64) -> Trace {
        let gap = self.instructions_per_load();
        match self {
            Workload::Cc5 => gap::generate_cc(loads, gap, seed),
            Workload::Bfs10 => gap::generate_bfs(loads, gap, seed),
            Workload::Omnetpp => spec::generate_omnetpp(loads, gap, seed),
            Workload::Astar => spec::generate_astar(loads, gap, seed),
            Workload::Soplex => spec::generate_soplex(loads, gap, seed),
            Workload::Sphinx => spec::generate_sphinx(loads, gap, seed),
            Workload::Mcf => spec::generate_mcf(loads, gap, seed),
            Workload::Xalan => spec::generate_xalan(loads, gap, seed),
            Workload::Cassandra => cloud::generate_cassandra(loads, gap, seed),
            Workload::Cloud9 => cloud::generate_cloud9(loads, gap, seed),
            Workload::Nutch => cloud::generate_nutch(loads, gap, seed),
        }
    }
}

impl std::fmt::Display for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.trace_name())
    }
}

impl std::str::FromStr for Workload {
    type Err = ParseWorkloadError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Workload::ALL
            .iter()
            .copied()
            .find(|w| w.trace_name().eq_ignore_ascii_case(s))
            .ok_or_else(|| ParseWorkloadError {
                input: s.to_string(),
            })
    }
}

/// Error returned when a workload name does not match any Table 5 trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseWorkloadError {
    input: String,
}

impl std::fmt::Display for ParseWorkloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown workload name `{}`", self.input)
    }
}

impl std::error::Error for ParseWorkloadError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eleven_workloads_with_unique_names() {
        let names: std::collections::HashSet<&str> =
            Workload::ALL.iter().map(|w| w.trace_name()).collect();
        assert_eq!(names.len(), 11);
    }

    #[test]
    fn suites_match_table5() {
        assert_eq!(Workload::Cc5.suite(), Suite::Gap);
        assert_eq!(Workload::Omnetpp.suite(), Suite::Spec06);
        assert_eq!(Workload::Mcf.suite(), Suite::Spec17);
        assert_eq!(Workload::Nutch.suite(), Suite::CloudSuite);
    }

    #[test]
    fn instruction_ratios_match_table5() {
        // Table 5 reports total instructions for 1M-load traces.
        assert_eq!(Workload::Cc5.instructions_per_load(), 31);
        assert_eq!(Workload::Cassandra.instructions_per_load(), 207);
        assert_eq!(Workload::Astar.instructions_per_load(), 99);
    }

    #[test]
    fn parse_roundtrip() {
        for w in Workload::ALL {
            let parsed: Workload = w.trace_name().parse().unwrap();
            assert_eq!(parsed, w);
        }
        assert!("not-a-trace".parse::<Workload>().is_err());
    }

    #[test]
    fn every_workload_generates() {
        for w in Workload::ALL {
            let t = w.generate(500, 1);
            assert_eq!(t.len(), 500, "{w}");
        }
    }
}
