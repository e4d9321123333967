//! The paper pipeline, in-process through the public functions, called as
//! the harness calls it: per trace (one paper cell), `Workload::generate`,
//! then `generate_prefetches` over the whole trace, then `Simulator::run`.

use std::time::{Duration, Instant};

use pathfinder_core::{PathfinderPrefetcher, PathfinderStats};
use pathfinder_prefetch::{generate_prefetches, Prefetcher};
use pathfinder_serve::StreamTemplate;
use pathfinder_sim::{PrefetchRequest, ReferenceSimulator, SimReport, Simulator, Trace};
use pathfinder_telemetry::{self as telemetry, Snapshot};

use crate::inputs::{self, Kind, Spec};
use crate::report::Report;
use crate::stats::{median, tail, Digest};
use crate::{common, peel};

/// One trace's pipeline output.
#[derive(Debug, Clone, PartialEq)]
struct Cell {
    schedule: Vec<PrefetchRequest>,
    report: SimReport,
    stats: PathfinderStats,
}

/// Generated inputs and fresh prefetchers for one pass.
struct Setup {
    traces: Vec<Trace>,
    prefetchers: Vec<PathfinderPrefetcher>,
    tracegen_s: f64,
    setup_s: f64,
}

/// One pass of the pipeline over every trace.
#[derive(Default)]
struct Pass {
    gen_s: f64,
    replay_s: f64,
    cells: Vec<Cell>,
    accesses: u64,
}

impl Pass {
    fn ns_per_access(&self) -> f64 {
        (self.gen_s + self.replay_s) * 1e9 / self.accesses as f64
    }
}

/// The stream template the workload's prefetchers are built from: the
/// Figure-4 default, or it with the §5 duty cycle applied exactly as the
/// daemon's `configure` applies it.
fn template(spec: &Spec) -> StreamTemplate {
    let mut t = StreamTemplate::default();
    if spec.kind == (Kind::Paper { duty: true }) {
        t.apply(&inputs::duty_delta())
            .expect("the duty-cycle delta is a valid configuration");
    }
    t
}

fn setup(spec: &Spec, seed: u64, template: &StreamTemplate) -> Result<Setup, String> {
    let t0 = Instant::now();
    let traces = inputs::traces(spec, seed);
    let tracegen_s = t0.elapsed().as_secs_f64();
    let prefetchers = (0..spec.streams)
        .map(|i| PathfinderPrefetcher::new(template.config_for_stream(i)))
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Setup {
        traces,
        prefetchers,
        tracegen_s,
        setup_s: t0.elapsed().as_secs_f64(),
    })
}

/// The untraced pipeline: each cell's prefetch generation over its whole
/// trace, then its replay.
fn pipeline(s: &mut Setup, template: &StreamTemplate) -> Pass {
    let degree = template.sim.max_prefetch_degree;
    let mut pass = Pass::default();
    for (trace, pf) in s.traces.iter().zip(&mut s.prefetchers) {
        let t = Instant::now();
        let schedule = generate_prefetches(pf, trace, degree);
        pass.gen_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let report = Simulator::new(template.sim).run(trace, &schedule);
        pass.replay_s += t.elapsed().as_secs_f64();
        pass.accesses += trace.len() as u64;
        pass.cells.push(Cell {
            schedule,
            report,
            stats: *pf.stats(),
        });
    }
    pass
}

/// The core peel: `Prefetcher::on_access` per access of each whole trace,
/// timed one by one, with `generate_prefetches`' dedup and degree cap
/// applied around it. Returns the schedules and the per-access latencies
/// in nanoseconds.
fn core_peel(s: &mut Setup, template: &StreamTemplate) -> (Vec<Vec<PrefetchRequest>>, Vec<f64>) {
    let degree = template.sim.max_prefetch_degree;
    let mut schedules = Vec::with_capacity(s.traces.len());
    let mut ns = Vec::new();
    for (trace, pf) in s.traces.iter().zip(&mut s.prefetchers) {
        let mut schedule = Vec::new();
        for a in trace.accesses() {
            let t = Instant::now();
            let blocks = pf.on_access(a);
            ns.push(t.elapsed().as_nanos() as f64);
            common::issue(&mut schedule, a.instr_id, blocks, degree);
        }
        schedules.push(schedule);
    }
    (schedules, ns)
}

/// Checks every cell's replay against the reference simulator and returns
/// the schedule+report digest.
fn reference_check(r: &mut Report, s: &Setup, pass: &Pass, template: &StreamTemplate) -> u64 {
    let mut d = Digest::default();
    for (i, (trace, cell)) in s.traces.iter().zip(&pass.cells).enumerate() {
        let reference = ReferenceSimulator::new(template.sim).run(trace, &cell.schedule);
        r.check(reference == cell.report, || {
            format!("trace {i}: replay report differs from ReferenceSimulator")
        });
        let pairs: Vec<u64> = cell
            .schedule
            .iter()
            .flat_map(|p| [p.trigger_instr_id, p.block.0])
            .collect();
        d.words(&pairs);
        d.words(&common::report_words(&cell.report));
    }
    d.value()
}

fn phase_counts(r: &mut Report, pass: &Pass) {
    for _ in &pass.cells {
        r.phase("prefetch").record(true);
        r.phase("replay").record(true);
    }
}

/// The untraced run: passes until `seconds` of measuring have elapsed.
pub fn run(spec: &Spec, seed: u64, seconds: f64) -> Report {
    let template = template(spec);
    let mut r = Report::default();
    let mut first: Option<(Setup, Pass)> = None;
    let mut rounds = Vec::new();
    let budget = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    while rounds.len() < 2 || started.elapsed() < budget {
        let mut s = match setup(spec, seed, &template) {
            Ok(s) => s,
            Err(e) => {
                r.check(false, || format!("setup: {e}"));
                return r;
            }
        };
        let pass = pipeline(&mut s, &template);
        phase_counts(&mut r, &pass);
        rounds.push(common::Round {
            setup_s: s.setup_s,
            accesses: pass.accesses as f64,
            seconds: pass.gen_s + pass.replay_s,
        });
        match &first {
            None => first = Some((s, pass)),
            Some((_, p0)) => {
                let n = rounds.len();
                r.check(pass.cells == p0.cells, || {
                    format!("pass {n} differs from pass 1 on identical inputs")
                });
            }
        }
    }
    let (s0, p0) = first.expect("at least two passes ran");
    let digest = reference_check(&mut r, &s0, &p0, &template);
    r.notes.push(format!("digest {digest:016x}"));
    common::round_metrics(&mut r, &rounds);
    r
}

/// One pass over the paper boundaries: untraced pipeline, traced pipeline,
/// then the core peel, each with fresh prefetchers on the same inputs.
struct Rep {
    untraced: Pass,
    traced: Pass,
    snap: Snapshot,
    on_access_ns: Vec<f64>,
    core_snap: Snapshot,
    tracegen_s: f64,
}

fn rep(
    r: &mut Report,
    spec: &Spec,
    seed: u64,
    template: &StreamTemplate,
) -> Result<(Setup, Rep), String> {
    let mut s0 = setup(spec, seed, template)?;
    let untraced = pipeline(&mut s0, template);
    phase_counts(r, &untraced);
    let mut s1 = setup(spec, seed, template)?;
    let (traced, snap) = telemetry::capture(|| pipeline(&mut s1, template));
    phase_counts(r, &traced);
    r.check(traced.cells == untraced.cells, || {
        "traced pass differs from the untraced pass".into()
    });
    let mut s2 = setup(spec, seed, template)?;
    let ((schedules, on_access_ns), core_snap) =
        telemetry::capture(|| core_peel(&mut s2, template));
    for (i, (sched, cell)) in schedules.iter().zip(&untraced.cells).enumerate() {
        r.check(*sched == cell.schedule, || {
            format!("trace {i}: on_access peel schedule differs from generate_prefetches")
        });
    }
    let tracegen_s = s0.tracegen_s;
    let rep = Rep {
        untraced,
        traced,
        snap,
        on_access_ns,
        core_snap,
        tracegen_s,
    };
    Ok((s0, rep))
}

/// The traced run: one unmeasured warm-up pass, then repetitions of
/// [`Rep`] until `seconds` have elapsed (at least [`peel::MIN_PASSES`]).
/// Each boundary's figure is its median over the repetitions.
pub fn traced(spec: &Spec, seed: u64, seconds: f64) -> Report {
    let template = template(spec);
    let mut r = Report::default();
    let mut reps = Vec::new();
    let mut inputs = None;
    let warm = setup(spec, seed, &template).map(|mut s| pipeline(&mut s, &template));
    if let Err(e) = warm {
        r.check(false, || format!("setup: {e}"));
        return r;
    }
    let started = Instant::now();
    while reps.len() < peel::MIN_PASSES || started.elapsed().as_secs_f64() < seconds {
        match rep(&mut r, spec, seed, &template) {
            Ok((s, x)) => {
                inputs.get_or_insert(s);
                reps.push(x);
            }
            Err(e) => {
                r.check(false, || format!("setup: {e}"));
                return r;
            }
        }
    }
    let digest = reference_check(
        &mut r,
        &inputs.expect("a pass ran"),
        &reps[0].untraced,
        &template,
    );
    r.notes.push(format!("digest {digest:016x}"));

    let med = |f: &dyn Fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let acc = reps[0].untraced.accesses as f64;
    let on_access_total = med(&|x| x.on_access_ns.iter().sum());
    let snn_ns = med(&|x| common::snn_time_ns(&x.core_snap));
    let prefetch_self = med(&|x| x.traced.gen_s) * 1e9 - on_access_total;
    let replay_s = med(&|x| x.traced.replay_s);
    let selfs = [
        ("budget.prefetch_ns", prefetch_self / acc),
        ("budget.core_ns", (on_access_total - snn_ns) / acc),
        ("budget.snn_ns", snn_ns / acc),
        ("budget.sim_ns", replay_s * 1e9 / acc),
    ];
    common::budget(
        &mut r,
        med(&|x| x.untraced.ns_per_access()),
        med(&|x| x.traced.ns_per_access()),
        &selfs,
    );

    r.set("traces.generate_s", med(&|x| x.tracegen_s));
    r.set("prefetch.self_s", prefetch_self / 1e9);
    let on_access_ns: Vec<f64> = reps
        .iter()
        .flat_map(|x| x.on_access_ns.iter().copied())
        .collect();
    if let (Some(p50), Some(p99)) = (tail(&on_access_ns, 50.0), tail(&on_access_ns, 99.0)) {
        r.notes
            .push(common::tail_note("on_access", "ns", &p50, &p99));
        r.set("core.on_access_p50_ns", median(&on_access_ns));
        r.set("core.on_access_p99_ns", p99.value);
    }
    r.set("core.on_access_run_ns_per_access", 0.0);
    let cells = &reps[0].traced.cells;
    let pf: Vec<PathfinderStats> = cells.iter().map(|c| c.stats).collect();
    let reports: Vec<SimReport> = cells.iter().map(|c| c.report.clone()).collect();
    common::core_metrics(&mut r, &pf, &reps[0].snap);
    common::snn_metrics(&mut r, &reps[0].snap);
    common::sim_metrics(&mut r, &reports, replay_s);
    common::zero_serve_metrics(&mut r);
    r.notes.push(format!(
        "passes {} of {acc} accesses per boundary",
        reps.len()
    ));
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_run_is_correct_and_its_budget_closes() {
        let spec = Spec {
            loads: 200,
            ..inputs::spec("paper-duty").unwrap()
        };
        let r = traced(&spec, 3, 0.01);
        assert!(r.correct(), "{:?}", r.errors);
        let m = &r.metrics;
        let layers = ["prefetch", "core", "snn", "sim", "other"];
        let sum: f64 = layers
            .iter()
            .map(|l| m[format!("budget.{l}_ns").as_str()])
            .sum();
        assert!((sum - m["budget.e2e_ns"]).abs() < 1e-6 * m["budget.e2e_ns"]);
        for (name, _) in crate::report::PER_LAYER {
            assert!(m.contains_key(name), "{name} missing");
        }
    }

    #[test]
    fn untraced_run_reports_every_end_to_end_metric() {
        let spec = Spec {
            loads: 100,
            ..inputs::spec("paper-learn").unwrap()
        };
        let r = run(&spec, 3, 0.01);
        assert!(r.correct(), "{:?}", r.errors);
        for (name, _) in crate::report::END_TO_END {
            assert!(r.metrics[name] > 0.0, "{name} is not positive");
        }
    }
}
