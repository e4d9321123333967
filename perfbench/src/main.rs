//! The repository benchmark. `perfbench/run.py` builds this binary and the
//! `repro` daemon, then runs
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1> --repro <path>
//! ```
//!
//! An untraced run (`--trace 0`) prints every end-to-end metric; a traced
//! run (`--trace 1`) prints the per-layer metrics from a layer peel. The
//! last line of standard output is the result object; detail lines before
//! it start with `#`. See `perfbench/README.md`.

mod common;
mod inputs;
mod paper;
mod peel;
mod report;
mod serve;
mod stats;

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::{SystemTime, UNIX_EPOCH};

use inputs::Kind;
use report::{END_TO_END, PER_LAYER};

struct Args {
    workload: inputs::Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
    repro: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let name = get("--workload")?;
    let workload = inputs::spec(&name).ok_or_else(|| {
        let known: Vec<&str> = inputs::SPECS.iter().map(|s| s.name).collect();
        format!("unknown workload {name:?}; known: {}", known.join(", "))
    })?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is out of range"));
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    let repro = PathBuf::from(get("--repro")?);
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        repro,
    })
}

/// A command's standard output, if it ran and succeeded.
fn command_output(program: &str, args: &[&str]) -> Option<String> {
    let mut cmd = Command::new(program);
    // Only a git checkout rooted here identifies the build; a repository
    // in some directory above must not.
    if let Ok(here) = std::env::current_dir() {
        if let Some(above) = here.parent() {
            cmd.env("GIT_CEILING_DIRECTORIES", above);
        }
    }
    cmd.args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
}

/// Host and build identity, as one JSON object.
fn host_line() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let first_line = |out: Option<String>| {
        out.and_then(|s| s.lines().next().map(str::to_string))
            .unwrap_or_else(|| "unknown".into())
    };
    // The benchmark may run from a plain copy of the tree, not a checkout.
    let sha = first_line(command_output("git", &["rev-parse", "HEAD"]));
    let dirty = match command_output("git", &["status", "--porcelain"]) {
        Some(s) if sha != "unknown" => {
            if s.trim().is_empty() {
                "false"
            } else {
                "true"
            }
        }
        _ => "unknown",
    };
    let caps = pathfinder_accel::CpuCapabilities::detect();
    let force = std::env::var("PATHFINDER_FORCE_SCALAR").unwrap_or_default();
    let q = |s: &str| s.replace(['"', '\\'], "");
    format!(
        "{{\"host\": {{\"cpu\": \"{}\", \"logical_cores\": {cores}, \"rustc\": \"{}\", \"git_sha\": \"{}\", \"git_dirty\": \"{dirty}\", \"kernel_tier\": \"{}\", \"avx2\": {}, \"PATHFINDER_FORCE_SCALAR\": \"{}\"}}}}",
        q(&cpu),
        q(&first_line(command_output("rustc", &["--version"]))),
        q(&sha),
        pathfinder_accel::active_tier().name(),
        caps.avx2,
        q(&force)
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1> --repro <path>"
            );
            return ExitCode::from(2);
        }
    };
    if !args.repro.is_file() {
        eprintln!("error: no daemon binary at {}", args.repro.display());
        return ExitCode::from(2);
    }
    let nonce = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos());
    let tmp = PathBuf::from(".bench_tmp").join(format!("{}-{nonce}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("error: create {}: {e}", tmp.display());
        return ExitCode::from(2);
    }
    let env = serve::Env {
        repro: args.repro.clone(),
        tmp: tmp.clone(),
    };

    println!("# {}", host_line());
    let spec = args.workload;
    println!(
        "# workload {} seed {} trace {} ({} streams x {} loads)",
        spec.name,
        args.seed,
        u8::from(args.trace),
        spec.streams,
        spec.loads
    );
    let report = match (spec.kind, args.trace) {
        (Kind::Paper { .. }, false) => paper::run(&spec, args.seed, args.seconds),
        (Kind::Paper { .. }, true) => paper::traced(&spec, args.seed, args.seconds),
        (Kind::Serve, false) => serve::run(&spec, args.seed, args.seconds, &env),
        (Kind::Serve, true) => serve::traced(&spec, args.seed, args.seconds, &env),
    };
    let _ = std::fs::remove_dir_all(&tmp);
    let _ = std::fs::remove_dir(".bench_tmp");

    for (phase, t) in &report.phases {
        println!(
            "# phase {phase}: attempted {} succeeded {} failed {}",
            t.attempted, t.succeeded, t.failed
        );
    }
    for note in &report.notes {
        println!("# {note}");
    }
    for e in &report.errors {
        println!("# CHECK FAILED: {e}");
    }
    if !report.correct() {
        println!("{}", report.result_line(&[]));
        return ExitCode::from(1);
    }
    let wanted = if args.trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    for (name, unit) in wanted {
        println!("# {name} = {} {unit}", report.metrics[name]);
    }
    println!("{}", report.result_line(wanted));
    ExitCode::SUCCESS
}
