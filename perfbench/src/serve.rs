//! Prefetch-as-a-service: clients drive a `repro serve --shards 2` daemon
//! over its Unix socket, closed loop, two connections of `access_batch`
//! frames.
//!
//! The traced run peels the served access at its public boundaries, each
//! replaying the identical frames: the socket (client round trip), the
//! engine (`Requester::request` in-process), the stream
//! (`StreamSession::access_run`) and the prefetcher
//! (`PathfinderPrefetcher::on_access_run`).

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use pathfinder_core::{PathfinderPrefetcher, PathfinderStats};
use pathfinder_prefetch::generate_prefetches;
use pathfinder_serve::{
    AccessRecord, DrainedStream, Request, Response, ServeEngine, StreamSession, StreamTemplate,
    UnixClient,
};
use pathfinder_sim::{Block, MemoryAccess, PrefetchRequest, SimReport, Simulator, Trace};
use pathfinder_telemetry::{self as telemetry, Snapshot};

use crate::common;
use crate::inputs::{self, Frame, Spec};
use crate::peel;
use crate::report::{Report, Tally};
use crate::stats::{median, tail, Digest};

/// How long the daemon may take to bind, answer, or exit.
const DAEMON_TIMEOUT: Duration = Duration::from_secs(30);

/// Where the benchmark finds the daemon binary and keeps its sockets.
pub struct Env {
    /// The `repro` binary.
    pub repro: PathBuf,
    /// A directory unique to this run, for socket files.
    pub tmp: PathBuf,
}

/// What a batch `generate_prefetches` + `Simulator::run` of one stream's
/// trace under `template.seed ^ stream` produces.
#[derive(Debug, PartialEq)]
struct Expected {
    schedule: Vec<(u64, u64)>,
    report: SimReport,
    pf: PathfinderStats,
}

/// One run's generated inputs and their batch referee.
struct Inputs {
    template: StreamTemplate,
    frames: Vec<Vec<Frame>>,
    expected: Vec<Expected>,
    accesses: f64,
    tracegen_s: f64,
}

impl Inputs {
    fn new(spec: &Spec, seed: u64) -> Inputs {
        let mut template = StreamTemplate::default();
        template
            .apply(&inputs::duty_delta())
            .expect("the duty-cycle delta is a valid configuration");
        let t = Instant::now();
        let traces = inputs::traces(spec, seed);
        let tracegen_s = t.elapsed().as_secs_f64();
        let frames = inputs::frames(&traces);
        let expected = traces
            .iter()
            .enumerate()
            .map(|(s, trace)| referee(&template, s as u64, trace))
            .collect();
        Inputs {
            template,
            frames,
            expected,
            accesses: (spec.streams as usize * spec.loads) as f64,
            tracegen_s,
        }
    }

    fn streams(&self) -> u64 {
        self.expected.len() as u64
    }

    /// Compares served per-access replies with the referee schedules.
    fn check_replies(&self, r: &mut Report, level: &str, replies: &[Vec<(u64, u64)>]) {
        for (s, (got, want)) in replies.iter().zip(&self.expected).enumerate() {
            r.check(*got == want.schedule, || {
                format!("{level}: stream {s} replies differ from the batch schedule")
            });
        }
    }

    /// Compares one drained stream with its referee.
    fn check_drained(&self, r: &mut Report, level: &str, d: &DrainedStream) {
        let want = &self.expected[d.stream as usize];
        let what = if d.schedule != want.schedule {
            "schedule"
        } else if d.report != want.report {
            "replay report"
        } else if d.pf != want.pf {
            "prefetcher stats"
        } else {
            return;
        };
        r.check(false, || {
            format!(
                "{level}: stream {} drained {what} differs from batch",
                d.stream
            )
        });
    }

    fn digest(&self) -> u64 {
        let mut d = Digest::default();
        for e in &self.expected {
            let pairs: Vec<u64> = e.schedule.iter().flat_map(|&(i, b)| [i, b]).collect();
            d.words(&pairs);
            d.words(&common::report_words(&e.report));
        }
        d.value()
    }
}

fn referee(template: &StreamTemplate, stream: u64, trace: &Trace) -> Expected {
    let mut pf = PathfinderPrefetcher::new(template.config_for_stream(stream))
        .expect("the template is valid");
    let schedule = generate_prefetches(&mut pf, trace, template.sim.max_prefetch_degree);
    let report = Simulator::new(template.sim).run(trace, &schedule);
    Expected {
        schedule: schedule
            .iter()
            .map(|r| (r.trigger_instr_id, r.block.0))
            .collect(),
        report,
        pf: *pf.stats(),
    }
}

/// Per-stream `(trigger_instr_id, block)` schedules rebuilt from replies.
type Replies = Vec<Vec<(u64, u64)>>;

fn absorb(replies: &mut Replies, stream: u64, recs: &[AccessRecord], blocks: &[Vec<u64>]) {
    let out = &mut replies[stream as usize];
    for (rec, bs) in recs.iter().zip(blocks) {
        out.extend(bs.iter().map(|&b| (rec.instr_id, b)));
    }
}

/// The per-record block vectors a frame's reply carries, if it is the
/// reply the frame asked for.
fn frame_blocks(resp: Response, records: usize) -> Option<Vec<Vec<u64>>> {
    match resp {
        Response::PrefetchBatch(v) if v.len() == records => Some(v),
        _ => None,
    }
}

/// Per-frame, per-record block vectors of one connection's replies.
type FrameBlocks = Vec<Vec<Vec<u64>>>;

/// One connection's (or in-process requester's) closed loop.
struct Drive {
    request_us: Vec<f64>,
    blocks: FrameBlocks,
    tally: Tally,
    error: Option<String>,
}

/// Sends `frames` one at a time, each after the previous reply.
fn drive(frames: &[Frame], mut send: impl FnMut(Request) -> io::Result<Response>) -> Drive {
    let mut d = Drive {
        request_us: Vec::with_capacity(frames.len()),
        blocks: Vec::with_capacity(frames.len()),
        tally: Tally::default(),
        error: None,
    };
    for frame in frames {
        let req = inputs::request(frame);
        let t = Instant::now();
        let resp = send(req);
        let dt = t.elapsed();
        match resp.map(|resp| frame_blocks(resp, frame.len())) {
            Ok(Some(blocks)) => {
                d.tally.record(true);
                d.request_us.push(dt.as_secs_f64() * 1e6);
                d.blocks.push(blocks);
            }
            Ok(None) => {
                d.tally.record(false);
                d.error
                    .get_or_insert_with(|| "access frame got a wrong reply".into());
            }
            Err(e) => {
                d.tally.record(false);
                d.error = Some(format!("access frame: {e}"));
                break;
            }
        }
    }
    d
}

/// What [`drive_all`] returns: the loop's wall time, every frame's
/// latency, each connection's reply blocks, and the connections.
type Driven<C> = (f64, Vec<f64>, Vec<FrameBlocks>, Vec<C>);

/// Runs one closed loop per connection, on at most two threads, and folds
/// the results.
fn drive_all<C: Send>(
    r: &mut Report,
    inp: &Inputs,
    conns: Vec<C>,
    send: impl Fn(&mut C, Request) -> io::Result<Response> + Sync,
) -> Result<Driven<C>, String> {
    assert!(conns.len() == inp.frames.len() && conns.len() <= 2);
    let t = Instant::now();
    let results: Vec<(Drive, C)> = std::thread::scope(|sc| {
        let mut conns = conns.into_iter().zip(&inp.frames);
        let (mut c0, f0) = conns.next().expect("one connection at least");
        let other = conns.next().map(|(mut c, f)| {
            let send = &send;
            sc.spawn(move || (drive(f, |q| send(&mut c, q)), c))
        });
        let first = (drive(f0, |q| send(&mut c0, q)), c0);
        std::iter::once(first)
            .chain(other.map(|h| h.join().expect("client thread panicked")))
            .collect()
    });
    let wall = t.elapsed().as_secs_f64();
    let mut request_us = Vec::new();
    let mut blocks = Vec::new();
    let mut conns = Vec::new();
    let mut error = None;
    for (d, c) in results {
        r.phase("access").add(d.tally);
        request_us.extend(d.request_us);
        blocks.push(d.blocks);
        error = error.or(d.error);
        conns.push(c);
    }
    match error {
        Some(e) => Err(e),
        None => Ok((wall, request_us, blocks, conns)),
    }
}

/// Per-stream schedules rebuilt from every connection's reply blocks.
fn replies(inp: &Inputs, blocks: &[FrameBlocks]) -> Replies {
    let mut out: Replies = vec![Vec::new(); inp.streams() as usize];
    for (frames, conn) in inp.frames.iter().zip(blocks) {
        for (frame, bs) in frames.iter().zip(conn) {
            for ((stream, rec), b) in frame.iter().zip(bs) {
                out[*stream as usize].extend(b.iter().map(|&x| (rec.instr_id, x)));
            }
        }
    }
    out
}

/// The protocol boundary, timed outside the closed loop on the frames the
/// socket round sent and the replies it got: `Request::encode` per frame and
/// `Response::decode` per reply, in nanoseconds. Each decoded reply must
/// equal the reply it was encoded from.
fn codec_level(r: &mut Report, inp: &Inputs, blocks: &[FrameBlocks]) -> (Vec<f64>, Vec<f64>) {
    let (mut encode_ns, mut decode_ns) = (Vec::new(), Vec::new());
    for (frames, conn) in inp.frames.iter().zip(blocks) {
        for (frame, bs) in frames.iter().zip(conn) {
            let req = inputs::request(frame);
            let t = Instant::now();
            let payload = req.encode();
            encode_ns.push(t.elapsed().as_nanos() as f64);
            std::hint::black_box(payload);
            let resp = Response::PrefetchBatch(bs.clone());
            let bytes = resp.encode();
            let t = Instant::now();
            let back = Response::decode(&bytes);
            decode_ns.push(t.elapsed().as_nanos() as f64);
            r.check(back.as_ref() == Ok(&resp), || {
                "protocol: a reply does not decode to itself".into()
            });
        }
    }
    (encode_ns, decode_ns)
}

/// A spawned daemon. Dropping it kills the process if it is still running
/// and removes its socket file.
struct Daemon {
    child: Option<Child>,
    socket: PathBuf,
}

impl Daemon {
    fn spawn(repro: &Path, socket: &Path) -> Result<Daemon, String> {
        let child = Command::new(repro)
            .arg("serve")
            .args(["--shards", "2", "--socket"])
            .arg(socket)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", repro.display()))?;
        Ok(Daemon {
            child: Some(child),
            socket: socket.to_path_buf(),
        })
    }

    fn pid(&self) -> u32 {
        self.child.as_ref().expect("daemon is running").id()
    }

    fn alive(&mut self) -> Result<(), String> {
        let child = self.child.as_mut().expect("daemon is running");
        match child.try_wait() {
            Ok(None) => Ok(()),
            Ok(Some(status)) => Err(format!("daemon exited early: {status}")),
            Err(e) => Err(format!("daemon wait: {e}")),
        }
    }

    /// Connects, retrying while the daemon has not bound its socket yet.
    fn connect(&mut self) -> Result<UnixClient, String> {
        let deadline = Instant::now() + DAEMON_TIMEOUT;
        loop {
            match UnixClient::connect(&self.socket) {
                Ok(c) => return Ok(c),
                Err(e) if Instant::now() >= deadline => {
                    return Err(format!("connect {}: {e}", self.socket.display()))
                }
                Err(_) => {
                    self.alive()?;
                    std::thread::sleep(Duration::from_micros(200));
                }
            }
        }
    }

    /// Waits for the daemon to exit after a full drain; it must exit with
    /// status 0 and remove its socket file.
    fn finish(mut self) -> Result<(), String> {
        let mut child = self.child.take().expect("daemon is running");
        let deadline = Instant::now() + DAEMON_TIMEOUT;
        let status = loop {
            match child.try_wait() {
                Ok(Some(status)) => break status,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Ok(None) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("daemon did not exit after the full drain".into());
                }
                Err(e) => return Err(format!("daemon wait: {e}")),
            }
        };
        if !status.success() {
            return Err(format!("daemon exited with {status}"));
        }
        if self.socket.exists() {
            return Err(format!("daemon left {} behind", self.socket.display()));
        }
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        let _ = std::fs::remove_file(&self.socket);
    }
}

/// Sends one control request and checks the reply's shape.
fn control(
    r: &mut Report,
    conn: &mut UnixClient,
    req: &Request,
    ok: impl Fn(&Response) -> bool,
) -> Result<Response, String> {
    let resp = conn.request(req).map_err(|e| format!("{req:?}: {e}"));
    let good = resp.as_ref().is_ok_and(&ok);
    r.phase("control").record(good);
    match resp {
        Ok(resp) if good => Ok(resp),
        Ok(resp) => Err(format!("{req:?} replied {resp:?}")),
        Err(e) => Err(e),
    }
}

/// One daemon's life at the socket boundary.
struct SocketRound {
    setup_s: f64,
    phase_s: f64,
    rtt_us: Vec<f64>,
    drain_ms: Vec<f64>,
    rss_mb: f64,
    status: Option<Snapshot>,
    blocks: Vec<FrameBlocks>,
}

/// Spawns a daemon, configures it, runs the access phase, drains every
/// stream and shuts it down, checking every reply against the referee.
/// With `traced`, it also reads the daemon's telemetry with `status` after
/// the access phase; the phase itself is timed the same either way.
fn socket_round(
    r: &mut Report,
    env: &Env,
    inp: &Inputs,
    traced: bool,
    round: usize,
) -> Result<SocketRound, String> {
    let tag = if traced { "traced" } else { "plain" };
    let socket = env.tmp.join(format!("{tag}-{round}.sock"));
    let level = format!("socket {tag} round {round}");

    let t0 = Instant::now();
    let mut daemon = Daemon::spawn(&env.repro, &socket)?;
    let mut conns = vec![daemon.connect()?];
    let status = Request::Status { stream: None };
    let is_status = |resp: &Response| matches!(resp, Response::Status(_));
    control(r, &mut conns[0], &status, is_status)?;
    let configure = Request::Configure(inputs::duty_delta());
    control(r, &mut conns[0], &configure, |resp| *resp == Response::Ok)?;
    let setup_s = t0.elapsed().as_secs_f64();
    while conns.len() < inp.frames.len() {
        // A status round trip makes sure the daemon accepted the connection
        // before the access phase starts timing it.
        let mut c = daemon.connect()?;
        control(r, &mut c, &status, is_status)?;
        conns.push(c);
    }

    let (phase_s, rtt_us, blocks, mut conns) = drive_all(r, inp, conns, |c, req| c.request(&req))?;
    inp.check_replies(r, &level, &replies(inp, &blocks));
    let rss_mb = common::vm_hwm_mb(daemon.pid())?;
    let snapshot = if traced {
        match control(r, &mut conns[0], &status, is_status)? {
            Response::Status(s) => Some(common::snapshot_from_json(&s.telemetry_json)?),
            _ => unreachable!("control checked the reply shape"),
        }
    } else {
        None
    };

    let mut drain_ms = Vec::with_capacity(inp.expected.len());
    for stream in 0..inp.streams() {
        let t = Instant::now();
        let resp = conns[0].request(&Request::Drain {
            stream: Some(stream),
        });
        let dt = t.elapsed().as_secs_f64() * 1e3;
        match resp {
            Ok(Response::Drained(d)) if d.len() == 1 && d[0].stream == stream => {
                r.phase("drain").record(true);
                drain_ms.push(dt);
                inp.check_drained(r, &level, &d[0]);
            }
            Ok(other) => {
                r.phase("drain").record(false);
                return Err(format!("drain {stream} replied {other:?}"));
            }
            Err(e) => {
                r.phase("drain").record(false);
                return Err(format!("drain {stream}: {e}"));
            }
        }
    }
    let all = Request::Drain { stream: None };
    control(
        r,
        &mut conns[0],
        &all,
        |resp| matches!(resp, Response::Drained(rest) if rest.is_empty()),
    )?;
    drop(conns);
    let finished = daemon.finish();
    r.phase("shutdown").record(finished.is_ok());
    finished?;
    Ok(SocketRound {
        setup_s,
        phase_s,
        rtt_us,
        drain_ms,
        rss_mb,
        status: snapshot,
        blocks,
    })
}

/// The untraced run: daemon rounds until `seconds` of measuring elapsed.
pub fn run(spec: &Spec, seed: u64, seconds: f64, env: &Env) -> Report {
    let mut r = Report::default();
    let inp = Inputs::new(spec, seed);
    r.notes.push(format!("digest {:016x}", inp.digest()));
    let mut rounds = Vec::new();
    let budget = Duration::from_secs_f64(seconds);
    let mut measured = Duration::ZERO;
    while rounds.len() < 2 || measured < budget {
        let t = Instant::now();
        match socket_round(&mut r, env, &inp, false, rounds.len()) {
            Ok(round) => rounds.push(round),
            Err(e) => {
                r.check(false, || e);
                return r;
            }
        }
        measured += t.elapsed();
    }
    for (name, v) in client_figures(&mut r, &rounds.iter().collect::<Vec<_>>()) {
        r.notes
            .push(format!("{name} = {v:.3} (median over rounds)"));
    }
    let rounds: Vec<common::Round> = rounds
        .iter()
        .map(|x| common::Round {
            setup_s: x.setup_s,
            accesses: inp.accesses,
            seconds: x.phase_s,
        })
        .collect();
    common::round_metrics(&mut r, &rounds);
    r
}

/// The client-side figures of daemon rounds, each the median over rounds
/// of that round's figure: frame round trip p50 and p99 (by the tail
/// rule), per-stream `drain` p50, and the daemon's VmHWM at the end of the
/// access phase. One note per round gives its sample counts.
fn client_figures(r: &mut Report, rounds: &[&SocketRound]) -> [(&'static str, f64); 4] {
    for (i, x) in rounds.iter().enumerate() {
        if let (Some(p50), Some(p99)) = (tail(&x.rtt_us, 50.0), tail(&x.rtt_us, 99.0)) {
            r.notes.push(format!(
                "round {i}: {}; drain p50 {:.3} ms (n={}); daemon VmHWM {:.1} MB",
                common::tail_note("frame rtt", "us", &p50, &p99),
                median(&x.drain_ms),
                x.drain_ms.len(),
                x.rss_mb
            ));
        }
    }
    let per =
        |f: &dyn Fn(&SocketRound) -> f64| median(&rounds.iter().map(|&x| f(x)).collect::<Vec<_>>());
    let p99 = |x: &SocketRound| tail(&x.rtt_us, 99.0).map_or(0.0, |t| t.value);
    [
        ("serve.rtt_p50_us", per(&|x| median(&x.rtt_us))),
        ("serve.rtt_p99_us", per(&p99)),
        ("serve.drain_p50_ms", per(&|x| median(&x.drain_ms))),
        ("serve.peak_rss_mb", per(&|x| x.rss_mb)),
    ]
}

/// The engine boundary, in-process: a 2-shard `ServeEngine` with one
/// sticky `Requester` per client thread. Returns the access-phase wall
/// time and per-frame latencies.
fn engine_level(r: &mut Report, inp: &Inputs) -> Result<(f64, Vec<f64>), String> {
    let engine = ServeEngine::with_template(inp.template.clone(), 2);
    let requesters: Vec<_> = inp.frames.iter().map(|_| engine.requester()).collect();
    let (wall, frame_us, blocks, mut requesters) =
        drive_all(r, inp, requesters, |rq, req| Ok(rq.request(req)))?;
    inp.check_replies(r, "engine", &replies(inp, &blocks));
    for stream in 0..inp.streams() {
        match requesters[0].request(Request::Drain {
            stream: Some(stream),
        }) {
            Response::Drained(d) if d.len() == 1 => {
                r.phase("drain").record(true);
                inp.check_drained(r, "engine", &d[0]);
            }
            other => {
                r.phase("drain").record(false);
                return Err(format!("engine drain {stream} replied {other:?}"));
            }
        }
    }
    let rest = requesters[0].request(Request::Drain { stream: None });
    r.phase("control")
        .record(matches!(rest, Response::Drained(ref v) if v.is_empty()));
    Ok((wall, frame_us))
}

/// One shard's share of the frames: contiguous same-stream runs in send
/// order (connections interleaved frame by frame).
struct Run {
    stream: u64,
    recs: Vec<AccessRecord>,
    accesses: Vec<MemoryAccess>,
}

fn shard_work(inp: &Inputs) -> [Vec<Run>; 2] {
    let mut work: [Vec<Run>; 2] = [Vec::new(), Vec::new()];
    let longest = inp.frames.iter().map(Vec::len).max().unwrap_or(0);
    for i in 0..longest {
        for frame in inp.frames.iter().filter_map(|c| c.get(i)) {
            for chunk in frame.chunk_by(|a, b| a.0 == b.0) {
                let recs: Vec<AccessRecord> = chunk.iter().map(|&(_, rec)| rec).collect();
                let stream = chunk[0].0;
                work[(stream % 2) as usize].push(Run {
                    stream,
                    accesses: recs.iter().map(inputs::access).collect(),
                    recs,
                });
            }
        }
    }
    work
}

/// Per-shard-thread timings at an in-process boundary.
#[derive(Default)]
struct ShardTimes {
    busy_ns: f64,
    snapshot: Snapshot,
}

/// Runs `body` for shard 0 on this thread and shard 1 on one more, like the
/// daemon's two shard workers. Returns the wall time and both results.
fn on_two_shards<T: Send>(
    work: &[Vec<Run>; 2],
    body: impl Fn(&[Run]) -> T + Sync,
) -> (f64, [T; 2]) {
    let t = Instant::now();
    let out = std::thread::scope(|sc| {
        let body = &body;
        let h = sc.spawn(move || body(&work[1]));
        let first = body(&work[0]);
        [first, h.join().expect("shard thread panicked")]
    });
    (t.elapsed().as_secs_f64(), out)
}

/// The stream boundary: one `StreamSession` per stream, fed run by run.
/// Returns the access-phase wall time, the per-thread timings, and the
/// per-stream drain times in ms.
fn stream_level(
    r: &mut Report,
    inp: &Inputs,
    work: &[Vec<Run>; 2],
) -> (f64, [ShardTimes; 2], Vec<f64>) {
    let (wall, shards) = on_two_shards(work, |runs| {
        let mut sessions: BTreeMap<u64, StreamSession> = BTreeMap::new();
        let mut times = ShardTimes::default();
        let mut replies: Replies = vec![Vec::new(); inp.streams() as usize];
        for run in runs {
            let session = sessions.entry(run.stream).or_insert_with(|| {
                StreamSession::new(run.stream, &inp.template).expect("the template is valid")
            });
            let t = Instant::now();
            let blocks: Vec<Vec<Block>> = session.access_run(&run.recs).0;
            let ns = t.elapsed().as_nanos() as f64;
            times.busy_ns += ns;
            let blocks: Vec<Vec<u64>> = blocks
                .into_iter()
                .map(|bs| bs.into_iter().map(|b| b.0).collect())
                .collect();
            absorb(&mut replies, run.stream, &run.recs, &blocks);
        }
        (times, sessions, replies)
    });
    let mut replies: Replies = vec![Vec::new(); inp.streams() as usize];
    let mut drain_ms = Vec::new();
    let [(t0, s0, r0), (t1, s1, r1)] = shards;
    for (all, part) in replies.iter_mut().zip(r0.into_iter().zip(r1)) {
        all.extend(part.0);
        all.extend(part.1);
    }
    inp.check_replies(r, "stream", &replies);
    for (_, session) in s0.into_iter().chain(s1) {
        let t = Instant::now();
        let drained = session.drain();
        drain_ms.push(t.elapsed().as_secs_f64() * 1e3);
        inp.check_drained(r, "stream", &drained);
    }
    (wall, [t0, t1], drain_ms)
}

/// The prefetcher boundary: `on_access_run` per run, with the stream's
/// dedup and degree cap around it and
/// the drain's replay after. Returns the access-phase wall time, the
/// per-thread timings (with telemetry), and the total replay seconds.
fn core_level(r: &mut Report, inp: &Inputs, work: &[Vec<Run>; 2]) -> (f64, [ShardTimes; 2], f64) {
    struct Stream {
        pf: PathfinderPrefetcher,
        trace: Trace,
        schedule: Vec<PrefetchRequest>,
    }
    let degree = inp.template.sim.max_prefetch_degree;
    let (wall, shards) = on_two_shards(work, |runs| {
        let mut streams: BTreeMap<u64, Stream> = BTreeMap::new();
        let (mut times, snapshot) = telemetry::capture(|| {
            let mut times = ShardTimes::default();
            for run in runs {
                let st = streams.entry(run.stream).or_insert_with(|| Stream {
                    pf: PathfinderPrefetcher::new(inp.template.config_for_stream(run.stream))
                        .expect("the template is valid"),
                    trace: Trace::new(),
                    schedule: Vec::new(),
                });
                let t = Instant::now();
                let blocks = st.pf.on_access_run(&run.accesses);
                let ns = t.elapsed().as_nanos() as f64;
                times.busy_ns += ns;
                for (a, bs) in run.accesses.iter().zip(blocks) {
                    common::issue(&mut st.schedule, a.instr_id, bs, degree);
                    st.trace.push(*a);
                }
            }
            times
        });
        times.snapshot = snapshot;
        (times, streams)
    });
    let [(t0, s0), (t1, s1)] = shards;
    let mut replay_s = 0.0;
    for (stream, st) in s0.into_iter().chain(s1) {
        let t = Instant::now();
        let report = Simulator::new(inp.template.sim).run(&st.trace, &st.schedule);
        replay_s += t.elapsed().as_secs_f64();
        let got = Expected {
            schedule: st
                .schedule
                .iter()
                .map(|p| (p.trigger_instr_id, p.block.0))
                .collect(),
            report,
            pf: *st.pf.stats(),
        };
        r.check(got == inp.expected[stream as usize], || {
            format!("core: stream {stream} differs from the batch run")
        });
    }
    (wall, [t0, t1], replay_s)
}

/// One pass over every boundary, outermost first.
struct Rep {
    sock: SocketRound,
    encode_ns: Vec<f64>,
    decode_ns: Vec<f64>,
    engine_wall: f64,
    frame_us: Vec<f64>,
    stream_wall: f64,
    stream: [ShardTimes; 2],
    drain_ms: Vec<f64>,
    core_wall: f64,
    core: [ShardTimes; 2],
    replay_s: f64,
}

fn rep(
    r: &mut Report,
    env: &Env,
    inp: &Inputs,
    work: &[Vec<Run>; 2],
    i: usize,
) -> Result<Rep, String> {
    let mut sock = socket_round(r, env, inp, true, i)?;
    let (encode_ns, decode_ns) = codec_level(r, inp, &std::mem::take(&mut sock.blocks));
    let (engine_wall, frame_us) = engine_level(r, inp)?;
    let (stream_wall, stream, drain_ms) = stream_level(r, inp, work);
    let (core_wall, core, replay_s) = core_level(r, inp, work);
    Ok(Rep {
        sock,
        encode_ns,
        decode_ns,
        engine_wall,
        frame_us,
        stream_wall,
        stream,
        drain_ms,
        core_wall,
        core,
        replay_s,
    })
}

fn busy(shards: &[ShardTimes; 2]) -> f64 {
    shards.iter().map(|t| t.busy_ns).sum()
}

/// The traced run: passes of a daemon round (which reads `status` after its
/// access phase), the protocol timing on that round's frames and replies,
/// then the engine, stream and core boundaries in-process on the same
/// frames, until `seconds` have elapsed (at least [`peel::MIN_PASSES`]).
/// Each boundary's wall time is its median over the passes.
pub fn traced(spec: &Spec, seed: u64, seconds: f64, env: &Env) -> Report {
    let mut r = Report::default();
    let inp = Inputs::new(spec, seed);
    r.notes.push(format!("digest {:016x}", inp.digest()));
    let work = shard_work(&inp);
    let mut reps = Vec::new();
    let started = Instant::now();
    while reps.len() < peel::MIN_PASSES || started.elapsed().as_secs_f64() < seconds {
        match rep(&mut r, env, &inp, &work, reps.len()) {
            Ok(x) => reps.push(x),
            Err(e) => {
                r.check(false, || e);
                return r;
            }
        }
    }
    let med = |f: &dyn Fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let pool = |f: &dyn Fn(&Rep) -> &[f64]| -> Vec<f64> {
        reps.iter().flat_map(|x| f(x).iter().copied()).collect()
    };

    let acc = inp.accesses;
    let per = |wall: f64| wall * 1e9 / acc;
    let layers = peel::chain(&[
        per(med(&|x| x.sock.phase_s)),
        per(med(&|x| x.engine_wall)),
        per(med(&|x| x.stream_wall)),
        per(med(&|x| x.core_wall)),
    ]);
    let mut core_snap = Snapshot::default();
    for t in reps.iter().flat_map(|x| &x.core) {
        core_snap.merge(&t.snapshot);
    }
    let core_busy: f64 = reps.iter().map(|x| busy(&x.core)).sum();
    let (snn, core) = peel::split(layers[3], common::snn_time_ns(&core_snap), core_busy);
    let selfs = [
        ("budget.socket_ns", layers[0]),
        ("budget.engine_ns", layers[1]),
        ("budget.stream_ns", layers[2]),
        ("budget.core_ns", core),
        ("budget.snn_ns", snn),
    ];
    // The socket boundary is timed exactly as in the untraced run, so the
    // traced and untraced figures are one and the same.
    let e2e = per(med(&|x| x.sock.phase_s));
    common::budget(&mut r, e2e, e2e, &selfs);

    let last = reps.last().expect("at least one pass ran");
    let status = last.sock.status.clone().unwrap_or_default();
    let pf: Vec<PathfinderStats> = inp.expected.iter().map(|e| e.pf).collect();
    let reports: Vec<SimReport> = inp.expected.iter().map(|e| e.report.clone()).collect();
    r.set("traces.generate_s", inp.tracegen_s);
    r.set("prefetch.self_s", 0.0);
    r.set("core.on_access_p50_ns", 0.0);
    r.set("core.on_access_p99_ns", 0.0);
    r.set(
        "core.on_access_run_ns_per_access",
        med(&|x| busy(&x.core)) / acc,
    );
    r.set(
        "serve.stream.access_run_ns_per_access",
        med(&|x| busy(&x.stream)) / acc,
    );
    common::core_metrics(&mut r, &pf, &status);
    common::snn_metrics(&mut r, &status);
    common::sim_metrics(&mut r, &reports, med(&|x| x.replay_s));

    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    r.set("serve.protocol.encode_ns", mean(&pool(&|x| &x.encode_ns)));
    r.set("serve.protocol.decode_ns", mean(&pool(&|x| &x.decode_ns)));
    let socks: Vec<&SocketRound> = reps.iter().map(|x| &x.sock).collect();
    for (name, v) in client_figures(&mut r, &socks) {
        r.set(name, v);
    }
    let rtt = pool(&|x| &x.sock.rtt_us);
    let frame_us = pool(&|x| &x.frame_us);
    let drain_ms = pool(&|x| &x.drain_ms);
    let (rtt_p50, frame_p50) = (median(&rtt), median(&frame_us));
    r.set("serve.socket.self_p50_us", rtt_p50 - frame_p50);
    r.set("serve.engine.frame_p50_us", frame_p50);
    let verb = "serve.latency.access_batch";
    let latency = status.histogram(verb).cloned().unwrap_or_default();
    r.notes.push(format!(
        "{verb}: n={} p50 {} ns p99 {} ns (log2 bucket bounds)",
        latency.count, latency.p50, latency.p99
    ));
    r.set("serve.engine.latency_p50_us", latency.p50 as f64 / 1e3);
    r.set("serve.engine.latency_p99_us", latency.p99 as f64 / 1e3);
    r.set(
        "serve.shard.burst_p50",
        status
            .histogram("serve.shard.burst")
            .map_or(0.0, |h| h.p50 as f64),
    );
    r.set(
        "serve.batch.inference_grouped",
        status.counter("serve.batch.inference_grouped") as f64,
    );
    r.set("serve.stream.drain_ms", median(&drain_ms));
    r.notes.push(format!(
        "passes {}; frames: socket n={} engine n={}; stream drains n={}",
        reps.len(),
        rtt.len(),
        frame_us.len(),
        drain_ms.len(),
    ));
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Spec {
        Spec {
            streams: 4,
            loads: 48,
            ..inputs::spec("serve-batch").unwrap()
        }
    }

    #[test]
    fn in_process_boundaries_match_the_referee() {
        let inp = Inputs::new(&tiny(), 5);
        let mut r = Report::default();
        let work = shard_work(&inp);
        engine_level(&mut r, &inp).unwrap();
        stream_level(&mut r, &inp, &work);
        core_level(&mut r, &inp, &work);
        assert!(r.errors.is_empty(), "{:?}", r.errors);
        assert!(r.correct());
    }

    #[test]
    fn a_diverging_drain_fails_the_check() {
        let inp = Inputs::new(&tiny(), 5);
        let mut session = StreamSession::new(1, &inp.template).unwrap();
        for (s, rec) in inp.frames.iter().flatten().flatten() {
            if *s == 1 {
                session.access(*rec);
            }
        }
        let mut drained = session.drain();
        let mut r = Report::default();
        inp.check_drained(&mut r, "test", &drained);
        assert!(r.errors.is_empty(), "{:?}", r.errors);
        drained.schedule.push((0, 0));
        inp.check_drained(&mut r, "test", &drained);
        assert_eq!(r.errors.len(), 1);
    }
}
