//! The sharded serving engine: stream-affine worker pool + request routing.
//!
//! Streams are sharded by `stream_id % shards` onto persistent worker
//! threads, each owning its streams outright (no locks on the hot path) and
//! processing its inbox serially — which is exactly what preserves per-stream
//! access order, and with it the bit-identical-to-batch guarantee from
//! [`crate::stream`]. This generalizes the harness's atomic-cursor worker
//! pool from "grid cells pulled off a shared cursor" to "live streams pinned
//! to a shard": grid cells are finished work items, streams are long-lived
//! state, so affinity replaces work stealing.
//!
//! # The batched hot path
//!
//! Three layers amortize the per-access round trip:
//!
//! * **Burst-drained inboxes** — a worker blocks on its first message, then
//!   `try_recv`s the rest of the pending queue and processes the whole burst
//!   before replying. Within a contiguous run of access-shaped messages,
//!   records are grouped by stream (each stream's arrival order untouched)
//!   so one stream's duty-cycled frozen queries run back-to-back with warm
//!   weights and shared scratch. Reordering *across* streams inside such a
//!   run is unobservable — no reply depends on another stream's state — so
//!   the bit-identical-to-batch parity survives grouping.
//! * **`access_batch` frames** — [`Request::AccessBatch`] carries N records
//!   in one frame; the engine scatters them to their shards (one message per
//!   shard, not per record) and gathers the parts back into one reply.
//! * **Sticky connections** — a [`Requester`] owns long-lived reply channels
//!   reused across requests (no per-request `mpsc::channel` allocation), and
//!   a batch whose records all map to one shard is handed to that shard
//!   directly, skipping the scatter/gather bookkeeping entirely.
//!
//! The engine is transport-agnostic: [`ServeEngine::request`] takes a typed
//! [`Request`] and returns a typed [`Response`], so tests drive it in-process
//! over the same code path the Unix-socket server uses.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pathfinder_telemetry::{counter, histogram, Histogram, HistogramSnapshot, Snapshot};

use crate::protocol::{
    AccessRecord, DrainedStream, Request, Response, ServeStatus, StreamStatus, MAX_BATCH_RECORDS,
};
use crate::stream::{StreamSession, StreamTemplate};

/// Most messages a worker drains into one burst. Bounds how long the first
/// sender in a burst waits for its reply when the inbox is flooded.
const MAX_BURST: usize = 256;

/// How often a waiting requester rechecks its shard worker's liveness.
/// Workers reply to every message (even refused ones), so this only fires
/// after a worker panic.
const REPLY_POLL: Duration = Duration::from_millis(25);

/// What a shard reports for a daemon-wide `status`.
#[derive(Debug, Clone)]
struct ShardReport {
    /// Live streams on the shard.
    streams: u64,
    /// Accesses ingested on the shard, including already-drained streams.
    accesses: u64,
    /// Schedule entries produced on the shard, including drained streams.
    schedule_len: u64,
    /// The shard thread's ambient telemetry snapshot.
    telemetry: Snapshot,
}

/// One `access_batch` record routed to a shard: the reply slot it fills,
/// its stream, and the load itself.
type BatchItem = (u32, u64, AccessRecord);

/// A shard's share of an `access_batch` reply: `(slot, blocks)` pairs, or
/// the error that failed the whole frame.
type BatchPart = Result<Vec<(u32, Vec<u64>)>, String>;

/// Messages the engine sends its shard workers. Each request-shaped message
/// carries its own reply channel, so concurrent connection threads can wait
/// on their own replies without coordinating.
enum ShardMsg {
    AccessBatch {
        items: Vec<BatchItem>,
        reply: Sender<BatchPart>,
    },
    Predict {
        stream: u64,
        reply: Sender<Response>,
    },
    Train {
        stream: u64,
        accesses: Vec<AccessRecord>,
        reply: Sender<Response>,
    },
    StreamStatus {
        stream: u64,
        reply: Sender<Response>,
    },
    ShardStatus {
        reply: Sender<ShardReport>,
    },
    SetTemplate(Box<StreamTemplate>),
    DrainStream {
        stream: u64,
        reply: Sender<Response>,
    },
    DrainAll {
        reply: Sender<Vec<DrainedStream>>,
    },
    Stop,
}

struct ShardHandle {
    tx: Sender<ShardMsg>,
    join: Mutex<Option<JoinHandle<()>>>,
}

impl ShardHandle {
    /// Whether the worker thread has exited (panicked or stopped). A
    /// requester waiting on a reusable reply channel uses this to avoid
    /// blocking forever on a reply that can no longer come.
    fn finished(&self) -> bool {
        self.join
            .lock()
            .expect("join lock")
            .as_ref()
            .is_none_or(|j| j.is_finished())
    }
}

/// Engine-boundary latency histogram names, one per verb, indexed by
/// [`verb_index`]. Surfaced in the daemon-wide `status` telemetry JSON so
/// round-trip vs inference cost is observable without a bench run.
const VERB_LATENCY: [&str; 7] = [
    "serve.latency.access",
    "serve.latency.access_batch",
    "serve.latency.predict",
    "serve.latency.train",
    "serve.latency.status",
    "serve.latency.configure",
    "serve.latency.drain",
];

fn verb_index(req: &Request) -> usize {
    match req {
        Request::Access { .. } => 0,
        Request::AccessBatch { .. } => 1,
        Request::Predict { .. } => 2,
        Request::Train { .. } => 3,
        Request::Status { .. } => 4,
        Request::Configure(_) => 5,
        Request::Drain { .. } => 6,
    }
}

/// The daemon core: a bounded pool of stream-affine shard workers.
pub struct ServeEngine {
    shards: Vec<ShardHandle>,
    template: Mutex<StreamTemplate>,
    draining: AtomicBool,
    /// Request latency at the engine boundary, one histogram per verb
    /// (nanoseconds), merged into daemon-wide `status`.
    latency: Mutex<[Histogram; VERB_LATENCY.len()]>,
}

impl std::fmt::Debug for ServeEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeEngine")
            .field("shards", &self.shards.len())
            .field("draining", &self.draining.load(Ordering::Relaxed))
            .finish()
    }
}

impl ServeEngine {
    /// Starts an engine with `shards` workers and the default template.
    pub fn new(shards: usize) -> Self {
        ServeEngine::with_template(StreamTemplate::default(), shards)
    }

    /// Starts an engine with `shards` workers built from `template`.
    /// `shards` is clamped to at least 1.
    pub fn with_template(template: StreamTemplate, shards: usize) -> Self {
        let n = shards.max(1);
        let shards = (0..n as u32)
            .map(|shard_id| {
                let (tx, rx) = mpsc::channel();
                let tmpl = template.clone();
                let join = std::thread::Builder::new()
                    .name(format!("pf-serve-shard-{shard_id}"))
                    .spawn(move || shard_worker(shard_id, tmpl, rx))
                    .expect("spawn shard worker");
                ShardHandle {
                    tx,
                    join: Mutex::new(Some(join)),
                }
            })
            .collect();
        ServeEngine {
            shards,
            template: Mutex::new(template),
            draining: AtomicBool::new(false),
            latency: Mutex::new(std::array::from_fn(|_| Histogram::new())),
        }
    }

    /// Number of shard workers.
    pub fn shards(&self) -> u32 {
        self.shards.len() as u32
    }

    /// Whether a full drain has completed: the daemon no longer serves and
    /// its transport loop should exit.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    fn shard_index(&self, stream: u64) -> usize {
        (stream % self.shards.len() as u64) as usize
    }

    /// Creates a [`Requester`]: the per-connection handle whose reply
    /// channels live as long as the connection, so the per-request
    /// `mpsc::channel` allocation disappears from the hot path. Each
    /// transport connection (and each bench client thread) should hold one.
    pub fn requester(&self) -> Requester<'_> {
        let (reply_tx, reply_rx) = mpsc::channel();
        let (part_tx, part_rx) = mpsc::channel();
        Requester {
            engine: self,
            reply_tx,
            reply_rx,
            part_tx,
            part_rx,
        }
    }

    /// Serves one typed request. This is the single entry point shared by
    /// the Unix-socket transport and in-process tests. One-shot convenience:
    /// callers on a hot path should hold a [`Requester`] instead, which
    /// reuses its reply channels across requests.
    pub fn request(&self, req: Request) -> Response {
        self.requester().request(req)
    }

    fn record_latency(&self, verb: usize, elapsed: Duration) {
        let nanos = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        self.latency.lock().expect("latency lock")[verb].record(nanos);
    }

    /// Applies a `configure` delta to the template and pushes the new
    /// template to every shard.
    fn configure(&self, delta: crate::protocol::ConfigDelta) -> Response {
        let mut template = self.template.lock().expect("template lock");
        match template.apply(&delta) {
            Ok(()) => {
                for shard in &self.shards {
                    // A closed inbox just means that shard already
                    // stopped; configure is best-effort then.
                    let _ = shard
                        .tx
                        .send(ShardMsg::SetTemplate(Box::new(template.clone())));
                }
                Response::Ok
            }
            Err(e) => Response::Error(format!("invalid configuration: {e}")),
        }
    }

    /// Daemon-wide `status`: fan out to every shard, merge the reports,
    /// and fold in the engine-boundary latency histograms.
    fn daemon_status(&self) -> Response {
        let mut receivers = Vec::with_capacity(self.shards.len());
        for shard in &self.shards {
            let (tx, rx) = mpsc::channel();
            if shard.tx.send(ShardMsg::ShardStatus { reply: tx }).is_ok() {
                receivers.push(rx);
            }
        }
        let mut streams = 0u64;
        let mut accesses = 0u64;
        let mut schedule_len = 0u64;
        let mut telemetry = Snapshot::default();
        for rx in receivers {
            if let Ok(report) = rx.recv() {
                streams += report.streams;
                accesses += report.accesses;
                schedule_len += report.schedule_len;
                telemetry.merge(&report.telemetry);
            }
        }
        {
            let latency = self.latency.lock().expect("latency lock");
            for (name, h) in VERB_LATENCY.iter().zip(latency.iter()) {
                if h.count() > 0 {
                    telemetry
                        .histograms
                        .insert((*name).to_string(), HistogramSnapshot::from_histogram(h));
                }
            }
        }
        Response::Status(ServeStatus {
            shards: self.shards(),
            streams,
            accesses,
            schedule_len,
            telemetry_json: telemetry.to_json(),
        })
    }

    /// Full drain: every stream on every shard is finished (timed replay +
    /// final stats), the workers stop, and the engine flags itself as
    /// draining so the transport loop shuts down.
    fn drain_all(&self) -> Response {
        self.draining.store(true, Ordering::SeqCst);
        let mut receivers = Vec::with_capacity(self.shards.len());
        for shard in &self.shards {
            let (tx, rx) = mpsc::channel();
            if shard.tx.send(ShardMsg::DrainAll { reply: tx }).is_ok() {
                receivers.push(rx);
            }
        }
        let mut drained: Vec<DrainedStream> = Vec::new();
        for rx in receivers {
            if let Ok(mut streams) = rx.recv() {
                drained.append(&mut streams);
            }
        }
        drained.sort_by_key(|s| s.stream);
        for shard in &self.shards {
            let _ = shard.tx.send(ShardMsg::Stop);
            if let Some(join) = shard.join.lock().expect("join lock").take() {
                let _ = join.join();
            }
        }
        Response::Drained(drained)
    }
}

impl Drop for ServeEngine {
    fn drop(&mut self) {
        // Stop workers that a full drain never reached (abandoned engine).
        for shard in &self.shards {
            let _ = shard.tx.send(ShardMsg::Stop);
        }
        for shard in &self.shards {
            if let Some(join) = shard.join.lock().expect("join lock").take() {
                let _ = join.join();
            }
        }
    }
}

/// A sticky per-connection (or per-thread) handle on the engine.
///
/// Owns one long-lived reply channel per reply shape, reused across every
/// request it serves — the per-request `mpsc::channel` allocation the
/// original `roundtrip` paid is gone. Because the requester keeps its own
/// sender half alive, a dead worker can no longer unblock it by
/// disconnecting the channel; workers therefore actively reply to every
/// message they refuse, and the requester polls worker liveness as a
/// panic backstop.
pub struct Requester<'a> {
    engine: &'a ServeEngine,
    reply_tx: Sender<Response>,
    reply_rx: Receiver<Response>,
    part_tx: Sender<BatchPart>,
    part_rx: Receiver<BatchPart>,
}

impl std::fmt::Debug for Requester<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Requester")
            .field("engine", self.engine)
            .finish()
    }
}

impl Requester<'_> {
    /// Serves one typed request, recording its engine-boundary latency.
    pub fn request(&mut self, req: Request) -> Response {
        let verb = verb_index(&req);
        let start = Instant::now();
        let resp = self.dispatch(req);
        self.engine.record_latency(verb, start.elapsed());
        resp
    }

    fn dispatch(&mut self, req: Request) -> Response {
        match req {
            // A singleton access is a one-record frame; only the reply
            // shape differs.
            Request::Access { stream, access } => match self.access_batch(vec![(stream, access)]) {
                Response::PrefetchBatch(mut blocks) => {
                    Response::Prefetches(blocks.pop().unwrap_or_default())
                }
                other => other,
            },
            Request::AccessBatch { accesses } => self.access_batch(accesses),
            Request::Predict { stream } => {
                let msg = ShardMsg::Predict {
                    stream,
                    reply: self.reply_tx.clone(),
                };
                self.roundtrip(stream, msg)
            }
            Request::Train { stream, accesses } => {
                let msg = ShardMsg::Train {
                    stream,
                    accesses,
                    reply: self.reply_tx.clone(),
                };
                self.roundtrip(stream, msg)
            }
            Request::Status {
                stream: Some(stream),
            } => {
                let msg = ShardMsg::StreamStatus {
                    stream,
                    reply: self.reply_tx.clone(),
                };
                self.roundtrip(stream, msg)
            }
            Request::Status { stream: None } => self.engine.daemon_status(),
            Request::Configure(delta) => self.engine.configure(delta),
            Request::Drain {
                stream: Some(stream),
            } => {
                let msg = ShardMsg::DrainStream {
                    stream,
                    reply: self.reply_tx.clone(),
                };
                self.roundtrip(stream, msg)
            }
            Request::Drain { stream: None } => self.engine.drain_all(),
        }
    }

    /// Sends a per-stream message to its shard and waits on the reusable
    /// reply channel.
    fn roundtrip(&mut self, stream: u64, msg: ShardMsg) -> Response {
        let shard = self.engine.shard_index(stream);
        if self.engine.shards[shard].tx.send(msg).is_err() {
            return Response::Error("daemon is draining".into());
        }
        loop {
            match self.reply_rx.recv_timeout(REPLY_POLL) {
                Ok(resp) => return resp,
                Err(RecvTimeoutError::Timeout) => {
                    if self.engine.shards[shard].finished() {
                        // The worker may have replied just before exiting.
                        return self
                            .reply_rx
                            .try_recv()
                            .unwrap_or_else(|_| Response::Error("shard worker exited".into()));
                    }
                }
                Err(RecvTimeoutError::Disconnected) => {
                    // Unreachable while `self.reply_tx` is alive; defensive.
                    return Response::Error("shard worker exited".into());
                }
            }
        }
    }

    /// Scatter an `access_batch` frame to its shards (one message per
    /// shard), gather the parts, reassemble the reply in request order.
    /// When every record maps to one shard — the sticky-connection case —
    /// the whole frame goes to that shard directly.
    fn access_batch(&mut self, accesses: Vec<(u64, AccessRecord)>) -> Response {
        let n = accesses.len();
        if n == 0 {
            return Response::PrefetchBatch(Vec::new());
        }
        if n > MAX_BATCH_RECORDS {
            // The wire decoder already rejects these; this guards
            // in-process callers.
            return Response::Error(format!(
                "access_batch of {n} records exceeds the {MAX_BATCH_RECORDS}-record cap"
            ));
        }
        let nshards = self.engine.shards.len() as u64;
        let first_shard = (accesses[0].0 % nshards) as usize;
        let sticky = accesses
            .iter()
            .all(|(stream, _)| (stream % nshards) as usize == first_shard);

        let mut sent: Vec<usize> = Vec::new();
        let mut send_failed = false;
        if sticky {
            let items: Vec<BatchItem> = accesses
                .into_iter()
                .enumerate()
                .map(|(slot, (stream, rec))| (slot as u32, stream, rec))
                .collect();
            let msg = ShardMsg::AccessBatch {
                items,
                reply: self.part_tx.clone(),
            };
            if self.engine.shards[first_shard].tx.send(msg).is_ok() {
                sent.push(first_shard);
            } else {
                send_failed = true;
            }
        } else {
            let mut per_shard: Vec<Vec<BatchItem>> = vec![Vec::new(); nshards as usize];
            for (slot, (stream, rec)) in accesses.into_iter().enumerate() {
                per_shard[(stream % nshards) as usize].push((slot as u32, stream, rec));
            }
            for (idx, items) in per_shard.into_iter().enumerate() {
                if items.is_empty() {
                    continue;
                }
                let msg = ShardMsg::AccessBatch {
                    items,
                    reply: self.part_tx.clone(),
                };
                if self.engine.shards[idx].tx.send(msg).is_err() {
                    send_failed = true;
                    break;
                }
                sent.push(idx);
            }
        }

        let mut out: Vec<Vec<u64>> = vec![Vec::new(); n];
        let collected = self.collect_parts(&sent, &mut out);
        match collected {
            Ok(()) if !send_failed => Response::PrefetchBatch(out),
            Ok(()) => Response::Error("daemon is draining".into()),
            Err(e) => {
                // A part may never arrive (worker panic) or may arrive
                // late; start the next request from fresh channels so no
                // stale part can leak into it.
                let (part_tx, part_rx) = mpsc::channel();
                self.part_tx = part_tx;
                self.part_rx = part_rx;
                Response::Error(e)
            }
        }
    }

    /// Waits for one part per shard in `sent`, scattering block vectors
    /// into their reply slots. Keeps collecting after a failed part so the
    /// reusable channel ends the frame empty.
    fn collect_parts(&mut self, sent: &[usize], out: &mut [Vec<u64>]) -> Result<(), String> {
        let mut failure: Option<String> = None;
        for _ in 0..sent.len() {
            let part = loop {
                match self.part_rx.recv_timeout(REPLY_POLL) {
                    Ok(part) => break part,
                    Err(RecvTimeoutError::Timeout) => {
                        if sent.iter().any(|&idx| self.engine.shards[idx].finished()) {
                            // A worker died mid-frame; grab whatever
                            // arrived, then give up on the rest.
                            match self.part_rx.try_recv() {
                                Ok(part) => break part,
                                Err(_) => {
                                    return Err(
                                        failure.unwrap_or_else(|| "shard worker exited".into())
                                    )
                                }
                            }
                        }
                    }
                    Err(RecvTimeoutError::Disconnected) => {
                        return Err(failure.unwrap_or_else(|| "shard worker exited".into()));
                    }
                }
            };
            match part {
                Ok(slots) => {
                    for (slot, blocks) in slots {
                        if let Some(o) = out.get_mut(slot as usize) {
                            *o = blocks;
                        }
                    }
                }
                Err(e) => failure = Some(e),
            }
        }
        match failure {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

/// A unit of access-shaped work inside one burst: a shard's share of an
/// `access_batch` frame (a singleton `access` is a one-record frame) and
/// the channel its part goes back on. Collected into contiguous runs so
/// [`flush_run`] can group records by stream.
type AccessWork = (Vec<BatchItem>, Sender<BatchPart>);

/// One borrow point for lazy stream creation, shared by access + train.
fn session_mut<'a>(
    streams: &'a mut HashMap<u64, StreamSession>,
    stream: u64,
    template: &StreamTemplate,
) -> Result<&'a mut StreamSession, String> {
    use std::collections::hash_map::Entry;
    match streams.entry(stream) {
        Entry::Occupied(e) => Ok(e.into_mut()),
        Entry::Vacant(e) => {
            counter!("serve.streams_created", 1);
            Ok(e.insert(StreamSession::new(stream, template)?))
        }
    }
}

/// One grouped entry of a flushed run: the stream, its records in arrival
/// order, and each record's origin as `(work index, reply slot)`.
type RunGroup = (u64, Vec<AccessRecord>, Vec<(usize, u32)>);

/// Processes one contiguous run of access-shaped messages: groups records
/// by stream (first-appearance order, per-stream arrival order untouched),
/// runs each stream's records back-to-back through its session — the warm
/// path for duty-cycled frozen inference — then sends every deferred reply.
fn flush_run(
    run: &mut Vec<AccessWork>,
    streams: &mut HashMap<u64, StreamSession>,
    template: &StreamTemplate,
    total_accesses: &mut u64,
    total_schedule: &mut u64,
) {
    if run.is_empty() {
        return;
    }
    let mut batch_records = 0u64;
    // stream -> position in `groups`.
    let mut index: HashMap<u64, usize> = HashMap::new();
    let mut groups: Vec<RunGroup> = Vec::new();
    {
        let mut push = |stream: u64, rec: AccessRecord, origin: (usize, u32)| {
            let at = *index.entry(stream).or_insert_with(|| {
                groups.push((stream, Vec::new(), Vec::new()));
                groups.len() - 1
            });
            groups[at].1.push(rec);
            groups[at].2.push(origin);
        };
        for (wi, (items, _)) in run.iter().enumerate() {
            batch_records += items.len() as u64;
            for &(slot, stream, rec) in items {
                push(stream, rec, (wi, slot));
            }
        }
    }
    counter!("serve.batch.frames", run.len() as u64);
    counter!("serve.batch.accesses", batch_records);

    let mut results: Vec<Vec<(u32, Vec<u64>)>> = run
        .iter()
        .map(|(items, _)| Vec::with_capacity(items.len()))
        .collect();
    let mut failures: Vec<Option<String>> = vec![None; run.len()];

    for (stream, recs, origins) in groups {
        match session_mut(streams, stream, template) {
            Ok(session) => {
                let (blocks, grouped_inferences) = session.access_run(&recs);
                if recs.len() > 1 {
                    counter!("serve.batch.inference_grouped", grouped_inferences);
                }
                let issued: u64 = blocks.iter().map(|b| b.len() as u64).sum();
                counter!("serve.accesses", recs.len() as u64);
                counter!("serve.prefetches", issued);
                *total_accesses += recs.len() as u64;
                *total_schedule += issued;
                for ((wi, slot), bl) in origins.into_iter().zip(blocks) {
                    results[wi].push((slot, bl.into_iter().map(|b| b.0).collect()));
                }
            }
            Err(e) => {
                for (wi, _) in origins {
                    failures[wi].get_or_insert_with(|| e.clone());
                }
            }
        }
    }

    for (((_, reply), result), failure) in run.drain(..).zip(results).zip(failures) {
        let part = match failure {
            Some(e) => Err(e),
            None => Ok(result),
        };
        let _ = reply.send(part);
    }
}

/// Replies to a message a stopping worker will not serve. Requesters hold
/// reusable reply channels, so a dropped message would leave them waiting
/// forever — every refusal must be an explicit reply.
fn refuse(msg: ShardMsg) {
    let draining = "daemon is draining";
    match msg {
        ShardMsg::Predict { reply, .. }
        | ShardMsg::Train { reply, .. }
        | ShardMsg::StreamStatus { reply, .. }
        | ShardMsg::DrainStream { reply, .. } => {
            let _ = reply.send(Response::Error(draining.into()));
        }
        ShardMsg::AccessBatch { reply, .. } => {
            let _ = reply.send(Err(draining.into()));
        }
        // Status/drain fan-outs use per-call channels; dropping the sender
        // disconnects them, which their receivers already treat as "shard
        // gone". Template pushes and stops carry no reply.
        ShardMsg::ShardStatus { .. }
        | ShardMsg::DrainAll { .. }
        | ShardMsg::SetTemplate(_)
        | ShardMsg::Stop => {}
    }
}

/// The shard worker loop: owns this shard's streams and drains its inbox in
/// bursts — block on the first message, `try_recv` the rest, process the
/// whole burst (grouping contiguous access-shaped runs by stream), then
/// reply. Per-stream order is preserved throughout, so the
/// bit-identical-to-batch guarantee is untouched.
fn shard_worker(shard_id: u32, mut template: StreamTemplate, rx: Receiver<ShardMsg>) {
    let mut streams: HashMap<u64, StreamSession> = HashMap::new();
    // Totals survive per-stream drains so daemon-wide `status` keeps
    // counting work already finished.
    let mut total_accesses = 0u64;
    let mut total_schedule = 0u64;
    let mut burst: Vec<ShardMsg> = Vec::with_capacity(MAX_BURST);
    let mut run: Vec<AccessWork> = Vec::new();

    'serve: loop {
        match rx.recv() {
            Ok(msg) => burst.push(msg),
            Err(_) => break 'serve,
        }
        while burst.len() < MAX_BURST {
            match rx.try_recv() {
                Ok(msg) => burst.push(msg),
                Err(_) => break,
            }
        }
        histogram!("serve.shard.burst", burst.len() as u64);

        let mut stopping = false;
        for msg in burst.drain(..) {
            if stopping {
                refuse(msg);
                continue;
            }
            match msg {
                ShardMsg::AccessBatch { items, reply } => run.push((items, reply)),
                other => {
                    // A non-access verb ends the contiguous access run:
                    // flush it first so message order is preserved.
                    flush_run(
                        &mut run,
                        &mut streams,
                        &template,
                        &mut total_accesses,
                        &mut total_schedule,
                    );
                    match other {
                        ShardMsg::Stop => stopping = true,
                        ShardMsg::Predict { stream, reply } => {
                            let resp = match streams.get(&stream) {
                                Some(session) => Response::Prefetches(
                                    session.last_prediction().iter().map(|b| b.0).collect(),
                                ),
                                None => Response::Error(format!("unknown stream {stream}")),
                            };
                            let _ = reply.send(resp);
                        }
                        ShardMsg::Train {
                            stream,
                            accesses,
                            reply,
                        } => {
                            let resp = match session_mut(&mut streams, stream, &template) {
                                Ok(session) => {
                                    let n = accesses.len() as u64;
                                    let (blocks, _) = session.access_run(&accesses);
                                    let prefetched: u64 =
                                        blocks.iter().map(|b| b.len() as u64).sum();
                                    counter!("serve.accesses", n);
                                    counter!("serve.prefetches", prefetched);
                                    total_accesses += n;
                                    total_schedule += prefetched;
                                    Response::Trained {
                                        accesses: n,
                                        prefetched,
                                    }
                                }
                                Err(e) => Response::Error(e),
                            };
                            let _ = reply.send(resp);
                        }
                        ShardMsg::StreamStatus { stream, reply } => {
                            let resp = match streams.get(&stream) {
                                Some(session) => Response::Stream(StreamStatus {
                                    stream,
                                    shard: shard_id,
                                    accesses: session.accesses(),
                                    schedule_len: session.schedule_len(),
                                    last_prediction: session
                                        .last_prediction()
                                        .iter()
                                        .map(|b| b.0)
                                        .collect(),
                                    pf: session.stats(),
                                }),
                                None => Response::Error(format!("unknown stream {stream}")),
                            };
                            let _ = reply.send(resp);
                        }
                        ShardMsg::ShardStatus { reply } => {
                            let _ = reply.send(ShardReport {
                                streams: streams.len() as u64,
                                accesses: total_accesses,
                                schedule_len: total_schedule,
                                telemetry: pathfinder_telemetry::snapshot(),
                            });
                        }
                        ShardMsg::SetTemplate(new_template) => {
                            template = *new_template;
                        }
                        ShardMsg::DrainStream { stream, reply } => {
                            let resp = match streams.remove(&stream) {
                                Some(session) => {
                                    counter!("serve.drains", 1);
                                    Response::Drained(vec![session.drain()])
                                }
                                None => Response::Error(format!("unknown stream {stream}")),
                            };
                            let _ = reply.send(resp);
                        }
                        ShardMsg::DrainAll { reply } => {
                            let mut ids: Vec<u64> = streams.keys().copied().collect();
                            ids.sort_unstable();
                            let drained: Vec<DrainedStream> = ids
                                .into_iter()
                                .filter_map(|id| streams.remove(&id))
                                .map(|session| {
                                    counter!("serve.drains", 1);
                                    session.drain()
                                })
                                .collect();
                            let _ = reply.send(drained);
                        }
                        ShardMsg::AccessBatch { .. } => unreachable!(),
                    }
                }
            }
        }
        flush_run(
            &mut run,
            &mut streams,
            &template,
            &mut total_accesses,
            &mut total_schedule,
        );
        if stopping {
            // Refuse whatever is still queued before dropping the inbox so
            // no requester is left waiting on a reusable channel.
            while let Ok(msg) = rx.try_recv() {
                refuse(msg);
            }
            break 'serve;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(i: u64) -> AccessRecord {
        AccessRecord {
            instr_id: i * 2,
            pc: 0x400,
            vaddr: i * 64,
            depends_on_prev: false,
        }
    }

    #[test]
    fn verbs_round_trip_through_the_pool() {
        let engine = ServeEngine::new(3);
        assert_eq!(engine.shards(), 3);

        // Unknown stream: predict/status/drain all error.
        assert!(matches!(
            engine.request(Request::Predict { stream: 7 }),
            Response::Error(_)
        ));
        assert!(matches!(
            engine.request(Request::Status { stream: Some(7) }),
            Response::Error(_)
        ));
        assert!(matches!(
            engine.request(Request::Drain { stream: Some(7) }),
            Response::Error(_)
        ));

        // Accesses create the stream lazily and echo the issued blocks.
        for i in 0..50 {
            let resp = engine.request(Request::Access {
                stream: 7,
                access: rec(i),
            });
            let Response::Prefetches(blocks) = resp else {
                panic!("access reply was {resp:?}");
            };
            let Response::Prefetches(predicted) = engine.request(Request::Predict { stream: 7 })
            else {
                panic!("predict failed")
            };
            assert_eq!(blocks, predicted, "predict reads back the last access");
        }

        let Response::Stream(status) = engine.request(Request::Status { stream: Some(7) }) else {
            panic!("stream status failed")
        };
        assert_eq!(status.accesses, 50);
        assert_eq!(status.shard, 7 % 3);
        assert_eq!(status.pf.accesses, 50);

        // Train on a second stream; daemon-wide status sums both.
        let Response::Trained { accesses, .. } = engine.request(Request::Train {
            stream: 8,
            accesses: (0..30).map(rec).collect(),
        }) else {
            panic!("train failed")
        };
        assert_eq!(accesses, 30);
        let Response::Status(daemon) = engine.request(Request::Status { stream: None }) else {
            panic!("daemon status failed")
        };
        assert_eq!(daemon.streams, 2);
        assert_eq!(daemon.accesses, 80);
        assert_eq!(daemon.shards, 3);

        // Per-stream drain removes the stream; totals persist.
        let Response::Drained(drained) = engine.request(Request::Drain { stream: Some(7) }) else {
            panic!("drain failed")
        };
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].stream, 7);
        assert_eq!(drained[0].pf.accesses, 50);
        assert!(matches!(
            engine.request(Request::Status { stream: Some(7) }),
            Response::Error(_)
        ));
        let Response::Status(daemon) = engine.request(Request::Status { stream: None }) else {
            panic!("daemon status failed")
        };
        assert_eq!(daemon.streams, 1);
        assert_eq!(daemon.accesses, 80, "drained work still counted");

        // Full drain returns the remaining stream and shuts the pool down.
        let Response::Drained(rest) = engine.request(Request::Drain { stream: None }) else {
            panic!("full drain failed")
        };
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].stream, 8);
        assert!(engine.is_draining());
        assert!(matches!(
            engine.request(Request::Predict { stream: 8 }),
            Response::Error(_)
        ));
    }

    #[test]
    fn configure_applies_to_new_streams_only() {
        let engine = ServeEngine::new(2);
        engine.request(Request::Access {
            stream: 1,
            access: rec(0),
        });
        // Invalid delta is rejected without changing anything.
        assert!(matches!(
            engine.request(Request::Configure(crate::protocol::ConfigDelta {
                degree: Some(0),
                ..Default::default()
            })),
            Response::Error(_)
        ));
        // Valid delta: new streams see it.
        assert!(matches!(
            engine.request(Request::Configure(crate::protocol::ConfigDelta {
                duty: Some((250, 5000)),
                ..Default::default()
            })),
            Response::Ok
        ));
        engine.request(Request::Access {
            stream: 2,
            access: rec(0),
        });
        let Response::Status(daemon) = engine.request(Request::Status { stream: None }) else {
            panic!("status failed")
        };
        assert_eq!(daemon.streams, 2);
    }

    #[test]
    fn access_batch_matches_singleton_accesses_slot_for_slot() {
        // Two engines, same template: one fed a cross-stream batch frame,
        // one fed the equivalent singleton sequence. Replies must agree
        // slot for slot, and predict must read back each stream's last
        // record.
        let batch_engine = ServeEngine::new(2);
        let single_engine = ServeEngine::new(2);
        let records: Vec<(u64, AccessRecord)> = (0..40u64).map(|i| (i % 3, rec(i / 3))).collect();

        let mut requester = batch_engine.requester();
        let Response::PrefetchBatch(batched) = requester.request(Request::AccessBatch {
            accesses: records.clone(),
        }) else {
            panic!("access_batch failed")
        };
        assert_eq!(batched.len(), records.len());

        for (i, (stream, access)) in records.iter().enumerate() {
            let Response::Prefetches(blocks) = single_engine.request(Request::Access {
                stream: *stream,
                access: *access,
            }) else {
                panic!("singleton access failed")
            };
            assert_eq!(batched[i], blocks, "slot {i} diverged");
        }

        // Per-stream predict agrees across both engines.
        for stream in 0..3u64 {
            let a = batch_engine.request(Request::Predict { stream });
            let b = single_engine.request(Request::Predict { stream });
            assert_eq!(a, b);
        }

        // Empty batches are a no-op, not an error.
        assert_eq!(
            batch_engine.request(Request::AccessBatch {
                accesses: Vec::new()
            }),
            Response::PrefetchBatch(Vec::new())
        );
    }

    #[test]
    fn requester_reuses_channels_across_verbs_and_survives_drain() {
        let engine = ServeEngine::new(2);
        let mut requester = engine.requester();
        for i in 0..20 {
            let resp = requester.request(Request::Access {
                stream: 4,
                access: rec(i),
            });
            assert!(matches!(resp, Response::Prefetches(_)));
        }
        // Sticky single-shard batch (stream 4 only) takes the direct path.
        let resp = requester.request(Request::AccessBatch {
            accesses: (20..30).map(|i| (4, rec(i))).collect(),
        });
        let Response::PrefetchBatch(parts) = resp else {
            panic!("sticky batch failed")
        };
        assert_eq!(parts.len(), 10);

        let Response::Stream(status) = requester.request(Request::Status { stream: Some(4) })
        else {
            panic!("status failed")
        };
        assert_eq!(status.accesses, 30);

        // Full drain through the same requester, then further requests on
        // it fail cleanly instead of hanging on the reusable channel.
        let Response::Drained(drained) = requester.request(Request::Drain { stream: None }) else {
            panic!("drain failed")
        };
        assert_eq!(drained.len(), 1);
        assert!(matches!(
            requester.request(Request::Access {
                stream: 4,
                access: rec(99),
            }),
            Response::Error(_)
        ));
        assert!(matches!(
            requester.request(Request::AccessBatch {
                accesses: vec![(4, rec(100))],
            }),
            Response::Error(_)
        ));
    }

    #[test]
    fn status_surfaces_engine_boundary_latency_histograms() {
        let engine = ServeEngine::new(1);
        let mut requester = engine.requester();
        requester.request(Request::Access {
            stream: 0,
            access: rec(0),
        });
        requester.request(Request::AccessBatch {
            accesses: vec![(0, rec(1)), (0, rec(2))],
        });
        let Response::Status(status) = requester.request(Request::Status { stream: None }) else {
            panic!("status failed")
        };
        assert!(
            status.telemetry_json.contains("serve.latency.access"),
            "status JSON missing access latency: {}",
            status.telemetry_json
        );
        assert!(
            status.telemetry_json.contains("serve.latency.access_batch"),
            "status JSON missing batch latency: {}",
            status.telemetry_json
        );
    }

    #[test]
    #[cfg_attr(
        not(feature = "telemetry"),
        ignore = "snn.frozen.batch counters need the telemetry feature (on in workspace builds)"
    )]
    fn status_surfaces_frozen_batch_counters() {
        // Duty-cycle learning off after 50 accesses so the burst-drained
        // batch's tail runs as one frozen segment, whose cache-missing
        // queries dispatch through `present_frozen_batch` — visible in the
        // merged status JSON as the snn.frozen.batch family, alongside the
        // serve.batch.* counters.
        let engine = ServeEngine::new(1);
        let mut requester = engine.requester();
        assert!(matches!(
            requester.request(Request::Configure(crate::protocol::ConfigDelta {
                duty: Some((50, 5000)),
                ..Default::default()
            })),
            Response::Ok
        ));
        // Varied strides across a few PCs/pages: enough fresh pixel
        // matrices that the frozen segment has several compute lanes.
        let accesses: Vec<(u64, AccessRecord)> = (0..300u64)
            .map(|i| {
                (
                    0,
                    AccessRecord {
                        instr_id: i * 3,
                        pc: 0x400 + (i % 4) * 8,
                        vaddr: i * 64 + if i % 17 == 0 { 4096 } else { 0 },
                        depends_on_prev: i % 5 == 0,
                    },
                )
            })
            .collect();
        requester.request(Request::AccessBatch { accesses });
        let Response::Status(status) = requester.request(Request::Status { stream: None }) else {
            panic!("status failed")
        };
        for key in [
            "snn.frozen.batch.calls",
            "snn.frozen.batch.queries",
            "snn.frozen.batch.lanes",
        ] {
            assert!(
                status.telemetry_json.contains(key),
                "status JSON missing {key}: {}",
                status.telemetry_json
            );
        }
    }

    #[test]
    fn oversized_in_process_batch_is_refused() {
        let engine = ServeEngine::new(1);
        let accesses = vec![(0u64, rec(0)); MAX_BATCH_RECORDS + 1];
        assert!(matches!(
            engine.request(Request::AccessBatch { accesses }),
            Response::Error(_)
        ));
    }
}
