//! The four named workloads and the inputs they generate from the seed.
//!
//! Everything the program sees is made here: Table-5 traces and, for the
//! served workloads, the exact frame sequence each connection sends. The
//! same seed gives byte-identical frames.

use pathfinder_serve::{AccessRecord, ConfigDelta, Request};
use pathfinder_sim::{MemoryAccess, Trace};
use pathfinder_traces::Workload;

/// The Table-5 generators every workload draws its traces from.
pub const TRACES: [Workload; 4] = [
    Workload::Cc5,
    Workload::Mcf,
    Workload::Sphinx,
    Workload::Omnetpp,
];

/// Records per stream in one `access_batch` frame; a frame carries two
/// streams, so 32 records.
pub const RUN_PER_STREAM: usize = 16;

/// How a workload uses the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// In-process paper pipeline; `duty` selects the §5 duty cycle.
    Paper { duty: bool },
    /// Socket-served streams, `access_batch` frames over two connections.
    Serve,
}

/// One named workload and its size.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Workload name as the command line takes it.
    pub name: &'static str,
    /// What it drives.
    pub kind: Kind,
    /// Traces (paper) or streams (serve).
    pub streams: u64,
    /// Loads per trace or stream.
    pub loads: usize,
}

/// Every workload the benchmark knows.
pub const SPECS: [Spec; 3] = [
    Spec {
        name: "paper-learn",
        kind: Kind::Paper { duty: false },
        streams: 4,
        loads: 16_000,
    },
    Spec {
        name: "paper-duty",
        kind: Kind::Paper { duty: true },
        streams: 4,
        loads: 20_000,
    },
    Spec {
        name: "serve-batch",
        kind: Kind::Serve,
        streams: 64,
        loads: 10_000,
    },
];

/// Looks a workload up by name.
pub fn spec(name: &str) -> Option<Spec> {
    SPECS.iter().copied().find(|s| s.name == name)
}

/// The §5 duty cycle (STDP on for the first 250 of every 5000 accesses)
/// with the frozen-query cache on, as a `configure` delta. The paper-duty
/// configuration and the serve template are both built from it.
pub fn duty_delta() -> ConfigDelta {
    ConfigDelta {
        duty: Some((250, 5000)),
        snn_cache_entries: Some(1024),
        ..ConfigDelta::default()
    }
}

/// splitmix64: decorrelates per-stream trace seeds from the run seed.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The trace of stream (or paper cell) `stream`: generator
/// `TRACES[stream % 4]`, seeded from the run seed and the stream id.
pub fn stream_trace(seed: u64, stream: u64, loads: usize) -> Trace {
    let workload = TRACES[(stream % TRACES.len() as u64) as usize];
    workload.generate(loads, mix(seed ^ mix(stream)))
}

/// Every stream's trace for `spec`, indexed by stream id.
pub fn traces(spec: &Spec, seed: u64) -> Vec<Trace> {
    (0..spec.streams)
        .map(|s| stream_trace(seed, s, spec.loads))
        .collect()
}

/// The wire form of one demand load.
pub fn record(a: &MemoryAccess) -> AccessRecord {
    AccessRecord {
        instr_id: a.instr_id,
        pc: a.pc.0,
        vaddr: a.vaddr.0,
        depends_on_prev: a.depends_on_prev,
    }
}

/// The simulator form of a wire record.
pub fn access(rec: &AccessRecord) -> MemoryAccess {
    let a = MemoryAccess::new(rec.instr_id, rec.pc, rec.vaddr);
    if rec.depends_on_prev {
        a.dependent()
    } else {
        a
    }
}

/// One frame's records, `(stream, load)` in send order.
pub type Frame = Vec<(u64, AccessRecord)>;

/// The frames each connection sends, in order.
///
/// Streams `2p` and `2p + 1` (shards 0 and 1 of a 2-shard daemon) form pair
/// `p`; connection `p % 2` owns the pair. Each of its frames holds the next
/// 16 records of both streams, and frames cycle over the pairs so every
/// stream stays live for the whole phase.
pub fn frames(traces: &[Trace]) -> Vec<Vec<Frame>> {
    let recs: Vec<Vec<AccessRecord>> = traces
        .iter()
        .map(|t| t.accesses().iter().map(record).collect())
        .collect();
    let loads = recs.first().map_or(0, Vec::len);
    let pairs = recs.len() / 2;
    (0..2)
        .map(|conn| {
            let mut out = Vec::new();
            for off in (0..loads).step_by(RUN_PER_STREAM) {
                let end = (off + RUN_PER_STREAM).min(loads);
                for p in (conn..pairs).step_by(2) {
                    let mut frame = Frame::with_capacity(2 * RUN_PER_STREAM);
                    for s in [2 * p, 2 * p + 1] {
                        frame.extend(recs[s][off..end].iter().map(|&r| (s as u64, r)));
                    }
                    out.push(frame);
                }
            }
            out
        })
        .collect()
}

/// The request a frame is sent as.
pub fn request(frame: &Frame) -> Request {
    Request::AccessBatch {
        accesses: frame.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Spec {
        Spec {
            streams: 8,
            loads: 64,
            ..spec("serve-batch").unwrap()
        }
    }

    fn wire(spec: &Spec, seed: u64) -> Vec<Vec<Vec<u8>>> {
        frames(&traces(spec, seed))
            .iter()
            .map(|conn| conn.iter().map(|f| request(f).encode()).collect())
            .collect()
    }

    #[test]
    fn same_seed_gives_byte_identical_frames() {
        assert_eq!(wire(&small(), 7), wire(&small(), 7));
    }

    #[test]
    fn another_seed_gives_different_frames() {
        assert_ne!(wire(&small(), 7), wire(&small(), 8));
    }

    #[test]
    fn paper_traces_follow_the_seed() {
        let s = spec("paper-duty").unwrap();
        let s = Spec { loads: 200, ..s };
        assert_eq!(traces(&s, 1), traces(&s, 1));
        assert_ne!(traces(&s, 1), traces(&s, 2));
    }

    #[test]
    fn batch_frames_pair_streams_on_different_shards() {
        let s = small();
        let conns = frames(&traces(&s, 3));
        assert_eq!(conns.len(), 2);
        let mut seen = vec![0usize; s.streams as usize];
        for (c, conn) in conns.iter().enumerate() {
            for f in conn {
                assert_eq!(f.len(), 2 * RUN_PER_STREAM);
                let (a, b) = (f[0].0, f[RUN_PER_STREAM].0);
                assert_eq!((a % 2, b, (a / 2) % 2), (0, a + 1, c as u64));
                for &(stream, _) in f {
                    seen[stream as usize] += 1;
                }
            }
        }
        assert!(seen.iter().all(|&n| n == s.loads), "every record sent once");
    }
}
