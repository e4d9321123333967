//! Summary statistics and digests shared by every workload.

/// Median of `xs` (mean of the middle two for an even count); 0 if empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A percentile read from a sample set under the tail rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile actually reported (at most the one asked for).
    pub pct: f64,
    /// Its value (nearest-rank).
    pub value: f64,
    /// Samples in the set.
    pub n: usize,
    /// Samples strictly above the reported rank.
    pub beyond: usize,
}

/// Samples a reported tail percentile must have beyond it.
pub const MIN_BEYOND: usize = 10;

/// Percentiles the tail rule may fall back to, highest first.
const LADDER: [f64; 9] = [99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0, 0.0];

/// Nearest-rank `pct` percentile of sorted samples: `(value, beyond)`.
fn nearest_rank(sorted: &[f64], pct: f64) -> (f64, usize) {
    let n = sorted.len();
    let rank = ((pct / 100.0) * n as f64).ceil().max(1.0) as usize;
    (sorted[rank - 1], n - rank)
}

/// The highest percentile at or below `want` that leaves at least
/// [`MIN_BEYOND`] samples beyond it. `want = 50` gives the median rank; a
/// set too small for any ladder step reports its minimum (`pct = 0`).
/// Returns `None` for an empty set.
pub fn tail(samples: &[f64], want: f64) -> Option<Tail> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    for pct in std::iter::once(want).chain(LADDER.into_iter().filter(|&p| p < want)) {
        let (value, beyond) = nearest_rank(&sorted, pct);
        if beyond >= MIN_BEYOND || pct == 0.0 {
            return Some(Tail {
                pct,
                value,
                n,
                beyond,
            });
        }
    }
    unreachable!("the ladder ends at 0, which always qualifies")
}

/// Incremental FNV-1a digest over `u64` words, for schedule+report
/// fingerprints printed per workload.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one word in.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds a slice of words in, length first.
    pub fn words(&mut self, ws: &[u64]) {
        self.word(ws.len() as u64);
        for &w in ws {
            self.word(w);
        }
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn p99_is_kept_when_ten_samples_lie_beyond_it() {
        // 1000 samples 1..=1000: rank 990 is 990.0, with 10 above it.
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&xs, 99.0).unwrap();
        assert_eq!((t.pct, t.value, t.n, t.beyond), (99.0, 990.0, 1000, 10));
    }

    #[test]
    fn tail_falls_back_to_the_highest_percentile_with_ten_beyond() {
        // 100 samples: p99 leaves 1 beyond, p95 leaves 5, p90 leaves 10.
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&xs, 99.0).unwrap();
        assert_eq!((t.pct, t.value, t.beyond), (90.0, 90.0, 10));
        // 999 samples: p99 rank is ceil(989.01) = 990, leaving 9 — too few.
        let xs: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(tail(&xs, 99.0).unwrap().pct, 98.0);
    }

    #[test]
    fn tiny_sets_report_their_minimum_and_empty_sets_nothing() {
        let t = tail(&[5.0, 7.0, 6.0], 99.0).unwrap();
        assert_eq!((t.pct, t.value, t.n, t.beyond), (0.0, 5.0, 3, 2));
        assert!(tail(&[], 50.0).is_none());
    }

    #[test]
    fn median_rank_needs_twenty_samples() {
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        let t = tail(&xs, 50.0).unwrap();
        assert_eq!((t.pct, t.value, t.beyond), (50.0, 10.0, 10));
    }

    #[test]
    fn digest_is_order_and_length_sensitive() {
        let d = |ws: &[&[u64]]| {
            let mut d = Digest::default();
            for w in ws {
                d.words(w);
            }
            d.value()
        };
        assert_eq!(d(&[&[1, 2]]), d(&[&[1, 2]]));
        assert_ne!(d(&[&[1, 2]]), d(&[&[2, 1]]));
        assert_ne!(d(&[&[1], &[2]]), d(&[&[1, 2]]));
    }
}
