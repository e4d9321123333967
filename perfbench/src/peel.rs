//! Layer-peel arithmetic.
//!
//! The traced run replays identical inputs at successive public boundaries,
//! outermost first. Each boundary's time includes every layer below it, so
//! a layer's self time is its boundary's time minus the next boundary's.
//! Whatever the traced boundaries do not account for of the untraced
//! end-to-end figure is reported as `other`, never dropped.

/// The fewest times a traced run passes over its sequence of boundaries;
/// it keeps passing until `--seconds` have elapsed. Each boundary's time is
/// its median over the passes.
pub const MIN_PASSES: usize = 3;

/// Self times of nested boundaries, given their inclusive times outermost
/// first: `inclusive[i] - inclusive[i + 1]`, and the innermost whole.
/// Noise can make a difference negative; it is reported as measured.
pub fn chain(inclusive: &[f64]) -> Vec<f64> {
    inclusive
        .iter()
        .enumerate()
        .map(|(i, &t)| t - inclusive.get(i + 1).copied().unwrap_or(0.0))
        .collect()
}

/// Splits `whole` into the part `part_busy / busy` of it and the rest:
/// how a wall-clock figure divides when a timer inside it saw `part_busy`
/// of the `busy` time the calls spent.
pub fn split(whole: f64, part_busy: f64, busy: f64) -> (f64, f64) {
    let part = if busy > 0.0 {
        whole * (part_busy / busy).clamp(0.0, 1.0)
    } else {
        0.0
    };
    (part, whole - part)
}

/// The remainder that makes `selfs` sum to `e2e`.
pub fn other(e2e: f64, selfs: &[f64]) -> f64 {
    e2e - selfs.iter().sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_differences_adjacent_boundaries() {
        assert_eq!(chain(&[10.0, 7.0, 3.0]), vec![3.0, 4.0, 3.0]);
        assert_eq!(chain(&[5.0]), vec![5.0]);
        assert!(chain(&[]).is_empty());
    }

    #[test]
    fn chain_sums_to_the_outermost_boundary() {
        let inclusive = [123.5, 98.25, 40.0, 39.5];
        let s: f64 = chain(&inclusive).iter().sum();
        assert!((s - 123.5).abs() < 1e-9);
    }

    #[test]
    fn noise_can_make_a_self_time_negative_and_it_is_kept() {
        assert_eq!(chain(&[10.0, 11.0]), vec![-1.0, 11.0]);
    }

    #[test]
    fn selfs_plus_other_equal_the_end_to_end_figure() {
        let selfs = chain(&[90.0, 60.0, 20.0]);
        let rest = other(100.0, &selfs);
        assert_eq!(rest, 10.0);
        assert_eq!(selfs.iter().sum::<f64>() + rest, 100.0);
        // A traced run slower than the untraced one leaves a negative
        // remainder: the tracing overhead, shown rather than hidden.
        assert_eq!(other(100.0, &chain(&[104.0, 50.0])), -4.0);
    }

    #[test]
    fn split_divides_by_the_busy_share() {
        assert_eq!(split(100.0, 30.0, 60.0), (50.0, 50.0));
        assert_eq!(split(100.0, 0.0, 0.0), (0.0, 100.0));
        assert_eq!(split(100.0, 90.0, 60.0), (100.0, 0.0));
    }
}
