//! The benchmark's own arithmetic: percentiles, span self time, and the
//! reconciliation of a layer sum against a wall time.

/// Samples that must lie beyond a percentile before it is reported: below
/// this the percentile is a handful of outliers, not a tail.
pub const MIN_BEYOND: usize = 10;

/// The `p`-th percentile (0 < p < 100) by nearest rank. Sorts `samples`.
/// Refuses when fewer than [`MIN_BEYOND`] samples lie above the chosen rank.
pub fn percentile(samples: &mut [f64], p: f64) -> Result<f64, String> {
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    if rank == 0 || n - rank.min(n) < MIN_BEYOND {
        return Err(format!("p{p} needs {MIN_BEYOND} samples beyond it, {n} samples given"));
    }
    Ok(samples[rank - 1])
}

/// The median (mean of the two middle values for an even count). Sorts
/// `samples`; `None` when empty.
pub fn median(samples: &mut [f64]) -> Option<f64> {
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(samples[n / 2]),
        _ => Some((samples[n / 2 - 1] + samples[n / 2]) / 2.0),
    }
}

/// The mean, or 0 for no samples (a layer the workload never entered).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// A span's self time: its duration minus the part of its interval that
/// its children cover. Children may nest, overlap or touch; each instant is
/// subtracted once, and parts of a child outside the parent are ignored.
pub fn self_time(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (start, end) = parent;
    let mut clipped: Vec<(u64, u64)> =
        children.iter().map(|&(s, e)| (s.max(start), e.min(end))).filter(|&(s, e)| s < e).collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (s, e) in clipped {
        if e > reach {
            covered += e - s.max(reach);
            reach = e;
        }
    }
    (end - start) - covered
}

/// Splits a wall time into the share its measured layers account for and
/// the remainder; the two always add up to 1. A layer sum above the wall
/// time (layers measured apart can exceed a wall measured together) gives a
/// share above 1 and a negative remainder instead of being clamped away.
pub fn reconcile(wall_ns: f64, layer_sum_ns: f64) -> (f64, f64) {
    let share = ratio(layer_sum_ns, wall_ns);
    (share, 1.0 - share)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v: Vec<f64> = (1..=400).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 50.0), Ok(200.0));
        assert_eq!(percentile(&mut v, 95.0), Ok(380.0));
    }

    #[test]
    fn percentile_refuses_a_thin_tail() {
        // 199 samples leave 9 beyond p95, 200 leave exactly 10.
        let mut short: Vec<f64> = (1..=199).map(f64::from).collect();
        assert!(percentile(&mut short, 95.0).is_err());
        let mut enough: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&mut enough, 95.0), Ok(190.0));
        assert!(percentile(&mut [], 50.0).is_err());
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&mut []), None);
    }

    #[test]
    fn self_time_subtracts_adjacent_children() {
        assert_eq!(self_time((0, 100), &[(10, 20), (20, 50)]), 60);
    }

    #[test]
    fn self_time_counts_nested_and_overlapping_children_once() {
        // (30, 40) nests inside (10, 60); (50, 80) overlaps it.
        assert_eq!(self_time((0, 100), &[(10, 60), (30, 40), (50, 80)]), 30);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        assert_eq!(self_time((10, 20), &[(0, 12), (18, 30), (40, 50)]), 6);
        assert_eq!(self_time((10, 20), &[]), 10);
    }

    #[test]
    fn layer_sum_and_remainder_add_up_to_one() {
        for (wall, layers) in [(1000.0, 640.0), (1000.0, 1000.0), (1000.0, 1200.0), (7.0, 0.0)] {
            let (share, rest) = reconcile(wall, layers);
            assert!((share + rest - 1.0).abs() < 1e-12);
        }
        assert_eq!(reconcile(1000.0, 250.0), (0.25, 0.75));
    }
}
