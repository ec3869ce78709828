//! Order statistics over samples: the nearest-rank percentile every
//! timing is reported with, and the quartiles `compare` judges spread by.

/// The nearest-rank `p`-th percentile (`0 < p <= 100`) of `sorted`,
/// which must be sorted ascending: the smallest sample such that at
/// least `p`% of the samples are at or below it. `None` when empty.
#[must_use]
pub fn nearest_rank(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, n) - 1])
}

/// Samples in ascending order (NaN-free input expected; NaNs sort last).
#[must_use]
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median of `values` (mean of the middle pair for even counts).
/// `None` when empty.
#[must_use]
pub fn median(values: &[f64]) -> Option<f64> {
    let s = sorted(values);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// First quartile, median, third quartile — the "exclusive" method of
/// Python's `statistics.quantiles(values, n=4)`, so the spreads this
/// tool reports match what a Python reader computes from the same runs.
/// Needs at least two samples.
#[must_use]
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let s = sorted(values);
    let n = s.len();
    if n < 2 {
        return None;
    }
    let m = n as f64 + 1.0;
    let at = |j: usize| -> f64 {
        // Position j*m/4 (1-based) between a bracketing pair clamped
        // inside the sample, so tiny samples extrapolate as Python does.
        let pos = j as f64 * m / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - lo as f64;
        s[lo - 1] + (s[lo] - s[lo - 1]) * frac
    };
    Some([at(1), at(2), at(3)])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_definition() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 50.0), Some(5.0));
        assert_eq!(nearest_rank(&v, 90.0), Some(9.0));
        assert_eq!(nearest_rank(&v, 91.0), Some(10.0));
        assert_eq!(nearest_rank(&v, 100.0), Some(10.0));
        // The lowest ranks clamp to the first sample, never index -1.
        assert_eq!(nearest_rank(&v, 0.1), Some(1.0));
        assert_eq!(nearest_rank(&[7.0], 99.0), Some(7.0));
        assert_eq!(nearest_rank(&[], 50.0), None);
    }

    #[test]
    fn nearest_rank_never_interpolates() {
        // Every percentile is one of the samples.
        let v = [1.0, 2.0, 4.0, 8.0];
        for p in [1.0, 25.0, 26.0, 50.0, 75.0, 99.0] {
            let x = nearest_rank(&v, p).unwrap();
            assert!(v.contains(&x), "p{p} gave {x}");
        }
        assert_eq!(nearest_rank(&v, 25.0), Some(1.0));
        assert_eq!(nearest_rank(&v, 26.0), Some(2.0));
    }

    #[test]
    fn median_and_quartiles_match_python() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: small
        // samples extrapolate past the ends.
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), Some([1.0, 3.0, 5.0]));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
