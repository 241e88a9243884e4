//! Order statistics for timing samples.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), so spreads computed here match those
//! computed in Python from the printed results. A tail percentile is only
//! reported when enough samples lie beyond it to make it repeatable.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_TAIL_SAMPLES: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count); `None` when
/// `values` is empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let v = sorted(values);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// First and third quartile by Python's exclusive method; `None` for fewer
/// than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// 1-based nearest rank of the `q`-th percentile among `n` samples. The
/// epsilon keeps `0.9 * 100` at rank 90 despite binary rounding.
fn rank(q: f64, n: usize) -> usize {
    ((q * n as f64) - 1e-9).ceil().max(0.0) as usize
}

/// The `q`-th nearest-rank percentile (`0 < q < 1`), or `None` unless at
/// least [`MIN_TAIL_SAMPLES`] samples lie above its rank.
pub fn tail_percentile(values: &[f64], q: f64) -> Option<f64> {
    let n = values.len();
    let r = rank(q, n);
    if r == 0 || n - r.min(n) < MIN_TAIL_SAMPLES {
        return None;
    }
    Some(sorted(values)[r - 1])
}

/// Fewest samples for which [`tail_percentile`] answers at `q`.
pub fn samples_for_tail(q: f64) -> usize {
    (1..)
        .find(|&n| {
            let r = rank(q, n);
            r >= 1 && n - r.min(n) >= MIN_TAIL_SAMPLES
        })
        .unwrap_or(usize::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some((1.5, 4.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 0.9), None);
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 0.9), Some(90.0));
        assert_eq!(tail_percentile(&v, 0.5), Some(50.0));
        assert_eq!(tail_percentile(&[], 0.5), None);
    }

    #[test]
    fn samples_for_tail_is_the_threshold() {
        for q in [0.5, 0.9, 0.99] {
            let n = samples_for_tail(q);
            let v: Vec<f64> = (0..n).map(|i| i as f64).collect();
            assert!(tail_percentile(&v, q).is_some());
            assert!(tail_percentile(&v[1..], q).is_none());
        }
        assert_eq!(samples_for_tail(0.9), 100);
        assert_eq!(samples_for_tail(0.5), 20);
    }
}
