//! Timing and order statistics for repetition times. Quartiles follow Python's
//! `statistics.quantiles(values, n=4)` (the default "exclusive" method),
//! because that is how the spread of this benchmark is judged.

/// Seconds `f` takes, measured from outside, with its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t0 = std::time::Instant::now();
    let r = f();
    (t0.elapsed().as_secs_f64(), r)
}

/// Smallest value; the estimator for `wall_s` and `setup_s` (see README:
/// on a shared host the minimum moves less between runs than the median).
pub fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

pub fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median as Python's `statistics.median`: mean of the two middle values
/// for an even count.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no values");
    let v = sorted(xs);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First, second and third quartile. Needs at least two values.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    assert!(xs.len() >= 2, "quartiles need two values");
    let v = sorted(xs);
    let m = v.len() + 1;
    [1usize, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    })
}

/// Distance between the first and third quartile as a share of the median.
pub fn iqr_share(xs: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(xs);
    (q3 - q1) / median(xs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_max_median() {
        let xs = [3.0, 1.0, 4.0, 1.5];
        assert_eq!(min(&xs), 1.0);
        assert_eq!(max(&xs), 4.0);
        assert_eq!(median(&xs), 2.25);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([2, 9, 4, 7, 5], n=4) == [3.0, 5.0, 8.0]
        assert_eq!(quartiles(&[2.0, 9.0, 4.0, 7.0, 5.0]), [3.0, 5.0, 8.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    }

    #[test]
    fn iqr_share_is_relative_to_the_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&xs) - 1.0).abs() < 1e-12);
    }
}
