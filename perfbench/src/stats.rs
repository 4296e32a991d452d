//! Order statistics shared by the workload metrics and the calibration
//! timer.

/// Minimum number of samples that must lie strictly beyond a reported
/// tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `q` of the samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice or a `q` outside `(0, 1]`.
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    sorted[rank(sorted.len(), q) - 1]
}

fn rank(n: usize, q: f64) -> usize {
    assert!(n > 0, "percentile of an empty sample");
    assert!(q > 0.0 && q <= 1.0, "percentile {q} out of range");
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// A tail percentile that refuses to report when fewer than
/// [`TAIL_MIN_BEYOND`] samples lie beyond it, naming the shortfall.
pub fn tail(sorted: &[f64], q: f64) -> Result<f64, String> {
    let pct = (q * 1000.0).round() / 10.0;
    if sorted.is_empty() {
        return Err(format!("p{pct} of an empty sample"));
    }
    let beyond = sorted.len() - rank(sorted.len(), q);
    if beyond < TAIL_MIN_BEYOND {
        return Err(format!(
            "p{pct} has {beyond} of {} samples beyond it; at least {TAIL_MIN_BEYOND} are needed",
            sorted.len()
        ));
    }
    Ok(nearest_rank(sorted, q))
}

/// Median of an unsorted sample (sorts it in place).
pub fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    nearest_rank(v, 0.5)
}

/// Interquartile range as a share of the median, the spread the
/// calibration timer reports.
pub fn iqr_share(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    let m = nearest_rank(v, 0.5);
    (nearest_rank(v, 0.75) - nearest_rank(v, 0.25)) / m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_samples() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 0.5), 50.0);
        assert_eq!(nearest_rank(&v, 0.9), 90.0);
        assert_eq!(nearest_rank(&v, 1.0), 100.0);
    }

    #[test]
    fn tail_reports_with_ten_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v, 0.9), Ok(90.0));
    }

    #[test]
    fn tail_refuses_with_fewer_than_ten_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let err = tail(&v, 0.95).unwrap_err();
        assert!(err.contains("5 of 100"), "{err}");
        assert!(tail(&v[..99], 0.9).is_err());
        assert!(tail(&[], 0.5).is_err());
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&mut v), 2.0);
        assert_eq!(iqr_share(&mut v), 1.0);
    }
}
