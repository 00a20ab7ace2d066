//! Order statistics over timing samples.

/// Linearly interpolated quantile `q` in `[0, 1]` of `xs` (need not be
/// sorted). Returns 0 for an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let frac = pos - lo as f64;
    if frac == 0.0 {
        // Also keeps an infinite sample from turning into NaN.
        return v[lo];
    }
    v[lo] + (v[lo + 1] - v[lo]) * frac
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Percentiles the tail metric may report, highest first. The ladder stops
/// at p90: on a shared host p99 of sub-millisecond times moves with the
/// neighbours' load far more than any bound a regression check can use.
const TAIL_LADDER: [f64; 3] = [90.0, 75.0, 50.0];

/// The highest ladder percentile that leaves at least ten samples beyond
/// it, with its value: `(percentile, value)`. Fewer than 20 samples report
/// the median.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    let n = xs.len() as f64;
    let pct = TAIL_LADDER.iter().copied().find(|p| n * (1.0 - p / 100.0) >= 10.0).unwrap_or(50.0);
    (pct, quantile(xs, pct / 100.0))
}

/// `num / den`, or 0 when the denominator is 0 (a layer the workload does
/// not exercise).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&xs), 2.5);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail(&xs).0, 90.0);
        assert_eq!(tail(&xs[..99]).0, 75.0);
        assert_eq!(tail(&xs[..40]).0, 75.0);
        assert_eq!(tail(&xs[..39]).0, 50.0);
    }
}
