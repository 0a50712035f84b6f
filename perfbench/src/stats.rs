//! Percentiles that count failures, and small summary helpers.

/// The `q`-quantile (nearest rank) of `sorted` completed samples when
/// `failed` further ops never met their deadline: a failed op counts as
/// +∞, so once failures reach the top `1 − q` share the percentile is
/// infinite.
pub fn quantile_with_failures(sorted: &[f64], failed: usize, q: f64) -> f64 {
    let n = sorted.len() + failed;
    if n == 0 {
        return f64::NAN;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if rank > sorted.len() {
        f64::INFINITY
    } else {
        sorted[rank - 1]
    }
}

/// Nearest-rank quantile of completed samples only.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    quantile_with_failures(sorted, 0, q)
}

/// Sort a sample for the quantile helpers.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// The median of a few repeated measurements.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v.to_vec());
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// `num / den`, 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
