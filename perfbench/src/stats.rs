//! Order statistics for the reported medians and tails.

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The tail the choosing-metrics guide asks for: the sample at the highest
/// percentile that still has at least ten samples beyond it. Returns the
/// value and its percentile; with ten or fewer samples no such percentile
/// exists and the maximum (percentile 100) is returned instead.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n <= 10 {
        return (v.last().copied().unwrap_or(f64::NAN), 100.0);
    }
    let rank = n - 10;
    (v[rank - 1], 100.0 * rank as f64 / n as f64)
}
