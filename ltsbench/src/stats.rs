//! Order statistics of measured samples.

/// Nearest-rank quantile `q ∈ [0, 1]` of `xs` (need not be sorted).
fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (q * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Percentiles the tail is read at, highest first, in tenths of a percent.
const TAIL_LADDER: [usize; 10] = [999, 995, 990, 980, 950, 900, 800, 750, 600, 500];

/// The highest percentile on the ladder with at least ten samples above
/// its nearest rank, and the value there: `(percentile, value)`. With
/// fewer than twenty samples no percentile qualifies and the median is
/// returned.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    let n = xs.len();
    let p = TAIL_LADDER
        .iter()
        .copied()
        .find(|&p| n - (p * n).div_ceil(1000) >= 10)
        .unwrap_or(500);
    (p as f64 / 10.0, quantile(xs, p as f64 / 1000.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&xs), (99.0, 990.0));
        let xs: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(tail(&xs).0, 80.0);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&xs), (90.0, 90.0));
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }
}
