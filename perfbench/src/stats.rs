//! Order statistics of timing samples.

/// The `q`-quantile of sorted samples, interpolating linearly between the
/// two nearest ranks (0 for no samples).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let rank = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

/// The `q`-quantile of unsorted samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile_sorted(&sorted, q)
}

/// The `q`-quantile of unsorted integer samples.
pub fn quantile_u64(samples: &[u64], q: f64) -> f64 {
    let mut sorted: Vec<f64> = samples.iter().map(|&x| x as f64).collect();
    sorted.sort_by(f64::total_cmp);
    quantile_sorted(&sorted, q)
}

/// The median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[], 0.99), 0.0);
        assert_eq!(quantile_u64(&[20, 10], 0.25), 12.5);
        assert_eq!(quantile(&[5.0], 0.99), 5.0);
    }
}
