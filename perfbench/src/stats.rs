//! Order statistics for the end-to-end metrics: nearest-rank percentiles
//! and the rule that decides which tail percentile a run may report.

/// Nearest-rank percentile of `values`: the smallest value such that at
/// least `p`% of the values are ≤ it. An empty slice reports 0.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let p = p.clamp(0.0, 100.0);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
}

/// The median, as the 50th nearest-rank percentile.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The highest of `candidates` that has at least ten of `n` samples
/// strictly beyond it, or `None` when not even the lowest does. A
/// percentile estimated from fewer than ten samples in its tail is one
/// outlier away from a different number.
pub fn highest_reportable(n: usize, candidates: &[f64]) -> Option<f64> {
    candidates
        .iter()
        .copied()
        .filter(|&p| (n as f64) * (1.0 - p / 100.0) >= 10.0 - 1e-9)
        .reduce(f64::max)
}

/// How many samples a run needs before `p` is reportable.
pub fn samples_for(p: f64) -> usize {
    (10.0 / (1.0 - p / 100.0)).round() as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_recorded_values() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 91.0), 10.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        // Order of input does not matter.
        let rev: Vec<f64> = v.iter().rev().copied().collect();
        assert_eq!(percentile(&rev, 90.0), 9.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn reportable_percentile_needs_ten_samples_beyond_it() {
        let ps = [50.0, 90.0, 99.0];
        assert_eq!(highest_reportable(19, &ps), None);
        assert_eq!(highest_reportable(20, &ps), Some(50.0));
        assert_eq!(highest_reportable(99, &ps), Some(50.0));
        assert_eq!(highest_reportable(100, &ps), Some(90.0));
        assert_eq!(highest_reportable(999, &ps), Some(90.0));
        assert_eq!(highest_reportable(1000, &ps), Some(99.0));
        assert_eq!(samples_for(90.0), 100);
        assert_eq!(samples_for(99.0), 1000);
        assert_eq!(highest_reportable(samples_for(99.0), &ps), Some(99.0));
    }
}
