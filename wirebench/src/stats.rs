//! Percentiles and aggregation for the benchmark's own samples.

/// Nearest-rank percentile (`q` in `[0, 1]`) of unsorted samples; `None`
/// when there are none. With fewer than `1 / (1 − q)` samples the top
/// percentiles are the maximum, so callers report the sample count too.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of unsorted samples: the middle value, or the mean of the two
/// middle values for an even count.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// Arithmetic mean; `None` for no samples.
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        None
    } else {
        Some(values.iter().sum::<f64>() / values.len() as f64)
    }
}

/// Cumulative histogram buckets as `(upper bound, count of samples ≤ bound)`
/// pairs, in the sparse form the server's `/metrics` exposition prints:
/// a bound missing from the list holds the count of the next lower bound.
pub type Buckets = Vec<(u64, u64)>;

fn cumulative_at(buckets: &[(u64, u64)], bound: u64) -> u64 {
    buckets
        .iter()
        .filter(|&&(le, _)| le <= bound)
        .map(|&(_, count)| count)
        .max()
        .unwrap_or(0)
}

/// The `q` quantile of the samples recorded between two scrapes of one
/// cumulative histogram, as the upper bound of the bucket it falls in.
/// `None` when nothing was recorded in between.
pub fn bucket_quantile_delta(before: &[(u64, u64)], after: &[(u64, u64)], q: f64) -> Option<u64> {
    let mut bounds: Vec<u64> = after.iter().map(|&(le, _)| le).collect();
    bounds.sort_unstable();
    bounds.dedup();
    let delta = |bound| cumulative_at(after, bound).saturating_sub(cumulative_at(before, bound));
    let total = bounds.last().map_or(0, |&top| delta(top));
    if total == 0 {
        return None;
    }
    let target = ((q * total as f64).ceil() as u64).max(1);
    bounds.into_iter().find(|&bound| delta(bound) >= target)
}

/// Total length covered by a set of `[start, end)` intervals, counting
/// overlaps once: the part of a parent span its children account for.
pub fn covered_length(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = 0;
    for &(start, end) in intervals.iter() {
        let start = start.max(reach);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let values: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&values, 0.5), Some(50.0));
        assert_eq!(percentile(&values, 0.99), Some(99.0));
        assert_eq!(percentile(&values, 1.0), Some(100.0));
        assert_eq!(percentile(&values, 0.0), Some(1.0));
        // Too few samples for a tail: p99 is the maximum.
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.99), Some(3.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(mean(&[]), None);
    }

    #[test]
    fn bucket_quantile_uses_only_the_samples_between_scrapes() {
        // Before: 10 samples ≤ 100. After: 10 more ≤ 100, then 90 ≤ 1000
        // and 2 ≤ 5000; the 1000 bound is absent from `before`.
        let before = vec![(100, 10)];
        let after = vec![(100, 20), (1000, 110), (5000, 112)];
        assert_eq!(bucket_quantile_delta(&before, &after, 0.05), Some(100));
        assert_eq!(bucket_quantile_delta(&before, &after, 0.5), Some(1000));
        assert_eq!(bucket_quantile_delta(&before, &after, 0.99), Some(5000));
        assert_eq!(bucket_quantile_delta(&after, &after, 0.5), None);
    }

    #[test]
    fn covered_length_merges_overlaps() {
        let mut spans = vec![(10, 20), (0, 5), (15, 30), (40, 41), (16, 18)];
        assert_eq!(covered_length(&mut spans), 5 + 20 + 1);
        assert_eq!(covered_length(&mut []), 0);
    }
}
