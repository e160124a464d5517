//! Top-k accuracy: the evaluation metric of the paper.

use s2g_datasets::LabeledSeries;
use s2g_timeseries::window;

/// Ground-truth anomaly ranges of a series: `(start, length)` pairs.
#[derive(Debug, Clone, Default)]
pub struct GroundTruth {
    ranges: Vec<(usize, usize)>,
}

impl GroundTruth {
    /// Creates a ground truth from `(start, length)` ranges.
    pub fn new(ranges: Vec<(usize, usize)>) -> Self {
        Self { ranges }
    }

    /// The ground truth of a labelled series: one range per annotation.
    pub fn from_labels(data: &LabeledSeries) -> Self {
        Self::new(data.anomalies.iter().map(|a| (a.start, a.length)).collect())
    }

    /// Number of labelled anomalies (the `k` used throughout the paper).
    pub fn count(&self) -> usize {
        self.ranges.len()
    }

    /// `true` when there are no labelled anomalies.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// The labelled ranges.
    pub fn ranges(&self) -> &[(usize, usize)] {
        &self.ranges
    }

    /// `true` when the window `[start, start+len)` overlaps any labelled anomaly.
    pub fn window_overlaps_anomaly(&self, start: usize, len: usize) -> bool {
        let end = start + len;
        self.ranges.iter().any(|&(s, l)| s < end && start < s + l)
    }

    /// Index of the labelled anomaly (if any) that the window overlaps.
    pub fn matching_anomaly(&self, start: usize, len: usize) -> Option<usize> {
        let end = start + len;
        self.ranges
            .iter()
            .position(|&(s, l)| s < end && start < s + l)
    }
}

/// Selects the top-`k` non-overlapping detections from a score profile and
/// returns, for each, whether it hits a labelled anomaly.
///
/// Detections are selected greedily by decreasing score, skipping candidates
/// that trivially match (overlap more than half of `window`) an already
/// selected detection — the same convention every discord-based method uses
/// to enumerate its top-k discords.
pub fn top_k_hits(
    scores: &[f64],
    window_len: usize,
    truth: &GroundTruth,
    k: usize,
) -> Vec<(usize, bool)> {
    let picks = window::top_k_non_overlapping(scores, k, window_len);
    picks
        .into_iter()
        .map(|start| (start, truth.window_overlaps_anomaly(start, window_len)))
        .collect()
}

/// Top-k accuracy: correctly identified anomalies among the `k` retrieved,
/// divided by `k` (Section 5.1 of the paper). Distinct detections that hit
/// the *same* labelled anomaly only count once, so a method cannot inflate
/// its accuracy by reporting one anomaly many times.
pub fn top_k_accuracy(scores: &[f64], window_len: usize, truth: &GroundTruth, k: usize) -> f64 {
    if k == 0 || truth.is_empty() || scores.is_empty() {
        return 0.0;
    }
    let picks = window::top_k_non_overlapping(scores, k, window_len);
    let mut hit_anomalies = std::collections::BTreeSet::new();
    for start in picks {
        if let Some(idx) = truth.matching_anomaly(start, window_len) {
            hit_anomalies.insert(idx);
        }
    }
    hit_anomalies.len() as f64 / k as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn truth() -> GroundTruth {
        GroundTruth::new(vec![(100, 50), (500, 50), (900, 50)])
    }

    #[test]
    fn ground_truth_overlap_rules() {
        let t = truth();
        assert_eq!(t.count(), 3);
        assert!(t.window_overlaps_anomaly(90, 20));
        assert!(t.window_overlaps_anomaly(140, 100));
        assert!(!t.window_overlaps_anomaly(200, 100));
        assert_eq!(t.matching_anomaly(510, 10), Some(1));
        assert_eq!(t.matching_anomaly(0, 50), None);
    }

    #[test]
    fn ground_truth_from_labels_keeps_every_range() {
        use s2g_datasets::{AnomalyKind, AnomalyRange};
        let data = LabeledSeries::new(
            "fixture",
            vec![0.0; 1000].into(),
            vec![
                AnomalyRange::new(500, 50, AnomalyKind::Shape),
                AnomalyRange::new(100, 20, AnomalyKind::Frequency),
            ],
        );
        let t = GroundTruth::from_labels(&data);
        assert_eq!(t.ranges(), &[(100, 20), (500, 50)]);
        assert_eq!(t.count(), data.anomaly_count());
    }

    #[test]
    fn perfect_scores_give_accuracy_one() {
        let mut scores = vec![0.0; 1000];
        scores[110] = 3.0;
        scores[505] = 2.5;
        scores[895] = 2.0;
        let acc = top_k_accuracy(&scores, 50, &truth(), 3);
        assert!((acc - 1.0).abs() < 1e-12);
    }

    #[test]
    fn wrong_detections_give_zero() {
        let mut scores = vec![0.0; 1000];
        scores[300] = 3.0;
        scores[700] = 2.0;
        scores[0] = 1.5;
        let acc = top_k_accuracy(&scores, 50, &truth(), 3);
        assert_eq!(acc, 0.0);
    }

    #[test]
    fn partial_hits_are_fractional() {
        let mut scores = vec![0.0; 1000];
        scores[110] = 3.0; // hit
        scores[300] = 2.5; // miss
        scores[903] = 2.0; // hit
        let acc = top_k_accuracy(&scores, 50, &truth(), 3);
        assert!((acc - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn duplicate_detections_of_same_anomaly_count_once() {
        // Two non-trivially-overlapping windows can still hit the same
        // labelled anomaly (window length > anomaly length); accuracy must not
        // double-count it.
        let mut scores = vec![0.0; 1000];
        scores[80] = 3.0; // hits anomaly 0 (100..150)
        scores[140] = 2.9; // also hits anomaly 0, not a trivial match of 80 at window 100
        scores[700] = 1.0; // miss
        let t = GroundTruth::new(vec![(100, 50), (500, 50)]);
        let acc = top_k_accuracy(&scores, 100, &t, 2);
        assert!((acc - 0.5).abs() < 1e-12, "got {acc}");
    }

    #[test]
    fn top_k_hits_reports_positions_and_flags() {
        let mut scores = vec![0.0; 1000];
        scores[120] = 5.0;
        scores[600] = 4.0;
        let hits = top_k_hits(&scores, 50, &truth(), 2);
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0], (120, true));
        assert_eq!(hits[1], (600, false));
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(top_k_accuracy(&[], 50, &truth(), 3), 0.0);
        assert_eq!(
            top_k_accuracy(&[1.0, 2.0], 50, &GroundTruth::default(), 3),
            0.0
        );
        assert_eq!(top_k_accuracy(&[1.0, 2.0], 50, &truth(), 0), 0.0);
        assert!(GroundTruth::default().is_empty());
    }
}
