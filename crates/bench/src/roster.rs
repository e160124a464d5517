//! The detectors compared in the paper's Table 3 and Figure 9.
//!
//! The six baselines are the `s2g-eval` gauntlet's own [`Detector`]s, run
//! with the whole series as training prefix. Only Series2Graph differs from
//! the gauntlet: the paper builds every graph with the fixed `ℓ = 50`,
//! `λ = 16` of [`s2g_paper_config`] and adds a column trained on the first
//! half of the series, so it has its own [`PaperS2g`] detector here.

use s2g_core::{S2gConfig, Series2Graph};
use s2g_datasets::LabeledSeries;
use s2g_eval::detector::{Dad, GrammarViz, IsolationForest, Lof, LstmAd, Stomp};
use s2g_eval::{Detector, DetectorInput, ScoreProfile};

/// The Series2Graph configuration used throughout the accuracy evaluation:
/// the paper fixes `ℓ = 50` and `λ = 16` for **all** datasets of Table 3 to
/// demonstrate robustness to the input-length parameter.
pub fn s2g_paper_config() -> S2gConfig {
    S2gConfig::new(50).with_lambda(16)
}

/// Series2Graph under the paper's protocol: graph built with
/// [`s2g_paper_config`], query length `ℓq = max(ℓ_A, ℓ)`, trained on the
/// whole series (`S2G`) or on its first half (`S2G|T|/2`).
pub struct PaperS2g {
    /// Train on the first half of the series instead of all of it.
    pub half: bool,
}

impl Detector for PaperS2g {
    fn name(&self) -> &'static str {
        if self.half {
            "S2G|T|/2"
        } else {
            "S2G"
        }
    }

    fn run(&self, input: &DetectorInput) -> Result<ScoreProfile, String> {
        let config = s2g_paper_config();
        let query = input.window.max(config.pattern_length);
        let series = &input.data.series;
        let train = if self.half {
            series.prefix(series.len() / 2)
        } else {
            series.clone()
        };
        let model = Series2Graph::fit(&train, &config).map_err(|e| e.to_string())?;
        let scores = model
            .anomaly_scores(series, query)
            .map_err(|e| e.to_string())?;
        Ok(ScoreProfile {
            scores,
            window: query,
        })
    }
}

/// The eight columns of Table 3, in the paper's order.
pub fn paper_roster() -> Vec<Box<dyn Detector>> {
    vec![
        Box::new(GrammarViz),
        Box::new(Stomp),
        Box::new(Dad),
        Box::new(Lof),
        Box::new(IsolationForest),
        Box::new(LstmAd),
        Box::new(PaperS2g { half: true }),
        Box::new(PaperS2g { half: false }),
    ]
}

/// The fast subset of the scalability figures: LOF and DAD are quadratic
/// with large constants and dominate the runtime.
pub fn fast_roster() -> Vec<Box<dyn Detector>> {
    vec![
        Box::new(GrammarViz),
        Box::new(Stomp),
        Box::new(IsolationForest),
        Box::new(PaperS2g { half: false }),
        Box::new(LstmAd),
    ]
}

/// The paper's evaluation input for a labelled series: anomaly length
/// `window`, `k` = the labelled anomaly count, trained on the whole series.
pub fn paper_input(data: &LabeledSeries, window: usize) -> DetectorInput<'_> {
    DetectorInput {
        data,
        window,
        k: data.anomaly_count(),
        train_len: data.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2g_baselines::discord::dad_anomaly_scores;
    use s2g_baselines::forecast::{forecast_anomaly_scores, ForecastParams};
    use s2g_baselines::grammar::{grammarviz_anomaly_scores, GrammarVizParams};
    use s2g_baselines::iforest::{iforest_anomaly_scores, IsolationForestParams};
    use s2g_baselines::lof::{lof_anomaly_scores, LofParams};
    use s2g_baselines::matrix_profile::stomp_anomaly_scores;
    use s2g_datasets::mba::{generate_mba_with_length, MbaRecord};
    use s2g_datasets::srw::{generate_srw, SrwConfig};
    use s2g_eval::topk::{top_k_accuracy, GroundTruth};

    const LABELS: [&str; 8] = [
        "GV", "STOMP", "DAD", "LOF", "IF", "LSTM-AD", "S2G|T|/2", "S2G",
    ];

    fn srw(length: usize, num_anomalies: usize, seed: u64) -> LabeledSeries {
        generate_srw(SrwConfig {
            length,
            num_anomalies,
            noise_ratio: 0.0,
            anomaly_length: 200,
            seed,
        })
    }

    /// Each column's profile computed by calling its baseline or
    /// Series2Graph directly with the parameters of the paper's protocol.
    fn reference(label: &str, data: &LabeledSeries, w: usize, k: usize) -> (Vec<f64>, usize) {
        let s = &data.series;
        let scores = match label {
            "GV" => grammarviz_anomaly_scores(s, w, GrammarVizParams::default()),
            "STOMP" => stomp_anomaly_scores(s, w),
            "DAD" => dad_anomaly_scores(s, w, k.max(1)),
            "LOF" => lof_anomaly_scores(s, w, LofParams::default()),
            "IF" => iforest_anomaly_scores(s, w, IsolationForestParams::default()),
            "LSTM-AD" => forecast_anomaly_scores(s, w, ForecastParams::default()),
            "S2G" | "S2G|T|/2" => {
                let train = if label == "S2G" {
                    s.clone()
                } else {
                    s.prefix(s.len() / 2)
                };
                let query = w.max(50);
                let model = Series2Graph::fit(&train, &s2g_paper_config()).unwrap();
                return (model.anomaly_scores(s, query).unwrap(), query);
            }
            other => panic!("no reference for {other}"),
        };
        (scores.unwrap(), w)
    }

    #[test]
    fn roster_columns_match_direct_calls_bit_for_bit() {
        let cases = [
            (generate_mba_with_length(MbaRecord::R803, 3_000, 5), 75),
            (srw(3_000, 3, 7), 200),
        ];
        for (data, window) in &cases {
            let input = paper_input(data, *window);
            assert_eq!(input.k, data.anomaly_count());
            assert_eq!(input.train_len, data.len());
            let roster = paper_roster();
            let names: Vec<&str> = roster.iter().map(|d| d.name()).collect();
            assert_eq!(names, LABELS);
            for det in roster {
                let profile = det
                    .run(&input)
                    .unwrap_or_else(|e| panic!("{} on {}: {e}", det.name(), data.name));
                let (scores, window) = reference(det.name(), data, *window, input.k);
                assert_eq!(profile.window, window, "{} on {}", det.name(), data.name);
                assert_eq!(profile.scores.len(), data.len() - window + 1);
                assert!(profile.scores.iter().all(|s| s.is_finite()));
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&profile.scores),
                    bits(&scores),
                    "{} on {}: scores differ from the direct call",
                    det.name(),
                    data.name
                );
            }
        }
    }

    #[test]
    fn fast_roster_is_a_subset_without_the_quadratic_methods() {
        let names: Vec<&str> = fast_roster().iter().map(|d| d.name()).collect();
        assert_eq!(names, ["GV", "STOMP", "IF", "S2G", "LSTM-AD"]);
        assert!(names.iter().all(|n| LABELS.contains(n)));
    }

    #[test]
    fn paper_s2g_finds_most_clean_srw_anomalies() {
        let data = srw(6_000, 4, 11);
        let input = paper_input(&data, 200);
        assert_eq!(input.k, 4);
        let det = PaperS2g { half: false };
        assert_eq!(det.name(), "S2G");
        let profile = det.run(&input).unwrap();
        let truth = GroundTruth::from_labels(&data);
        let accuracy = top_k_accuracy(&profile.scores, profile.window, &truth, input.k);
        assert!(
            accuracy >= 0.75,
            "S2G should find most clean SRW anomalies, got {accuracy}"
        );
    }

    #[test]
    fn s2g_uses_fixed_pattern_length() {
        let cfg = s2g_paper_config();
        assert_eq!(cfg.pattern_length, 50);
        assert_eq!(cfg.lambda, 16);
    }
}
