//! The scenario gauntlet: every detector over every scenario, scored with
//! the full metric set, rendered as a table and as deterministic JSON lines.
//!
//! Determinism contract: for a fixed `(seed, scenario set)` the JSON output
//! is **byte-identical** across runs — wall-clock timings are measured and
//! shown in the human table but deliberately kept out of the JSON lines, so
//! `BENCH_ACCURACY.json` diffs only when accuracy actually changes.

use std::time::Instant;

use crate::detector::{all_detectors, DetectorInput, BASELINE_NAMES};
use crate::metrics::{auc_pr, auc_roc, pointwise_labels, precision_at_k};
use crate::scenario::{registry, Scenario};
use crate::table::{fmt_seconds, Table};
use crate::topk::{top_k_accuracy, GroundTruth};

/// What to run: seed, scenario subset, output shape.
#[derive(Debug, Clone)]
pub struct GauntletConfig {
    /// Master seed forwarded to every dataset generator.
    pub seed: u64,
    /// Restrict to the fast subset (CI smoke).
    pub fast: bool,
    /// Restrict to specific scenario ids (empty = all).
    pub scenarios: Vec<String>,
    /// Revision tag stamped into JSON lines (e.g. `"pr7"`).
    pub rev: String,
}

impl Default for GauntletConfig {
    fn default() -> Self {
        Self {
            seed: 42,
            fast: false,
            scenarios: Vec::new(),
            rev: "dev".to_string(),
        }
    }
}

/// One detector's scores on one scenario.
#[derive(Debug, Clone)]
pub struct DetectorResult {
    /// Detector row label.
    pub detector: String,
    /// AUC-ROC over point-wise window labels.
    pub auc_roc: f64,
    /// AUC-PR (average precision) over the same labels.
    pub auc_pr: f64,
    /// Precision@k with `k` = labelled anomaly count.
    pub precision_at_k: f64,
    /// The paper's Top-k accuracy.
    pub top_k_accuracy: f64,
    /// Wall-clock seconds spent scoring (table only, never in JSON).
    pub wall_seconds: f64,
    /// Error message when the detector could not run.
    pub error: Option<String>,
}

/// All detector results for one scenario.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// Scenario id.
    pub scenario: String,
    /// Generated dataset name (e.g. `SRW-[6]-[0%]-[200]`).
    pub dataset: String,
    /// Series length.
    pub length: usize,
    /// Anomaly length / detector window.
    pub window: usize,
    /// Labelled anomaly count.
    pub k: usize,
    /// Whether S2G must strictly win AUC-ROC here.
    pub paper_favorable: bool,
    /// Whether the adaptive session must beat the frozen model here.
    pub drift: bool,
    /// Per-detector results, roster order.
    pub results: Vec<DetectorResult>,
}

impl ScenarioResult {
    /// The result row of a detector, by name.
    pub fn detector(&self, name: &str) -> Option<&DetectorResult> {
        self.results.iter().find(|r| r.detector == name)
    }
}

/// Runs every detector of the roster over one scenario.
pub fn run_scenario(scenario: &Scenario, seed: u64) -> ScenarioResult {
    let data = scenario.generate(seed);
    let truth = GroundTruth::from_labels(&data);
    let k = data.anomaly_count();
    let input = DetectorInput {
        data: &data,
        window: scenario.window,
        k,
        train_len: scenario.train_len(data.len()),
    };

    let mut results = Vec::new();
    for det in all_detectors() {
        let started = Instant::now();
        let outcome = det.run(&input);
        let wall_seconds = started.elapsed().as_secs_f64();
        let row = match outcome {
            Ok(profile) => {
                let pairs = pointwise_labels(&profile.scores, profile.window, &truth);
                DetectorResult {
                    detector: det.name().to_string(),
                    auc_roc: auc_roc(&pairs),
                    auc_pr: auc_pr(&pairs),
                    precision_at_k: precision_at_k(&profile.scores, profile.window, &truth, k),
                    top_k_accuracy: top_k_accuracy(&profile.scores, profile.window, &truth, k),
                    wall_seconds,
                    error: None,
                }
            }
            Err(message) => DetectorResult {
                detector: det.name().to_string(),
                auc_roc: 0.0,
                auc_pr: 0.0,
                precision_at_k: 0.0,
                top_k_accuracy: 0.0,
                wall_seconds,
                error: Some(message),
            },
        };
        results.push(row);
    }

    ScenarioResult {
        scenario: scenario.id.to_string(),
        dataset: data.name.clone(),
        length: data.len(),
        window: scenario.window,
        k,
        paper_favorable: scenario.paper_favorable,
        drift: scenario.drift,
        results,
    }
}

/// Selects the scenarios a config asks for.
pub fn select_scenarios(config: &GauntletConfig) -> Result<Vec<Scenario>, String> {
    let all = registry();
    if !config.scenarios.is_empty() {
        let mut picked = Vec::new();
        for id in &config.scenarios {
            let s = all
                .iter()
                .find(|s| s.id == *id)
                .ok_or_else(|| format!("unknown scenario '{id}'"))?;
            picked.push(*s);
        }
        return Ok(picked);
    }
    Ok(all.into_iter().filter(|s| !config.fast || s.fast).collect())
}

/// Runs the configured gauntlet.
pub fn run_gauntlet(config: &GauntletConfig) -> Result<Vec<ScenarioResult>, String> {
    Ok(select_scenarios(config)?
        .iter()
        .map(|s| run_scenario(s, config.seed))
        .collect())
}

/// Renders the human-facing table: one block per scenario, one row per
/// detector, AUC + top-k + wall-clock columns.
pub fn render_table(results: &[ScenarioResult]) -> String {
    let mut out = String::new();
    for sr in results {
        out.push_str(&format!(
            "{} — {} (n={}, ℓ={}, k={}{}{})\n",
            sr.scenario,
            sr.dataset,
            sr.length,
            sr.window,
            sr.k,
            if sr.paper_favorable {
                ", paper-favorable"
            } else {
                ""
            },
            if sr.drift { ", drift" } else { "" },
        ));
        let mut table = Table::new(vec![
            "detector", "auc-roc", "auc-pr", "prec@k", "topk-acc", "wall",
        ]);
        for r in &sr.results {
            if let Some(err) = &r.error {
                table.push_row(vec![r.detector.clone(), format!("error: {err}")]);
            } else {
                table.push_row(vec![
                    r.detector.clone(),
                    format!("{:.4}", r.auc_roc),
                    format!("{:.4}", r.auc_pr),
                    format!("{:.2}", r.precision_at_k),
                    format!("{:.2}", r.top_k_accuracy),
                    fmt_seconds(r.wall_seconds),
                ]);
            }
        }
        out.push_str(&table.to_fixed_width());
        out.push('\n');
    }
    out
}

/// Renders the deterministic JSON lines (one object per detector × scenario),
/// mirroring the `BENCH_THROUGHPUT.json` run-line schema. No timings, no
/// floats beyond fixed precision: byte-identical across runs of one seed.
pub fn to_json_lines(results: &[ScenarioResult], config: &GauntletConfig) -> String {
    let mut out = String::new();
    for sr in results {
        for r in &sr.results {
            out.push_str(&format!(
                "{{\"rev\": \"{}\", \"bench\": \"accuracy\", \"scenario\": \"{}\", \"dataset\": \"{}\", \"detector\": \"{}\", \"seed\": {}, \"length\": {}, \"window\": {}, \"k\": {}, \"auc_roc\": {:.6}, \"auc_pr\": {:.6}, \"precision_at_k\": {:.6}, \"top_k_accuracy\": {:.6}, \"paper_favorable\": {}, \"drift\": {}, \"deterministic\": true}}\n",
                config.rev,
                sr.scenario,
                sr.dataset,
                r.detector,
                config.seed,
                sr.length,
                sr.window,
                sr.k,
                r.auc_roc,
                r.auc_pr,
                r.precision_at_k,
                r.top_k_accuracy,
                sr.paper_favorable,
                sr.drift,
            ));
        }
    }
    out
}

/// Checks the gauntlet's win conditions. Returns the list of violated
/// assertions (empty = all green):
///
/// * on every paper-favorable scenario, S2G's AUC-ROC is strictly above
///   every baseline's;
/// * on every drift scenario, the adaptive session's AUC-ROC is strictly
///   above the frozen model's;
/// * no detector errored.
pub fn validate(results: &[ScenarioResult]) -> Vec<String> {
    let mut violations = Vec::new();
    for sr in results {
        for r in &sr.results {
            if let Some(err) = &r.error {
                violations.push(format!("{}/{}: errored: {err}", sr.scenario, r.detector));
            }
        }
        if sr.paper_favorable {
            let Some(s2g) = sr.detector("S2G") else {
                violations.push(format!("{}: missing S2G row", sr.scenario));
                continue;
            };
            for name in BASELINE_NAMES {
                if let Some(base) = sr.detector(name) {
                    if s2g.auc_roc <= base.auc_roc {
                        violations.push(format!(
                            "{}: S2G auc-roc {:.4} does not beat {} {:.4}",
                            sr.scenario, s2g.auc_roc, name, base.auc_roc
                        ));
                    }
                }
            }
        }
        if sr.drift {
            match (sr.detector("S2G-ADAPT"), sr.detector("S2G")) {
                (Some(adaptive), Some(frozen)) => {
                    if adaptive.auc_roc <= frozen.auc_roc {
                        violations.push(format!(
                            "{}: adaptive auc-roc {:.4} does not beat frozen {:.4}",
                            sr.scenario, adaptive.auc_roc, frozen.auc_roc
                        ));
                    }
                }
                _ => violations.push(format!("{}: missing S2G/S2G-ADAPT rows", sr.scenario)),
            }
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::find;

    #[test]
    fn select_respects_fast_and_filters() {
        let all = select_scenarios(&GauntletConfig::default()).unwrap();
        assert!(all.len() >= 6);
        let fast = select_scenarios(&GauntletConfig {
            fast: true,
            ..Default::default()
        })
        .unwrap();
        assert!(fast.len() < all.len());
        assert!(fast.iter().all(|s| s.fast));
        let picked = select_scenarios(&GauntletConfig {
            scenarios: vec!["srw-clean".into()],
            ..Default::default()
        })
        .unwrap();
        assert_eq!(picked.len(), 1);
        assert!(select_scenarios(&GauntletConfig {
            scenarios: vec!["nope".into()],
            ..Default::default()
        })
        .is_err());
    }

    #[test]
    fn one_scenario_end_to_end_with_deterministic_json() {
        let scenario = find("srw-clean").unwrap();
        let a = run_scenario(&scenario, 42);
        let b = run_scenario(&scenario, 42);
        assert_eq!(a.results.len(), 10);
        let config = GauntletConfig {
            rev: "test".into(),
            ..Default::default()
        };
        let ja = to_json_lines(std::slice::from_ref(&a), &config);
        let jb = to_json_lines(&[b], &config);
        assert_eq!(ja, jb, "JSON lines must be byte-identical across runs");
        assert!(ja.lines().count() == 10);
        // Every line parses as a flat JSON object with the expected keys.
        for line in ja.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'));
            for key in ["\"rev\"", "\"scenario\"", "\"detector\"", "\"auc_roc\""] {
                assert!(line.contains(key), "missing {key} in {line}");
            }
        }
        // The table renders every detector row.
        let text = render_table(&[a]);
        assert!(text.contains("S2G") && text.contains("STOMP"));
    }

    #[test]
    fn s2g_wins_the_clean_srw_scenario() {
        let scenario = find("srw-clean").unwrap();
        let result = run_scenario(&scenario, 42);
        let violations = validate(&[result]);
        assert!(
            violations.is_empty(),
            "win conditions violated: {violations:?}"
        );
    }
}
