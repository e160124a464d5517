//! Command-line helpers shared by the experiment binaries.

use s2g_eval::Detector;

use crate::roster::paper_roster;

/// Parses a simple `--flag value` style command line shared by the experiment
/// binaries. Returns the value following `flag`, if any.
pub fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Parses the `--scale` argument (default 0.2).
pub fn scale_from_args(args: &[String]) -> f64 {
    arg_value(args, "--scale")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.2)
}

/// Parses the `--seed` argument (default 1).
pub fn seed_from_args(args: &[String]) -> u64 {
    arg_value(args, "--seed")
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
}

/// Parses the `--methods` argument: comma-separated row labels of
/// [`paper_roster`], case-insensitive, in the order given. Defaults to the
/// whole roster.
///
/// # Errors
/// Names the first unknown label and lists the valid ones.
pub fn methods_from_args(args: &[String]) -> Result<Vec<Box<dyn Detector>>, String> {
    let Some(list) = arg_value(args, "--methods") else {
        return Ok(paper_roster());
    };
    list.split(',')
        .map(|label| {
            let label = label.trim();
            paper_roster()
                .into_iter()
                .find(|d| d.name().eq_ignore_ascii_case(label))
                .ok_or_else(|| {
                    let valid: Vec<&str> = paper_roster().iter().map(|d| d.name()).collect();
                    format!(
                        "unknown method {label:?}; valid labels: {}",
                        valid.join(", ")
                    )
                })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    fn names(detectors: &[Box<dyn Detector>]) -> Vec<&'static str> {
        detectors.iter().map(|d| d.name()).collect()
    }

    #[test]
    fn argument_parsing() {
        let parsed = args(&["--scale", "0.5", "--seed", "9", "--methods", "s2g,stomp"]);
        assert_eq!(scale_from_args(&parsed), 0.5);
        assert_eq!(seed_from_args(&parsed), 9);
        assert_eq!(
            names(&methods_from_args(&parsed).unwrap()),
            ["S2G", "STOMP"]
        );

        let err = methods_from_args(&args(&["--methods", "s2g,stomp,bogus"]))
            .err()
            .expect("an unknown label must be rejected");
        assert!(err.contains("\"bogus\""), "{err}");
        assert!(err.contains("S2G|T|/2") && err.contains("LSTM-AD"), "{err}");
        assert!(methods_from_args(&args(&["--methods", "s2g,stmop"])).is_err());

        let empty: Vec<String> = vec![];
        assert_eq!(scale_from_args(&empty), 0.2);
        assert_eq!(methods_from_args(&empty).unwrap().len(), 8);
    }

    #[test]
    fn methods_select_roster_labels_case_insensitively_in_order() {
        let all = paper_roster();
        let labels: Vec<&str> = all.iter().map(|d| d.name()).collect();
        let list = labels.join(",");
        let picked = methods_from_args(&args(&["--methods", &list])).unwrap();
        assert_eq!(names(&picked), labels);
        let lower = methods_from_args(&args(&["--methods", &list.to_ascii_lowercase()]));
        assert_eq!(names(&lower.unwrap()), labels);
        let swapped = methods_from_args(&args(&["--methods", "stomp, S2G|t|/2 ,s2g"])).unwrap();
        assert_eq!(names(&swapped), ["STOMP", "S2G|T|/2", "S2G"]);
        assert!(methods_from_args(&args(&["--methods", "s2g,"])).is_err());
    }
}
