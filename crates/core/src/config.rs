//! Configuration files for one-click evaluation.
//!
//! The paper's S1 demonstration: "Users need only edit the configuration
//! file in the web frontend, thus achieving one click evaluation." This
//! module defines that file format (JSON) and compiles it into the
//! pipeline's [`EvalConfig`] plus a dataset selection. Example:
//!
//! ```json
//! {
//!   "methods": ["theta", "seasonal_naive", "dlinear_32"],
//!   "strategy": {"type": "rolling", "horizon": 24, "stride": 24},
//!   "split": {"train": 0.7, "val": 0.1, "drop_last": true},
//!   "scaler": "zscore",
//!   "metrics": ["mae", "rmse", "smape", "mase"],
//!   "datasets": {"domain": "web"}
//! }
//! ```
//!
//! Every field has a sensible default, so the minimal valid file is `{}`
//! (evaluate `naive` on everything, fixed horizon 12 — the paper's
//! "run a method on all existing datasets with one click").

use crate::error::EasyTimeError;
use crate::json::Json;
use easytime_data::scaler::ScalerKind;
use easytime_data::{Dataset, Domain, SplitSpec};
use easytime_eval::{EvalConfig, RefitPolicy, Strategy};
use easytime_models::ModelSpec;

/// Which datasets a run covers.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum DatasetSelection {
    /// Every dataset in the registry.
    #[default]
    All,
    /// Explicit ids.
    Ids(Vec<String>),
    /// Every dataset of one domain.
    Domain(Domain),
}

impl DatasetSelection {
    /// True when the selection includes `dataset`.
    pub fn matches(&self, dataset: &Dataset) -> bool {
        match self {
            DatasetSelection::All => true,
            DatasetSelection::Ids(ids) => ids.contains(&dataset.meta.id),
            DatasetSelection::Domain(domain) => dataset.meta.domain == *domain,
        }
    }
}

/// A parsed one-click configuration file.
#[derive(Debug, Clone, PartialEq)]
pub struct FileConfig {
    /// The pipeline configuration.
    pub eval: EvalConfig,
    /// The dataset selection.
    pub datasets: DatasetSelection,
}

fn config_err(reason: impl Into<String>) -> EasyTimeError {
    EasyTimeError::Config { reason: reason.into() }
}

/// Parses a one-click configuration file from JSON text.
///
/// Parsing is purely syntactic: names must resolve (methods, scalers,
/// domains, refit policies) but semantic validation — non-empty method
/// and metric rosters, known metric names — is owned by
/// [`easytime_eval::EvalConfig::into_validated`], which `one_click` and
/// `one_click_json` both route through. That keeps a single validation
/// path with typed [`easytime_eval::EvalError::InvalidConfig`] failures
/// instead of duplicating ad-hoc checks here.
pub fn parse_config(text: &str) -> Result<FileConfig, EasyTimeError> {
    let doc = Json::parse(text)?;
    if !matches!(doc, Json::Object(_)) {
        return Err(config_err("configuration must be a JSON object"));
    }

    // --- methods ---
    let methods: Vec<ModelSpec> = match doc.get("methods") {
        None => vec![ModelSpec::Naive],
        Some(Json::Array(items)) => items
            .iter()
            .map(|m| {
                let name =
                    m.as_str().ok_or_else(|| config_err("'methods' entries must be strings"))?;
                ModelSpec::parse(name).map_err(EasyTimeError::Model)
            })
            .collect::<Result<_, _>>()?,
        Some(Json::String(s)) if s == "all" => easytime_models::zoo::standard_zoo()
            .into_iter()
            .map(|e| e.spec)
            .collect(),
        Some(_) => return Err(config_err("'methods' must be an array of names or \"all\"")),
    };

    // --- strategy ---
    let strategy = match doc.get("strategy") {
        None => Strategy::Fixed { horizon: 12 },
        Some(s) => {
            let kind = s.get("type").and_then(Json::as_str).unwrap_or("fixed");
            let horizon = s
                .get("horizon")
                .map(|h| h.as_usize().ok_or_else(|| config_err("'horizon' must be a positive integer")))
                .transpose()?
                .unwrap_or(12);
            match kind {
                "fixed" => Strategy::Fixed { horizon },
                "rolling" => {
                    let stride = s
                        .get("stride")
                        .map(|v| {
                            v.as_usize()
                                .ok_or_else(|| config_err("'stride' must be a positive integer"))
                        })
                        .transpose()?
                        .unwrap_or(horizon);
                    let max_windows = s
                        .get("max_windows")
                        .map(|v| {
                            v.as_usize()
                                .ok_or_else(|| config_err("'max_windows' must be an integer"))
                        })
                        .transpose()?;
                    Strategy::Rolling { horizon, stride, max_windows }
                }
                other => return Err(config_err(format!("unknown strategy type '{other}'"))),
            }
        }
    };

    // --- split ---
    let split = match doc.get("split") {
        None => SplitSpec::default(),
        Some(s) => {
            let train = s.get("train").and_then(Json::as_f64).unwrap_or(0.7);
            let val = s.get("val").and_then(Json::as_f64).unwrap_or(0.1);
            let drop_last = s.get("drop_last").and_then(Json::as_bool).unwrap_or(false);
            SplitSpec::new(train, val, drop_last).map_err(EasyTimeError::Data)?
        }
    };

    // --- scaler ---
    let scaler = match doc.get("scaler") {
        None => ScalerKind::ZScore,
        Some(s) => {
            let name = s.as_str().ok_or_else(|| config_err("'scaler' must be a string"))?;
            ScalerKind::parse(name)
                .ok_or_else(|| config_err(format!("unknown scaler '{name}'")))?
        }
    };

    // --- metrics ---
    let metrics: Vec<String> = match doc.get("metrics") {
        None => vec!["mae".into(), "mse".into(), "rmse".into(), "smape".into(), "mase".into(), "r2".into()],
        Some(Json::Array(items)) => items
            .iter()
            .map(|m| {
                m.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| config_err("'metrics' entries must be strings"))
            })
            .collect::<Result<_, _>>()?,
        Some(_) => return Err(config_err("'metrics' must be an array of names")),
    };

    // --- refit policy ---
    let refit = match doc.get("refit") {
        None => RefitPolicy::Always,
        Some(r) => {
            let name = r.as_str().ok_or_else(|| config_err("'refit' must be a string"))?;
            RefitPolicy::parse(name)
                .ok_or_else(|| config_err(format!("unknown refit policy '{name}'")))?
        }
    };

    // --- threads ---
    let threads = doc
        .get("threads")
        .map(|t| t.as_usize().ok_or_else(|| config_err("'threads' must be an integer")))
        .transpose()?
        .unwrap_or(0);

    // --- datasets ---
    let datasets = match doc.get("datasets") {
        None => DatasetSelection::All,
        Some(Json::String(s)) if s == "all" => DatasetSelection::All,
        Some(Json::Array(items)) => {
            let ids = items
                .iter()
                .map(|v| {
                    v.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| config_err("'datasets' ids must be strings"))
                })
                .collect::<Result<Vec<_>, _>>()?;
            DatasetSelection::Ids(ids)
        }
        Some(obj) => {
            if let Some(domain) = obj.get("domain").and_then(Json::as_str) {
                let d = Domain::parse(domain)
                    .ok_or_else(|| config_err(format!("unknown domain '{domain}'")))?;
                DatasetSelection::Domain(d)
            } else if let Some(ids) = obj.get("ids").and_then(Json::as_array) {
                let ids = ids
                    .iter()
                    .map(|v| {
                        v.as_str()
                            .map(str::to_string)
                            .ok_or_else(|| config_err("'datasets.ids' must be strings"))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                DatasetSelection::Ids(ids)
            } else {
                return Err(config_err(
                    "'datasets' must be \"all\", an id array, or {\"domain\"|\"ids\": …}",
                ));
            }
        }
    };

    Ok(FileConfig {
        eval: EvalConfig { methods, strategy, split, scaler, metrics, threads, refit },
        datasets,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use easytime_data::{Frequency, TimeSeries};

    #[test]
    fn empty_object_gives_full_defaults() {
        let c = parse_config("{}").unwrap();
        assert_eq!(c.eval.methods, vec![ModelSpec::Naive]);
        assert_eq!(c.eval.strategy, Strategy::Fixed { horizon: 12 });
        assert_eq!(c.eval.scaler, ScalerKind::ZScore);
        assert_eq!(c.datasets, DatasetSelection::All);
        assert_eq!(c.eval.refit, RefitPolicy::Always);
        assert!(c.eval.metrics.contains(&"mase".to_string()));
    }

    #[test]
    fn full_config_parses() {
        let text = r#"{
            "methods": ["theta", "seasonal_naive", "dlinear_32"],
            "strategy": {"type": "rolling", "horizon": 24, "stride": 12, "max_windows": 5},
            "split": {"train": 0.6, "val": 0.2, "drop_last": true},
            "scaler": "minmax",
            "metrics": ["mae", "smape"],
            "refit": "warm_start",
            "threads": 2,
            "datasets": {"domain": "web"}
        }"#;
        let c = parse_config(text).unwrap();
        assert_eq!(c.eval.methods.len(), 3);
        assert_eq!(
            c.eval.strategy,
            Strategy::Rolling { horizon: 24, stride: 12, max_windows: Some(5) }
        );
        assert!(c.eval.split.drop_last);
        assert_eq!(c.eval.scaler, ScalerKind::MinMax);
        assert_eq!(c.eval.refit, RefitPolicy::WarmStart);
        assert_eq!(c.eval.threads, 2);
        assert_eq!(c.datasets, DatasetSelection::Domain(Domain::Web));
    }

    #[test]
    fn methods_all_expands_the_zoo() {
        let c = parse_config(r#"{"methods": "all"}"#).unwrap();
        assert!(c.eval.methods.len() >= 20);
    }

    #[test]
    fn dataset_selection_variants() {
        let ids = parse_config(r#"{"datasets": ["a", "b"]}"#).unwrap();
        assert_eq!(ids.datasets, DatasetSelection::Ids(vec!["a".into(), "b".into()]));
        let ids2 = parse_config(r#"{"datasets": {"ids": ["x"]}}"#).unwrap();
        assert_eq!(ids2.datasets, DatasetSelection::Ids(vec!["x".into()]));
        let all = parse_config(r#"{"datasets": "all"}"#).unwrap();
        assert_eq!(all.datasets, DatasetSelection::All);
        let web = parse_config(r#"{"datasets": {"domain": "web"}}"#).unwrap();

        let dataset = |id: &str, domain| {
            let series = TimeSeries::new(id, vec![1.0; 8], Frequency::Daily);
            Dataset::from_univariate(id, domain, series.unwrap())
        };
        let (a, x) = (dataset("a", Domain::Web), dataset("x", Domain::Stock));
        assert!(all.datasets.matches(&a) && ids.datasets.matches(&a) && web.datasets.matches(&a));
        assert!(!ids2.datasets.matches(&a));
        assert!(all.datasets.matches(&x) && ids2.datasets.matches(&x));
        assert!(!ids.datasets.matches(&x) && !web.datasets.matches(&x));
    }

    #[test]
    fn rejects_bad_configs() {
        assert!(parse_config("[]").is_err());
        assert!(parse_config(r#"{"methods": ["transformer"]}"#).is_err());
        assert!(parse_config(r#"{"strategy": {"type": "walkforward"}}"#).is_err());
        assert!(parse_config(r#"{"split": {"train": 0.9, "val": 0.2}}"#).is_err());
        assert!(parse_config(r#"{"scaler": "log"}"#).is_err());
        assert!(parse_config(r#"{"refit": "sometimes"}"#).is_err());
        assert!(parse_config(r#"{"datasets": {"domain": "space"}}"#).is_err());
        assert!(parse_config("not json").is_err());
    }

    #[test]
    fn hostile_nesting_is_a_config_error_not_a_stack_overflow() {
        for text in ["[".repeat(100_000), format!("{{\"methods\": {}", "[".repeat(100_000))] {
            match parse_config(&text) {
                Err(EasyTimeError::Config { reason }) => {
                    assert!(reason.contains("nested deeper than"), "{reason}");
                }
                other => panic!("expected a config error, got {other:?}"),
            }
        }
    }

    #[test]
    fn empty_rosters_parse_and_fail_later_in_validation() {
        // Semantic validation (non-empty rosters) is the job of the
        // sealed eval-config path, not the parser: both `one_click` and
        // `one_click_json` reject these with the same typed error.
        assert!(parse_config(r#"{"methods": []}"#).is_ok());
        assert!(parse_config(r#"{"metrics": []}"#).is_ok());
    }

    #[test]
    fn rolling_stride_defaults_to_horizon() {
        let c = parse_config(r#"{"strategy": {"type": "rolling", "horizon": 8}}"#).unwrap();
        assert_eq!(c.eval.strategy, Strategy::Rolling { horizon: 8, stride: 8, max_windows: None });
    }
}
