//! The EasyTime platform facade.
//!
//! [`EasyTime`] wires the four modules of Figure 1 together: the benchmark
//! (data registry + method roster + evaluation pipeline), one-click
//! evaluation, the automated ensemble, and natural-language Q&A — all
//! sharing one benchmark-knowledge database.

use crate::config::{parse_config, DatasetSelection, FileConfig};
use crate::error::EasyTimeError;
use crate::knowledge::{
    new_knowledge_db, read_perf_matrix, record_dataset, record_method, record_result,
};
use easytime_automl::ensemble::WeightMode;
use easytime_automl::{AutoEnsemble, PerfMatrix, Recommendation, Recommender, RecommenderConfig};
use easytime_data::characteristics::Characteristics;
use easytime_data::synthetic::{build_corpus, CorpusConfig};
use easytime_data::{csv, Dataset, DatasetRegistry, Domain, Frequency, TimeSeries};
use easytime_db::{Database, QueryResult};
use easytime_eval::{evaluate_corpus, EvalConfig, EvalRecord, Leaderboard, MetricRegistry, RunLog};
use easytime_models::zoo::{standard_zoo, ZooEntry};
use easytime_qa::QaSession;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// The EasyTime platform: one-click evaluation, automated ensembles, and
/// Q&A over a shared benchmark.
pub struct EasyTime {
    registry: DatasetRegistry,
    metrics: MetricRegistry,
    knowledge: Mutex<Database>,
    log: RunLog,
    zoo: Vec<ZooEntry>,
}

impl std::fmt::Debug for EasyTime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EasyTime")
            .field("datasets", &self.registry.len())
            .field("methods", &self.zoo.len())
            .finish_non_exhaustive()
    }
}

impl Default for EasyTime {
    fn default() -> Self {
        Self::new()
    }
}

impl EasyTime {
    /// Guarded access to the knowledge database; a poisoned lock is
    /// recovered rather than propagated (the database is a value type and
    /// every write path replaces whole rows).
    fn knowledge_guard(&self) -> MutexGuard<'_, Database> {
        self.knowledge.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Creates an empty platform (no datasets yet) with the standard
    /// method roster registered in the knowledge base.
    pub fn new() -> EasyTime {
        let zoo = standard_zoo();
        let mut db = new_knowledge_db();
        for entry in &zoo {
            #[expect(
                clippy::expect_used,
                reason = "a freshly created schema statically accepts the standard roster; \
                          failure here is a programming error in the schema itself"
            )]
            record_method(&mut db, entry).expect("fresh schema accepts the roster");
        }
        EasyTime {
            registry: DatasetRegistry::new(),
            metrics: MetricRegistry::standard(),
            knowledge: Mutex::new(db),
            log: RunLog::new(),
            zoo,
        }
    }

    /// Creates a platform pre-populated with a synthetic benchmark corpus
    /// (the stand-in for TFB's dataset collection).
    pub fn with_benchmark(config: &CorpusConfig) -> Result<EasyTime, EasyTimeError> {
        let platform = EasyTime::new();
        for dataset in build_corpus(config)? {
            platform.add_dataset(dataset)?;
        }
        Ok(platform)
    }

    /// The dataset registry.
    pub fn registry(&self) -> &DatasetRegistry {
        &self.registry
    }

    /// The metric registry (register custom metrics here).
    pub fn metrics(&self) -> &MetricRegistry {
        &self.metrics
    }

    /// The method roster with descriptions.
    pub fn method_roster(&self) -> &[ZooEntry] {
        &self.zoo
    }

    /// The accumulated run log.
    pub fn run_log(&self) -> &RunLog {
        &self.log
    }

    /// Registers a dataset and records its meta-information in the
    /// knowledge base.
    pub fn add_dataset(&self, dataset: Dataset) -> Result<(), EasyTimeError> {
        record_dataset(&mut self.knowledge_guard(), &dataset)?;
        self.registry.insert(dataset);
        Ok(())
    }

    /// Uploads a univariate dataset from CSV text (Figure 4, label 1:
    /// the *Upload Dataset* button). Returns its measured characteristics
    /// (label 4).
    pub fn upload_csv(
        &self,
        id: &str,
        domain: Domain,
        csv_text: &str,
        frequency: Frequency,
    ) -> Result<Characteristics, EasyTimeError> {
        let series = csv::read_univariate(id, csv_text, frequency)?;
        let dataset = Dataset::from_univariate(id, domain, series);
        let chars = dataset.meta.characteristics;
        self.add_dataset(dataset)?;
        Ok(chars)
    }

    /// Measured characteristics of a registered dataset (Figure 4,
    /// label 4).
    pub fn characteristics(&self, dataset_id: &str) -> Result<Characteristics, EasyTimeError> {
        Ok(self.registry.get(dataset_id)?.meta.characteristics)
    }

    /// One-click evaluation from a parsed configuration (paper S1).
    ///
    /// Runs the pipeline over the selected datasets, appends the records
    /// to the run log, and materializes them in the knowledge base.
    pub fn one_click(&self, config: &FileConfig) -> Result<Vec<EvalRecord>, EasyTimeError> {
        let datasets = self.registry.filter(|d| config.datasets.matches(d));
        if datasets.is_empty() {
            return Err(EasyTimeError::Config {
                reason: "the dataset selection matches no registered datasets".into(),
            });
        }
        let eval = config.eval.clone().into_validated(&self.metrics)?;
        let records = evaluate_corpus(&datasets, &eval, &self.metrics)?;
        {
            let mut db = self.knowledge_guard();
            for r in &records {
                record_result(&mut db, r)?;
            }
        }
        self.log.extend(records.clone());
        Ok(records)
    }

    /// One-click evaluation straight from configuration-file text — the
    /// paper's "edit the configuration file … achieving one click
    /// evaluation".
    pub fn one_click_json(&self, config_text: &str) -> Result<Vec<EvalRecord>, EasyTimeError> {
        let config = parse_config(config_text)?;
        self.one_click(&config)
    }

    /// Convenience: evaluate a method list on every registered dataset.
    pub fn evaluate_all(&self, eval: EvalConfig) -> Result<Vec<EvalRecord>, EasyTimeError> {
        self.one_click(&FileConfig { eval, datasets: DatasetSelection::All })
    }

    /// Leaderboard over everything evaluated so far.
    pub fn leaderboard(&self, metric: &str) -> Result<Leaderboard, EasyTimeError> {
        let lower = self.metrics.get(metric)?.lower_is_better();
        Ok(self.log.leaderboard(metric, lower))
    }

    /// Snapshot of the knowledge database. It shares every table and index
    /// with the platform copy-on-write, so it costs O(tables), not O(rows);
    /// later platform writes copy what they touch and stay invisible to
    /// the snapshot, which keeps Q&A sessions isolated.
    pub fn knowledge_snapshot(&self) -> Database {
        self.knowledge_guard().clone()
    }

    /// Runs a read-only SQL query against the knowledge base (the power-
    /// user path shown in Figure 5, label 4).
    pub fn query_knowledge(&self, sql: &str) -> Result<QueryResult, EasyTimeError> {
        Ok(self.knowledge_guard().query(sql)?)
    }

    /// Opens a natural-language Q&A session over the current knowledge.
    pub fn qa_session(&self) -> Result<QaSession, EasyTimeError> {
        Ok(QaSession::new(self.knowledge_snapshot())?)
    }

    /// Offline pretraining of the method recommender on the registered
    /// corpus (Figure 2, offline phase). Also materializes the benchmark
    /// results it produces into the knowledge base.
    pub fn pretrain_recommender(
        &self,
        config: &RecommenderConfig,
    ) -> Result<(Recommender, PerfMatrix), EasyTimeError> {
        let corpus = self.registry.all();
        let (rec, matrix) = Recommender::pretrain(&corpus, config)?;
        Ok((rec, matrix))
    }

    /// Pretrains the recommender from results already accumulated in the
    /// knowledge base (no new evaluation runs).
    pub fn pretrain_recommender_from_knowledge(
        &self,
        config: &RecommenderConfig,
    ) -> Result<Recommender, EasyTimeError> {
        let matrix = read_perf_matrix(&self.knowledge_guard(), &config.metric)?;
        let mut series = Vec::with_capacity(matrix.dataset_ids.len());
        for id in &matrix.dataset_ids {
            series.push(self.registry.get(id)?.primary_series());
        }
        Ok(Recommender::pretrain_from_matrix(&series, &matrix, config)?)
    }

    /// Online phase: recommend methods for a registered dataset
    /// (Figure 4, label 3: the *Recommend Method* button).
    pub fn recommend(
        &self,
        recommender: &Recommender,
        dataset_id: &str,
        k: usize,
    ) -> Result<Vec<Recommendation>, EasyTimeError> {
        let series = self.registry.get(dataset_id)?.primary_series();
        Ok(recommender.recommend(&series).into_iter().take(k.max(1)).collect())
    }

    /// Builds the automated ensemble for a series (Figure 4, label 8: the
    /// *AutoML* button).
    pub fn auto_ensemble(
        &self,
        recommender: &Recommender,
        series: &TimeSeries,
        k: usize,
    ) -> Result<AutoEnsemble, EasyTimeError> {
        Ok(AutoEnsemble::fit(recommender, series, k, 0.2, WeightMode::Learned)?)
    }

    /// Uploads a multivariate dataset from wide-layout CSV text.
    pub fn upload_multivariate_csv(
        &self,
        id: &str,
        domain: Domain,
        csv_text: &str,
        frequency: Frequency,
    ) -> Result<Characteristics, EasyTimeError> {
        let series = csv::read_multivariate(id, csv_text, frequency)?;
        let dataset = Dataset::from_multivariate(id, domain, series);
        let chars = dataset.meta.characteristics;
        self.add_dataset(dataset)?;
        Ok(chars)
    }

    /// Evaluates multivariate methods (VAR and channel-independent zoo
    /// members) on a registered multivariate dataset, recording results in
    /// the run log.
    pub fn evaluate_multivariate(
        &self,
        dataset_id: &str,
        specs: &[easytime_models::multivariate::MultiModelSpec],
        config: &EvalConfig,
    ) -> Result<Vec<EvalRecord>, EasyTimeError> {
        let dataset = self.registry.get(dataset_id)?;
        let Some(series) = dataset.as_multivariate() else {
            return Err(EasyTimeError::Config {
                reason: format!("dataset '{dataset_id}' is not multivariate"),
            });
        };
        let validated = config.clone().into_validated(&self.metrics)?;
        let mut records = Vec::with_capacity(specs.len());
        for spec in specs {
            records.push(easytime_eval::evaluate_multivariate(
                dataset_id,
                series,
                spec,
                &validated,
                &self.metrics,
            )?);
        }
        self.log.extend(records.clone());
        Ok(records)
    }

    /// Pretrains the zero-shot global model on the registered corpus —
    /// the foundation-model tier of the method layer. Specialize it to
    /// any series with [`easytime_models::global::GlobalRidge::specialize`].
    pub fn pretrain_global_model(
        &self,
        lookback: usize,
    ) -> Result<easytime_models::global::GlobalRidge, EasyTimeError> {
        let corpus: Vec<TimeSeries> =
            self.registry.all().iter().map(Dataset::primary_series).collect();
        let mut model = easytime_models::global::GlobalRidge::new(lookback, 1e-3)?;
        model.fit_corpus(&corpus)?;
        Ok(model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use easytime_eval::Strategy;
    use easytime_models::ModelSpec;

    fn small_platform() -> EasyTime {
        EasyTime::with_benchmark(&CorpusConfig {
            domains: vec![Domain::Nature, Domain::Web],
            per_domain: 3,
            length: 150,
            ..CorpusConfig::default()
        })
        .expect("with_benchmark succeeds")
    }

    #[test]
    fn platform_registers_corpus_and_roster() {
        let p = small_platform();
        assert_eq!(p.registry().len(), 6);
        assert!(p.method_roster().len() >= 20);
        let methods = p.query_knowledge("SELECT COUNT(*) AS n FROM methods").expect("query_knowledge succeeds");
        assert_eq!(methods.rows[0][0].to_string(), p.method_roster().len().to_string());
        let datasets = p.query_knowledge("SELECT COUNT(*) AS n FROM datasets").expect("query_knowledge succeeds");
        assert_eq!(datasets.rows[0][0].to_string(), "6");
    }

    #[test]
    fn one_click_json_end_to_end() {
        let p = small_platform();
        let records = p
            .one_click_json(
                r#"{
                    "methods": ["naive", "seasonal_naive"],
                    "strategy": {"type": "fixed", "horizon": 12},
                    "datasets": {"domain": "nature"}
                }"#,
            )
            .expect("JSON config is valid");
        assert_eq!(records.len(), 3 * 2);
        assert!(records.iter().all(EvalRecord::is_ok));
        // Results landed in the knowledge base and the log.
        let n = p.query_knowledge("SELECT COUNT(*) AS n FROM results").expect("query_knowledge succeeds");
        assert_eq!(n.rows[0][0].to_string(), "6");
        assert_eq!(p.run_log().len(), 6);
        // Leaderboard is available.
        let board = p.leaderboard("mae").expect("leaderboard succeeds");
        assert_eq!(board.rows.len(), 2);
    }

    #[test]
    fn empty_selection_is_an_error() {
        let p = small_platform();
        let err = p
            .one_click_json(r#"{"datasets": {"domain": "banking"}}"#)
            .unwrap_err();
        assert!(matches!(err, EasyTimeError::Config { .. }));
    }

    #[test]
    fn one_click_json_reports_typed_validation_failures() {
        // The JSON path shares `one_click`'s validated-config path, so an
        // empty roster surfaces as the same typed eval error — not a
        // parser-specific stringly failure.
        let p = small_platform();
        for text in [r#"{"methods": []}"#, r#"{"metrics": []}"#] {
            let err = p.one_click_json(text).unwrap_err();
            assert!(
                matches!(
                    err,
                    EasyTimeError::Eval(easytime_eval::EvalError::InvalidConfig { .. })
                ),
                "expected typed InvalidConfig for {text}, got {err:?}"
            );
        }
    }

    #[test]
    fn upload_csv_measures_characteristics() {
        let p = EasyTime::new();
        let mut csv = String::from("value\n");
        for t in 0..120 {
            csv.push_str(&format!(
                "{}\n",
                10.0 + 5.0 * (2.0 * std::f64::consts::PI * t as f64 / 12.0).sin()
            ));
        }
        let chars = p.upload_csv("mine", Domain::Economic, &csv, Frequency::Monthly).expect("upload_csv succeeds");
        assert!(chars.seasonality > 0.8);
        assert_eq!(p.registry().len(), 1);
        assert_eq!(p.characteristics("mine").expect("characteristics succeeds").period, 12);
        // And it is queryable through SQL.
        let r = p
            .query_knowledge("SELECT seasonality FROM datasets WHERE id = 'mine'")
            .expect("query_knowledge succeeds");
        assert!(r.rows[0][0].as_f64().expect("as_f64 succeeds") > 0.8);
    }

    #[test]
    fn qa_over_evaluated_results() {
        let p = small_platform();
        p.one_click_json(r#"{"methods": ["naive", "seasonal_naive", "theta"]}"#).expect("JSON config is valid");
        let mut session = p.qa_session().expect("qa_session succeeds");
        let resp = session.ask("What are the top 3 methods by MAE?").expect("question is answered");
        assert_eq!(resp.table.rows.len(), 3);
        assert!(resp.answer.contains("1."));
    }

    #[test]
    fn recommender_from_knowledge_matches_runtime_path() {
        let p = small_platform();
        // Accumulate results, then pretrain from the knowledge base.
        p.one_click_json(
            r#"{"methods": ["naive", "seasonal_naive", "drift"],
                "strategy": {"type": "fixed", "horizon": 12},
                "metrics": ["smape"]}"#,
        )
        .expect("JSON config is valid");
        let config = RecommenderConfig {
            methods: vec![ModelSpec::Naive, ModelSpec::SeasonalNaive(None), ModelSpec::Drift],
            strategy: Strategy::Fixed { horizon: 12 },
            ..RecommenderConfig::default()
        };
        let rec = p.pretrain_recommender_from_knowledge(&config).expect("pretraining succeeds");
        let top = p.recommend(&rec, &p.registry().ids()[0], 2).expect("recommendation succeeds");
        assert_eq!(top.len(), 2);
        assert!(top[0].score >= top[1].score);
        assert_eq!((top[0].rank, top[1].rank), (0, 1));
    }

    #[test]
    fn multivariate_upload_and_evaluation() {
        use easytime_models::multivariate::MultiModelSpec;
        let p = EasyTime::new();
        let mut csv = String::from("a,b\n");
        for t in 0..200 {
            let x = ((t as f64) * 0.3).sin() * 5.0 + 10.0;
            csv.push_str(&format!("{x},{}\n", x * 2.0 + 1.0));
        }
        let chars = p
            .upload_multivariate_csv("pair", Domain::Electricity, &csv, Frequency::Hourly)
            .expect("upload_multivariate_csv succeeds");
        assert!(chars.correlation > 0.9, "correlation {}", chars.correlation);

        let config = EvalConfig {
            strategy: easytime_eval::Strategy::Fixed { horizon: 8 },
            ..EvalConfig::default()
        };
        let records = p
            .evaluate_multivariate(
                "pair",
                &[
                    MultiModelSpec::Var { order: 2 },
                    MultiModelSpec::PerChannel(ModelSpec::Naive),
                ],
                &config,
            )
            .expect("evaluate_multivariate succeeds");
        assert_eq!(records.len(), 2);
        assert!(records.iter().all(EvalRecord::is_ok));
        assert_eq!(p.run_log().len(), 2);
        // A univariate dataset is rejected on this path.
        let uni_csv = "value\n1\n2\n3\n4\n5\n6\n7\n8\n9\n10\n";
        p.upload_csv("uni", Domain::Web, uni_csv, Frequency::Daily).expect("upload_csv succeeds");
        assert!(p
            .evaluate_multivariate("uni", &[MultiModelSpec::Var { order: 1 }], &config)
            .is_err());
    }

    #[test]
    fn global_model_pretrains_and_specializes() {
        let p = small_platform();
        let global = p.pretrain_global_model(16).expect("pretrain_global_model succeeds");
        assert!(global.is_pretrained());
        let series = p.registry().all()[0].primary_series();
        let zero_shot = global.specialize(&series).expect("specialization succeeds");
        use easytime_models::Forecaster;
        let f = zero_shot.forecast(8).expect("forecast succeeds on a fitted model");
        assert_eq!(f.len(), 8);
        assert!(f.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn auto_ensemble_via_platform() {
        let p = small_platform();
        let config = RecommenderConfig {
            methods: vec![ModelSpec::SeasonalNaive(None), ModelSpec::Drift, ModelSpec::Mean],
            strategy: Strategy::Fixed { horizon: 12 },
            ..RecommenderConfig::default()
        };
        let (rec, _) = p.pretrain_recommender(&config).expect("pretrain_recommender succeeds");
        let series = p.registry().get(&p.registry().ids()[0]).expect("key is present in the object").primary_series();
        let ens = p.auto_ensemble(&rec, &series, 2).expect("auto_ensemble succeeds");
        let forecast = ens.forecast(12).expect("forecast succeeds on a fitted model");
        assert_eq!(forecast.len(), 12);
        assert!(forecast.iter().all(|v| v.is_finite()));
    }
}
