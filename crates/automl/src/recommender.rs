//! Method recommendation: offline pretraining and online inference.
//!
//! Offline (paper Figure 2, left): evaluate the method zoo on the corpus,
//! embed every corpus series, convert the per-series score vectors into
//! soft labels, and train the classifier. Online (right): embed the new
//! series and read the classifier's probability ranking.

use crate::classifier::{ClassifierConfig, LabelMode, SoftLabelClassifier};
use crate::error::AutoMlError;
use crate::labels::{hard_labels, soft_labels};
use easytime_data::scaler::ScalerKind;
use easytime_data::{Dataset, SplitSpec, TimeSeries};
use easytime_eval::{
    evaluate_corpus, EvalConfig, EvalRecord, FailureKind, MetricRegistry, Strategy,
};
use easytime_models::zoo::standard_zoo;
use easytime_models::ModelSpec;
use easytime_repr::{EmbedScratch, Embedder, EmbedderConfig};

/// Configuration of recommender pretraining.
#[derive(Debug, Clone)]
pub struct RecommenderConfig {
    /// Candidate methods (the zoo the classifier ranks).
    pub methods: Vec<ModelSpec>,
    /// Lower-is-better metric the ranking optimizes (scale-free metrics
    /// such as `smape`/`mase` compare sanely across datasets).
    pub metric: String,
    /// Evaluation strategy for the offline benchmark runs.
    pub strategy: Strategy,
    /// Split used in offline evaluation.
    pub split: SplitSpec,
    /// Normalization for offline evaluation.
    pub scaler: ScalerKind,
    /// Embedder configuration.
    pub embedder: EmbedderConfig,
    /// Classifier training configuration.
    pub classifier: ClassifierConfig,
    /// Soft vs hard labels (ablation A1).
    pub label_mode: LabelMode,
    /// Soft-label temperature.
    pub temperature: f64,
    /// Worker threads for the offline sweep (0 = all cores).
    pub threads: usize,
}

impl Default for RecommenderConfig {
    fn default() -> Self {
        RecommenderConfig {
            methods: standard_zoo().into_iter().map(|e| e.spec).collect(),
            metric: "smape".into(),
            strategy: Strategy::Fixed { horizon: 24 },
            split: SplitSpec::default(),
            scaler: ScalerKind::ZScore,
            embedder: EmbedderConfig::default(),
            classifier: ClassifierConfig::default(),
            label_mode: LabelMode::Soft,
            temperature: 0.15,
            threads: 0,
        }
    }
}

/// Per-dataset × per-method score matrix (lower is better; NaN = failed).
#[derive(Debug, Clone, PartialEq)]
pub struct PerfMatrix {
    /// Dataset ids, row order.
    pub dataset_ids: Vec<String>,
    /// Method names, column order.
    pub methods: Vec<String>,
    /// `scores[dataset][method]`.
    pub scores: Vec<Vec<f64>>,
}

impl PerfMatrix {
    /// Builds the matrix from pipeline records for one metric.
    pub fn from_records(
        records: &[EvalRecord],
        dataset_ids: &[String],
        methods: &[String],
        metric: &str,
    ) -> PerfMatrix {
        let mut scores = vec![vec![f64::NAN; methods.len()]; dataset_ids.len()];
        for r in records {
            let (Some(di), Some(mi)) = (
                dataset_ids.iter().position(|d| *d == r.dataset_id),
                methods.iter().position(|m| *m == r.method),
            ) else {
                continue;
            };
            // Typed failure filter (no error-string matching): every
            // categorized failure leaves the NaN sentinel in the matrix.
            match r.failure_kind() {
                None => scores[di][mi] = r.score(metric),
                Some(
                    FailureKind::DataTooShort
                    | FailureKind::ModelDiverged
                    | FailureKind::ScalerDegenerate
                    | FailureKind::Other,
                ) => {}
            }
        }
        PerfMatrix { dataset_ids: dataset_ids.to_vec(), methods: methods.to_vec(), scores }
    }

    /// Index of the best (lowest-scoring) method on dataset `i`.
    pub fn best_method(&self, i: usize) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for (m, &s) in self.scores[i].iter().enumerate() {
            if s.is_finite() && best.is_none_or(|(_, b)| s < b) {
                best = Some((m, s));
            }
        }
        best.map(|(m, _)| m)
    }

    /// Method indices of dataset `i` sorted best (lowest) first; failed
    /// methods sort last.
    pub fn ranking(&self, i: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.methods.len()).collect();
        idx.sort_by(|&a, &b| {
            let sa = self.scores[i][a];
            let sb = self.scores[i][b];
            match (sa.is_finite(), sb.is_finite()) {
                (true, true) => sa.total_cmp(&sb),
                (true, false) => std::cmp::Ordering::Less,
                (false, true) => std::cmp::Ordering::Greater,
                (false, false) => std::cmp::Ordering::Equal,
            }
        });
        idx
    }
}

/// One entry of a method recommendation ranking: the typed replacement
/// for the old `(String, f64)` pairs, shared by the facade's
/// `EasyTime::recommend` and the serving engine's responses.
#[derive(Debug, Clone, PartialEq)]
pub struct Recommendation {
    /// Canonical method name (parses back via `ModelSpec::parse`).
    pub method: String,
    /// Classifier probability assigned to the method.
    pub score: f64,
    /// Zero-based position in the ranking (0 = best).
    pub rank: usize,
}

/// The pretrained recommender: embedder + classifier + method roster.
#[derive(Debug, Clone)]
pub struct Recommender {
    embedder: Embedder,
    classifier: SoftLabelClassifier,
    methods: Vec<String>,
}

impl Recommender {
    /// Offline pretraining from a corpus: runs the zoo, embeds, trains.
    /// Returns the recommender and the raw performance matrix (which the
    /// experiments reuse as the ground truth for ranking quality).
    pub fn pretrain(
        corpus: &[Dataset],
        config: &RecommenderConfig,
    ) -> Result<(Recommender, PerfMatrix), AutoMlError> {
        if corpus.is_empty() {
            return Err(AutoMlError::InvalidInput { reason: "empty pretraining corpus".into() });
        }
        let mut sp = easytime_obs::span("automl.pretrain");
        sp.attr_u64("corpus", corpus.len() as u64);
        sp.attr_u64("methods", config.methods.len() as u64);
        let registry = MetricRegistry::standard();
        let eval_config = EvalConfig::builder()
            .methods(config.methods.iter().cloned())
            .strategy(config.strategy)
            .split(config.split)
            .scaler(config.scaler)
            .metrics([config.metric.clone()])
            .threads(config.threads)
            .build(&registry)?;
        let records = evaluate_corpus(corpus, &eval_config, &registry)?;
        let dataset_ids: Vec<String> = corpus.iter().map(|d| d.meta.id.clone()).collect();
        let methods: Vec<String> = config.methods.iter().map(ModelSpec::name).collect();
        let matrix = PerfMatrix::from_records(&records, &dataset_ids, &methods, &config.metric);

        let series: Vec<TimeSeries> = corpus.iter().map(Dataset::primary_series).collect();
        let rec = Self::pretrain_from_matrix(&series, &matrix, config)?;
        Ok((rec, matrix))
    }

    /// Pretrains from an existing performance matrix (e.g. read back from
    /// the benchmark-knowledge database), skipping the evaluation sweep.
    pub fn pretrain_from_matrix(
        corpus_series: &[TimeSeries],
        matrix: &PerfMatrix,
        config: &RecommenderConfig,
    ) -> Result<Recommender, AutoMlError> {
        if corpus_series.len() != matrix.scores.len() {
            return Err(AutoMlError::InvalidInput {
                reason: format!(
                    "{} series but {} score rows",
                    corpus_series.len(),
                    matrix.scores.len()
                ),
            });
        }
        let mut embedder = Embedder::new(config.embedder);
        let embeddings = {
            let mut esp = easytime_obs::span("automl.embed");
            esp.attr_u64("series", corpus_series.len() as u64);
            embedder.fit(corpus_series)
        };
        let targets: Vec<Vec<f64>> = matrix
            .scores
            .iter()
            .map(|row| match config.label_mode {
                LabelMode::Soft => soft_labels(row, config.temperature),
                LabelMode::Hard => hard_labels(row),
            })
            .collect();
        let classifier = {
            let mut tsp = easytime_obs::span("automl.train_classifier");
            tsp.attr_u64("examples", embeddings.len() as u64);
            SoftLabelClassifier::train(&embeddings, &targets, &config.classifier)?
        };
        Ok(Recommender { embedder, classifier, methods: matrix.methods.clone() })
    }

    /// Online inference: the full probability ranking for a new series,
    /// best first.
    pub fn recommend(&self, series: &TimeSeries) -> Vec<Recommendation> {
        let mut scratch = EmbedScratch::new();
        let mut embedding = Vec::new();
        self.recommend_with(series, &mut scratch, &mut embedding)
    }

    /// Online inference with caller-provided buffers: embeds through
    /// [`Embedder::embed_into`] so batch recommendation loops reuse the
    /// z-normalization scratch and embedding vector across series.
    pub(crate) fn recommend_with(
        &self,
        series: &TimeSeries,
        scratch: &mut EmbedScratch,
        embedding: &mut Vec<f64>,
    ) -> Vec<Recommendation> {
        self.embedder.embed_into(series, scratch, embedding);
        self.rank(self.classifier.predict_proba(embedding))
    }

    /// Coalesced online inference for the serving engine's micro-batcher:
    /// stacks every series' embedding into one row-major matrix
    /// ([`Embedder::embed_batch_into`]) and scores all of them with a
    /// single blocked matmul. Each returned ranking is bit-identical to
    /// [`Recommender::recommend`] on the same series — batching changes
    /// the wall-clock cost, never the answer.
    pub fn recommend_batch(&self, batch: &[&TimeSeries]) -> Vec<Vec<Recommendation>> {
        let mut scratch = EmbedScratch::new();
        let mut flat = Vec::new();
        self.embedder.embed_batch_into(batch, &mut scratch, &mut flat);
        let mut panel = Vec::new();
        self.classifier
            .predict_proba_batch(&flat, &mut panel)
            .into_iter()
            .map(|p| self.rank(p))
            .collect()
    }

    /// Sorts per-method probabilities into a best-first typed ranking.
    fn rank(&self, probs: Vec<f64>) -> Vec<Recommendation> {
        let mut out: Vec<Recommendation> = self
            .methods
            .iter()
            .cloned()
            .zip(probs)
            .map(|(method, score)| Recommendation { method, score, rank: 0 })
            .collect();
        out.sort_by(|a, b| b.score.total_cmp(&a.score));
        for (i, r) in out.iter_mut().enumerate() {
            r.rank = i;
        }
        out
    }

    /// The top-k method names for a new series.
    pub(crate) fn top_k(&self, series: &TimeSeries, k: usize) -> Vec<String> {
        self.recommend(series).into_iter().take(k.max(1)).map(|r| r.method).collect()
    }

    /// The ranked method roster.
    pub fn methods(&self) -> &[String] {
        &self.methods
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use easytime_data::synthetic::{build_corpus, CorpusConfig};
    use easytime_data::{Domain, Frequency};

    /// A small, fast method roster with clearly different strengths.
    fn small_methods() -> Vec<ModelSpec> {
        vec![
            ModelSpec::SeasonalNaive(None),
            ModelSpec::Drift,
            ModelSpec::Mean,
        ]
    }

    fn small_config() -> RecommenderConfig {
        RecommenderConfig {
            methods: small_methods(),
            strategy: Strategy::Fixed { horizon: 12 },
            embedder: EmbedderConfig { num_kernels: 24, use_stats: true, seed: 5 },
            classifier: ClassifierConfig { epochs: 120, ..ClassifierConfig::default() },
            ..RecommenderConfig::default()
        }
    }

    fn corpus() -> Vec<Dataset> {
        build_corpus(&CorpusConfig {
            domains: vec![Domain::Nature, Domain::Stock, Domain::Traffic],
            per_domain: 8,
            length: 180,
            seed: 3,
            ..CorpusConfig::default()
        })
        .unwrap()
    }

    #[test]
    fn pretrain_produces_matrix_and_ranker() {
        let c = corpus();
        let (rec, matrix) = Recommender::pretrain(&c, &small_config()).unwrap();
        assert_eq!(matrix.scores.len(), c.len());
        assert_eq!(matrix.methods.len(), 3);
        assert_eq!(rec.methods().len(), 3);
        // Most corpus entries should have at least one finite score.
        let usable = (0..c.len()).filter(|&i| matrix.best_method(i).is_some()).count();
        assert!(usable >= c.len() * 9 / 10, "{usable}/{} usable", c.len());
    }

    #[test]
    fn recommendation_beats_random_on_seasonal_vs_random_walk() {
        // Seasonal nature data favours seasonal_naive; stock random walks
        // favour drift/mean. The recommender should pick up on that split.
        let c = corpus();
        let (rec, matrix) = Recommender::pretrain(&c, &small_config()).unwrap();
        let mut top1_hits = 0;
        let mut n = 0;
        for (i, d) in c.iter().enumerate() {
            let Some(best) = matrix.best_method(i) else { continue };
            let predicted = rec.top_k(&d.primary_series(), 1)[0].clone();
            if predicted == matrix.methods[best] {
                top1_hits += 1;
            }
            n += 1;
        }
        let hit_rate = top1_hits as f64 / n as f64;
        assert!(
            hit_rate > 1.0 / 3.0 + 0.15,
            "top-1 hit rate {hit_rate} should clearly beat the 1/3 random baseline"
        );
    }

    #[test]
    fn recommend_returns_sorted_distribution() {
        let c = corpus();
        let (rec, _) = Recommender::pretrain(&c, &small_config()).unwrap();
        let ranking = rec.recommend(&c[0].primary_series());
        assert_eq!(ranking.len(), 3);
        assert!(ranking.windows(2).all(|w| w[0].score >= w[1].score));
        assert!(ranking.iter().enumerate().all(|(i, r)| r.rank == i));
        let total: f64 = ranking.iter().map(|r| r.score).sum();
        assert!((total - 1.0).abs() < 1e-9);
        let top2 = rec.top_k(&c[0].primary_series(), 2);
        assert_eq!(top2[0], ranking[0].method);
        assert_eq!(top2.len(), 2);
    }

    #[test]
    fn batched_recommendation_matches_single_series_calls() {
        let c = corpus();
        let (rec, _) = Recommender::pretrain(&c, &small_config()).unwrap();
        let owned: Vec<TimeSeries> =
            c.iter().take(4).map(|d| d.primary_series()).collect();
        let batch: Vec<&TimeSeries> = owned.iter().collect();
        let batched = rec.recommend_batch(&batch);
        assert_eq!(batched.len(), batch.len());
        for (series, ranking) in batch.iter().zip(&batched) {
            assert_eq!(*ranking, rec.recommend(series));
        }
        assert!(rec.recommend_batch(&[]).is_empty());
    }

    #[test]
    fn perf_matrix_ranking_and_best() {
        let m = PerfMatrix {
            dataset_ids: vec!["a".into()],
            methods: vec!["m0".into(), "m1".into(), "m2".into()],
            scores: vec![vec![2.0, f64::NAN, 1.0]],
        };
        assert_eq!(m.best_method(0), Some(2));
        assert_eq!(m.ranking(0), vec![2, 0, 1]);
        let empty = PerfMatrix {
            dataset_ids: vec!["a".into()],
            methods: vec!["m0".into()],
            scores: vec![vec![f64::NAN]],
        };
        assert_eq!(empty.best_method(0), None);
    }

    #[test]
    fn pretrain_validates_inputs() {
        assert!(Recommender::pretrain(&[], &small_config()).is_err());
        let series = vec![TimeSeries::new("s", vec![1.0; 50], Frequency::Daily).unwrap()];
        let matrix = PerfMatrix {
            dataset_ids: vec!["a".into(), "b".into()],
            methods: vec!["m".into()],
            scores: vec![vec![1.0], vec![2.0]],
        };
        assert!(Recommender::pretrain_from_matrix(&series, &matrix, &small_config()).is_err());
    }
}
