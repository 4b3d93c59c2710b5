//! Pieces shared by the workloads: seeds, the method roster, pretraining,
//! output canonicalisation for the oracles, and accuracy.

use crate::host::{NormClock, Timing};
use easytime::{CorpusConfig, Dataset, MetricRegistry, ModelSpec, TimeSeries};
use easytime_automl::{PerfMatrix, Recommender, RecommenderConfig};
use easytime_data::Domain;
use easytime_eval::{evaluate_corpus, EvalConfig, EvalRecord, Strategy};

/// SplitMix64: the benchmark's own seeded generator for op scripts.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// Derives an independent sub-seed for one purpose from the run seed.
pub fn sub_seed(seed: u64, purpose: u64) -> u64 {
    Rng::new(seed ^ purpose.wrapping_mul(0xD134_2543_DE82_EF95)).next_u64()
}

/// The twelve `easytime_bench::fast_zoo()` methods by canonical name.
/// Names only: the workloads resolve them through `ModelSpec::parse`, the
/// path a user's configuration file takes.
pub fn fast_zoo_names() -> Vec<String> {
    easytime_bench::fast_zoo()
        .iter()
        .map(ModelSpec::name)
        .collect()
}

/// The roster specs a user gets for the fast-zoo names.
pub fn fast_zoo_specs() -> Vec<ModelSpec> {
    fast_zoo_names()
        .iter()
        .map(|n| ModelSpec::parse(n).expect("fast-zoo names parse"))
        .collect()
}

/// State the `serve` and `ensemble` workloads share: a recommender
/// pretrained on a fixed corpus over the fast-zoo method names, plus the
/// pretraining records and corpus, and how long the two phases took.
pub struct Pretrained {
    pub recommender: Recommender,
    pub corpus: Vec<Dataset>,
    pub records: Vec<EvalRecord>,
    pub eval: Timing,
    pub fit: Timing,
}

/// Pretraining corpus size: every domain, this many series each.
const PRETRAIN_PER_DOMAIN: usize = 6;
const PRETRAIN_LENGTH: usize = 240;
/// The pretraining corpus is the offline knowledge the platform ships
/// with, the same for every run seed: with a seeded corpus the
/// recommender's preferences, and with them the cost of every op that
/// fits a recommended method, moved `ensemble`'s `ops_per_s` by 21%
/// (IQR over five seeds).
const PRETRAIN_SEED: u64 = 11;

/// Runs recommender pretraining the way the platform does offline:
/// `evaluate_corpus` over the corpus, then `pretrain_from_matrix`.
pub fn pretrain(clock: &mut NormClock) -> Pretrained {
    let corpus = easytime_data::synthetic::build_corpus(&CorpusConfig {
        per_domain: PRETRAIN_PER_DOMAIN,
        length: PRETRAIN_LENGTH,
        seed: PRETRAIN_SEED,
        ..CorpusConfig::default()
    })
    .expect("pretraining corpus config is valid");
    let config = RecommenderConfig {
        methods: fast_zoo_specs(),
        strategy: Strategy::Fixed { horizon: 24 },
        ..RecommenderConfig::default()
    };
    let registry = MetricRegistry::standard();
    let eval_config = EvalConfig::builder()
        .methods(config.methods.iter().cloned())
        .strategy(config.strategy)
        .split(config.split)
        .scaler(config.scaler)
        .metrics(["mae", "mse", "rmse", "smape", "mase", "r2"])
        .build(&registry)
        .expect("pretraining eval config is valid");
    // The sweep runs in chunks of one series per domain, each between two
    // reference samples, so host drift within it is normalised too.
    let mut records = Vec::with_capacity(corpus.len() * config.methods.len());
    let mut eval = Timing {
        raw_s: 0.0,
        norm_s: 0.0,
    };
    for chunk in corpus.chunks(Domain::ALL.len()) {
        let (part, t) = clock.time(|| {
            evaluate_corpus(chunk, &eval_config, &registry).expect("pretraining sweep runs")
        });
        records.extend(part);
        eval.raw_s += t.raw_s;
        eval.norm_s += t.norm_s;
    }
    let ids: Vec<String> = corpus.iter().map(|d| d.meta.id.clone()).collect();
    let methods: Vec<String> = config.methods.iter().map(ModelSpec::name).collect();
    let matrix = PerfMatrix::from_records(&records, &ids, &methods, &config.metric);
    let series: Vec<TimeSeries> = corpus.iter().map(Dataset::primary_series).collect();
    let (recommender, fit) = clock.time(|| {
        Recommender::pretrain_from_matrix(&series, &matrix, &config).expect("pretraining fits")
    });
    Pretrained {
        recommender,
        corpus,
        records,
        eval,
        fit,
    }
}

/// Canonical text of an evaluation record for bit-exact comparison:
/// every field except the measured `runtime_ms`, floats as bit patterns.
pub fn record_key(r: &EvalRecord) -> String {
    let scores: Vec<String> = r
        .scores
        .iter()
        .map(|(k, v)| format!("{k}={:016x}", v.to_bits()))
        .collect();
    let error = r
        .error
        .as_ref()
        .map(|e| format!("{}:{}", e.kind.name(), e.detail));
    format!(
        "{}|{}|{}|{}|{}|{}|{}|{:?}",
        r.dataset_id,
        r.method,
        r.family,
        r.strategy,
        r.horizon,
        r.windows,
        scores.join(","),
        error
    )
}

/// Canonical text of a float vector (bit patterns).
pub fn floats_key(xs: &[f64]) -> String {
    xs.iter()
        .map(|v| format!("{:016x}", v.to_bits()))
        .collect::<Vec<_>>()
        .join(",")
}

/// Canonical text of a query result's rows, as the Q&A accuracy check
/// compares them (rendered values, column names ignored).
pub fn rows_key(rows: &[Vec<easytime_db::Value>]) -> String {
    rows.iter()
        .map(|r| {
            r.iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join("\u{1f}")
        })
        .collect::<Vec<_>>()
        .join("\u{1e}")
}

/// FNV-1a digest accumulator for the determinism guard.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn add(&mut self, text: &str) {
        for b in text.bytes().chain([0xff]) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Symmetric MAPE in percent, the benchmark's own accuracy oracle.
pub fn smape(actual: &[f64], forecast: &[f64]) -> f64 {
    let n = actual.len().min(forecast.len());
    let mut total = 0.0;
    for i in 0..n {
        let denom = actual[i].abs() + forecast[i].abs();
        if denom > 0.0 {
            total += 2.0 * (actual[i] - forecast[i]).abs() / denom;
        }
    }
    100.0 * total / n.max(1) as f64
}
