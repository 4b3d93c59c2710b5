//! Ablation experiments A1–A4 over the Automated Ensemble design choices
//! called out in DESIGN.md:
//!
//! * `soft-label` — soft vs hard classifier targets (§II-C cites the
//!   SimpleTS soft-label loss),
//! * `topk`       — ensemble accuracy as k sweeps 1..8,
//! * `embedding`  — stats-only vs kernels-only vs combined embeddings,
//! * `weights`    — validation-learned vs uniform ensemble weights.
//!
//! ```sh
//! cargo run --release -p easytime-bench --bin exp_ablation -- soft-label
//! cargo run --release -p easytime-bench --bin exp_ablation -- topk
//! cargo run --release -p easytime-bench --bin exp_ablation -- embedding
//! cargo run --release -p easytime-bench --bin exp_ablation -- weights
//! cargo run --release -p easytime-bench --bin exp_ablation -- all
//! ```

use easytime::{Dataset, RecommenderConfig, Strategy, WeightMode};
use easytime_automl::classifier::LabelMode;
use easytime_automl::{AutoEnsemble, Recommender};
use easytime_bench::{arg_usize, experiment_corpus, fast_zoo, finite_mean, ndcg_at_k, print_table};
use easytime_eval::metrics::{self, MetricContext};
use easytime_repr::EmbedderConfig;

/// sMAPE (%) by the pipeline's own metric; NaN for an empty or misaligned forecast.
fn smape(pred: &[f64], actual: &[f64]) -> f64 {
    MetricContext::new(actual, pred, &[], 1).map_or(f64::NAN, |ctx| metrics::smape(&ctx))
}

struct Setup {
    offline: Vec<Dataset>,
    holdout: Vec<Dataset>,
    horizon: usize,
    base: RecommenderConfig,
}

fn setup() -> Setup {
    let per_domain = arg_usize("per-domain", 8);
    let length = arg_usize("length", 260);
    let horizon = arg_usize("horizon", 24);
    Setup {
        offline: experiment_corpus(per_domain, length, 42),
        holdout: experiment_corpus(2, length + horizon, 4242),
        horizon,
        base: RecommenderConfig {
            methods: fast_zoo(),
            strategy: Strategy::Fixed { horizon },
            ..RecommenderConfig::default()
        },
    }
}

/// Ranking quality (top-1 hit rate + NDCG@5) of a recommender against
/// per-series ground truth computed on the holdout.
fn ranking_quality(setup: &Setup, rec: &Recommender) -> (f64, f64) {
    use easytime_automl::PerfMatrix;
    use easytime_eval::{evaluate_corpus, EvalConfig, MetricRegistry};
    let config = EvalConfig {
        methods: setup.base.methods.clone(),
        strategy: setup.base.strategy,
        metrics: vec!["smape".into()],
        ..EvalConfig::default()
    };
    let registry = MetricRegistry::standard();
    let config = config.into_validated(&registry).expect("holdout config is valid");
    let records = evaluate_corpus(&setup.holdout, &config, &registry).expect("holdout eval");
    let ids: Vec<String> = setup.holdout.iter().map(|d| d.meta.id.clone()).collect();
    let names: Vec<String> = setup.base.methods.iter().map(|m| m.name()).collect();
    let truth = PerfMatrix::from_records(&records, &ids, &names, "smape");

    let mut hits = 0usize;
    let mut n = 0usize;
    let mut ndcgs = Vec::new();
    for (i, d) in setup.holdout.iter().enumerate() {
        let Some(best) = truth.best_method(i) else { continue };
        let predicted: Vec<usize> = rec
            .recommend(&d.primary_series())
            .iter()
            .filter_map(|r| names.iter().position(|x| *x == r.method))
            .collect();
        if predicted[0] == best {
            hits += 1;
        }
        ndcgs.push(ndcg_at_k(&predicted, &truth.scores[i], 5));
        n += 1;
    }
    (hits as f64 / n.max(1) as f64, finite_mean(&ndcgs))
}

/// Mean held-out ensemble sMAPE with a given recommender/k/weight mode.
fn ensemble_quality(setup: &Setup, rec: &Recommender, k: usize, mode: WeightMode) -> f64 {
    let mut scores = Vec::new();
    for d in &setup.holdout {
        let series = d.primary_series();
        let n = series.len();
        let Ok(history) = series.slice(0, n - setup.horizon) else { continue };
        let future = &series.values()[n - setup.horizon..];
        let s = AutoEnsemble::fit(rec, &history, k, 0.2, mode)
            .and_then(|e| e.forecast(setup.horizon))
            .map(|p| smape(&p, future))
            .unwrap_or(f64::NAN);
        scores.push(s);
    }
    finite_mean(&scores)
}

fn ablate_soft_label(setup: &Setup) {
    println!("── A1: soft-label vs hard-label classifier targets");
    let mut rows = Vec::new();
    for (label, mode) in [("soft (paper)", LabelMode::Soft), ("hard (one-hot)", LabelMode::Hard)] {
        let config = RecommenderConfig { label_mode: mode, ..setup.base.clone() };
        let (rec, _) = Recommender::pretrain(&setup.offline, &config).expect("pretrain");
        let (top1, ndcg) = ranking_quality(setup, &rec);
        rows.push(vec![label.to_string(), format!("{top1:.2}"), format!("{ndcg:.3}")]);
    }
    print_table(&["labels", "top-1 hit", "NDCG@5"], &rows);
    println!("claim shape: soft ≥ hard on ranking quality\n");
}

fn ablate_topk(setup: &Setup) {
    println!("── A2: ensemble accuracy vs k");
    let (rec, _) = Recommender::pretrain(&setup.offline, &setup.base).expect("pretrain");
    let mut rows = Vec::new();
    for k in 1..=8usize {
        let s = ensemble_quality(setup, &rec, k, WeightMode::Learned);
        rows.push(vec![k.to_string(), format!("{s:.3}")]);
    }
    print_table(&["k", "mean sMAPE"], &rows);
    println!("claim shape: k=1 under-diverse, large k dilutes; minimum in the middle\n");
}

fn ablate_embedding(setup: &Setup) {
    println!("── A3: embedding ablation");
    let variants = [
        ("stats only", EmbedderConfig { num_kernels: 0, use_stats: true, seed: 42 }),
        ("kernels only", EmbedderConfig { num_kernels: 96, use_stats: false, seed: 42 }),
        ("both (default)", EmbedderConfig { num_kernels: 96, use_stats: true, seed: 42 }),
    ];
    let mut rows = Vec::new();
    for (label, embedder) in variants {
        let config = RecommenderConfig { embedder, ..setup.base.clone() };
        let (rec, _) = Recommender::pretrain(&setup.offline, &config).expect("pretrain");
        let (top1, ndcg) = ranking_quality(setup, &rec);
        rows.push(vec![label.to_string(), format!("{top1:.2}"), format!("{ndcg:.3}")]);
    }
    print_table(&["embedding", "top-1 hit", "NDCG@5"], &rows);
    println!("claim shape: combined ≥ each single feature group\n");
}

fn ablate_weights(setup: &Setup) {
    println!("── A4: learned vs uniform ensemble weights (k = 3)");
    let (rec, _) = Recommender::pretrain(&setup.offline, &setup.base).expect("pretrain");
    let mut rows = Vec::new();
    for (label, mode) in
        [("learned on validation (paper)", WeightMode::Learned), ("uniform", WeightMode::Uniform)]
    {
        let s = ensemble_quality(setup, &rec, 3, mode);
        rows.push(vec![label.to_string(), format!("{s:.3}")]);
    }
    print_table(&["weights", "mean sMAPE"], &rows);
    println!("claim shape: learned ≤ uniform\n");
}

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    let setup = setup();
    println!(
        "Ablations: offline {} series, holdout {} series, horizon {}\n",
        setup.offline.len(),
        setup.holdout.len(),
        setup.horizon
    );
    match which.as_str() {
        "soft-label" => ablate_soft_label(&setup),
        "topk" => ablate_topk(&setup),
        "embedding" => ablate_embedding(&setup),
        "weights" => ablate_weights(&setup),
        "all" => {
            ablate_soft_label(&setup);
            ablate_topk(&setup);
            ablate_embedding(&setup);
            ablate_weights(&setup);
        }
        other => {
            eprintln!("unknown ablation '{other}'; use soft-label|topk|embedding|weights|all");
            std::process::exit(2);
        }
    }
}
