//! Experiment E2 — the automated ensemble (paper Fig. 2, S2).
//!
//! Offline: pretrain the recommender on a corpus. Online: for every
//! held-out series, fit the AutoEnsemble (top-k + validation-learned
//! weights) and compare its held-out sMAPE against:
//!
//! * `random-k`   — an ensemble of k randomly selected methods,
//! * `global-best`— the single method with the best offline mean,
//! * `full-avg`   — the uniform average of the whole candidate zoo,
//! * `oracle`     — the per-series best single method (hindsight bound).
//!
//! The paper's claim to reproduce: the automated ensemble "yields superior
//! forecasting accuracy compared to individual methods".
//!
//! ```sh
//! cargo run --release -p easytime-bench --bin exp_ensemble \
//!   [--per-domain 6] [--length 280] [--k 3] [--horizon 24]
//! ```

use easytime::{ModelSpec, RecommenderConfig, Strategy, TimeSeries, WeightMode};
use easytime_automl::{AutoEnsemble, Recommender};
use easytime_bench::{arg_usize, experiment_corpus, fast_zoo, finite_mean, global_best_method, print_table};
use easytime_eval::metrics::{self, MetricContext};
use easytime_rng::StdRng;

/// sMAPE (%) by the pipeline's own metric; NaN for an empty or misaligned forecast.
fn smape(pred: &[f64], actual: &[f64]) -> f64 {
    MetricContext::new(actual, pred, &[], 1).map_or(f64::NAN, |ctx| metrics::smape(&ctx))
}

fn single_method_smape(name: &str, history: &TimeSeries, future: &[f64]) -> f64 {
    let run = || -> Result<f64, Box<dyn std::error::Error>> {
        let spec = ModelSpec::parse(name)?;
        let mut model = spec.build()?;
        model.fit(history)?;
        Ok(smape(&model.forecast(future.len())?, future))
    };
    run().unwrap_or(f64::NAN)
}

fn main() {
    let per_domain = arg_usize("per-domain", 6);
    let length = arg_usize("length", 280);
    let k = arg_usize("k", 3);
    let horizon = arg_usize("horizon", 24);

    // Offline corpus and held-out evaluation sets come from different
    // seeds, so holdout series are genuinely new to the recommender.
    let offline = experiment_corpus(per_domain, length, 42);
    let holdout = experiment_corpus(2, length + horizon, 4242);
    println!(
        "E2 automated ensemble: offline {} series, holdout {} series, k={k}, horizon={horizon}\n",
        offline.len(),
        holdout.len()
    );

    let config = RecommenderConfig {
        methods: fast_zoo(),
        strategy: Strategy::Fixed { horizon },
        ..RecommenderConfig::default()
    };
    let (recommender, matrix) = Recommender::pretrain(&offline, &config).expect("pretraining");
    let global_best = matrix.methods[global_best_method(&matrix)].clone();
    println!("globally best single method on the offline corpus: {global_best}\n");

    let mut rng = StdRng::seed_from_u64(7);
    let method_names: Vec<String> = matrix.methods.clone();

    let mut per_system: Vec<(&str, Vec<f64>)> = vec![
        ("auto_ensemble", Vec::new()),
        ("random_k", Vec::new()),
        ("global_best", Vec::new()),
        ("full_avg", Vec::new()),
        ("oracle_single", Vec::new()),
    ];
    let mut auto_beats_global = 0usize;
    let mut evaluated = 0usize;

    for dataset in &holdout {
        let series = dataset.primary_series();
        let n = series.len();
        let Ok(history) = series.slice(0, n - horizon) else { continue };
        let future = &series.values()[n - horizon..];

        // Auto ensemble.
        let auto = AutoEnsemble::fit(&recommender, &history, k, 0.2, WeightMode::Learned)
            .and_then(|e| e.forecast(horizon))
            .map(|p| smape(&p, future))
            .unwrap_or(f64::NAN);

        // Random-k ensemble.
        let mut pool = method_names.clone();
        rng.shuffle(&mut pool);
        let random_members: Vec<String> = pool.into_iter().take(k).collect();
        let random =
            AutoEnsemble::fit_with_members(&random_members, &history, 0.2, WeightMode::Learned)
                .and_then(|e| e.forecast(horizon))
                .map(|p| smape(&p, future))
                .unwrap_or(f64::NAN);

        // Global best single.
        let global = single_method_smape(&global_best, &history, future);

        // Uniform average of the whole candidate zoo.
        let full = AutoEnsemble::fit_with_members(
            &method_names,
            &history,
            0.2,
            WeightMode::Uniform,
        )
        .and_then(|e| e.forecast(horizon))
        .map(|p| smape(&p, future))
        .unwrap_or(f64::NAN);

        // Per-series oracle over single methods.
        let oracle = method_names
            .iter()
            .map(|m| single_method_smape(m, &history, future))
            .fold(f64::INFINITY, f64::min);

        per_system[0].1.push(auto);
        per_system[1].1.push(random);
        per_system[2].1.push(global);
        per_system[3].1.push(full);
        per_system[4].1.push(if oracle.is_finite() { oracle } else { f64::NAN });
        if auto.is_finite() && global.is_finite() {
            evaluated += 1;
            if auto <= global {
                auto_beats_global += 1;
            }
        }
    }

    let rows: Vec<Vec<String>> = per_system
        .iter()
        .map(|(name, scores)| {
            vec![
                name.to_string(),
                format!("{:.3}", finite_mean(scores)),
                format!("{}", scores.iter().filter(|v| v.is_finite()).count()),
            ]
        })
        .collect();
    println!("── Held-out accuracy (mean sMAPE over holdout series, lower is better):");
    print_table(&["system", "mean sMAPE", "series"], &rows);
    println!(
        "\nauto_ensemble ≤ global_best on {auto_beats_global}/{evaluated} holdout series \
         ({:.0}%).",
        100.0 * auto_beats_global as f64 / evaluated.max(1) as f64
    );
    println!(
        "Paper claim shape: auto_ensemble < random_k and ≤ global_best, approaching oracle_single."
    );
}
