//! Shared helpers for the experiment binaries (`exp_*`). Each binary
//! regenerates one table/figure of EXPERIMENTS.md; see DESIGN.md §4 for
//! the experiment index.

use easytime::{CorpusConfig, Dataset, ModelSpec};
use easytime_automl::PerfMatrix;
use easytime_data::synthetic::build_corpus;

/// Reads `--name value` from the command line.
pub fn arg(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == &format!("--{name}"))
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Reads `--name value` parsed as `usize` with a default.
pub fn arg_usize(name: &str, default: usize) -> usize {
    arg(name).and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// The standard experiment corpus: all ten domains, `per_domain` series
/// each, plus one multivariate dataset per domain.
#[expect(
    clippy::expect_used,
    reason = "the corpus configuration below is static and valid by construction; experiment \
              binaries want a loud failure"
)]
pub fn experiment_corpus(per_domain: usize, length: usize, seed: u64) -> Vec<Dataset> {
    build_corpus(&CorpusConfig {
        per_domain,
        length,
        multivariate_per_domain: 1,
        channels: 3,
        seed,
        ..CorpusConfig::default()
    })
    .expect("experiment corpus config is valid")
}

/// The fast sub-zoo used where full-zoo runtime would obscure the result
/// shape (the full roster stays the default for the leaderboard run).
/// Every spec is the roster spec of its name: names key the model cache,
/// the knowledge base and every label, so two specs must never share one.
pub fn fast_zoo() -> Vec<ModelSpec> {
    vec![
        ModelSpec::Naive,
        ModelSpec::SeasonalNaive(None),
        ModelSpec::SeasonalAverage { period: None, cycles: 4 },
        ModelSpec::Drift,
        ModelSpec::LinearTrend,
        ModelSpec::Mean,
        ModelSpec::WindowAverage(8),
        ModelSpec::Ses(None),
        ModelSpec::Theta(None),
        ModelSpec::LagRidge { lookback: 16, lambda: 1e-2 },
        ModelSpec::NLinear { lookback: 32 },
        ModelSpec::GradientBoost { lookback: 12, rounds: 60 },
    ]
}

/// Normalized discounted cumulative gain of a predicted ranking against
/// ground-truth scores (lower score = more relevant).
pub fn ndcg_at_k(predicted_order: &[usize], true_scores: &[f64], k: usize) -> f64 {
    let k = k.min(predicted_order.len());
    if k == 0 {
        return 0.0;
    }
    // Relevance: reverse rank of the true score (best method gets highest).
    let mut idx: Vec<usize> = (0..true_scores.len()).collect();
    idx.sort_by(|&a, &b| {
        true_scores[a].total_cmp(&true_scores[b])
    });
    let mut relevance = vec![0.0; true_scores.len()];
    for (rank, &m) in idx.iter().enumerate() {
        if true_scores[m].is_finite() {
            relevance[m] = (true_scores.len() - rank) as f64;
        }
    }
    let dcg: f64 = predicted_order
        .iter()
        .take(k)
        .enumerate()
        .map(|(i, &m)| relevance[m] / ((i + 2) as f64).log2())
        .sum();
    let mut ideal = relevance;
    ideal.sort_by(|a, b| b.total_cmp(a));
    let idcg: f64 = ideal
        .iter()
        .take(k)
        .enumerate()
        .map(|(i, r)| r / ((i + 2) as f64).log2())
        .sum();
    if idcg > 0.0 {
        dcg / idcg
    } else {
        0.0
    }
}

/// Mean of the finite entries of a slice (NaN when none).
pub fn finite_mean(xs: &[f64]) -> f64 {
    let vals: Vec<f64> = xs.iter().copied().filter(|v| v.is_finite()).collect();
    if vals.is_empty() {
        f64::NAN
    } else {
        vals.iter().sum::<f64>() / vals.len() as f64
    }
}

/// Index of the method with the best (lowest) mean score across the
/// offline portion of a performance matrix — the "globally best single
/// method" baseline.
pub fn global_best_method(matrix: &PerfMatrix) -> usize {
    let mut best = (0usize, f64::INFINITY);
    for m in 0..matrix.methods.len() {
        let col: Vec<f64> = matrix.scores.iter().map(|row| row[m]).collect();
        let mean = finite_mean(&col);
        if mean.is_finite() && mean < best.1 {
            best = (m, mean);
        }
    }
    best.0
}

/// Renders a simple fixed-width table to stdout.
#[expect(clippy::print_stdout, reason = "table rendering for experiment binaries")]
pub fn print_table(header: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, c) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(c.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let mut s = String::new();
        for (c, w) in cells.iter().zip(&widths) {
            s.push_str(&format!("| {c:<w$} "));
        }
        s.push('|');
        println!("{s}");
    };
    line(header.iter().map(|h| h.to_string()).collect());
    println!(
        "|{}|",
        widths.iter().map(|w| "-".repeat(w + 2)).collect::<Vec<_>>().join("|")
    );
    for row in rows {
        line(row.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_zoo_specs_round_trip_through_their_names() {
        for spec in fast_zoo() {
            let name = spec.name();
            assert_eq!(ModelSpec::parse(&name), Ok(spec), "{name}");
        }
    }

    #[test]
    fn ndcg_perfect_ranking_is_one() {
        let scores = [1.0, 2.0, 3.0, 4.0];
        let perfect = [0usize, 1, 2, 3];
        assert!((ndcg_at_k(&perfect, &scores, 4) - 1.0).abs() < 1e-12);
        let reversed = [3usize, 2, 1, 0];
        assert!(ndcg_at_k(&reversed, &scores, 4) < 1.0);
        assert!(ndcg_at_k(&perfect, &scores, 0) == 0.0);
    }

    #[test]
    fn ndcg_prefers_better_rankings() {
        let scores = [1.0, 5.0, 2.0, 4.0];
        let good = [0usize, 2, 3, 1];
        let bad = [1usize, 3, 2, 0];
        assert!(ndcg_at_k(&good, &scores, 4) > ndcg_at_k(&bad, &scores, 4));
    }

    #[test]
    fn global_best_picks_lowest_mean_column() {
        let matrix = PerfMatrix {
            dataset_ids: vec!["a".into(), "b".into()],
            methods: vec!["m0".into(), "m1".into()],
            scores: vec![vec![2.0, 1.0], vec![2.0, f64::NAN]],
        };
        // m1's finite mean (1.0) beats m0's (2.0).
        assert_eq!(global_best_method(&matrix), 1);
    }

    #[test]
    fn finite_mean_ignores_nan() {
        assert_eq!(finite_mean(&[1.0, f64::NAN, 3.0]), 2.0);
        assert!(finite_mean(&[f64::NAN]).is_nan());
    }
}
