//! The full Figure-2 workflow: offline pretraining on a corpus, online
//! recommendation and ensembling on unseen series, with accuracy
//! guarantees against the obvious baselines.

use easytime::{
    CorpusConfig, Domain, EasyTime, ModelSpec, RecommenderConfig, Strategy, WeightMode,
};
use easytime_automl::AutoEnsemble;
use easytime_data::synthetic::{domain_spec, generate};
use easytime_eval::metrics::{self, MetricContext};

/// sMAPE (%) by the pipeline's own metric; NaN for an empty or misaligned forecast.
fn smape(pred: &[f64], actual: &[f64]) -> f64 {
    MetricContext::new(actual, pred, &[], 1).map_or(f64::NAN, |ctx| metrics::smape(&ctx))
}

fn fast_config() -> RecommenderConfig {
    RecommenderConfig {
        methods: vec![
            ModelSpec::Naive,
            ModelSpec::SeasonalNaive(None),
            ModelSpec::Drift,
            ModelSpec::Mean,
            ModelSpec::Theta(None),
        ],
        strategy: Strategy::Fixed { horizon: 24 },
        ..RecommenderConfig::default()
    }
}

fn pretrained() -> (EasyTime, easytime::Recommender) {
    let platform = EasyTime::with_benchmark(&CorpusConfig {
        domains: vec![Domain::Nature, Domain::Stock, Domain::Electricity, Domain::Web],
        per_domain: 6,
        length: 260,
        seed: 11,
        ..CorpusConfig::default()
    })
    .unwrap();
    let (rec, _) = platform.pretrain_recommender(&fast_config()).unwrap();
    (platform, rec)
}

#[test]
fn recommender_separates_seasonal_from_random_walk() {
    let (_platform, rec) = pretrained();

    // A fresh strongly seasonal series: seasonal_naive should rank high.
    let seasonal = generate("fresh_seasonal", &domain_spec(Domain::Electricity, 1, 300), 555)
        .unwrap();
    let seasonal_ranking = rec.recommend(&seasonal);
    let seasonal_pos = seasonal_ranking
        .iter()
        .position(|r| r.method == "seasonal_naive")
        .expect("seasonal_naive in roster");

    // A fresh random walk: seasonal_naive should rank worse than on the
    // seasonal series.
    let walk = generate("fresh_walk", &domain_spec(Domain::Stock, 0, 300), 556).unwrap();
    let walk_ranking = rec.recommend(&walk);
    let walk_pos = walk_ranking
        .iter()
        .position(|r| r.method == "seasonal_naive")
        .expect("seasonal_naive in roster");

    assert!(
        seasonal_pos < walk_pos || seasonal_pos == 0,
        "seasonal_naive should rank better on seasonal data ({seasonal_pos}) than on a random \
         walk ({walk_pos})"
    );
}

#[test]
fn auto_ensemble_beats_the_worst_member_and_mean_baseline() {
    let (platform, rec) = pretrained();

    let mut ens_wins_vs_mean = 0usize;
    let mut n = 0usize;
    for (domain, seed) in
        [(Domain::Electricity, 70u64), (Domain::Nature, 71), (Domain::Web, 72), (Domain::Stock, 73)]
    {
        let fresh = generate("fresh", &domain_spec(domain, 2, 324), seed).unwrap();
        let history = fresh.slice(0, 300).unwrap();
        let future = &fresh.values()[300..];

        let ens = platform.auto_ensemble(&rec, &history, 3).unwrap();
        let ens_smape = smape(&ens.forecast(24).unwrap(), future);

        let mut mean_model = ModelSpec::Mean.build().unwrap();
        mean_model.fit(&history).unwrap();
        let mean_smape = smape(&mean_model.forecast(24).unwrap(), future);

        n += 1;
        if ens_smape <= mean_smape {
            ens_wins_vs_mean += 1;
        }
    }
    assert!(
        ens_wins_vs_mean * 4 >= n * 3,
        "ensemble should beat the grand-mean baseline on most series: {ens_wins_vs_mean}/{n}"
    );
}

#[test]
fn learned_weights_do_not_lose_to_uniform_on_average() {
    let (_platform, rec) = pretrained();
    let mut learned_total = 0.0;
    let mut uniform_total = 0.0;
    for seed in [91u64, 92, 93, 94, 95] {
        let fresh =
            generate("fresh", &domain_spec(Domain::Electricity, 0, 324), seed).unwrap();
        let history = fresh.slice(0, 300).unwrap();
        let future = &fresh.values()[300..];
        for (mode, total) in
            [(WeightMode::Learned, &mut learned_total), (WeightMode::Uniform, &mut uniform_total)]
        {
            let ens = AutoEnsemble::fit(&rec, &history, 3, 0.2, mode).unwrap();
            *total += smape(&ens.forecast(24).unwrap(), future);
        }
    }
    assert!(
        learned_total <= uniform_total * 1.05,
        "learned weights ({learned_total:.2}) should not be materially worse than uniform \
         ({uniform_total:.2})"
    );
}

#[test]
fn ensemble_weights_are_a_distribution_and_members_are_ranked() {
    let (platform, rec) = pretrained();
    let fresh = generate("fresh", &domain_spec(Domain::Nature, 1, 300), 123).unwrap();
    let ens = platform.auto_ensemble(&rec, &fresh, 4).unwrap();
    let members = ens.members();
    assert!(!members.is_empty() && members.len() <= 4);
    let total: f64 = members.iter().map(|(_, w)| w).sum();
    assert!((total - 1.0).abs() < 1e-9);
    assert!(members.windows(2).all(|w| w[0].1 >= w[1].1), "members sorted by weight");
}

#[test]
fn knowledge_pretraining_path_agrees_with_direct_path() {
    // Pretraining from the knowledge base must produce a recommender over
    // the same roster with sane outputs.
    let platform = EasyTime::with_benchmark(&CorpusConfig {
        domains: vec![Domain::Nature, Domain::Stock],
        per_domain: 4,
        length: 220,
        seed: 47,
        ..CorpusConfig::default()
    })
    .unwrap();
    platform
        .one_click_json(
            r#"{"methods": ["naive", "seasonal_naive", "drift", "mean", "theta"],
                "strategy": {"type": "fixed", "horizon": 24},
                "metrics": ["smape"]}"#,
        )
        .unwrap();
    let rec = platform.pretrain_recommender_from_knowledge(&fast_config()).unwrap();
    assert_eq!(rec.methods().len(), 5);
    let fresh = generate("x", &domain_spec(Domain::Nature, 0, 260), 2).unwrap();
    let ranking = rec.recommend(&fresh);
    let total: f64 = ranking.iter().map(|r| r.score).sum();
    assert!((total - 1.0).abs() < 1e-9);
}
