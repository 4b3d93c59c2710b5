//! End-to-end serving semantics: cache warm/cold equivalence, eviction
//! order, admission control under saturating load, micro-batched
//! recommendations, and the evaluate/ask request kinds.

use easytime::{CorpusConfig, Domain, EasyTime, ModelSpec};
use easytime_automl::recommender::{Recommender, RecommenderConfig};
use easytime_clock::ManualClock;
use easytime_data::synthetic::{build_corpus, domain_spec, generate};
use easytime_data::TimeSeries;
use easytime_eval::{EvalConfig, MetricRegistry, Strategy, ValidatedEvalConfig};
use easytime_serve::{
    Request, Response, ServeConfig, ServeContext, ServeEngine, ServeError, ValidatedServeConfig,
};

fn small_recommender() -> Recommender {
    let corpus = build_corpus(&CorpusConfig {
        domains: vec![Domain::Nature, Domain::Stock],
        per_domain: 5,
        length: 160,
        seed: 9,
        ..CorpusConfig::default()
    })
    .expect("corpus builds");
    let config = RecommenderConfig {
        methods: vec![ModelSpec::Naive, ModelSpec::Drift, ModelSpec::Mean],
        strategy: Strategy::Fixed { horizon: 12 },
        ..RecommenderConfig::default()
    };
    Recommender::pretrain(&corpus, &config).expect("pretraining succeeds").0
}

fn eval_config(registry: &MetricRegistry) -> ValidatedEvalConfig {
    EvalConfig::builder()
        .method(ModelSpec::Naive)
        .strategy(Strategy::Fixed { horizon: 12 })
        .build(registry)
        .expect("eval config is valid")
}

fn context() -> ServeContext {
    let registry = MetricRegistry::standard();
    let eval = eval_config(&registry);
    ServeContext::new(small_recommender(), registry, easytime_db::Database::new(), eval)
}

fn serve_config() -> ValidatedServeConfig {
    ServeConfig::builder().build().expect("defaults valid")
}

fn tenant_series(name: &str, len: usize, seed: u64) -> TimeSeries {
    generate(name, &domain_spec(Domain::Electricity, 1, len), seed).expect("series generates")
}

fn forecast_of(resp: Response) -> (Vec<f64>, bool, String) {
    match resp {
        Response::RecommendAndForecast { forecast, cache_hit, chosen, .. } => {
            (forecast, cache_hit, chosen)
        }
        other => panic!("expected a forecast response, got {other:?}"),
    }
}

fn run_one(engine: &ServeEngine, req: Request) -> Result<Response, ServeError> {
    let ticket = engine.submit(req)?;
    while engine.tick() > 0 {}
    ticket.wait()
}

#[test]
fn warm_hits_match_cold_refits_within_tolerance() {
    let manual = ManualClock::new();
    let engine = ServeEngine::inline(context(), serve_config(), manual.clock());
    let fresh = ServeEngine::inline(context(), serve_config(), manual.clock());

    for spec in [ModelSpec::Naive, ModelSpec::Drift, ModelSpec::Mean] {
        let history = tenant_series("tenant", 240, 17);
        let full = tenant_series("tenant", 260, 17);
        let req = |series: TimeSeries| Request::RecommendAndForecast {
            series,
            top_k: 3,
            horizon: 12,
            method: Some(spec.clone()),
        };

        // Prime the cache on the short history, then request the grown
        // series: the engine must warm-start via `update`.
        let (_, cold_hit, _) =
            forecast_of(run_one(&engine, req(history)).expect("cold request serves"));
        assert!(!cold_hit);
        let (warm, warm_hit, _) =
            forecast_of(run_one(&engine, req(full.clone())).expect("warm request serves"));
        assert!(warm_hit, "{} should warm-start", spec.name());

        // A fresh engine refits from scratch on the same full series.
        let (cold, refit_hit, _) =
            forecast_of(run_one(&fresh, req(full)).expect("refit request serves"));
        assert!(!refit_hit);
        assert_eq!(warm.len(), cold.len());
        for (w, c) in warm.iter().zip(&cold) {
            assert!(
                (w - c).abs() <= 1e-9,
                "{}: warm {w} vs cold {c} differ past 1e-9",
                spec.name()
            );
        }
    }
    let stats = engine.stats();
    assert_eq!(stats.cache_hits, 3);
    assert_eq!(stats.cache_misses, 3);
    assert!(stats.hit_rate() > 0.49 && stats.hit_rate() < 0.51);
}

#[test]
fn identical_resubmission_is_a_pure_hit_with_identical_forecast() {
    let manual = ManualClock::new();
    let engine = ServeEngine::inline(context(), serve_config(), manual.clock());
    let series = tenant_series("repeat", 200, 4);
    let req = || Request::RecommendAndForecast {
        series: series.clone(),
        top_k: 2,
        horizon: 8,
        method: None,
    };
    let (first, hit1, chosen1) = forecast_of(run_one(&engine, req()).expect("serves"));
    let (second, hit2, chosen2) = forecast_of(run_one(&engine, req()).expect("serves"));
    assert!(!hit1);
    assert!(hit2, "identical resubmission must hit the cache");
    assert_eq!(chosen1, chosen2, "the cached recommendation is sticky");
    assert_eq!(first, second, "pure hits are bit-identical");
}

#[test]
fn eviction_follows_lru_under_capacity_pressure() {
    let manual = ManualClock::new();
    let cfg = ServeConfig::builder().cache_capacity(2).build().expect("valid");
    let engine = ServeEngine::inline(context(), cfg, manual.clock());
    let req = |name: &str, seed: u64| Request::RecommendAndForecast {
        series: tenant_series(name, 180, seed),
        top_k: 1,
        horizon: 6,
        method: Some(ModelSpec::Naive),
    };

    // Fill: A, B. Insert C → A (least recently used) is evicted.
    for (name, seed) in [("a", 1), ("b", 2), ("c", 3)] {
        let (_, hit, _) = forecast_of(run_one(&engine, req(name, seed)).expect("serves"));
        assert!(!hit);
    }
    let stats = engine.stats();
    assert_eq!(stats.evictions, 1);
    assert_eq!(stats.cached_models, 2);

    // C and B are resident; A was evicted and refits cold.
    let (_, hit_c, _) = forecast_of(run_one(&engine, req("c", 3)).expect("serves"));
    assert!(hit_c, "most recent entry survives");
    let (_, hit_b, _) = forecast_of(run_one(&engine, req("b", 2)).expect("serves"));
    assert!(hit_b, "second entry survives");
    let (_, hit_a, _) = forecast_of(run_one(&engine, req("a", 1)).expect("serves"));
    assert!(!hit_a, "evicted entry refits cold");
}

#[test]
fn overload_sheds_with_typed_errors_and_deadlines_expire() {
    let manual = ManualClock::new();
    let cfg = ServeConfig::builder()
        .queue_bound(4)
        .batch_max(4)
        .deadline_ms(10.0)
        .build()
        .expect("valid");
    let engine = ServeEngine::inline(context(), cfg, manual.clock());
    let req = |i: u64| Request::RecommendAndForecast {
        series: tenant_series("flood", 160, i),
        top_k: 1,
        horizon: 4,
        method: Some(ModelSpec::Naive),
    };

    // Flood far past the queue bound before any tick runs.
    let mut tickets = Vec::new();
    let mut shed = 0usize;
    for i in 0..10 {
        match engine.submit(req(i)) {
            Ok(t) => tickets.push(t),
            Err(err @ ServeError::Overloaded { .. }) => {
                assert!(err.is_rejection(), "shedding is a rejection, not a failure");
                let ServeError::Overloaded { queued, bound } = err else { unreachable!() };
                assert_eq!(bound, 4);
                assert!(queued >= bound);
                shed += 1;
            }
            Err(other) => panic!("expected Overloaded, got {other}"),
        }
    }
    assert_eq!(shed, 6, "everything past the bound is shed");
    assert_eq!(engine.stats().shed, 6);

    // Let the queued requests out-wait their 10 ms deadline, then drain:
    // they must be dropped with DeadlineExceeded, not processed.
    manual.advance_millis(50);
    while engine.tick() > 0 {}
    let mut expired = 0usize;
    for t in tickets {
        match t.wait() {
            Err(ServeError::DeadlineExceeded { waited_ms, deadline_ms }) => {
                assert!(waited_ms >= deadline_ms);
                expired += 1;
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    }
    assert_eq!(expired, 4);
    let stats = engine.stats();
    assert_eq!(stats.expired, 4);
    assert_eq!(stats.completed, 0);
    assert_eq!(stats.cache_misses, 0, "expired requests never reach the model");
}

#[test]
fn batched_auto_recommendations_match_solo_requests() {
    let manual = ManualClock::new();
    let cfg = ServeConfig::builder().batch_max(8).build().expect("valid");
    let batched = ServeEngine::inline(context(), cfg, manual.clock());
    let solo = ServeEngine::inline(context(), serve_config(), manual.clock());

    let req = |i: u64| Request::RecommendAndForecast {
        series: tenant_series(&format!("t{i}"), 190 + (i as usize) * 7, 40 + i),
        top_k: 3,
        horizon: 6,
        method: None,
    };

    // Four cold auto requests in one tick share a single batched
    // recommendation; results must equal the one-at-a-time path.
    let tickets: Vec<_> =
        (0..4).map(|i| batched.submit(req(i)).expect("admitted")).collect();
    for ticket in &tickets {
        assert!(ticket.try_wait().is_none(), "no reply before the engine ticks");
    }
    assert_eq!(batched.tick(), 4, "one tick drains the whole batch");
    for (i, ticket) in tickets.into_iter().enumerate() {
        let got = ticket.wait().expect("batched request serves");
        let want = run_one(&solo, req(i as u64)).expect("solo request serves");
        let (bf, _, b_chosen) = forecast_of(got);
        let (sf, _, s_chosen) = forecast_of(want);
        assert_eq!(b_chosen, s_chosen, "request {i}: batched choice differs");
        assert_eq!(bf, sf, "request {i}: batched forecast differs");
    }
    assert_eq!(batched.stats().batches, 1);
}

#[test]
fn evaluate_and_ask_serve_through_the_worker_pool() {
    let platform = EasyTime::with_benchmark(&CorpusConfig {
        domains: vec![Domain::Nature],
        per_domain: 3,
        length: 160,
        seed: 21,
        ..CorpusConfig::default()
    })
    .expect("platform builds");
    platform
        .one_click_json(
            r#"{"methods": ["naive", "drift"],
                "strategy": {"type": "fixed", "horizon": 12},
                "metrics": ["smape", "mae"]}"#,
        )
        .expect("one-click seeds the knowledge base");
    let eval = eval_config(platform.metrics());
    let ctx = ServeContext::from_platform(&platform, small_recommender(), eval);
    let engine = ServeEngine::start(ctx, serve_config());

    let series = tenant_series("fresh_eval", 200, 77);
    match engine
        .call(Request::Evaluate { series, method: ModelSpec::Drift })
        .expect("evaluate serves")
    {
        Response::Evaluate { record } => {
            assert_eq!(record.method, "drift");
            assert!(record.is_ok(), "evaluation completes: {:?}", record.error);
            assert!(record.score("smape").is_finite());
        }
        other => panic!("expected Evaluate response, got {other:?}"),
    }

    match engine
        .call(Request::Ask { question: "which method is best on average?".into() })
        .expect("ask serves")
    {
        Response::Ask { response } => {
            assert!(!response.answer.is_empty());
        }
        other => panic!("expected Ask response, got {other:?}"),
    }

    // Typed validation failures come back before admission.
    let empty = Request::Ask { question: "   ".into() };
    assert!(matches!(engine.call(empty), Err(ServeError::InvalidRequest { .. })));
    engine.shutdown();
}

#[test]
fn ask_without_a_knowledge_base_fails_the_same_way_every_time() {
    // `context()` holds an empty database, which cannot open a Q&A
    // session: the context keeps that error and every Ask returns it.
    let manual = ManualClock::new();
    let engine = ServeEngine::inline(context(), serve_config(), manual.clock());
    let expected = easytime_qa::QaSession::new(easytime_db::Database::new()).unwrap_err();
    for _ in 0..2 {
        match run_one(&engine, Request::Ask { question: "top 3 methods by mae".into() }) {
            Err(ServeError::Qa(e)) => assert_eq!(e, expected),
            other => panic!("expected the session-open error, got {other:?}"),
        }
    }
    assert_eq!(engine.stats().failed, 2);
}

#[test]
fn fingerprints_key_tenants_and_survive_appends() {
    let seed = 0xf1f0;
    let short = tenant_series("tenant", 200, 3);
    let grown = tenant_series("tenant", 230, 3);
    let other = tenant_series("other", 200, 3);
    let auto = easytime_serve::fingerprint(&short, None, seed);
    assert_eq!(
        auto,
        easytime_serve::fingerprint(&grown, None, seed),
        "appending past the fingerprint prefix must keep the cache key"
    );
    assert_ne!(auto, easytime_serve::fingerprint(&other, None, seed), "tenants separate");
    assert_ne!(
        auto,
        easytime_serve::fingerprint(&short, Some(&ModelSpec::Naive), seed),
        "a pinned method gets its own cache line"
    );
    assert_ne!(auto, easytime_serve::fingerprint(&short, None, seed + 1), "seeds separate");
}

#[test]
fn serving_spans_are_recorded() {
    easytime_obs::set_enabled(true);
    let _ = easytime_obs::drain();
    let manual = ManualClock::new();
    let engine = ServeEngine::inline(context(), serve_config(), manual.clock());
    let series = tenant_series("traced", 180, 5);
    run_one(
        &engine,
        Request::RecommendAndForecast { series, top_k: 1, horizon: 4, method: None },
    )
    .expect("serves");
    let trace = easytime_obs::drain();
    easytime_obs::set_enabled(false);
    let stages = trace.stages();
    for span in ["serve.admit", "serve.batch", "serve.request", "serve.forecast"] {
        assert!(stages.contains_key(span), "missing span {span}; have {:?}", stages.keys());
    }
}
