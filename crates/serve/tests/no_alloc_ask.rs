//! Proof that neither a knowledge-base snapshot nor a served `Ask` copies
//! the knowledge base.
//!
//! [`easytime_obs::CountingAlloc`] wraps the system allocator while a
//! knowledge base with N and with 10·N `results` rows (the same datasets and
//! methods) is cloned, and while an inline engine answers one
//! grouped-aggregate question over it. A clone shares every table and index
//! copy-on-write, and each `Ask` runs on a clone of the session its context
//! opened once, so nine times more rows must not cost one extra allocation.
//! A change that makes either copy rows again fails here.

use easytime_automl::{PerfMatrix, Recommender, RecommenderConfig};
use easytime_clock::ManualClock;
use easytime_data::{Frequency, TimeSeries};
use easytime_db::knowledge::{
    create_knowledge_schema, insert_dataset, insert_method, insert_result, DatasetRow, MethodRow,
    ResultRow,
};
use easytime_db::Database;
use easytime_eval::{EvalConfig, MetricRegistry};
use easytime_models::ModelSpec;
use easytime_obs::CountingAlloc;
use easytime_qa::QaResponse;
use easytime_serve::{Request, Response, ServeConfig, ServeContext, ServeEngine};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const QUESTION: &str = "What are the top 3 methods by MAE?";
const DOMAINS: [&str; 4] = ["web", "economic", "traffic", "energy"];
const METHODS: [&str; 6] = ["naive", "theta", "ses", "drift", "mean", "gboost_12"];
const DATASETS: usize = 40;
/// The size of e2ebench serve's knowledge base.
const N: usize = 720;

fn knowledge(results: usize) -> Database {
    let mut db = Database::new();
    create_knowledge_schema(&mut db).unwrap();
    for name in METHODS {
        let row = MethodRow {
            name: name.into(),
            family: "statistical".into(),
            description: "a method".into(),
        };
        insert_method(&mut db, &row).unwrap();
    }
    for i in 0..DATASETS {
        let row = DatasetRow {
            id: format!("ds_{i:03}"),
            domain: DOMAINS[i % DOMAINS.len()].into(),
            length: 200,
            frequency: "daily".into(),
            channels: 1,
            seasonality: 0.5,
            trend: 0.5,
            transition: 0.1,
            shifting: 0.2,
            stationarity: 0.3,
            correlation: 0.0,
            period: 7,
        };
        insert_dataset(&mut db, &row).unwrap();
    }
    for i in 0..results {
        let m = i % METHODS.len();
        // Eighths sum exactly, so every method's mean, and with it the
        // answer text, is the same at both sizes.
        let score = 1.0 + m as f64 * 0.5 + (i / METHODS.len() % 8) as f64 * 0.125;
        let row = ResultRow {
            dataset_id: format!("ds_{:03}", i % DATASETS),
            method: METHODS[m].into(),
            strategy: "rolling".into(),
            horizon: 12,
            mae: Some(score),
            mse: Some(score),
            rmse: Some(score),
            smape: Some(score),
            mase: Some(score),
            r2: Some(0.5),
            runtime_ms: 1.0,
            windows: 4,
        };
        insert_result(&mut db, &row).unwrap();
    }
    db
}

/// A recommender pretrained on two short series; `Ask` never consults it.
fn recommender() -> Recommender {
    let series: Vec<TimeSeries> = (1..=2)
        .map(|k| {
            let values = (0..96).map(|t| ((t * k) % 7) as f64).collect();
            TimeSeries::new(format!("s{k}"), values, Frequency::Daily).unwrap()
        })
        .collect();
    let matrix = PerfMatrix {
        dataset_ids: vec!["s1".into(), "s2".into()],
        methods: vec!["naive".into()],
        scores: vec![vec![1.0], vec![2.0]],
    };
    Recommender::pretrain_from_matrix(&series, &matrix, &RecommenderConfig::default()).unwrap()
}

fn engine(knowledge: Database, clock: &ManualClock) -> ServeEngine {
    let metrics = MetricRegistry::standard();
    let eval = EvalConfig::builder().method(ModelSpec::Naive).build(&metrics).unwrap();
    let ctx = ServeContext::new(recommender(), metrics, knowledge, eval);
    ServeEngine::inline(ctx, ServeConfig::builder().build().unwrap(), clock.clock())
}

fn ask(engine: &ServeEngine) -> QaResponse {
    let ticket = engine.submit(Request::Ask { question: QUESTION.into() }).unwrap();
    assert_eq!(engine.tick(), 1);
    match ticket.wait().unwrap() {
        Response::Ask { response } => response,
        other => panic!("expected an answer, got {other:?}"),
    }
}

/// Allocation count of `op`, minimized over several repeats: the count is
/// deterministic, while any harness thread sharing the process allocator
/// can only add strays, so the minimum converges to the true cost.
fn measured<T>(mut op: impl FnMut() -> T) -> u64 {
    drop(op());
    let mut min = u64::MAX;
    for _ in 0..5 {
        let before = CountingAlloc::allocations();
        let out = op();
        let after = CountingAlloc::allocations();
        drop(out);
        min = min.min(after - before);
    }
    min
}

/// The explain without its row and cost estimates, which scale with the
/// table: what is left names the access paths, joins and sort treatment.
fn plan_shape(explain: &str) -> String {
    explain
        .split_whitespace()
        .filter(|w| !w.starts_with("rows~") && !w.starts_with("cost~"))
        .collect::<Vec<_>>()
        .join(" ")
}

// One test function only: a second concurrently-running test would
// allocate during the measurement window and make the count flaky.
#[test]
fn snapshots_and_asks_allocate_nothing_per_result_row() {
    let (small, large) = (knowledge(N), knowledge(10 * N));
    let (clone_small, clone_large) = (measured(|| small.clone()), measured(|| large.clone()));
    assert_eq!(
        clone_small,
        clone_large,
        "a clone must not copy rows: {N} rows cost {clone_small} allocations, {} cost {clone_large}",
        10 * N
    );

    let clock = ManualClock::new();
    let (small, large) = (engine(small, &clock), engine(large, &clock));
    let (a, b) = (ask(&small), ask(&large));
    assert_eq!(plan_shape(&a.plan), plan_shape(&b.plan), "both sizes must run one plan");
    assert!(a.plan.contains("group by: r.method"), "{}", a.plan);
    assert!(a.plan.contains("join d: index-probe"), "{}", a.plan);
    assert_eq!(a.answer, b.answer);
    assert_eq!(a.table.rows.len(), 3);
    let (ask_small, ask_large) = (measured(|| ask(&small)), measured(|| ask(&large)));
    assert_eq!(
        ask_small,
        ask_large,
        "an Ask must not copy rows: {N} rows cost {ask_small} allocations, {} cost {ask_large}",
        10 * N
    );
}
