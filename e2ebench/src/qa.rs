//! `qa`: natural-language Q&A. Each op resets the session's history and
//! calls `QaSession::ask`, cycling the in-scope questions of the `exp_qa`
//! suite over a knowledge base seeded with 50,000 `results` rows
//! (1,000 datasets × 25 methods × 2 horizons), bulk-loaded in setup
//! through `easytime_db::knowledge::insert_*`.

use crate::common::{rows_key, sub_seed, Digest, Rng};
use crate::host::{median, NormClock, Timing};
use crate::report::{OpStats, Report};
use crate::trace::{all, Tracer};
use crate::RunConfig;
use easytime_data::Domain;
use easytime_db::knowledge::{
    create_knowledge_schema, insert_dataset, insert_method, insert_result, DatasetRow, MethodRow,
    ResultRow,
};
use easytime_db::{Database, QueryResult};
use easytime_models::zoo::standard_zoo;
use easytime_qa::nl2sql::{generate_sql, parse_question};
use easytime_qa::QaSession;

const DATASETS: usize = 60;
const METHODS: usize = 25;
const HORIZONS: [i64; 2] = [24, 96];
/// Rows inserted between two reference samples during the bulk load.
const LOAD_CHUNK: usize = 500;
/// Nominal reference-normalised op rate that sizes the script.
const OPS_PER_S: f64 = 350.0;
const SETUP_REPS: usize = 5;

/// The `exp_qa` suite: every in-scope question, with its hand-written
/// ground-truth SQL where the suite has one.
pub const SUITE: &[(&str, Option<&str>)] = &[
    (
        "What are the top-8 methods (ordered by MAE) for long-term forecasting on all \
         multivariate datasets with trends?",
        Some(
            "SELECT r.method, AVG(r.mae) AS mean_mae, COUNT(*) AS runs FROM results r \
             JOIN datasets d ON r.dataset_id = d.id \
             WHERE r.horizon >= 96 AND d.multivariate = true AND d.trend >= 0.6 \
             GROUP BY r.method ORDER BY mean_mae ASC LIMIT 8",
        ),
    ),
    (
        "Which method is best for long term forecasting on time series with strong \
         seasonality?",
        Some(
            "SELECT r.method, AVG(r.mae) AS mean_mae, COUNT(*) AS runs FROM results r \
             JOIN datasets d ON r.dataset_id = d.id \
             WHERE r.horizon >= 96 AND d.seasonality >= 0.6 \
             GROUP BY r.method ORDER BY mean_mae ASC LIMIT 1",
        ),
    ),
    (
        "top 5 methods by smape",
        Some(
            "SELECT r.method, AVG(r.smape) AS s, COUNT(*) AS runs FROM results r \
             JOIN datasets d ON r.dataset_id = d.id GROUP BY r.method ORDER BY s ASC LIMIT 5",
        ),
    ),
    (
        "What are the top three methods by MASE on traffic data?",
        Some(
            "SELECT r.method, AVG(r.mase) AS s, COUNT(*) AS runs FROM results r \
             JOIN datasets d ON r.dataset_id = d.id WHERE d.domain = 'traffic' \
             GROUP BY r.method ORDER BY s ASC LIMIT 3",
        ),
    ),
    (
        "Best method for short-term forecasting by RMSE?",
        Some(
            "SELECT r.method, AVG(r.rmse) AS s, COUNT(*) AS runs FROM results r \
             JOIN datasets d ON r.dataset_id = d.id WHERE r.horizon <= 24 \
             GROUP BY r.method ORDER BY s ASC LIMIT 1",
        ),
    ),
    (
        "top 4 methods by r2 on electricity datasets",
        Some(
            "SELECT r.method, AVG(r.r2) AS s, COUNT(*) AS runs FROM results r \
             JOIN datasets d ON r.dataset_id = d.id WHERE d.domain = 'electricity' \
             GROUP BY r.method ORDER BY s DESC LIMIT 4",
        ),
    ),
    (
        "Which methods perform best on non-stationary series? top 3 by mae",
        Some(
            "SELECT r.method, AVG(r.mae) AS s, COUNT(*) AS runs FROM results r \
             JOIN datasets d ON r.dataset_id = d.id WHERE d.stationarity < 0.4 \
             GROUP BY r.method ORDER BY s ASC LIMIT 3",
        ),
    ),
    (
        "best 2 methods on datasets with shifting by smape",
        Some(
            "SELECT r.method, AVG(r.smape) AS s, COUNT(*) AS runs FROM results r \
             JOIN datasets d ON r.dataset_id = d.id WHERE d.shifting >= 0.6 \
             GROUP BY r.method ORDER BY s ASC LIMIT 2",
        ),
    ),
    (
        "top 3 statistical methods by mae",
        Some(
            "SELECT r.method, AVG(r.mae) AS s, COUNT(*) AS runs FROM results r \
             JOIN datasets d ON r.dataset_id = d.id JOIN methods m ON r.method = m.name \
             WHERE m.family = 'statistical' GROUP BY r.method ORDER BY s ASC LIMIT 3",
        ),
    ),
    (
        "best machine learning method at horizon 24 by mae",
        Some(
            "SELECT r.method, AVG(r.mae) AS s, COUNT(*) AS runs FROM results r \
             JOIN datasets d ON r.dataset_id = d.id JOIN methods m ON r.method = m.name \
             WHERE r.horizon = 24 AND m.family = 'machine_learning' \
             GROUP BY r.method ORDER BY s ASC LIMIT 1",
        ),
    ),
    (
        "Is theta better than naive by MAE?",
        Some(
            "SELECT r.method, AVG(r.mae) AS s, COUNT(*) AS runs FROM results r \
             JOIN datasets d ON r.dataset_id = d.id WHERE r.method IN ('theta', 'naive') \
             GROUP BY r.method ORDER BY s ASC",
        ),
    ),
    (
        "compare seasonal naive and drift by smape on web data",
        Some(
            "SELECT r.method, AVG(r.smape) AS s, COUNT(*) AS runs FROM results r \
             JOIN datasets d ON r.dataset_id = d.id \
             WHERE d.domain = 'web' AND r.method IN ('seasonal_naive', 'drift') \
             GROUP BY r.method ORDER BY s ASC",
        ),
    ),
    (
        "How many datasets are in the benchmark?",
        Some("SELECT COUNT(*) AS n FROM datasets"),
    ),
    (
        "How many multivariate datasets are there?",
        Some("SELECT COUNT(*) AS n FROM datasets WHERE multivariate = true"),
    ),
    (
        "How many datasets have strong trends?",
        Some("SELECT COUNT(*) AS n FROM datasets WHERE trend >= 0.6"),
    ),
    (
        "How many methods are registered?",
        Some("SELECT COUNT(*) AS n FROM methods"),
    ),
    (
        "How many deep learning methods are there?",
        Some("SELECT COUNT(*) AS n FROM methods WHERE family = 'deep_learning'"),
    ),
    (
        "Which domains does the benchmark cover?",
        Some("SELECT domain, COUNT(*) AS n FROM datasets GROUP BY domain ORDER BY n DESC"),
    ),
    (
        "Tell me about theta",
        Some("SELECT name, family, description FROM methods WHERE name = 'theta'"),
    ),
    (
        "What is seasonal naive?",
        Some("SELECT name, family, description FROM methods WHERE name = 'seasonal_naive'"),
    ),
    (
        "What are the 3 fastest methods?",
        Some(
            "SELECT r.method, AVG(r.runtime_ms) AS s, COUNT(*) AS runs FROM results r \
             JOIN datasets d ON r.dataset_id = d.id GROUP BY r.method ORDER BY s ASC LIMIT 3",
        ),
    ),
    (
        "Which 3 methods struggle the most by smape?",
        Some(
            "SELECT r.method, AVG(r.smape) AS s, COUNT(*) AS runs FROM results r \
             JOIN datasets d ON r.dataset_id = d.id GROUP BY r.method ORDER BY s DESC LIMIT 3",
        ),
    ),
    (
        "Where does theta perform best across domains?",
        Some(
            "SELECT d.domain, AVG(r.mae) AS s, COUNT(*) AS runs FROM results r \
             JOIN datasets d ON r.dataset_id = d.id WHERE r.method = 'theta' \
             GROUP BY d.domain ORDER BY s ASC",
        ),
    ),
    ("what are the weakest performers on seasonal data?", None),
    ("per domain breakdown for seasonal naive by mase", None),
    ("rank the top ten methods by mean absolute error", None),
    ("which method wins on banking series?", None),
    ("best seasonal methods for monthly nature data", None),
    ("top 6 methods under rolling evaluation by mase", None),
    ("what method should I use for stock prices?", None),
    ("best performers on correlated multivariate datasets", None),
    ("top 2 methods by mse for health data", None),
    ("which methods are most accurate at horizon 48?", None),
    ("best univariate long-term method by smape", None),
    ("fastest statistical method", None),
];

/// Suite questions whose answers are known to differ from their ground
/// truth because of a program defect: the method name "seasonal naive"
/// also sets NL2SQL's strong-seasonality filter, so the comparison is
/// restricted to strongly seasonal datasets. Such a mismatch is counted
/// (it keeps `answer_match_frac` below 1) but does not fail the run; a
/// mismatch on any other question does.
pub const KNOWN_DEFECTS: &[&str] = &["compare seasonal naive and drift by smape on web data"];

/// Builds the seeded knowledge base through the `insert_*` write path in
/// steps wrapped by reference samples: schema, methods and datasets, then
/// the `results` rows in chunks. Returns the database, the whole build's
/// timing, and the normalised seconds of the `results` load alone.
pub fn build_knowledge(seed: u64, clock: &mut NormClock) -> (Database, Timing, f64) {
    let ((mut db, rows), prelude) = clock.time(|| knowledge_prelude(seed));
    let mut total = prelude;
    let mut load_s = 0.0;
    for chunk in rows.chunks(LOAD_CHUNK) {
        let ((), t) = clock.time(|| {
            for r in chunk {
                insert_result(&mut db, r).expect("results insert");
            }
        });
        load_s += t.norm_s;
        total.raw_s += t.raw_s;
        total.norm_s += t.norm_s;
    }
    (db, total, load_s)
}

/// The schema, the roster's methods and the seeded datasets, inserted;
/// plus the seeded `results` rows still to load.
fn knowledge_prelude(seed: u64) -> (Database, Vec<ResultRow>) {
    let mut rng = Rng::new(sub_seed(seed, 21));
    let mut db = Database::new();
    create_knowledge_schema(&mut db).expect("fresh database accepts the schema");
    let roster = standard_zoo();
    for entry in &roster {
        insert_method(
            &mut db,
            &MethodRow {
                name: entry.spec.name(),
                family: entry.spec.family().name().to_string(),
                description: entry.description.to_string(),
            },
        )
        .expect("methods insert");
    }
    let methods: Vec<String> = roster.iter().take(METHODS).map(|e| e.spec.name()).collect();
    // Per-method skill: how far each method's errors sit above the best,
    // a jittered ramp over the roster.
    let skill: Vec<f64> = (0..methods.len())
        .map(|m| 1.0 + (m as f64 + rng.unit()) / METHODS as f64)
        .collect();
    let mut scales = Vec::with_capacity(DATASETS);
    for i in 0..DATASETS {
        let domain = Domain::ALL[i % Domain::ALL.len()];
        let channels = if rng.below(10) == 0 { 3 } else { 1 };
        let row = DatasetRow {
            id: format!("{}_{:04}", domain.name(), i / Domain::ALL.len()),
            domain: domain.name().to_string(),
            length: 200 + rng.below(1800) as i64,
            frequency: ["hourly", "daily", "weekly", "monthly"][rng.below(4)].to_string(),
            channels,
            seasonality: rng.unit(),
            trend: rng.unit(),
            transition: rng.unit(),
            shifting: rng.unit(),
            stationarity: rng.unit(),
            correlation: if channels > 1 { rng.unit() } else { 0.0 },
            period: [1, 7, 12, 24][rng.below(4)],
        };
        insert_dataset(&mut db, &row).expect("datasets insert");
        scales.push((row.id, 1.0 + 9.0 * rng.unit()));
    }
    let mut rows = Vec::with_capacity(DATASETS * METHODS * HORIZONS.len());
    for (id, scale) in &scales {
        for (m, method) in methods.iter().enumerate() {
            for &horizon in &HORIZONS {
                let noise = 0.8 + 0.4 * rng.unit();
                let mae = scale * skill[m] * noise * (1.0 + horizon as f64 / 200.0);
                rows.push(ResultRow {
                    dataset_id: id.clone(),
                    method: method.clone(),
                    strategy: if horizon > 24 { "fixed" } else { "rolling" }.to_string(),
                    horizon,
                    mae: Some(mae),
                    mse: Some(mae * mae * (1.1 + 0.2 * rng.unit())),
                    rmse: Some(mae * (1.05 + 0.1 * rng.unit())),
                    smape: Some(10.0 * skill[m] * noise),
                    mase: Some(skill[m] * noise),
                    r2: Some(1.0 - 0.3 * skill[m] * noise),
                    runtime_ms: 0.1 + 50.0 * rng.unit(),
                    windows: 1 + rng.below(8) as i64,
                });
            }
        }
    }
    (db, rows)
}

/// One answer as the oracles compare it: rendered rows.
fn answer_key(table: &QueryResult) -> String {
    rows_key(&table.rows)
}

pub fn run(cfg: &RunConfig, clock: &mut NormClock) -> Report {
    let mut report = Report::default();
    let mut setups: Vec<Timing> = Vec::new();
    let mut loads = Vec::new();
    let mut state = None;
    for _ in 0..SETUP_REPS {
        drop(state.take());
        let (db, mut setup, load_s) = build_knowledge(cfg.seed, clock);
        let (session, open) =
            clock.time(|| QaSession::new(db).expect("the knowledge base opens a session"));
        setup.raw_s += open.raw_s;
        setup.norm_s += open.norm_s;
        setups.push(setup);
        loads.push(load_s);
        state = Some(session);
    }
    let mut session = state.expect("at least one setup ran");
    let mut order: Vec<usize> = (0..SUITE.len()).collect();
    Rng::new(sub_seed(cfg.seed, 22)).shuffle(&mut order);
    let script: Vec<usize> = (0..cfg.script_len(OPS_PER_S, SUITE.len()))
        .map(|i| order[i % SUITE.len()])
        .collect();

    // --- timed closed loop ---
    let mut ops = OpStats::default();
    let mut answers: Vec<Option<(String, String, String)>> = Vec::with_capacity(script.len());
    let mut replay = cfg.trace.then(Replay::default);
    for (i, &q) in script.iter().enumerate() {
        let (res, t) = clock.time(|| {
            session.reset();
            session.ask(SUITE[q].0)
        });
        ops.record(q, t, res.is_ok());
        let answer = match res {
            Ok(resp) => Some((answer_key(&resp.table), resp.sql, resp.plan)),
            Err(e) => {
                report.mismatch(format!("ask {:?} failed: {e}", SUITE[q].0));
                None
            }
        };
        if let Some(r) = replay.as_mut() {
            let traced = r.op(clock, &session, SUITE[q].0);
            if answer.as_ref().map(|a| &a.0) != Some(&traced) {
                report.mismatch(format!(
                    "op {i}: traced answer differs from the untraced run"
                ));
            }
        }
        answers.push(answer);
    }
    if cfg.corrupt {
        if let Some(a) = answers[0].as_mut() {
            a.0.push('!');
        }
    }

    // --- oracle: the scan executor on the ground-truth SQL and on the
    // generated SQL ---
    let db = session.database();
    let mut truth: Vec<Option<String>> = vec![None; SUITE.len()];
    let mut scanned: Vec<Option<String>> = vec![None; SUITE.len()];
    let mut plans: Vec<Option<String>> = vec![None; SUITE.len()];
    let (mut checked, mut matched, mut known) = (0usize, 0usize, 0usize);
    for (i, &q) in script.iter().enumerate() {
        let Some((answer, sql, plan)) = &answers[i] else {
            continue;
        };
        if scanned[q].is_none() {
            scanned[q] = Some(answer_key(
                &db.query_scan(sql).expect("generated SQL scans"),
            ));
            plans[q] = Some(plan.clone());
            if let Some(t) = SUITE[q].1 {
                truth[q] = Some(answer_key(
                    &db.query_scan(t).expect("ground-truth SQL scans"),
                ));
            }
        }
        if scanned[q].as_ref() != Some(answer) {
            report.mismatch(format!(
                "op {i}: planned answer to {:?} differs from the scan",
                SUITE[q].0
            ));
        }
        if let Some(t) = &truth[q] {
            checked += 1;
            if t == answer {
                matched += 1;
            } else if KNOWN_DEFECTS.contains(&SUITE[q].0) {
                known += 1;
            } else {
                report.mismatch(format!(
                    "op {i}: answer to {:?} differs from ground truth: {answer:?} vs {t:?}",
                    SUITE[q].0
                ));
            }
        }
    }
    let avg = db
        .query("SELECT AVG(smape) AS s FROM results")
        .expect("average query runs");
    let avg_scan = db
        .query_scan("SELECT AVG(smape) AS s FROM results")
        .expect("average scans");
    if answer_key(&avg) != answer_key(&avg_scan) {
        report.mismatch("AVG(smape) differs between the planner and the scan".into());
    }
    let forecast_smape = match avg.rows.first().and_then(|r| r.first()) {
        Some(easytime_db::Value::Float(v)) => *v,
        _ => f64::NAN,
    };
    report.end_to_end(
        &setups,
        &ops,
        forecast_smape,
        matched as f64 / checked.max(1) as f64,
    );

    // --- determinism guard ---
    let mut digest = Digest::new();
    let mut rows_returned = 0usize;
    for (answer, sql, _) in answers.iter().flatten() {
        digest.add(answer);
        digest.add(sql);
        rows_returned += answer.split('\u{1e}').filter(|r| !r.is_empty()).count();
    }
    report.count("ops", script.len());
    report.count("answers_checked", checked);
    report.count("known_defect_mismatches", known);
    report.count("rows_returned", rows_returned);
    report.count("output_digest", digest.hex());

    if let Some(r) = replay {
        r.finish(&ops, &mut report);
        let plans: String = plans
            .iter()
            .flatten()
            .cloned()
            .collect::<Vec<_>>()
            .join("\n");
        let count = |needle: &str| plans.matches(needle).count() as f64;
        report.set(
            "db.plan.seq_scans",
            count("seq-scan") + count("nested-loop"),
        );
        report.set(
            "db.plan.index_seeks",
            count("index-seek") + count("index-scan") + count("index-probe"),
        );
        report.set("db.plan.sorts", count("[sort]"));
        let load = median(&loads);
        report.set(
            "db.load.rows_per_s",
            (DATASETS * METHODS * HORIZONS.len()) as f64 / load,
        );
    }
    report
}

/// The traced replay: `ask` rebuilt from the calls it is made of, each in
/// a span labelled by question class: `parse_question`, `generate_sql`
/// and `Database::query_with_plan`. Answer generation is crate-private, so
/// it gets the remainder of `ask`. Each op is replayed right after its
/// untraced run, so both see the same host state.
#[derive(Default)]
struct Replay {
    tracer: Tracer,
}

impl Replay {
    /// Replays one question; returns its answer's key.
    fn op(&mut self, clock: &mut NormClock, session: &QaSession, question: &str) -> String {
        let tracer = &mut self.tracer;
        let (table, t) = clock.time(|| {
            let (intent, _) = tracer
                .span("qa.parse_question", "", || {
                    parse_question(question, session.lexicon())
                })
                .expect("suite questions parse");
            let sql = tracer.span("qa.generate_sql", "", || generate_sql(&intent));
            let class = if sql.contains("GROUP BY") {
                "agg"
            } else {
                "lookup"
            };
            tracer
                .span("db.query_with_plan", class, || {
                    session.database().query_with_plan(&sql)
                })
                .expect("generated SQL runs")
                .0
        });
        tracer.end_op(t);
        answer_key(&table)
    }

    fn finish(self, untraced: &OpStats, report: &mut Report) {
        let tracer = &self.tracer;
        let ops = tracer.ops() as f64;
        let nl2sql = tracer.sum("qa.parse_question", all) + tracer.sum("qa.generate_sql", all);
        let query = tracer.sum("db.query_with_plan", all);
        let per = |class: &str| {
            tracer.sum("db.query_with_plan", |l| l == class) * 1e3
                / tracer.count("db.query_with_plan", |l| l == class).max(1) as f64
        };
        report.set("qa.nl2sql.us", nl2sql * 1e6 / ops);
        report.set(
            "qa.answer.us",
            (untraced.busy_s - nl2sql - query) * 1e6 / ops,
        );
        report.set("db.query.agg.ms", per("agg"));
        report.set("db.query.lookup.ms", per("lookup"));
        report.set("db.query.share", query / untraced.busy_s);
        report.set("trace.coverage", tracer.coverage());
        report.set(
            "trace.overhead_frac",
            tracer.op_total() / untraced.busy_s - 1.0,
        );
    }
}
