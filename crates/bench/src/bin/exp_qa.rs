//! Experiment E4 — natural-language Q&A accuracy (paper Fig. 3, Fig. 5, S3).
//!
//! Populates the knowledge base with real evaluation runs, then fires a
//! 35-question suite (plus out-of-scope prompts) at the Q&A module and measures:
//!
//! * parse rate (questions mapped to an intent),
//! * SQL validity (every generated statement passes verification and
//!   executes — the paper's two-step retrieval guarantee),
//! * planner correctness (each answer's rows equal, float bits included,
//!   the scan oracle's rows for the generated SQL),
//! * execution accuracy (each answer's rows equal, bit for bit, the scan
//!   oracle's rows for a hand-written ground-truth SQL query),
//! * rejection correctness on out-of-scope questions, and
//! * end-to-end latency.
//!
//! It is a gate: the exit code is 1 when an in-scope question fails, an
//! answer differs from either scan, or an out-of-scope question gets an
//! answer.
//!
//! ```sh
//! cargo run --release -p easytime-bench --bin exp_qa [--per-domain 3]
//! ```

use easytime::{CorpusConfig, EasyTime};
use easytime_bench::{arg_usize, print_table};
use easytime_db::Value;
use std::fmt::Write;
use std::time::Instant;

/// A suite entry: the NL question and a ground-truth SQL query whose
/// result the answer must match (None = only parse/verify is required).
struct Case {
    question: &'static str,
    truth_sql: Option<&'static str>,
}

fn suite() -> Vec<Case> {
    vec![
        // ---- the paper's own examples -------------------------------
        Case {
            question:
                "What are the top-8 methods (ordered by MAE) for long-term forecasting on all \
                 multivariate datasets with trends?",
            truth_sql: Some(
                "SELECT r.method, AVG(r.mae) AS mean_mae, COUNT(*) AS runs FROM results r \
                 JOIN datasets d ON r.dataset_id = d.id \
                 WHERE r.horizon >= 96 AND d.multivariate = true AND d.trend >= 0.6 \
                 GROUP BY r.method ORDER BY mean_mae ASC LIMIT 8",
            ),
        },
        Case {
            question:
                "Which method is best for long term forecasting on time series with strong \
                 seasonality?",
            truth_sql: Some(
                "SELECT r.method, AVG(r.mae) AS mean_mae, COUNT(*) AS runs FROM results r \
                 JOIN datasets d ON r.dataset_id = d.id \
                 WHERE r.horizon >= 96 AND d.seasonality >= 0.6 \
                 GROUP BY r.method ORDER BY mean_mae ASC LIMIT 1",
            ),
        },
        // ---- ranking variants ---------------------------------------
        Case {
            question: "top 5 methods by smape",
            truth_sql: Some(
                "SELECT r.method, AVG(r.smape) AS s, COUNT(*) AS runs FROM results r \
                 JOIN datasets d ON r.dataset_id = d.id GROUP BY r.method ORDER BY s ASC LIMIT 5",
            ),
        },
        Case {
            question: "What are the top three methods by MASE on traffic data?",
            truth_sql: Some(
                "SELECT r.method, AVG(r.mase) AS s, COUNT(*) AS runs FROM results r \
                 JOIN datasets d ON r.dataset_id = d.id WHERE d.domain = 'traffic' \
                 GROUP BY r.method ORDER BY s ASC LIMIT 3",
            ),
        },
        Case {
            question: "Best method for short-term forecasting by RMSE?",
            truth_sql: Some(
                "SELECT r.method, AVG(r.rmse) AS s, COUNT(*) AS runs FROM results r \
                 JOIN datasets d ON r.dataset_id = d.id WHERE r.horizon <= 24 \
                 GROUP BY r.method ORDER BY s ASC LIMIT 1",
            ),
        },
        Case {
            question: "top 4 methods by r2 on electricity datasets",
            truth_sql: Some(
                "SELECT r.method, AVG(r.r2) AS s, COUNT(*) AS runs FROM results r \
                 JOIN datasets d ON r.dataset_id = d.id WHERE d.domain = 'electricity' \
                 GROUP BY r.method ORDER BY s DESC LIMIT 4",
            ),
        },
        Case {
            question: "Which methods perform best on non-stationary series? top 3 by mae",
            truth_sql: Some(
                "SELECT r.method, AVG(r.mae) AS s, COUNT(*) AS runs FROM results r \
                 JOIN datasets d ON r.dataset_id = d.id WHERE d.stationarity < 0.4 \
                 GROUP BY r.method ORDER BY s ASC LIMIT 3",
            ),
        },
        Case {
            question: "best 2 methods on datasets with shifting by smape",
            truth_sql: Some(
                "SELECT r.method, AVG(r.smape) AS s, COUNT(*) AS runs FROM results r \
                 JOIN datasets d ON r.dataset_id = d.id WHERE d.shifting >= 0.6 \
                 GROUP BY r.method ORDER BY s ASC LIMIT 2",
            ),
        },
        Case {
            question: "top 3 statistical methods by mae",
            truth_sql: Some(
                "SELECT r.method, AVG(r.mae) AS s, COUNT(*) AS runs FROM results r \
                 JOIN datasets d ON r.dataset_id = d.id JOIN methods m ON r.method = m.name \
                 WHERE m.family = 'statistical' GROUP BY r.method ORDER BY s ASC LIMIT 3",
            ),
        },
        Case {
            question: "best machine learning method at horizon 24 by mae",
            truth_sql: Some(
                "SELECT r.method, AVG(r.mae) AS s, COUNT(*) AS runs FROM results r \
                 JOIN datasets d ON r.dataset_id = d.id JOIN methods m ON r.method = m.name \
                 WHERE r.horizon = 24 AND m.family = 'machine_learning' \
                 GROUP BY r.method ORDER BY s ASC LIMIT 1",
            ),
        },
        // ---- comparisons ---------------------------------------------
        Case {
            question: "Is theta better than naive by MAE?",
            truth_sql: Some(
                "SELECT r.method, AVG(r.mae) AS s, COUNT(*) AS runs FROM results r \
                 JOIN datasets d ON r.dataset_id = d.id WHERE r.method IN ('theta', 'naive') \
                 GROUP BY r.method ORDER BY s ASC",
            ),
        },
        Case {
            question: "compare seasonal naive and drift by smape on web data",
            truth_sql: Some(
                "SELECT r.method, AVG(r.smape) AS s, COUNT(*) AS runs FROM results r \
                 JOIN datasets d ON r.dataset_id = d.id \
                 WHERE d.domain = 'web' AND r.method IN ('seasonal_naive', 'drift') \
                 GROUP BY r.method ORDER BY s ASC",
            ),
        },
        // ---- counts / lists / meta -----------------------------------
        Case {
            question: "How many datasets are in the benchmark?",
            truth_sql: Some("SELECT COUNT(*) AS n FROM datasets"),
        },
        Case {
            question: "How many multivariate datasets are there?",
            truth_sql: Some("SELECT COUNT(*) AS n FROM datasets WHERE multivariate = true"),
        },
        Case {
            question: "How many datasets have strong trends?",
            truth_sql: Some("SELECT COUNT(*) AS n FROM datasets WHERE trend >= 0.6"),
        },
        Case {
            question: "How many methods are registered?",
            truth_sql: Some("SELECT COUNT(*) AS n FROM methods"),
        },
        Case {
            question: "How many deep learning methods are there?",
            truth_sql: Some("SELECT COUNT(*) AS n FROM methods WHERE family = 'deep_learning'"),
        },
        Case {
            question: "Which domains does the benchmark cover?",
            truth_sql: Some(
                "SELECT domain, COUNT(*) AS n FROM datasets GROUP BY domain ORDER BY n DESC",
            ),
        },
        Case {
            question: "Tell me about theta",
            truth_sql: Some("SELECT name, family, description FROM methods WHERE name = 'theta'"),
        },
        Case {
            question: "What is seasonal naive?",
            truth_sql: Some(
                "SELECT name, family, description FROM methods WHERE name = 'seasonal_naive'",
            ),
        },
        // ---- runtime --------------------------------------------------
        Case {
            question: "What are the 3 fastest methods?",
            truth_sql: Some(
                "SELECT r.method, AVG(r.runtime_ms) AS s, COUNT(*) AS runs FROM results r \
                 JOIN datasets d ON r.dataset_id = d.id GROUP BY r.method ORDER BY s ASC LIMIT 3",
            ),
        },
        // ---- worst / profile intents -----------------------------------
        Case {
            question: "Which 3 methods struggle the most by smape?",
            truth_sql: Some(
                "SELECT r.method, AVG(r.smape) AS s, COUNT(*) AS runs FROM results r \
                 JOIN datasets d ON r.dataset_id = d.id GROUP BY r.method ORDER BY s DESC LIMIT 3",
            ),
        },
        Case {
            question: "Where does theta perform best across domains?",
            truth_sql: Some(
                "SELECT d.domain, AVG(r.mae) AS s, COUNT(*) AS runs FROM results r \
                 JOIN datasets d ON r.dataset_id = d.id WHERE r.method = 'theta' \
                 GROUP BY d.domain ORDER BY s ASC",
            ),
        },
        Case { question: "what are the weakest performers on seasonal data?", truth_sql: None },
        Case { question: "per domain breakdown for seasonal naive by mase", truth_sql: None },
        // ---- paraphrases exercising the parser ------------------------
        Case { question: "rank the top ten methods by mean absolute error", truth_sql: None },
        Case { question: "which method wins on banking series?", truth_sql: None },
        Case { question: "best seasonal methods for monthly nature data", truth_sql: None },
        Case { question: "top 6 methods under rolling evaluation by mase", truth_sql: None },
        Case { question: "what method should I use for stock prices?", truth_sql: None },
        Case { question: "best performers on correlated multivariate datasets", truth_sql: None },
        Case { question: "top 2 methods by mse for health data", truth_sql: None },
        Case { question: "which methods are most accurate at horizon 48?", truth_sql: None },
        Case { question: "best univariate long-term method by smape", truth_sql: None },
        Case { question: "fastest statistical method", truth_sql: None },
    ]
}

/// Result rows rendered with exact float bits, so NaN == NaN and
/// -0.0 != 0.0: a bit-for-bit comparison key.
fn canon(rows: &[Vec<Value>]) -> String {
    let mut s = String::new();
    for row in rows {
        for v in row {
            match v {
                Value::Float(f) => write!(s, "F{:016x};", f.to_bits()),
                other => write!(s, "{other:?};"),
            }
            .expect("writing to a String cannot fail");
        }
        s.push('\n');
    }
    s
}

/// Out-of-scope questions the module must *reject* rather than answer
/// arbitrarily.
const OUT_OF_SCOPE: &[&str] =
    &["sing me a song", "what's the weather tomorrow", "hello there", "2 + 2"];

fn main() {
    let per_domain = arg_usize("per-domain", 3);

    let platform = EasyTime::with_benchmark(&CorpusConfig {
        per_domain,
        length: 280,
        multivariate_per_domain: 1,
        channels: 3,
        seed: 13,
        ..CorpusConfig::default()
    })
    .expect("benchmark");
    for config in [
        r#"{"methods": ["naive", "seasonal_naive", "drift", "theta", "ses", "lag_ridge_16",
                        "dlinear_32", "gboost_12"],
            "strategy": {"type": "fixed", "horizon": 96}}"#,
        r#"{"methods": ["naive", "seasonal_naive", "drift", "theta", "ses", "lag_ridge_16",
                        "dlinear_32", "gboost_12"],
            "strategy": {"type": "fixed", "horizon": 24}}"#,
        r#"{"methods": ["naive", "seasonal_naive", "theta"],
            "strategy": {"type": "rolling", "horizon": 48, "stride": 48}}"#,
    ] {
        platform.one_click_json(config).expect("knowledge population");
    }
    let knowledge = platform.knowledge_snapshot();

    let cases = suite();
    println!("E4 Q&A accuracy: {} in-scope questions, {} out-of-scope\n", cases.len(), OUT_OF_SCOPE.len());

    let mut parsed = 0usize;
    let mut sql_ok = 0usize;
    let mut scan_equal = 0usize;
    let mut accurate = 0usize;
    let mut with_truth = 0usize;
    let mut latencies: Vec<f64> = Vec::new();
    let mut failures: Vec<(String, String)> = Vec::new();

    for case in &cases {
        // Fresh session per question: the suite is single-turn.
        let mut session = platform.qa_session().expect("session");
        let started = Instant::now();
        match session.ask(case.question) {
            Ok(resp) => {
                parsed += 1;
                sql_ok += 1; // query() verified + executed successfully
                latencies.push(started.elapsed().as_secs_f64() * 1e3);
                // Compare row content, not column names.
                let got = canon(&resp.table.rows);
                let scanned = knowledge.query_scan(&resp.sql).expect("generated SQL scans");
                if got == canon(&scanned.rows) {
                    scan_equal += 1;
                } else {
                    failures.push((
                        case.question.to_string(),
                        format!("planned rows differ from the scan of {}", resp.sql),
                    ));
                }
                if let Some(truth) = case.truth_sql {
                    with_truth += 1;
                    let expected = knowledge.query_scan(truth).expect("ground-truth SQL scans");
                    if got == canon(&expected.rows) {
                        accurate += 1;
                    } else {
                        failures.push((
                            case.question.to_string(),
                            format!(
                                "rows {} differ from the scanned ground truth's {}",
                                resp.table.rows.len(),
                                expected.rows.len()
                            ),
                        ));
                    }
                }
            }
            Err(e) => failures.push((case.question.to_string(), e.to_string())),
        }
    }

    let mut rejected = 0usize;
    for q in OUT_OF_SCOPE {
        let mut session = platform.qa_session().expect("session");
        match session.ask(q) {
            Err(_) => rejected += 1,
            Ok(resp) => failures.push((q.to_string(), format!("answered with {}", resp.sql))),
        }
    }

    let mean_latency = latencies.iter().sum::<f64>() / latencies.len().max(1) as f64;
    println!("── Results:");
    print_table(
        &["measure", "value"],
        &[
            vec!["questions parsed".into(), format!("{parsed}/{}", cases.len())],
            vec!["generated SQL verified & executed".into(), format!("{sql_ok}/{parsed}")],
            vec!["answers bit-equal to the scan".into(), format!("{scan_equal}/{parsed}")],
            vec!["answers bit-equal to scanned ground truth".into(), format!("{accurate}/{with_truth}")],
            vec!["out-of-scope correctly rejected".into(), format!("{rejected}/{}", OUT_OF_SCOPE.len())],
            vec!["mean end-to-end latency".into(), format!("{mean_latency:.2} ms")],
        ],
    );
    println!("\nPaper claim shape: 100% of generated SQL passes verification; answers match the knowledge base.");
    if !failures.is_empty() {
        eprintln!("\nFAIL: {} Q&A check(s) failed:", failures.len());
        for (q, why) in &failures {
            eprintln!("  - {q}\n    {why}");
        }
        std::process::exit(1);
    }
}
