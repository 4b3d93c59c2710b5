//! End-to-end Q&A over a genuinely evaluated benchmark: the answers must
//! agree with ground truth computed directly from the pipeline records.

use easytime::{CorpusConfig, EasyTime, EvalRecord};

fn evaluated_platform() -> (EasyTime, Vec<EvalRecord>) {
    let platform = EasyTime::with_benchmark(&CorpusConfig {
        per_domain: 2,
        length: 260,
        multivariate_per_domain: 1,
        channels: 3,
        seed: 31,
        ..CorpusConfig::default()
    })
    .unwrap();
    let mut records = platform
        .one_click_json(
            r#"{"methods": ["naive", "seasonal_naive", "drift", "theta", "ses"],
                "strategy": {"type": "fixed", "horizon": 96}}"#,
        )
        .unwrap();
    records.extend(
        platform
            .one_click_json(
                r#"{"methods": ["naive", "seasonal_naive", "drift", "theta", "ses"],
                    "strategy": {"type": "fixed", "horizon": 24}}"#,
            )
            .unwrap(),
    );
    (platform, records)
}

/// Ground truth: mean score per method over matching records.
fn mean_by_method<'a>(
    records: &'a [EvalRecord],
    metric: &str,
    filter: impl Fn(&EvalRecord) -> bool,
) -> Vec<(&'a str, f64)> {
    let mut sums: std::collections::BTreeMap<&str, (f64, usize)> = Default::default();
    for r in records.iter().filter(|r| r.is_ok()).filter(|r| filter(r)) {
        let v = r.score(metric);
        if v.is_finite() {
            let e = sums.entry(&r.method).or_insert((0.0, 0));
            e.0 += v;
            e.1 += 1;
        }
    }
    let mut out: Vec<(&str, f64)> =
        sums.into_iter().map(|(m, (s, n))| (m, s / n as f64)).collect();
    out.sort_by(|a, b| a.1.total_cmp(&b.1));
    out
}

#[test]
fn top_methods_answer_matches_record_ground_truth() {
    let (platform, records) = evaluated_platform();
    let mut session = platform.qa_session().unwrap();
    let response = session
        .ask("What are the top 5 methods ordered by MAE for long-term forecasting?")
        .unwrap();

    let truth = mean_by_method(&records, "mae", |r| r.horizon >= 96);
    assert_eq!(response.table.rows.len(), 5);
    for (row, (method, mean)) in response.table.rows.iter().zip(&truth) {
        assert_eq!(&row[0].to_string(), method, "ranking order mismatch");
        let got = row[1].as_f64().unwrap();
        assert!((got - mean).abs() < 1e-9, "{method}: {got} vs {mean}");
    }
}

#[test]
fn paper_figure5_question_round_trips() {
    let (platform, records) = evaluated_platform();
    let mut session = platform.qa_session().unwrap();
    let response = session
        .ask(
            "What are the top-8 methods (ordered by MAE) for long-term forecasting on all \
             multivariate datasets with trends?",
        )
        .unwrap();
    // SQL artifacts come back alongside the answer (Figure 5 labels 2–5).
    assert!(response.sql.to_lowercase().contains("select"));
    assert!(!response.answer.is_empty());
    // Every returned method actually has matching long-horizon
    // multivariate records.
    let mv_ids: std::collections::HashSet<String> = platform
        .registry()
        .all()
        .iter()
        .filter(|d| d.meta.is_multivariate())
        .map(|d| d.meta.id.clone())
        .collect();
    for row in &response.table.rows {
        let method = row[0].to_string();
        assert!(
            records
                .iter()
                .any(|r| r.method == method && r.horizon >= 96 && mv_ids.contains(&r.dataset_id)),
            "method {method} has no supporting records"
        );
    }
}

#[test]
fn chart_payload_mirrors_the_table() {
    let (platform, _) = evaluated_platform();
    let mut session = platform.qa_session().unwrap();
    let response = session.ask("top 4 methods by smape").unwrap();
    let chart = response.chart.expect("ranking answers include a chart");
    assert_eq!(chart.points.len(), response.table.rows.len());
    for (point, row) in chart.points.iter().zip(&response.table.rows) {
        assert_eq!(point.0, row[0].to_string());
        assert!((point.1 - row[1].as_f64().unwrap()).abs() < 1e-12);
    }
    // The JSON payload parses back (hand-rolled serializer sanity).
    let json = chart.to_json();
    assert!(json.contains("\"points\""));
}

#[test]
fn multi_turn_conversation_stays_consistent() {
    let (platform, records) = evaluated_platform();
    let mut session = platform.qa_session().unwrap();
    session.ask("top 3 methods by mae for long-term forecasting").unwrap();
    let follow = session.ask("what about smape?").unwrap();
    // Inherits the long-term filter.
    assert!(follow.sql.contains("horizon >= 96"), "sql: {}", follow.sql);
    let truth = mean_by_method(&records, "smape", |r| r.horizon >= 96);
    assert_eq!(follow.table.rows[0][0].to_string(), truth[0].0);
}

#[test]
fn count_answers_match_registry() {
    let (platform, _) = evaluated_platform();
    let mut session = platform.qa_session().unwrap();
    let resp = session.ask("How many datasets are in the benchmark?").unwrap();
    let expected = platform.registry().len();
    assert!(resp.answer.contains(&expected.to_string()), "{}", resp.answer);

    let mv = session.ask("How many multivariate datasets are there?").unwrap();
    let expected_mv =
        platform.registry().filter(|d| d.meta.is_multivariate()).len();
    assert!(mv.answer.contains(&expected_mv.to_string()), "{}", mv.answer);
}

#[test]
fn verification_blocks_malicious_sql_paths() {
    let (platform, _) = evaluated_platform();
    // Direct knowledge queries refuse writes even though the engine
    // supports them through `execute`.
    assert!(platform.query_knowledge("INSERT INTO results VALUES ('x')").is_err());
    assert!(platform
        .query_knowledge("CREATE TABLE hack (a INTEGER)")
        .is_err());
    assert!(platform.query_knowledge("SELECT COUNT(*) AS n FROM results").is_ok());
}

#[test]
fn sessions_keep_the_knowledge_they_opened_on() {
    let (platform, mut records) = evaluated_platform();
    let question = "What are the top 5 methods ordered by MAE for short-term forecasting?";
    let count = "SELECT COUNT(*) AS n FROM results";
    let mut before = platform.qa_session().unwrap();
    let first = before.ask(question).unwrap();
    let rows_before = before.database().query(count).unwrap();

    // The platform's next write copies the tables the session shares; the
    // session must not see it. The new short-horizon runs include a method
    // no earlier run used.
    let added = platform
        .one_click_json(
            r#"{"methods": ["naive", "mean", "drift"],
                "strategy": {"type": "fixed", "horizon": 12}}"#,
        )
        .unwrap();
    records.extend(added.iter().cloned());

    before.reset();
    let again = before.ask(question).unwrap();
    assert_eq!(
        (&again.sql, &again.plan, &again.table, &again.answer, &again.chart),
        (&first.sql, &first.plan, &first.table, &first.answer, &first.chart)
    );
    assert_eq!(before.database().query(count).unwrap(), rows_before);

    let mut after = platform.qa_session().unwrap();
    let fresh = after.ask(question).unwrap();
    let truth = mean_by_method(&records, "mae", |r| r.horizon <= 24);
    assert_eq!(fresh.table.rows.len(), 5);
    for (row, (method, mean)) in fresh.table.rows.iter().zip(&truth) {
        assert_eq!(&row[0].to_string(), method, "ranking order mismatch");
        let got = row[1].as_f64().unwrap();
        assert!((got - mean).abs() < 1e-9, "{method}: {got} vs {mean}");
    }
    assert_ne!(fresh.table, first.table, "the new runs change the ranking's scores");
    let n = |r: &easytime::QueryResult| r.rows[0][0].as_f64().unwrap() as usize;
    assert_eq!(n(&after.database().query(count).unwrap()), n(&rows_before) + added.len());
}
