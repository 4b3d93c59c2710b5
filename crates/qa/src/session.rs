//! Multi-turn Q&A sessions.
//!
//! A [`QaSession`] owns the connection to the knowledge base and the
//! conversation history. Each `ask` runs the full Figure 3 pipeline —
//! parse → (history merge) → SQL generation → verification → execution →
//! answer + chart — and records the exchange so follow-up questions like
//! "and what about RMSE?" inherit the previous filters (the paper's
//! "pre-stored benchmark metadata, Q&A history" context).

use crate::answer::generate_answer;
use crate::charts::ChartSpec;
use crate::error::QaError;
use crate::intent::Intent;
use crate::nl2sql::{generate_sql, parse_question, Lexicon};
use easytime_db::{Database, QueryResult};
use easytime_clock::Stopwatch;

/// Everything returned for one question (Figure 5, labels 2–5).
#[derive(Debug, Clone, PartialEq)]
pub struct QaResponse {
    /// The original question.
    pub question: String,
    /// The resolved intent (after history merging).
    pub intent: Intent,
    /// The generated SQL statement.
    pub sql: String,
    /// The query planner's explain: chosen access path, join strategy, and
    /// sort treatment (deterministic for a given knowledge base).
    pub plan: String,
    /// The natural-language answer.
    pub answer: String,
    /// Chart payload, when the result is plottable.
    pub chart: Option<ChartSpec>,
    /// The raw result table.
    pub table: QueryResult,
    /// End-to-end latency in milliseconds.
    pub latency_ms: f64,
}

/// A Q&A session over a populated knowledge base.
///
/// Cloning is cheap: the clone shares the knowledge base's tables and
/// indexes copy-on-write (see [`Database`]) and copies only the lexicon and
/// the history. A server opens one session and answers each question on a
/// clone of it.
#[derive(Debug, Clone)]
pub struct QaSession {
    db: Database,
    lexicon: Lexicon,
    history: Vec<(String, Intent)>,
}

impl QaSession {
    /// Opens a session, extracting the entity lexicon (method names and
    /// domains) from the knowledge base.
    pub fn new(db: Database) -> Result<QaSession, QaError> {
        let methods = db
            .query("SELECT name FROM methods")?
            .rows
            .into_iter()
            .filter_map(|r| r.into_iter().next().and_then(|v| v.as_str().map(str::to_string)))
            .collect();
        let domains = db
            .query("SELECT DISTINCT domain FROM datasets")?
            .rows
            .into_iter()
            .filter_map(|r| r.into_iter().next().and_then(|v| v.as_str().map(str::to_string)))
            .collect();
        Ok(QaSession { db, lexicon: Lexicon { methods, domains }, history: Vec::new() })
    }

    /// Read access to the underlying knowledge base (for direct SQL from
    /// power users, Figure 5 label 4).
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// The extracted entity lexicon.
    pub fn lexicon(&self) -> &Lexicon {
        &self.lexicon
    }

    /// Number of exchanges so far (test diagnostics).
    #[cfg(test)]
    pub(crate) fn history_len(&self) -> usize {
        self.history.len()
    }

    /// Clears the conversation history (a "new chat" in the frontend);
    /// follow-up slot carry-over starts fresh afterwards.
    pub fn reset(&mut self) {
        self.history.clear();
    }

    /// Asks a question; runs the full pipeline.
    pub fn ask(&mut self, question: &str) -> Result<QaResponse, QaError> {
        let started = Stopwatch::start();
        let mut ask_span = easytime_obs::span("qa.ask");
        ask_span.attr_u64("history", self.history.len() as u64);

        // 1–2. NL2SQL with history context. Only elliptical follow-ups
        // (questions that do not restate an intent kind, e.g. "what about
        // sMAPE?") inherit the previous question's slots; a fully-formed
        // new question stands alone.
        let (parsed, explicit) = {
            let _sp = easytime_obs::span("qa.parse");
            parse_question(question, &self.lexicon)?
        };
        let intent = match self.history.last() {
            Some((_, previous)) if !explicit.kind => parsed.merged_into(previous, &explicit),
            _ => parsed,
        };
        let sql = {
            let _sp = easytime_obs::span("qa.nl2sql");
            generate_sql(&intent)
        };

        // 3. Retrieval: `Database::query_with_plan` verifies, plans, and
        // executes; the explain rides along for power users (Figure 5
        // label 4).
        let (table, plan) = {
            let mut sp = easytime_obs::span("qa.execute");
            let (table, plan) = self.db.query_with_plan(&sql)?;
            sp.attr_u64("rows", table.rows.len() as u64);
            (table, plan)
        };

        // 4–5. Generation + post-processing.
        let (answer, chart) = {
            let _sp = easytime_obs::span("qa.answer");
            (generate_answer(&intent, &table), ChartSpec::from_result(question, &table))
        };
        ask_span.attr_u64("rows", table.rows.len() as u64);

        self.history.push((question.to_string(), intent.clone()));
        Ok(QaResponse {
            question: question.to_string(),
            intent,
            sql,
            plan,
            answer,
            chart,
            table,
            latency_ms: started.elapsed_ms(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use easytime_db::knowledge::{
        create_knowledge_schema, insert_dataset, insert_method, insert_result, DatasetRow,
        MethodRow, ResultRow,
    };

    fn knowledge_db() -> Database {
        let mut db = Database::new();
        create_knowledge_schema(&mut db).expect("schema creation succeeds on a fresh database");
        for (id, domain, trend, mv) in [
            ("web_01", "web", 0.8, false),
            ("web_02", "web", 0.7, true),
            ("eco_01", "economic", 0.2, false),
        ] {
            insert_dataset(
                &mut db,
                &DatasetRow {
                    id: id.into(),
                    domain: domain.into(),
                    length: 400,
                    frequency: "daily".into(),
                    channels: if mv { 3 } else { 1 },
                    seasonality: 0.5,
                    trend,
                    transition: 0.1,
                    shifting: 0.2,
                    stationarity: 0.3,
                    correlation: if mv { 0.7 } else { 0.0 },
                    period: 7,
                },
            )
            .expect("value is present");
        }
        for (name, family, desc) in [
            ("naive", "statistical", "repeat the last observation"),
            ("theta", "statistical", "the Theta method"),
            ("dlinear_32", "machine_learning", "decomposition linear model"),
        ] {
            insert_method(
                &mut db,
                &MethodRow { name: name.into(), family: family.into(), description: desc.into() },
            )
            .expect("insert_method succeeds");
        }
        let mut push = |dataset: &str, method: &str, horizon: i64, mae: f64, rt: f64| {
            insert_result(
                &mut db,
                &ResultRow {
                    dataset_id: dataset.into(),
                    method: method.into(),
                    strategy: "rolling".into(),
                    horizon,
                    mae: Some(mae),
                    mse: Some(mae * mae),
                    rmse: Some(mae),
                    smape: Some(mae * 10.0),
                    mase: Some(mae / 2.0),
                    r2: Some(1.0 - mae / 10.0),
                    runtime_ms: rt,
                    windows: 4,
                },
            )
            .expect("value is present");
        };
        for d in ["web_01", "web_02", "eco_01"] {
            push(d, "naive", 96, 3.0, 0.5);
            push(d, "theta", 96, 2.0, 2.0);
            push(d, "dlinear_32", 96, 2.5, 5.0);
            push(d, "naive", 24, 1.5, 0.5);
            push(d, "theta", 24, 1.0, 2.0);
            push(d, "dlinear_32", 24, 0.8, 5.0);
        }
        db
    }

    #[test]
    fn session_extracts_lexicon() {
        let session = QaSession::new(knowledge_db()).expect("construction succeeds with valid parameters");
        assert_eq!(session.lexicon().methods.len(), 3);
        assert!(session.lexicon().domains.contains(&"web".to_string()));
    }

    #[test]
    fn end_to_end_top_methods_question() {
        let mut session = QaSession::new(knowledge_db()).expect("construction succeeds with valid parameters");
        let r = session
            .ask("What are the top 3 methods ordered by MAE for long-term forecasting?")
            .expect("question is answered");
        assert!(r.sql.contains("r.horizon >= 96"));
        assert_eq!(r.table.rows.len(), 3);
        assert!(r.answer.contains("theta"), "answer: {}", r.answer);
        assert!(r.answer.contains("1. theta"));
        let chart = r.chart.expect("rankable result should chart");
        assert_eq!(chart.points[0].0, "theta");
        assert!(r.latency_ms >= 0.0);
    }

    #[test]
    fn follow_up_inherits_filters() {
        let mut session = QaSession::new(knowledge_db()).expect("construction succeeds with valid parameters");
        session
            .ask("Top 3 methods by MAE for long-term forecasting on web datasets?")
            .expect("question is answered");
        // Follow-up changes only the metric; the long-term + web filters
        // must carry over.
        let r = session.ask("what about smape?").expect("question is answered");
        assert!(r.sql.contains("smape"));
        assert!(r.sql.contains("r.horizon >= 96"), "sql: {}", r.sql);
        assert!(r.sql.contains("d.domain = 'web'"), "sql: {}", r.sql);
        assert_eq!(session.history_len(), 2);
    }

    #[test]
    fn comparison_and_info_questions() {
        let mut session = QaSession::new(knowledge_db()).expect("construction succeeds with valid parameters");
        let cmp = session.ask("Is theta better than naive by MAE?").expect("question is answered");
        assert!(cmp.answer.contains("theta outperforms naive"), "{}", cmp.answer);

        let info = session.ask("Tell me about dlinear").expect("question is answered");
        assert!(info.answer.contains("machine learning"), "{}", info.answer);
    }

    #[test]
    fn count_questions_hit_dataset_filters() {
        let mut session = QaSession::new(knowledge_db()).expect("construction succeeds with valid parameters");
        let r = session.ask("How many multivariate datasets are there?").expect("question is answered");
        assert!(r.answer.contains('1'), "{}", r.answer);
        let r = session.ask("How many datasets have strong trends?").expect("question is answered");
        assert!(r.answer.contains('2'), "{}", r.answer);
    }

    #[test]
    fn fastest_question_uses_runtime() {
        let mut session = QaSession::new(knowledge_db()).expect("construction succeeds with valid parameters");
        let r = session.ask("Which are the 2 fastest methods?").expect("question is answered");
        assert!(r.sql.contains("runtime_ms"));
        assert!(r.answer.starts_with("The fastest methods"));
        assert!(r.answer.contains("naive"), "{}", r.answer);
    }

    #[test]
    fn reset_clears_follow_up_context() {
        let mut session = QaSession::new(knowledge_db()).expect("construction succeeds with valid parameters");
        session.ask("top 3 methods by mae for long-term forecasting on web datasets").expect("question is answered");
        session.reset();
        assert_eq!(session.history_len(), 0);
        // Without history, the elliptical follow-up stands alone: no
        // long-term or web filters.
        let r = session.ask("what about smape?").expect("question is answered");
        assert!(!r.sql.contains("horizon"), "sql: {}", r.sql);
        assert!(!r.sql.contains("domain"), "sql: {}", r.sql);
    }

    #[test]
    fn worst_methods_and_profile_questions() {
        let mut session = QaSession::new(knowledge_db()).expect("construction succeeds with valid parameters");
        let worst = session.ask("which 2 methods struggle the most by mae?").expect("question is answered");
        assert!(worst.answer.contains("weakest"), "{}", worst.answer);
        // naive has the highest MAE in the fixture.
        assert!(worst.table.rows[0][0].to_string() == "naive");

        let profile = session.ask("where does theta perform best?").expect("question is answered");
        assert!(profile.answer.contains("performs best on"), "{}", profile.answer);
        assert!(profile.sql.contains("GROUP BY d.domain"));
        // Two domains in the fixture → two profile rows.
        assert_eq!(profile.table.rows.len(), 2);
    }

    #[test]
    fn unanswerable_question_errors_cleanly() {
        let mut session = QaSession::new(knowledge_db()).expect("construction succeeds with valid parameters");
        assert!(matches!(
            session.ask("sing me a song"),
            Err(QaError::UnparsableQuestion { .. })
        ));
        assert_eq!(session.history_len(), 0, "failed questions stay out of history");
    }
}
