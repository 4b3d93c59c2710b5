//! Bridging the pipeline and the knowledge database.
//!
//! Figure 1 shows one *benchmark knowledge* store feeding both the
//! Automated Ensemble and the Q&A module. This module is that glue: it
//! materializes dataset meta-information, the method roster, and pipeline
//! result records as SQL rows, and reads performance matrices back for
//! recommender pretraining.

use crate::error::EasyTimeError;
use easytime_automl::PerfMatrix;
use easytime_data::Dataset;
use easytime_db::knowledge::{
    create_knowledge_schema, insert_dataset, insert_method, insert_result, DatasetRow, MethodRow,
    ResultRow,
};
use easytime_db::{Database, Value};
use easytime_eval::EvalRecord;
use easytime_models::zoo::ZooEntry;

/// Creates a fresh knowledge database with the schema installed.
pub fn new_knowledge_db() -> Database {
    let mut db = Database::new();
    #[expect(
        clippy::expect_used,
        reason = "installing the schema into a brand-new empty database cannot collide with \
                  existing tables; failure here is a bug in the schema itself"
    )]
    create_knowledge_schema(&mut db).expect("fresh database accepts the schema");
    db
}

/// Inserts a dataset's meta-information.
pub fn record_dataset(db: &mut Database, dataset: &Dataset) -> Result<(), EasyTimeError> {
    let ch = &dataset.meta.characteristics;
    insert_dataset(
        db,
        &DatasetRow {
            id: dataset.meta.id.clone(),
            domain: dataset.meta.domain.name().to_string(),
            length: dataset.meta.length as i64,
            frequency: dataset.meta.frequency.name().to_string(),
            channels: dataset.meta.channels as i64,
            seasonality: ch.seasonality,
            trend: ch.trend,
            transition: ch.transition,
            shifting: ch.shifting,
            stationarity: ch.stationarity,
            correlation: ch.correlation,
            period: ch.period as i64,
        },
    )?;
    Ok(())
}

/// Inserts a zoo roster entry into the `methods` table.
pub fn record_method(db: &mut Database, entry: &ZooEntry) -> Result<(), EasyTimeError> {
    insert_method(
        db,
        &MethodRow {
            name: entry.spec.name(),
            family: entry.spec.family().name().to_string(),
            description: entry.description.to_string(),
        },
    )?;
    Ok(())
}

/// Inserts one pipeline record into the `results` table. Failed records
/// are skipped (they carry no scores); returns whether a row was written.
pub fn record_result(db: &mut Database, record: &EvalRecord) -> Result<bool, EasyTimeError> {
    if !record.is_ok() {
        return Ok(false);
    }
    let metric = |name: &str| {
        let v = record.score(name);
        v.is_finite().then_some(v)
    };
    insert_result(
        db,
        &ResultRow {
            dataset_id: record.dataset_id.clone(),
            method: record.method.clone(),
            strategy: record.strategy.clone(),
            horizon: record.horizon as i64,
            mae: metric("mae"),
            mse: metric("mse"),
            rmse: metric("rmse"),
            smape: metric("smape"),
            mase: metric("mase"),
            r2: metric("r2"),
            runtime_ms: record.runtime_ms,
            windows: record.windows as i64,
        },
    )?;
    Ok(true)
}

/// Reads a performance matrix for `metric` back out of the `results`
/// table (mean over strategies/horizons per dataset × method pair) —
/// the knowledge-base-driven path for recommender pretraining.
pub fn read_perf_matrix(db: &Database, metric: &str) -> Result<PerfMatrix, EasyTimeError> {
    // Guard against injection through a caller-supplied metric name: it
    // must be one of the result columns.
    const METRICS: &[&str] = &["mae", "mse", "rmse", "smape", "mase", "r2"];
    if !METRICS.contains(&metric) {
        return Err(EasyTimeError::Config {
            reason: format!("metric '{metric}' is not stored in the results table"),
        });
    }
    let result = db.query(&format!(
        "SELECT dataset_id, method, AVG({metric}) AS score FROM results \
         GROUP BY dataset_id, method ORDER BY dataset_id, method"
    ))?;

    let mut dataset_ids: Vec<String> = Vec::new();
    let mut methods: Vec<String> = Vec::new();
    for row in &result.rows {
        let d = row[0].as_str().unwrap_or_default().to_string();
        let m = row[1].as_str().unwrap_or_default().to_string();
        if !dataset_ids.contains(&d) {
            dataset_ids.push(d);
        }
        if !methods.contains(&m) {
            methods.push(m);
        }
    }
    let mut scores = vec![vec![f64::NAN; methods.len()]; dataset_ids.len()];
    for row in &result.rows {
        let d = row[0].as_str().unwrap_or_default();
        let m = row[1].as_str().unwrap_or_default();
        let (Some(di), Some(mi)) = (
            dataset_ids.iter().position(|x| x == d),
            methods.iter().position(|x| x == m),
        ) else {
            continue;
        };
        if let Value::Float(v) = row[2] {
            scores[di][mi] = v;
        }
    }
    Ok(PerfMatrix { dataset_ids, methods, scores })
}

#[cfg(test)]
mod tests {
    use super::*;
    use easytime_data::synthetic::{build_corpus, CorpusConfig};
    use easytime_data::Domain;
    use easytime_eval::{evaluate_corpus, EvalConfig, MetricRegistry};
    use easytime_models::zoo::standard_zoo;
    use easytime_models::ModelSpec;

    fn populated() -> (Database, Vec<easytime_data::Dataset>, Vec<EvalRecord>) {
        let corpus = build_corpus(&CorpusConfig {
            domains: vec![Domain::Nature, Domain::Web],
            per_domain: 2,
            length: 140,
            ..CorpusConfig::default()
        })
        .unwrap();
        let registry = MetricRegistry::standard();
        let config = EvalConfig {
            methods: vec![ModelSpec::Naive, ModelSpec::SeasonalNaive(None)],
            ..EvalConfig::default()
        }
        .into_validated(&registry)
        .unwrap();
        let records = evaluate_corpus(&corpus, &config, &registry).unwrap();

        let mut db = new_knowledge_db();
        for d in &corpus {
            record_dataset(&mut db, d).unwrap();
        }
        for entry in standard_zoo().iter().take(2) {
            record_method(&mut db, entry).unwrap();
        }
        for r in &records {
            record_result(&mut db, r).unwrap();
        }
        (db, corpus, records)
    }

    #[test]
    fn records_round_trip_through_sql() {
        let (db, corpus, records) = populated();
        let n = db.query("SELECT COUNT(*) AS n FROM datasets").unwrap();
        assert_eq!(n.rows[0][0], Value::Int(corpus.len() as i64));
        let r = db.query("SELECT COUNT(*) AS n FROM results").unwrap();
        assert_eq!(r.rows[0][0], Value::Int(records.len() as i64));
        // Characteristics landed as floats in range.
        let t = db.query("SELECT trend FROM datasets").unwrap();
        for row in t.rows {
            let v = row[0].as_f64().unwrap();
            assert!((0.0..=1.0).contains(&v));
        }
    }

    #[test]
    fn failed_records_are_skipped() {
        let mut db = new_knowledge_db();
        let mut rec = EvalRecord {
            dataset_id: "d".into(),
            method: "m".into(),
            family: "statistical".into(),
            strategy: "fixed".into(),
            horizon: 12,
            scores: Default::default(),
            windows: 0,
            runtime_ms: 0.0,
            error: Some(easytime_eval::EvalFailure {
                kind: easytime_eval::FailureKind::Other,
                detail: "boom".into(),
            }),
        };
        assert!(!record_result(&mut db, &rec).unwrap());
        rec.error = None;
        rec.scores.insert("mae".into(), 1.0);
        assert!(record_result(&mut db, &rec).unwrap());
    }

    #[test]
    fn perf_matrix_reads_back() {
        let (db, corpus, _) = populated();
        let matrix = read_perf_matrix(&db, "mae").unwrap();
        assert_eq!(matrix.dataset_ids.len(), corpus.len());
        assert_eq!(matrix.methods.len(), 2);
        // Every dataset has both methods scored.
        for row in &matrix.scores {
            assert!(row.iter().all(|v| v.is_finite()));
        }
        assert!(matches!(
            read_perf_matrix(&db, "runtime_ms; DROP TABLE results"),
            Err(EasyTimeError::Config { .. })
        ));
    }
}
