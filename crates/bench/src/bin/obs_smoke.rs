//! Traced smoke evaluation for CI.
//!
//! Forces tracing on, runs a small `evaluate_corpus` under a root span,
//! flushes `results/trace.jsonl` + `results/metrics.json` +
//! `results/PROFILE.json` + `results/profile.txt`, then re-reads the
//! metrics and profile files and validates their schemas: version pins,
//! expected stage keys, model-fit counters, the ≥95% span coverage
//! acceptance check, the exact self-time partition
//! (`self_total_ns == total_ns`), and that the root span's own self time
//! is at most 5% of its total — ≥95% of the run is attributed to named
//! child stages. Any drift exits nonzero so `scripts/ci.sh` fails loudly.

use easytime::json::Json;
use easytime::{EvalConfig, MetricRegistry, Strategy};
use easytime_bench::{experiment_corpus, fast_zoo};
use easytime_eval::evaluate_corpus;
use std::process::ExitCode;

/// Stages the traced evaluation must produce (schema contract with CI).
const EXPECTED_STAGES: [&str; 7] = [
    "eval.corpus",
    "eval.evaluate",
    "eval.run_windows",
    "eval.window",
    "db.query",
    "db.plan",
    "db.execute",
];

/// Query-engine counters the knowledge-base segment must record.
const EXPECTED_DB_COUNTERS: [&str; 3] = ["db.index_seeks", "db.rows_scanned", "db.rows_pruned"];

/// Builds a small benchmark knowledge base and runs one planned query whose
/// shape exercises an index seek, a pushed-down filter, and a join — so the
/// `db.*` spans and counters CI asserts on are all live.
fn knowledge_segment() -> Result<(), String> {
    use easytime_db::knowledge::{
        create_knowledge_schema, insert_dataset, insert_method, insert_result, DatasetRow,
        MethodRow, ResultRow,
    };
    let _sp = easytime::obs::span("smoke.knowledge");
    let mut db = easytime_db::Database::new();
    create_knowledge_schema(&mut db).map_err(|e| e.to_string())?;
    for (id, domain, trend) in [("web_01", "web", 0.8), ("eco_01", "economic", 0.2)] {
        insert_dataset(
            &mut db,
            &DatasetRow {
                id: id.into(),
                domain: domain.into(),
                length: 400,
                frequency: "daily".into(),
                channels: 1,
                seasonality: 0.5,
                trend,
                transition: 0.1,
                shifting: 0.2,
                stationarity: 0.3,
                correlation: 0.0,
                period: 7,
            },
        )
        .map_err(|e| e.to_string())?;
    }
    for name in ["naive", "theta"] {
        insert_method(
            &mut db,
            &MethodRow { name: name.into(), family: "statistical".into(), description: name.into() },
        )
        .map_err(|e| e.to_string())?;
    }
    // Four copies of five results: `horizon >= 90` matches three rows in
    // five, and over five rows alone a sequential scan is the cheaper plan.
    let results = [
        ("web_01", "naive", 24, 3.0),
        ("web_01", "theta", 24, 2.0),
        ("web_01", "theta", 96, 4.0),
        ("eco_01", "naive", 96, 1.0),
        ("eco_01", "theta", 96, 1.5),
    ];
    for (d, m, h, mae) in results.into_iter().cycle().take(4 * results.len()) {
        insert_result(
            &mut db,
            &ResultRow {
                dataset_id: d.into(),
                method: m.into(),
                strategy: "rolling".into(),
                horizon: h,
                mae: Some(mae),
                mse: Some(mae * mae),
                rmse: Some(mae),
                smape: Some(mae * 10.0),
                mase: Some(mae / 2.0),
                r2: None,
                runtime_ms: 1.0,
                windows: 4,
            },
        )
        .map_err(|e| e.to_string())?;
    }
    let (result, plan) = db
        .query_with_plan(
            "SELECT r.method, AVG(r.mae) AS m FROM results r \
             JOIN datasets d ON r.dataset_id = d.id \
             WHERE r.method = 'theta' AND r.horizon >= 90 \
             GROUP BY r.method ORDER BY m",
        )
        .map_err(|e| e.to_string())?;
    if result.rows.len() != 1 {
        return Err(format!("knowledge query returned {} rows, expected 1", result.rows.len()));
    }
    if !plan.contains("index-seek") {
        return Err(format!("knowledge query plan did not use an index seek:\n{plan}"));
    }
    Ok(())
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("obs_smoke: FAIL: {msg}");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    easytime::obs::set_enabled(true);
    easytime::obs::reset();

    let root_id;
    {
        let mut root = easytime::obs::span("smoke.run");
        root.attr("purpose", "ci traced smoke evaluation");
        root_id = root.id().unwrap_or(0);

        let corpus = {
            let _sp = easytime::obs::span("smoke.build_corpus");
            experiment_corpus(1, 160, 7)
        };
        let config = EvalConfig {
            methods: fast_zoo(),
            strategy: Strategy::Fixed { horizon: 12 },
            ..EvalConfig::default()
        };
        easytime::obs::manifest_set("seed", 7_u64);
        easytime::obs::manifest_set("run", "obs_smoke");
        let registry = MetricRegistry::standard();
        let config = match config.into_validated(&registry) {
            Ok(c) => c,
            Err(e) => return fail(&format!("config validation failed: {e}")),
        };
        match evaluate_corpus(&corpus, &config, &registry) {
            Ok(records) => {
                easytime::obs::manifest_set("records", records.len() as u64);
            }
            Err(e) => return fail(&format!("evaluate_corpus failed: {e}")),
        }
        if let Err(e) = knowledge_segment() {
            return fail(&format!("knowledge segment failed: {e}"));
        }
    }

    let data = easytime::obs::drain();
    let coverage = data.child_coverage(root_id);
    if coverage < 0.95 {
        return fail(&format!("span coverage {coverage:.3} below the 0.95 floor"));
    }

    let paths = match easytime::obs::write_files(std::path::Path::new("results"), &data) {
        Ok(p) => p,
        Err(e) => return fail(&format!("writing results failed: {e}")),
    };

    // Validate the flushed metrics.json from disk, exactly as a consumer
    // would see it.
    let text = match std::fs::read_to_string(&paths.metrics) {
        Ok(t) => t,
        Err(e) => return fail(&format!("reading {} failed: {e}", paths.metrics.display())),
    };
    let doc = match Json::parse(&text) {
        Ok(d) => d,
        Err(e) => return fail(&format!("metrics.json is not valid JSON: {}", e.message)),
    };
    if doc.get("schema_version").and_then(Json::as_usize) != Some(2) {
        return fail("metrics.json schema_version != 2");
    }
    let Some(stages) = doc.get("stages") else {
        return fail("missing \"stages\" section");
    };
    for name in EXPECTED_STAGES {
        let Some(stage) = stages.get(name) else {
            return fail(&format!("missing stage {name:?}"));
        };
        for field in ["count", "total_ns", "min_ns", "max_ns"] {
            if stage.get(field).and_then(Json::as_f64).is_none() {
                return fail(&format!("stage {name:?} missing numeric field {field:?}"));
            }
        }
        if stage.get("count").and_then(Json::as_usize) == Some(0) {
            return fail(&format!("stage {name:?} recorded zero spans"));
        }
    }
    let Some(counters) = doc.get("counters") else {
        return fail("missing \"counters\" section");
    };
    let Json::Object(counter_map) = counters else {
        return fail("\"counters\" is not an object");
    };
    if !counter_map.keys().any(|k| k.starts_with("models.fit.")) {
        return fail("no models.fit.* counters recorded");
    }
    for name in EXPECTED_DB_COUNTERS {
        if counter_map.get(name).and_then(Json::as_f64).is_none_or(|v| v <= 0.0) {
            return fail(&format!("counter {name:?} missing or zero"));
        }
    }
    // Plan-span coverage: every planned query records exactly one db.plan
    // span under its db.query span.
    let span_count = |stage: &str| {
        stages.get(stage).and_then(|s| s.get("count")).and_then(Json::as_usize)
    };
    if span_count("db.plan") != span_count("db.query") {
        return fail(&format!(
            "db.plan spans ({:?}) != db.query spans ({:?}): a query ran unplanned",
            span_count("db.plan"),
            span_count("db.query")
        ));
    }
    let Some(manifest) = doc.get("manifest") else {
        return fail("missing \"manifest\" section");
    };
    for key in ["seed", "run", "config_hash", "dataset_ids", "methods", "workers"] {
        if manifest.get(key).is_none() {
            return fail(&format!("manifest missing {key:?}"));
        }
    }

    // Validate the flushed PROFILE.json the same way: schema pin, stage
    // fields, and the attribution invariants the design promises.
    let text = match std::fs::read_to_string(&paths.profile) {
        Ok(t) => t,
        Err(e) => return fail(&format!("reading {} failed: {e}", paths.profile.display())),
    };
    let profile = match Json::parse(&text) {
        Ok(d) => d,
        Err(e) => return fail(&format!("PROFILE.json is not valid JSON: {}", e.message)),
    };
    let want = easytime_obs::PROFILE_SCHEMA_VERSION as usize;
    if profile.get("schema_version").and_then(Json::as_usize) != Some(want) {
        return fail(&format!("PROFILE.json schema_version != {want}"));
    }
    let (Some(total_ns), Some(self_total_ns)) = (
        profile.get("total_ns").and_then(Json::as_f64),
        profile.get("self_total_ns").and_then(Json::as_f64),
    ) else {
        return fail("PROFILE.json missing total_ns/self_total_ns");
    };
    // Exact partition: children are sequential same-thread scopes under a
    // monotonic clock, so self times sum to the root totals without loss.
    if total_ns != self_total_ns {
        return fail(&format!(
            "self-time partition broken: self_total_ns {self_total_ns} != total_ns {total_ns}"
        ));
    }
    let Some(stages) = profile.get("stages") else {
        return fail("PROFILE.json missing \"stages\" section");
    };
    let mut self_sum = 0.0;
    let Json::Object(stage_map) = stages else {
        return fail("PROFILE.json \"stages\" is not an object");
    };
    for (name, stage) in stage_map {
        for field in ["count", "total_ns", "self_ns", "min_ns", "max_ns", "allocs", "alloc_bytes"]
        {
            if stage.get(field).and_then(Json::as_f64).is_none() {
                return fail(&format!(
                    "PROFILE.json stage {name:?} missing numeric field {field:?}"
                ));
            }
        }
        for field in ["p50_ns", "p90_ns", "p95_ns", "p99_ns", "allocs_per_span"] {
            if stage.get(field).is_none() {
                return fail(&format!("PROFILE.json stage {name:?} missing field {field:?}"));
            }
        }
        self_sum += stage.get("self_ns").and_then(Json::as_f64).unwrap_or(f64::NAN);
    }
    if self_sum != total_ns {
        return fail(&format!(
            "stage self times sum to {self_sum}, expected total_ns {total_ns}"
        ));
    }
    let Some(root_stage) = stage_map.get("smoke.run") else {
        return fail("PROFILE.json missing the smoke.run stage");
    };
    let root_self = root_stage.get("self_ns").and_then(Json::as_f64).unwrap_or(f64::NAN);
    let root_total = root_stage.get("total_ns").and_then(Json::as_f64).unwrap_or(f64::NAN);
    if !(root_self <= 0.05 * root_total) {
        return fail(&format!(
            "smoke.run self time {root_self} exceeds 5% of its total {root_total}; \
             <95% of the run is attributed to named child stages"
        ));
    }
    if profile.get("flame").and_then(|f| f.get("smoke.run;smoke.build_corpus")).is_none() {
        return fail("PROFILE.json flame section is missing the smoke.run;smoke.build_corpus stack");
    }

    println!(
        "obs_smoke: OK (coverage {coverage:.3}, root self {:.1}%, {} spans, {} stages, \
         {} counters) -> {}",
        100.0 * root_self / root_total,
        data.spans.len(),
        stage_map.len(),
        counter_map.len(),
        paths.metrics.display()
    );
    ExitCode::SUCCESS
}
