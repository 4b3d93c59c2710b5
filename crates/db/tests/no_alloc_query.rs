//! Proof that a grouped join costs no allocation per input row.
//!
//! [`easytime_obs::CountingAlloc`] wraps the system allocator while the
//! Q&A module's query shape — a sequential scan of `results`, an index
//! probe into `datasets`, a residual filter, GROUP BY with AVG and COUNT,
//! ORDER BY and LIMIT — runs warm over N and over 10·N `results` rows with
//! the same datasets and methods. Everything the compiled executor
//! allocates is per query or per group: parsing, the plan and its explain,
//! the tuple and probe buffers, one accumulator set and one output row per
//! group. Each row advances the tuple, re-checks the predicates on borrowed
//! values and folds into its group (the hot `accumulate`), so nine times
//! more rows must not cost one extra allocation.

use easytime_db::schema::{Column, ColumnType, Schema};
use easytime_db::{Database, Value};
use easytime_obs::CountingAlloc;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const SQL: &str = "SELECT r.method, AVG(r.mae) AS m, COUNT(*) AS n FROM results r \
                   JOIN datasets d ON r.dataset_id = d.id WHERE d.domain = 'web' \
                   GROUP BY r.method ORDER BY m LIMIT 5";
const DOMAINS: [&str; 4] = ["web", "economic", "traffic", "energy"];
const METHODS: [&str; 7] = ["naive", "theta", "ses", "drift", "arima", "mean", "gboost_12"];
const DATASETS: usize = 40;
const N: usize = 3000;

fn knowledge(results: usize) -> Database {
    let mut db = Database::new();
    db.create_table(
        "datasets",
        Schema::new(vec![
            Column::new("id", ColumnType::Text),
            Column::new("domain", ColumnType::Text),
        ]),
    )
    .unwrap();
    db.create_table(
        "results",
        Schema::new(vec![
            Column::new("dataset_id", ColumnType::Text),
            Column::new("method", ColumnType::Text),
            Column::new("mae", ColumnType::Float),
        ]),
    )
    .unwrap();
    for i in 0..DATASETS {
        let domain = DOMAINS[i % DOMAINS.len()];
        let id = Value::Text(format!("{domain}_{i:04}"));
        db.insert_row("datasets", vec![id, Value::from(domain)]).unwrap();
    }
    for i in 0..results {
        let d = i % DATASETS;
        let id = format!("{}_{d:04}", DOMAINS[d % DOMAINS.len()]);
        let method = METHODS[i % METHODS.len()];
        let mae = 1.0 + (i % 97) as f64 * 0.01;
        db.insert_row("results", vec![Value::Text(id), Value::from(method), Value::Float(mae)])
            .unwrap();
    }
    db.create_index("ix_datasets_id", "datasets", &["id"]).unwrap();
    db
}

/// Allocation count of one warm query, minimized over several repeats:
/// the query's own count is deterministic, while any harness threads
/// sharing the process allocator can only *add* strays, so the minimum
/// converges to the true per-query cost.
fn measured(db: &Database) -> u64 {
    let warm = db.query(SQL).unwrap();
    assert_eq!(warm, db.query_scan(SQL).unwrap(), "the planned answer must equal the scan");
    assert_eq!(warm.rows.len(), 5);
    let mut min = u64::MAX;
    for _ in 0..5 {
        let before = CountingAlloc::allocations();
        let r = db.query(SQL).unwrap();
        let after = CountingAlloc::allocations();
        drop(r);
        min = min.min(after - before);
    }
    min
}

// One test function only: a second concurrently-running test would
// allocate during the measurement window and make the count flaky.
#[test]
fn a_grouped_join_allocates_nothing_per_row() {
    let small = knowledge(N);
    let large = knowledge(10 * N);
    let explain = large.explain(SQL).unwrap();
    assert!(explain.contains("access r: seq-scan"), "{explain}");
    assert!(explain.contains("join d: index-probe ix_datasets_id"), "{explain}");
    let n_small = measured(&small);
    let n_large = measured(&large);
    assert_eq!(
        n_small,
        n_large,
        "{} extra rows must not allocate: {N} rows cost {n_small} allocations, {} cost {n_large}",
        9 * N,
        10 * N
    );
}
