//! Property suite: the cost-based planner is an *optimization*, never a
//! semantics change.
//!
//! For a corpus of generated queries — point and range filters, LIKE/IN
//! residuals, two- and three-table joins, GROUP BY on driver, joined and
//! multiple columns, every aggregate (over columns and expressions, and
//! over empty input), HAVING, bare non-key columns, DISTINCT, ORDER BY
//! with DESC, LIMIT (0 included), and data containing NULLs and NaN
//! metrics — every planned result must be *bit-identical* (float bits
//! compared exactly) to the naive scan oracle's result. Statements whose
//! evaluation fails must fail with the oracle's exact error. The plan
//! explain must also be byte-identical across repeated runs and across
//! databases whose indexes were created in a different order.

use easytime_db::schema::{Column, ColumnType, Schema};
use easytime_db::{Database, QueryResult, Value};
use easytime_rng::StdRng;
use std::fmt::Write;

const METHODS: [&str; 5] = ["naive", "theta", "ses", "drift", "arima"];
const DOMAINS: [&str; 4] = ["web", "economic", "traffic", "energy"];
const HORIZONS: [i64; 6] = [24, 48, 96, 192, 336, 720];
/// The third table's rows: every method's family, plus one method that
/// never ran.
const FAMILIES: [(&str, &str); 6] = [
    ("naive", "baseline"),
    ("theta", "statistical"),
    ("ses", "statistical"),
    ("drift", "baseline"),
    ("arima", "statistical"),
    ("dlinear", "deep"),
];

/// Index definitions over the three tables; created in shuffled order.
const INDEXES: [(&str, &str, &[&str]); 8] = [
    ("ix_r_method", "results", &["method"]),
    ("ix_r_horizon", "results", &["horizon"]),
    ("ix_r_mh", "results", &["method", "horizon"]),
    ("ix_r_mae", "results", &["mae"]),
    ("ix_r_dh", "results", &["dataset_id", "horizon"]),
    ("ix_d_id", "datasets", &["id"]),
    ("ix_d_domain", "datasets", &["domain"]),
    ("ix_m_name", "methods", &["name"]),
];

/// Builds the benchmark-shaped test database. `index_shuffle` seeds the
/// index-creation order only — contents are identical for a given `seed`.
fn build_db(seed: u64, index_shuffle: u64) -> Database {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = Database::new();
    db.create_table(
        "datasets",
        Schema::new(vec![
            Column::new("id", ColumnType::Text),
            Column::new("domain", ColumnType::Text),
            Column::new("trend", ColumnType::Float),
        ]),
    )
    .unwrap();
    db.create_table(
        "results",
        Schema::new(vec![
            Column::new("dataset_id", ColumnType::Text),
            Column::new("method", ColumnType::Text),
            Column::new("horizon", ColumnType::Int),
            Column::new("mae", ColumnType::Float),
        ]),
    )
    .unwrap();

    let n_datasets = 12 + rng.gen_range(0..8);
    let mut ids = Vec::new();
    for i in 0..n_datasets {
        let domain = DOMAINS[rng.gen_range(0..DOMAINS.len())];
        let id = format!("{domain}_{i:02}");
        db.insert_row(
            "datasets",
            vec![
                Value::Text(id.clone()),
                Value::Text(domain.to_string()),
                Value::Float(rng.gen_range_f64(0.0, 1.0)),
            ],
        )
        .unwrap();
        ids.push(id);
    }
    let n_results = 250 + rng.gen_range(0..150);
    for _ in 0..n_results {
        // ~1/20 rows have a NULL dataset id, ~1/12 a NaN MAE, ~1/15 a NULL
        // MAE — the messy cases the NaN/NULL ordering policy exists for.
        let dataset = if rng.gen_range(0..20) == 0 {
            Value::Null
        } else {
            Value::Text(ids[rng.gen_range(0..ids.len())].clone())
        };
        let mae = match rng.gen_range(0..60) {
            0..5 => Value::Float(f64::NAN),
            5..9 => Value::Null,
            _ => Value::Float(rng.gen_range_f64(0.1, 9.0)),
        };
        db.insert_row(
            "results",
            vec![
                dataset,
                Value::Text(METHODS[rng.gen_range(0..METHODS.len())].to_string()),
                Value::Int(HORIZONS[rng.gen_range(0..HORIZONS.len())]),
                mae,
            ],
        )
        .unwrap();
    }

    db.create_table(
        "methods",
        Schema::new(vec![
            Column::new("name", ColumnType::Text),
            Column::new("family", ColumnType::Text),
        ]),
    )
    .unwrap();
    for (name, family) in FAMILIES {
        db.insert_row("methods", vec![Value::from(name), Value::from(family)]).unwrap();
    }

    let mut order: Vec<usize> = (0..INDEXES.len()).collect();
    StdRng::seed_from_u64(index_shuffle).shuffle(&mut order);
    for i in order {
        let (name, table, cols) = INDEXES[i];
        db.create_index(name, table, cols).unwrap();
    }
    db
}

/// Canonical rendering of a result with exact float bits, so NaN == NaN
/// and -0.0 != 0.0 — a strictly stronger check than `PartialEq`.
fn canon(r: &QueryResult) -> String {
    let mut s = String::new();
    writeln!(s, "{:?}", r.columns).unwrap();
    for row in &r.rows {
        for v in row {
            match v {
                Value::Float(f) => write!(s, "F{:016x};", f.to_bits()).unwrap(),
                other => write!(s, "{other:?};").unwrap(),
            }
        }
        s.push('\n');
    }
    s
}

/// One generated query. Predicates are type-correct by construction so
/// pushdown can never change which side of an eval error a query lands on.
fn gen_query(rng: &mut StdRng) -> String {
    let method = METHODS[rng.gen_range(0..METHODS.len())];
    let horizon = HORIZONS[rng.gen_range(0..HORIZONS.len())];
    let h2 = HORIZONS[rng.gen_range(0..HORIZONS.len())];
    let (h_lo, h_hi) = (horizon.min(h2), horizon.max(h2));
    let mae_bound = rng.gen_range_f64(0.5, 8.0);
    let domain = DOMAINS[rng.gen_range(0..DOMAINS.len())];
    let trend = rng.gen_range_f64(0.1, 0.9);
    let family = FAMILIES[rng.gen_range(0..FAMILIES.len())].1;

    let preds: [String; 8] = [
        format!("method = '{method}'"),
        format!("horizon = {horizon}"),
        format!("horizon >= {h_lo}"),
        format!("horizon BETWEEN {h_lo} AND {h_hi}"),
        format!("mae <= {mae_bound}"),
        format!("mae >= {mae_bound}"),
        format!("dataset_id LIKE '{domain}%'"),
        format!("method IN ('{method}', 'naive')"),
    ];
    let mut chosen: Vec<&str> = Vec::new();
    for p in &preds {
        if rng.gen_range(0..3) == 0 {
            chosen.push(p);
        }
    }
    let where_clause = if chosen.is_empty() {
        String::new()
    } else {
        format!(" WHERE {}", chosen.join(" AND "))
    };
    let limit = match rng.gen_range(0..8) {
        0..2 => format!(" LIMIT {}", rng.gen_range(1..30)),
        2 => " LIMIT 0".to_string(),
        _ => String::new(),
    };
    let desc = if rng.gen_bool(0.5) { " DESC" } else { "" };

    match rng.gen_range(0..17) {
        0 => format!("SELECT * FROM results{where_clause} ORDER BY mae{desc}, method{limit}"),
        1 => format!(
            "SELECT method, COUNT(*) AS n, AVG(mae) AS m FROM results{where_clause} \
             GROUP BY method HAVING COUNT(*) >= {k} ORDER BY m{desc}, method{limit}",
            k = rng.gen_range(1..5)
        ),
        2 => format!("SELECT DISTINCT method FROM results{where_clause} ORDER BY method{desc}"),
        3 => format!(
            "SELECT r.method, d.domain, r.mae FROM results r \
             JOIN datasets d ON r.dataset_id = d.id \
             WHERE r.method = '{method}' AND d.trend >= {trend:.3} \
             ORDER BY r.mae{desc}, d.domain{limit}"
        ),
        4 => format!(
            "SELECT r.method, AVG(r.mae) AS m, COUNT(*) AS n FROM results r \
             JOIN datasets d ON r.dataset_id = d.id \
             WHERE d.domain = '{domain}' AND r.horizon >= {h_lo} \
             GROUP BY r.method ORDER BY m{desc}, r.method{limit}"
        ),
        5 => format!(
            "SELECT method, horizon, mae * 2 AS double_mae FROM results{where_clause} \
             ORDER BY horizon{desc}, mae{limit}"
        ),
        // Elision-friendly shapes: a single ORDER BY key that is the tail
        // of an index, with and without an eq prefix.
        6 => format!("SELECT * FROM results WHERE method = '{method}' ORDER BY horizon{limit}"),
        7 => format!("SELECT method, mae FROM results ORDER BY mae{desc}{limit}"),
        // Every aggregate over the NULL/NaN-salted `mae` and the
        // NULL-salted `dataset_id`.
        8 => format!(
            "SELECT method, SUM(mae) AS s, MIN(mae) AS lo, MAX(mae) AS hi, COUNT(mae) AS nm, \
             COUNT(dataset_id) AS nd, MIN(dataset_id) AS first_id FROM results{where_clause} \
             GROUP BY method ORDER BY method{desc}{limit}"
        ),
        // GROUP BY a joined column.
        9 => format!(
            "SELECT d.domain, COUNT(*) AS n, AVG(r.mae) AS m, MAX(r.mae) AS hi FROM results r \
             JOIN datasets d ON r.dataset_id = d.id WHERE r.horizon >= {h_lo} \
             GROUP BY d.domain ORDER BY d.domain{desc}{limit}"
        ),
        // A two-column GROUP BY.
        10 => format!(
            "SELECT method, horizon, COUNT(*) AS n, SUM(mae) AS s FROM results{where_clause} \
             GROUP BY method, horizon ORDER BY n{desc}, method, horizon{limit}"
        ),
        // Three tables: rows, then groups keyed on the third table.
        11 => format!(
            "SELECT r.method, m.family, d.domain, r.mae FROM results r \
             JOIN datasets d ON r.dataset_id = d.id JOIN methods m ON r.method = m.name \
             WHERE m.family = '{family}' AND r.horizon <= {h_hi} \
             ORDER BY r.mae{desc}, r.method, d.domain{limit}"
        ),
        12 => format!(
            "SELECT m.family, COUNT(*) AS n, AVG(r.mae) AS m FROM results r \
             JOIN datasets d ON r.dataset_id = d.id JOIN methods m ON r.method = m.name \
             WHERE d.domain = '{domain}' GROUP BY m.family ORDER BY m{desc}, m.family"
        ),
        // HAVING on an aggregate that is not projected.
        13 => format!(
            "SELECT method, AVG(mae) AS m FROM results{where_clause} GROUP BY method \
             HAVING MAX(mae) > {mae_bound} ORDER BY method{desc}"
        ),
        // Aggregates over expressions, and bare non-key columns, which
        // take the group's first row.
        14 => format!(
            "SELECT method, dataset_id, mae, AVG(mae * 2) AS m2, SUM(horizon / 24) AS hs \
             FROM results{where_clause} GROUP BY method ORDER BY method{desc}"
        ),
        // Aggregates over empty input, without and with GROUP BY.
        15 => "SELECT COUNT(*) AS n, COUNT(mae) AS nm, SUM(mae) AS s, AVG(mae) AS a, \
               MIN(mae) AS lo, MAX(dataset_id) AS hi, method FROM results WHERE horizon = 7"
            .to_string(),
        _ => format!(
            "SELECT r.method, COUNT(*) AS n, SUM(r.mae) AS s FROM results r \
             JOIN datasets d ON r.dataset_id = d.id WHERE d.domain = 'none' \
             GROUP BY r.method ORDER BY r.method{limit}"
        ),
    }
}

#[test]
fn planned_results_are_bit_identical_to_the_scan_oracle() {
    for case in 0..3u64 {
        let mut rng = StdRng::seed_from_u64(0x91A7_0E11).derive(case);
        let db = build_db(0xDB_5EED + case, 7 * case + 1);
        for q in 0..80 {
            let sql = gen_query(&mut rng);
            let planned = db.query(&sql);
            let naive = db.query_scan(&sql);
            match (planned, naive) {
                (Ok(p), Ok(n)) => {
                    assert_eq!(canon(&p), canon(&n), "case {case} query {q} diverged: {sql}");
                }
                (p, n) => panic!("case {case} query {q}: results {p:?} vs {n:?} for {sql}"),
            }
        }
    }
}

/// Statements whose evaluation can fail return the oracle's exact result,
/// error included — even when the plan would prune the failing rows.
#[test]
fn errors_are_identical_to_the_scan_oracle() {
    let mut db = Database::new();
    for sql in [
        "CREATE TABLE results (dataset_id TEXT, method TEXT, mae REAL)",
        "INSERT INTO results VALUES ('a', 'naive', 1.0), ('b', 'theta', 2.0)",
        "CREATE TABLE datasets (id TEXT, domain TEXT)",
        "INSERT INTO datasets VALUES ('zzz', 'web')",
        "CREATE TABLE tags (id TEXT, method TEXT)",
        "INSERT INTO tags VALUES ('a', 'x')",
        "CREATE TABLE empty (id TEXT, method TEXT)",
    ] {
        db.execute(sql).unwrap();
    }
    db.create_index("ix_d_id", "datasets", &["id"]).unwrap();
    // No `results` row joins `datasets`: the oracle never evaluates the
    // WHERE, but the pushed-down filter would on every driver row.
    let pruned = "SELECT r.method FROM results r JOIN datasets d ON r.dataset_id = d.id \
                  WHERE r.mae + r.method > 1";
    let cases = [
        pruned,
        "SELECT SUM(method) FROM results",
        "SELECT AVG(dataset_id) AS a FROM results GROUP BY method",
        "SELECT method FROM results WHERE mae + method > 1",
        "SELECT -method FROM results",
        "SELECT method FROM results WHERE mae LIKE '1%'",
        // `method` is in both joined tables: ambiguous once a row joins.
        "SELECT method FROM results r JOIN empty e ON r.dataset_id = e.id",
        "SELECT method FROM results r JOIN tags t ON r.dataset_id = t.id",
        "SELECT r.method FROM results r JOIN datasets d ON COUNT(*) > 0",
        "SELECT r.method FROM results r JOIN tags t ON r.dataset_id = t.id AND COUNT(*) > 0",
    ];
    for sql in cases {
        assert_eq!(db.query(sql), db.query_scan(sql), "{sql}");
    }
    assert!(db.query(cases[7]).is_err() && db.query(cases[6]).is_ok());
    let explain = db.explain(pruned).unwrap();
    assert!(explain.contains("executor: scan oracle (arithmetic"), "{explain}");
}

#[test]
fn explain_is_byte_identical_across_runs_and_index_creation_order() {
    let db_a = build_db(0xDB_5EED, 1);
    let db_b = build_db(0xDB_5EED, 99); // same data, different index order
    let mut rng = StdRng::seed_from_u64(0xE4_914);
    let mut seeks = 0usize;
    let mut elided = 0usize;
    for q in 0..60 {
        let sql = gen_query(&mut rng);
        let e1 = db_a.explain(&sql).unwrap();
        let e2 = db_a.explain(&sql).unwrap();
        let e3 = db_b.explain(&sql).unwrap();
        assert_eq!(e1, e2, "query {q}: explain drifted across runs: {sql}");
        assert_eq!(e1, e3, "query {q}: explain depends on index creation order: {sql}");
        assert_eq!(
            canon(&db_a.query(&sql).unwrap()),
            canon(&db_b.query(&sql).unwrap()),
            "query {q}: result depends on index creation order: {sql}"
        );
        if e1.contains("index-seek") || e1.contains("index-probe") {
            seeks += 1;
        }
        if e1.contains("sort elided") {
            elided += 1;
        }
    }
    assert!(seeks > 0, "the corpus never exercised an index access path");
    assert!(elided > 0, "the corpus never exercised sort elision");
}

#[test]
fn targeted_plan_shapes() {
    let db = build_db(0xDB_5EED, 3);

    // Full-prefix point seek on the composite index.
    let e = db
        .explain("SELECT mae FROM results WHERE method = 'theta' AND horizon = 96")
        .unwrap();
    assert!(e.contains("index-seek ix_r_mh"), "{e}");

    // Eq prefix + ORDER BY on the index tail: sort elided.
    let e = db
        .explain("SELECT * FROM results WHERE method = 'theta' ORDER BY horizon")
        .unwrap();
    assert!(e.contains("index-seek ix_r_mh"), "{e}");
    assert!(e.contains("sort elided"), "{e}");

    // Descending walk over a single-column index, no sort operator.
    let e = db.explain("SELECT mae FROM results ORDER BY mae DESC LIMIT 5").unwrap();
    assert!(e.contains("ix_r_mae"), "{e}");
    assert!(e.contains("desc"), "{e}");
    assert!(e.contains("sort elided"), "{e}");

    // Join picks the index probe into datasets.
    let e = db
        .explain(
            "SELECT r.method, d.domain FROM results r JOIN datasets d ON r.dataset_id = d.id",
        )
        .unwrap();
    assert!(e.contains("index-probe ix_d_id"), "{e}");

    // GROUP BY on an indexed column elides the grouping sort order.
    let e = db
        .explain(
            "SELECT method, COUNT(*) AS n FROM results GROUP BY method ORDER BY method",
        )
        .unwrap();
    assert!(e.contains("sort elided"), "{e}");
}
