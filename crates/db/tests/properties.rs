//! Property-style tests for the SQL engine: executor semantics over
//! randomized data and parser round-trips, driven by the workspace's own
//! deterministic RNG.

use easytime_db::executor::like_match;
use easytime_db::schema::{Column, ColumnType, Schema};
use easytime_db::{Database, Value};
use easytime_rng::StdRng;

const CASES: u64 = 32;
const MASTER_SEED: u64 = 0x5017_DB01;

fn cases() -> impl Iterator<Item = StdRng> {
    (0..CASES).map(|i| StdRng::seed_from_u64(MASTER_SEED).derive(i))
}

fn word(rng: &mut StdRng, lo: usize, hi: usize) -> String {
    let len = rng.gen_range(lo..hi);
    (0..len).map(|_| (b'a' + rng.gen_range(0..26) as u8) as char).collect()
}

fn printable(rng: &mut StdRng, lo: usize, hi: usize) -> String {
    let len = rng.gen_range(lo..hi);
    (0..len).map(|_| (b' ' + rng.gen_range(0..95) as u8) as char).collect()
}

fn random_rows(rng: &mut StdRng) -> Vec<(i64, f64, String)> {
    let n = rng.gen_range(0..40);
    (0..n)
        .map(|_| {
            (
                rng.gen_range(0..200) as i64 - 100,
                rng.gen_range_f64(-1e3, 1e3),
                word(rng, 0, 9),
            )
        })
        .collect()
}

fn db_with_rows(rows: &[(i64, f64, String)]) -> Database {
    let mut db = Database::new();
    db.create_table(
        "t",
        Schema::new(vec![
            Column::new("k", ColumnType::Int),
            Column::new("v", ColumnType::Float),
            Column::new("s", ColumnType::Text),
        ]),
    )
    .unwrap();
    for (k, v, s) in rows {
        db.insert_row("t", vec![Value::Int(*k), Value::Float(*v), Value::Text(s.clone())])
            .unwrap();
    }
    db
}

#[test]
fn select_star_returns_all_rows() {
    for mut rng in cases() {
        let rows = random_rows(&mut rng);
        let db = db_with_rows(&rows);
        let r = db.query("SELECT * FROM t").unwrap();
        assert_eq!(r.rows.len(), rows.len());
        assert_eq!(r.columns, vec!["k".to_string(), "v".into(), "s".into()]);
    }
}

#[test]
fn where_filter_matches_rust_filter() {
    for mut rng in cases() {
        let rows = random_rows(&mut rng);
        let threshold = rng.gen_range(0..200) as i64 - 100;
        let db = db_with_rows(&rows);
        let r = db.query(&format!("SELECT k FROM t WHERE k > {threshold}")).unwrap();
        let expected = rows.iter().filter(|(k, _, _)| *k > threshold).count();
        assert_eq!(r.rows.len(), expected);
    }
}

#[test]
fn order_by_produces_sorted_output() {
    for mut rng in cases() {
        let rows = random_rows(&mut rng);
        let db = db_with_rows(&rows);
        let r = db.query("SELECT v FROM t ORDER BY v").unwrap();
        let values: Vec<f64> = r.rows.iter().map(|row| row[0].as_f64().unwrap()).collect();
        assert!(values.windows(2).all(|w| w[0] <= w[1]), "{values:?}");
        let r = db.query("SELECT v FROM t ORDER BY v DESC").unwrap();
        let values: Vec<f64> = r.rows.iter().map(|row| row[0].as_f64().unwrap()).collect();
        assert!(values.windows(2).all(|w| w[0] >= w[1]));
    }
}

#[test]
fn limit_truncates() {
    for mut rng in cases() {
        let rows = random_rows(&mut rng);
        let limit = rng.gen_range(0..50);
        let db = db_with_rows(&rows);
        let r = db.query(&format!("SELECT k FROM t LIMIT {limit}")).unwrap();
        assert_eq!(r.rows.len(), rows.len().min(limit));
    }
}

#[test]
fn aggregates_match_rust_computation() {
    for mut rng in cases() {
        let rows = random_rows(&mut rng);
        if rows.is_empty() {
            continue;
        }
        let db = db_with_rows(&rows);
        let r = db.query("SELECT COUNT(*), SUM(v), MIN(v), MAX(v), AVG(v) FROM t").unwrap();
        let vs: Vec<f64> = rows.iter().map(|(_, v, _)| *v).collect();
        assert_eq!(r.rows[0][0].clone(), Value::Int(rows.len() as i64));
        let sum: f64 = vs.iter().sum();
        assert!((r.rows[0][1].as_f64().unwrap() - sum).abs() < 1e-6 * (1.0 + sum.abs()));
        let min = vs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = vs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(r.rows[0][2].as_f64().unwrap(), min);
        assert_eq!(r.rows[0][3].as_f64().unwrap(), max);
        let avg = sum / vs.len() as f64;
        assert!((r.rows[0][4].as_f64().unwrap() - avg).abs() < 1e-9 * (1.0 + avg.abs()));
    }
}

#[test]
fn group_by_partitions_rows() {
    for mut rng in cases() {
        let rows = random_rows(&mut rng);
        let db = db_with_rows(&rows);
        let r = db.query("SELECT s, COUNT(*) AS n FROM t GROUP BY s").unwrap();
        // Group counts must sum to the row count and match a HashMap
        // partition.
        let total: i64 = r
            .rows
            .iter()
            .map(|row| match row[1] {
                Value::Int(n) => n,
                _ => 0,
            })
            .sum();
        assert_eq!(total, rows.len() as i64);
        let mut counts: std::collections::HashMap<&str, i64> = Default::default();
        for (_, _, s) in &rows {
            *counts.entry(s.as_str()).or_insert(0) += 1;
        }
        assert_eq!(r.rows.len(), counts.len());
        for row in &r.rows {
            let key = row[0].as_str().unwrap();
            assert_eq!(Value::Int(counts[key]), row[1].clone());
        }
    }
}

#[test]
fn distinct_removes_exact_duplicates() {
    for mut rng in cases() {
        let rows = random_rows(&mut rng);
        let db = db_with_rows(&rows);
        let r = db.query("SELECT DISTINCT s FROM t").unwrap();
        let unique: std::collections::HashSet<&String> = rows.iter().map(|(_, _, s)| s).collect();
        assert_eq!(r.rows.len(), unique.len());
    }
}

#[test]
fn like_prefix_matches_starts_with() {
    for mut rng in cases() {
        let s = word(&mut rng, 0, 13);
        let prefix = word(&mut rng, 0, 5);
        let pattern = format!("{prefix}%");
        assert_eq!(like_match(&pattern, &s), s.starts_with(&prefix));
    }
}

#[test]
fn like_contains_matches_contains() {
    for mut rng in cases() {
        let s = word(&mut rng, 0, 13);
        let infix = word(&mut rng, 1, 4);
        let pattern = format!("%{infix}%");
        assert_eq!(like_match(&pattern, &s), s.contains(&infix));
    }
}

#[test]
fn string_literals_round_trip_through_insert() {
    for mut rng in cases() {
        // Any printable-ASCII string survives the SQL escape → parse →
        // store → select path.
        let s = printable(&mut rng, 0, 25);
        let mut db = Database::new();
        db.create_table("x", Schema::new(vec![Column::new("s", ColumnType::Text)])).unwrap();
        let escaped = s.replace('\'', "''");
        db.execute(&format!("INSERT INTO x VALUES ('{escaped}')")).unwrap();
        let r = db.query("SELECT s FROM x").unwrap();
        assert_eq!(r.rows[0][0].as_str().unwrap(), s.as_str());
    }
}

#[test]
fn between_is_inclusive_range() {
    for mut rng in cases() {
        let rows = random_rows(&mut rng);
        let lo = rng.gen_range(0..50) as i64 - 50;
        let hi = rng.gen_range(0..50) as i64;
        let db = db_with_rows(&rows);
        let r = db
            .query(&format!("SELECT COUNT(*) FROM t WHERE k BETWEEN {lo} AND {hi}"))
            .unwrap();
        let expected = rows.iter().filter(|(k, _, _)| *k >= lo && *k <= hi).count();
        assert_eq!(r.rows[0][0].clone(), Value::Int(expected as i64));
    }
}

/// One write, replayable on any database.
#[derive(Debug, Clone)]
enum Write {
    CreateTable(&'static str),
    InsertRow(&'static str, (i64, f64, String)),
    CreateIndex(String, &'static str, &'static [&'static str]),
    ExecuteInsert(&'static str, Vec<(i64, f64, String)>),
}

const TABLES: [&str; 3] = ["a", "b", "c"];
const INDEX_KEYS: [&[&str]; 4] = [&["k"], &["v"], &["s"], &["s", "k"]];

fn random_write(rng: &mut StdRng) -> Write {
    let table = TABLES[rng.gen_range(0..TABLES.len())];
    // Quarter steps print exactly, so SQL literals and programmatic values
    // store the same floats.
    let row = |rng: &mut StdRng| {
        let k = rng.gen_range(0..9) as i64 - 4;
        (k, rng.gen_range(0..17) as f64 * 0.25 - 2.0, word(rng, 1, 3))
    };
    match rng.gen_range(0..10) {
        0 => Write::CreateTable(table),
        1 => {
            let key = INDEX_KEYS[rng.gen_range(0..INDEX_KEYS.len())];
            Write::CreateIndex(format!("ix_{table}_{}", key.concat()), table, key)
        }
        2..=5 => Write::InsertRow(table, row(rng)),
        _ => Write::ExecuteInsert(table, (0..rng.gen_range(1..4)).map(|_| row(rng)).collect()),
    }
}

/// Applies `w`, returning whether it succeeded: a failed write (a
/// duplicate table or index, an unknown table) must leave the database
/// as it was, on a clone and on the reference alike.
fn apply(db: &mut Database, w: &Write) -> bool {
    let schema = || {
        Schema::new(vec![
            Column::new("k", ColumnType::Int),
            Column::new("v", ColumnType::Float),
            Column::new("s", ColumnType::Text),
        ])
    };
    match w {
        Write::CreateTable(t) => db.create_table(*t, schema()).is_ok(),
        Write::InsertRow(t, (k, v, s)) => {
            db.insert_row(t, vec![Value::Int(*k), Value::Float(*v), Value::Text(s.clone())]).is_ok()
        }
        Write::CreateIndex(name, t, cols) => db.create_index(name.as_str(), t, cols).is_ok(),
        Write::ExecuteInsert(t, rows) => {
            let values: Vec<String> =
                rows.iter().map(|(k, v, s)| format!("({k}, {v:?}, '{s}')")).collect();
            db.execute(&format!("INSERT INTO {t} VALUES {}", values.join(", "))).is_ok()
        }
    }
}

/// Queries covering seq scans, index seeks on every key, grouping,
/// ordering and a join between two tables.
fn isolation_queries() -> Vec<String> {
    let mut out = Vec::new();
    for t in TABLES {
        out.push(format!("SELECT * FROM {t}"));
        out.push(format!("SELECT s, k FROM {t} WHERE k = 1 ORDER BY v DESC"));
        out.push(format!("SELECT k FROM {t} WHERE v >= 0.5 AND s > 'm'"));
        out.push(format!("SELECT s, COUNT(*), SUM(v) FROM {t} GROUP BY s ORDER BY s"));
    }
    out.push("SELECT a.k, b.v FROM a JOIN b ON a.s = b.s WHERE a.k > 0 ORDER BY b.v".into());
    out
}

#[test]
fn clones_never_see_each_others_writes() {
    let queries = isolation_queries();
    for mut rng in cases() {
        // Each live handle keeps the log of writes it has seen and whether
        // each succeeded; clones inherit their source's log.
        let mut handles: Vec<(Database, Vec<(Write, bool)>)> = vec![(Database::new(), Vec::new())];
        for _ in 0..40 {
            let h = rng.gen_range(0..handles.len());
            match rng.gen_range(0..10) {
                0 | 1 => {
                    let copy = handles[h].clone();
                    handles.push(copy);
                }
                2 if handles.len() > 1 => {
                    handles.swap_remove(h);
                }
                _ => {
                    let w = random_write(&mut rng);
                    let (db, log) = &mut handles[h];
                    let ok = apply(db, &w);
                    log.push((w, ok));
                }
            }
            for (db, log) in &handles {
                let mut reference = Database::new();
                for (w, ok) in log {
                    assert_eq!(apply(&mut reference, w), *ok, "{w:?} after {log:?}");
                }
                for sql in &queries {
                    let expected = reference.query_scan(sql);
                    assert_eq!(db.query_scan(sql), expected, "{sql} after {log:?}");
                    assert_eq!(db.query(sql), expected, "{sql} after {log:?}");
                }
            }
        }
    }
}
