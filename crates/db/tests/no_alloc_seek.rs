//! Proof that warm index seeks are allocation-free.
//!
//! [`easytime_obs::CountingAlloc`] wraps the system allocator and the two
//! hot index entry points — `Index::probe_into` (full-width key lookup)
//! and `Index::collect_range` (ascending prefix/range walk) — run
//! repeatedly against a populated index with a pre-built key and a reused
//! output buffer. After a warm-up pass grows the buffer to capacity, N seeks and
//! 10·N seeks must cost the *same* number of allocations (zero per
//! additional seek): the B-tree lookup, the prefix comparison, and the id
//! copy all work in place. (The descending walk deliberately buffers key
//! groups for reversal and is excluded — it is not on the probe hot path.)

use easytime_db::index::IndexKey;
use easytime_db::schema::{Column, ColumnType, Schema};
use easytime_db::{Database, Value};
use easytime_obs::CountingAlloc;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn seek_db() -> Database {
    let mut db = Database::new();
    db.create_table(
        "results",
        Schema::new(vec![
            Column::new("method", ColumnType::Text),
            Column::new("horizon", ColumnType::Int),
            Column::new("mae", ColumnType::Float),
        ]),
    )
    .unwrap();
    let methods = ["naive", "theta", "ses", "drift"];
    for i in 0..4000usize {
        db.insert_row(
            "results",
            vec![
                Value::Text(methods[i % methods.len()].to_string()),
                Value::Int([24, 96, 336][i % 3]),
                Value::Float(i as f64 * 0.001),
            ],
        )
        .unwrap();
    }
    db.create_index("ix_mh", "results", &["method", "horizon"]).unwrap();
    db
}

/// Minimum allocation count over several repeats of `n` iterations of
/// `body`: the seek loop's own count is deterministic, while any harness
/// threads sharing the process allocator can only *add* strays, so the
/// minimum converges to the true per-loop cost.
fn measured<F: FnMut()>(n: usize, mut body: F) -> u64 {
    let mut min = u64::MAX;
    for _ in 0..5 {
        let before = CountingAlloc::allocations();
        for _ in 0..n {
            body();
        }
        let after = CountingAlloc::allocations();
        min = min.min(after - before);
    }
    min
}

// One test function only: a second concurrently-running test would
// allocate during the measurement window and make the count flaky.
#[test]
fn warm_probe_and_range_walk_are_allocation_free() {
    let db = seek_db();
    let ix = db.index("ix_mh").expect("index exists");

    // Full-width point probe.
    let key = IndexKey::from_values(vec![Value::Text("theta".into()), Value::Int(96)]);
    let mut out = Vec::new();
    ix.probe_into(&key, &mut out); // warm-up: grow `out` to capacity
    let expected = out.len();
    assert!(expected > 100, "the probe must return a real id list, got {expected}");
    let probe_10 = measured(10, || {
        ix.probe_into(&key, &mut out);
        assert_eq!(out.len(), expected);
    });
    let probe_100 = measured(100, || {
        ix.probe_into(&key, &mut out);
        assert_eq!(out.len(), expected);
    });
    assert_eq!(
        probe_10, probe_100,
        "90 extra warm probes must not allocate: 10 probes cost {probe_10} \
         allocations, 100 cost {probe_100}"
    );

    // Ascending prefix + lower-bound range walk.
    let lo = Value::Int(90);
    let start = IndexKey::from_values(vec![Value::Text("theta".into()), lo.clone()]);
    out.clear(); // collect_range appends; clearing keeps capacity, no alloc
    ix.collect_range(&start, 1, Some((&lo, true)), None, false, &mut out);
    let expected = out.len();
    assert!(expected > 100, "the range walk must return a real id list, got {expected}");
    let range_10 = measured(10, || {
        out.clear();
        ix.collect_range(&start, 1, Some((&lo, true)), None, false, &mut out);
        assert_eq!(out.len(), expected);
    });
    let range_100 = measured(100, || {
        out.clear();
        ix.collect_range(&start, 1, Some((&lo, true)), None, false, &mut out);
        assert_eq!(out.len(), expected);
    });
    assert_eq!(
        range_10, range_100,
        "90 extra warm range walks must not allocate: 10 walks cost {range_10} \
         allocations, 100 cost {range_100}"
    );
}
