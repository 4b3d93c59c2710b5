//! Hot-list sync: every `// lint: hot(<why>)` annotation in the workspace
//! must be *pinned* by one of the counting-allocator tests, and the set of
//! annotated functions must match the paths the R18 design names (the
//! rolling-evaluation window loop, the embedding path, the linalg kernels
//! plus the obs facade they report through, the SQL index seek/probe
//! path, the compiled executor's per-row aggregate fold, the boosting
//! round search, and the ensemble weight steps).
//!
//! The static side (this file) keeps the annotation list honest: adding a
//! hot marker without wiring the function into an allocator-counting test
//! fails here, and deleting a pinned annotation fails here too. The dynamic
//! side lives in the tests named in [`SYNC`], which drive the entry
//! points under a counting global allocator and assert the steady state
//! performs zero allocations.

use easytime_lint::effects::{build_effect_table, reachable_from, Effect};
use easytime_lint::model::WorkspaceModel;
use easytime_lint::collect_workspace_sources;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// The exact set of `(crate, fn)` keys that must carry a hot annotation.
const EXPECTED_HOT: [(&str, &str); 29] = [
    ("easytime-automl", "descend"),
    ("easytime-db", "accumulate"),
    ("easytime-db", "cmp_values"),
    ("easytime-db", "collect_range"),
    ("easytime-db", "probe_into"),
    ("easytime-eval", "warm_windows"),
    ("easytime-linalg", "axpy"),
    ("easytime-linalg", "conv_ppv_max"),
    ("easytime-linalg", "dot"),
    ("easytime-linalg", "gram"),
    ("easytime-linalg", "matmul"),
    ("easytime-linalg", "matvec"),
    ("easytime-linalg", "norm2"),
    ("easytime-linalg", "sum"),
    ("easytime-linalg", "tr_matmul"),
    ("easytime-linalg", "tr_matvec"),
    ("easytime-models", "best_stump"),
    ("easytime-obs", "add"),
    ("easytime-obs", "add_labeled"),
    ("easytime-obs", "attr"),
    ("easytime-obs", "attr_u64"),
    ("easytime-obs", "count_alloc"),
    ("easytime-obs", "enabled"),
    ("easytime-obs", "observe"),
    ("easytime-obs", "prof_alloc_enabled"),
    ("easytime-obs", "span"),
    ("easytime-obs", "warn"),
    ("easytime-repr", "embed_into"),
    ("easytime-repr", "transform_into"),
];

/// The counting-allocator tests and the entry points each one drives.
const SYNC: [(&str, &[&str]); 7] = [
    (
        "crates/obs/tests/no_alloc.rs",
        &[
            "span",
            "attr",
            "attr_u64",
            "add",
            "add_labeled",
            "observe",
            "enabled",
            "warn",
            "count_alloc",
            "prof_alloc_enabled",
        ],
    ),
    ("crates/obs/tests/no_alloc_eval.rs", &["evaluate"]),
    ("crates/repr/tests/no_alloc_embed.rs", &["embed_into"]),
    ("crates/db/tests/no_alloc_seek.rs", &["probe_into", "collect_range"]),
    ("crates/models/tests/no_alloc_boost.rs", &["best_stump"]),
    ("crates/db/tests/no_alloc_query.rs", &["accumulate"]),
    ("crates/automl/tests/no_alloc_weights.rs", &["descend"]),
];

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap().parent().unwrap().to_path_buf()
}

fn workspace_model() -> WorkspaceModel {
    let sources = collect_workspace_sources(&workspace_root()).expect("workspace sources");
    WorkspaceModel::build(&sources)
}

fn hot_keys(ws: &WorkspaceModel) -> BTreeSet<(String, String)> {
    build_effect_table(ws)
        .fns
        .iter()
        .filter(|(_, fe)| fe.hot)
        .map(|(k, _)| k.clone())
        .collect()
}

#[test]
fn hot_annotations_match_the_expected_set_exactly() {
    let ws = workspace_model();
    let got = hot_keys(&ws);
    let want: BTreeSet<(String, String)> =
        EXPECTED_HOT.iter().map(|(c, f)| (c.to_string(), f.to_string())).collect();
    let missing: Vec<_> = want.difference(&got).collect();
    let extra: Vec<_> = got.difference(&want).collect();
    assert!(
        missing.is_empty() && extra.is_empty(),
        "hot annotation drift — missing (annotate or update this list): {missing:?}; \
         extra (pin with an allocator-counting test and add here): {extra:?}"
    );
}

#[test]
fn sync_tests_exist_and_mention_their_entry_points() {
    let root = workspace_root();
    for (file, entries) in SYNC {
        let path = root.join(file);
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("counting-allocator test {file} must exist: {e}"));
        for entry in entries {
            assert!(
                text.contains(entry),
                "{file} no longer drives `{entry}`; update SYNC or restore the call"
            );
        }
    }
}

/// Hot functions the allocator tests cannot reach by name: `matmul` and
/// `tr_matmul` are only invoked through `Matrix` operator sugar and the
/// linalg property tests. Their exemption is earned statically instead —
/// the test below proves their *loop-closed* effect summaries carry no
/// `Alloc`, i.e. nothing allocates per iteration (straight-line output
/// buffer construction in the `Matrix` wrappers is allowed, same as R18).
const STATICALLY_PINNED: [(&str, &str); 2] =
    [("easytime-linalg", "matmul"), ("easytime-linalg", "tr_matmul")];

#[test]
fn every_hot_function_is_pinned_at_runtime_or_statically() {
    let ws = workspace_model();
    let table = build_effect_table(&ws);
    let entries: Vec<&str> = SYNC.iter().flat_map(|(_, es)| es.iter().copied()).collect();
    let reachable = reachable_from(&ws, &entries);
    let unpinned: BTreeSet<(String, String)> =
        hot_keys(&ws).into_iter().filter(|k| !reachable.contains(k)).collect();
    let expected: BTreeSet<(String, String)> =
        STATICALLY_PINNED.iter().map(|(c, f)| (c.to_string(), f.to_string())).collect();
    assert_eq!(
        unpinned, expected,
        "hot functions outside allocator-test reach must be exactly the \
         statically-pinned pair; anything else is an unverified no-alloc claim"
    );
    for key in &expected {
        let fe = table.fns.get(key).unwrap_or_else(|| panic!("{key:?} missing from table"));
        assert!(
            !fe.loop_closed.contains(&Effect::Alloc),
            "{key:?} is exempt from runtime pinning only because nothing on \
             its per-iteration path allocates; it now reaches {:?}",
            fe.witness.get(&Effect::Alloc)
        );
    }
}

#[test]
fn each_sync_test_reaches_at_least_one_hot_function() {
    let ws = workspace_model();
    let hot = hot_keys(&ws);
    for (file, entries) in SYNC {
        let reachable = reachable_from(&ws, entries);
        assert!(
            reachable.iter().any(|k| hot.contains(k)),
            "{file} reaches no hot-annotated function from {entries:?}; \
             it no longer pins anything"
        );
    }
}
