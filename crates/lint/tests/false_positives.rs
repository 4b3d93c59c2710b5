//! Regression suite: rule patterns inside string literals and comments
//! must never fire.
//!
//! The v1 engine scanned raw lines with a hand-rolled "am I in a string?"
//! state machine and could be fooled by raw strings, escapes, and nested
//! block comments. The v2 engine lexes first, so these inputs — each of
//! which embeds a violation *textually* but not *syntactically* — must
//! produce zero diagnostics. The converse matters as much: every literal
//! and comment shape must *end* where rustc ends it, so a real violation
//! right after one on the same line still fires.

use easytime_lint::{lint_rust_source, Rule};
use std::path::Path;

fn lib() -> &'static Path {
    Path::new("crates/demo/src/lib.rs")
}

/// One violation of each token rule that fires anywhere in library code.
const VIOLATIONS: [(&str, Rule); 3] = [
    ("a.partial_cmp(b).unwrap()", Rule::FloatOrdering),
    ("std::time::Instant::now()", Rule::WallClock),
    ("a.transpose().matmul(b)", Rule::MaterializedTranspose),
];

/// Every string-literal shape the lexer must close correctly, with `{v}`
/// standing for the embedded violation text.
const STRING_DECOYS: [&str; 5] = [
    "\"{v}\"",
    "\"escaped \\\" then {v}\"",
    "r\"{v}\"",
    "r#\"quote \" then {v}\"#",
    "br##\"# \"# {v} \"##",
];

/// Block-comment shapes, same convention; they close mid-line.
const BLOCK_COMMENT_DECOYS: [&str; 2] =
    ["/* block {v} */", "/* outer /* nested {v} */ still {v} */"];

/// Line-comment shapes, which run to the end of their line.
const LINE_COMMENT_DECOYS: [&str; 3] =
    ["// trailing {v}", "/// docs mentioning {v}", "//! module docs: {v}"];

#[test]
fn decoys_in_string_literals_never_fire() {
    for (v, _) in VIOLATIONS {
        for shape in STRING_DECOYS {
            let src = format!("fn f() {{ let _s = {}; }}\n", shape.replace("{v}", v));
            let diags = lint_rust_source(lib(), &src);
            assert!(diags.is_empty(), "false positive in {src:?}: {diags:?}");
        }
        // An escaped-quote char literal must not open a string that runs
        // into the comment after it.
        let src = format!("fn f() -> char {{ '\\\"' }} // then {v} in a comment\n");
        assert!(lint_rust_source(lib(), &src).is_empty(), "false positive in {src:?}");
    }
}

#[test]
fn decoys_in_comments_never_fire() {
    for (v, _) in VIOLATIONS {
        for shape in BLOCK_COMMENT_DECOYS.iter().chain(&LINE_COMMENT_DECOYS) {
            let src = format!("{}\nfn f() {{}}\n", shape.replace("{v}", v));
            let diags = lint_rust_source(lib(), &src);
            assert!(diags.is_empty(), "false positive in {src:?}: {diags:?}");
        }
    }
}

#[test]
fn real_violations_fire_next_to_decoys() {
    // A decoy earlier on the same line must not mask the real call: the
    // literal or comment has to end where rustc ends it.
    let closing_shapes = STRING_DECOYS
        .iter()
        .map(|shape| format!("let _s = {shape};"))
        .chain(BLOCK_COMMENT_DECOYS.iter().map(|shape| shape.to_string()))
        .chain(["let _c = '\\\"';".to_string()]);
    for shape in closing_shapes {
        for (v, rule) in VIOLATIONS {
            let src = format!("fn f() {{\n    {} {v};\n}}\n", shape.replace("{v}", v));
            let diags = lint_rust_source(lib(), &src);
            assert_eq!(diags.len(), 1, "{src:?}: {diags:?}");
            assert_eq!(diags[0].rule, rule, "{src:?}");
            assert_eq!(diags[0].line, 2, "{src:?}");
        }
    }
}

#[test]
fn r6_does_not_fire_inside_strings_or_comments() {
    let srcs = [
        "fn f() -> &'static str { \"a.partial_cmp(b).unwrap()\" }\n",
        "fn f() {} // a.partial_cmp(b).unwrap_or(Ordering::Equal)\n",
        "fn f() {} /* sort_by(|a, b| a.partial_cmp(b).unwrap()) */\n",
    ];
    for src in srcs {
        assert!(lint_rust_source(lib(), src).is_empty(), "false positive in {src:?}");
    }
}

#[test]
fn r8_allows_the_clock_crate_but_not_obs_internals() {
    let src = "fn origin() -> std::time::Instant { std::time::Instant::now() }\n";
    // Anywhere under crates/clock/src/ is the sanctioned wall-clock reader.
    assert!(lint_rust_source(Path::new("crates/clock/src/lib.rs"), src).is_empty());
    assert!(lint_rust_source(Path::new("crates/clock/src/manual.rs"), src).is_empty());
    // The obs crate gets no such pass: its span internals must route
    // through easytime-clock.
    let diags = lint_rust_source(Path::new("crates/obs/src/recorder.rs"), src);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].rule, Rule::WallClock);
}

#[test]
fn r8_does_not_fire_on_clock_mediated_timing() {
    // The pattern obs span internals actually use — Stopwatch/Clock from
    // easytime-clock — must stay clean in any library file.
    let src = "use easytime_clock::{Clock, Stopwatch};\n\
               fn t(clock: &Clock) -> u64 { clock.now_nanos() }\n\
               fn sw() -> f64 { Stopwatch::start().elapsed_ms() }\n";
    assert!(lint_rust_source(Path::new("crates/obs/src/recorder.rs"), src).is_empty());
    assert!(lint_rust_source(lib(), src).is_empty());
}

#[test]
fn r12_flags_wildcard_arm_in_refit_policy_matches() {
    // `_` defeats exhaustiveness: adding a RefitPolicy variant would fall
    // through silently instead of failing to compile.
    let positives = [
        "fn f(c: &EvalConfig) { match c.refit { RefitPolicy::Always => a(), _ => b() } }\n",
        "fn f(refit: RefitPolicy) { match refit { RefitPolicy::WarmStart => w(), \
         _ if cold() => c(), RefitPolicy::Always => a() } }\n",
        "fn f(refit_policy: RefitPolicy) { match refit_policy { _ => b() } }\n",
    ];
    for src in positives {
        let diags = lint_rust_source(lib(), src);
        assert_eq!(diags.len(), 1, "R12 should fire once in {src:?}: {diags:?}");
        assert_eq!(diags[0].rule, Rule::PolicyWildcard);
    }
    // R12 guards the protocol dispatch everywhere, binaries included.
    let diags = lint_rust_source(Path::new("crates/demo/src/bin/tool.rs"), positives[0]);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].rule, Rule::PolicyWildcard);
}

#[test]
fn r12_leaves_exhaustive_and_unrelated_matches_alone() {
    let negatives = [
        // Exhaustive policy dispatch — the required idiom.
        "fn f(c: &EvalConfig) { match c.refit { RefitPolicy::Always => a(), \
         RefitPolicy::WarmStart => w() } }\n",
        // `RefitPolicy::parse`-style string match: the scrutinee has no
        // policy identifier, so the `_` arm is fine.
        "fn parse(s: &str) { match s.trim() { \"always\" => a(), _ => e() } }\n",
        // `_` nested inside a pattern is not a top-level wildcard arm.
        "fn f(c: &EvalConfig) { match (c.refit, 0) { (RefitPolicy::Always, _) => a(), \
         (RefitPolicy::WarmStart, _) => w() } }\n",
        // `_` at depth 2 belongs to an inner non-policy match.
        "fn f(refit: RefitPolicy) { match refit { RefitPolicy::Always => match x() { 1 => a(), \
         _ => b() }, RefitPolicy::WarmStart => w() } }\n",
        // A policy ident *inside the body* does not make a string match a
        // policy match.
        "fn g(s: &str) { match s { \"w\" => RefitPolicy::WarmStart, _ => RefitPolicy::Always }; }\n",
    ];
    for src in negatives {
        let diags = lint_rust_source(lib(), src);
        assert!(diags.is_empty(), "R12 false positive in {src:?}: {diags:?}");
    }

    let annotated = "fn f(c: &EvalConfig) {\n\
                     \x20   match c.refit {\n\
                     \x20       RefitPolicy::Always => a(),\n\
                     \x20       // lint: allow(policy-wildcard) — prototype shim, tracked in #42\n\
                     \x20       _ => b(),\n\
                     \x20   }\n\
                     }\n";
    assert!(lint_rust_source(lib(), annotated).is_empty());
}

#[test]
fn r13_flags_transpose_feeding_matrix_products_in_library_code() {
    let positives = [
        "fn f(a: &Matrix, b: &Matrix) -> Matrix { a.transpose().matmul(b) }\n",
        "fn f(a: &Matrix, v: &[f64]) -> Vec<f64> { a.transpose().matvec(v) }\n",
        // Still a materialized transpose when the receiver is an expression.
        "fn f(a: &Matrix, b: &Matrix) -> Matrix { (a.scale(2.0)).transpose().matmul(b) }\n",
    ];
    for src in positives {
        let diags = lint_rust_source(lib(), src);
        assert_eq!(diags.len(), 1, "R13 should fire once in {src:?}: {diags:?}");
        assert_eq!(diags[0].rule, Rule::MaterializedTranspose);
    }
    // The numeric crates are library code too.
    let diags = lint_rust_source(Path::new("crates/linalg/src/solve.rs"), positives[0]);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].rule, Rule::MaterializedTranspose);
}

#[test]
fn r13_leaves_unfused_transposes_and_non_library_code_alone() {
    let negatives = [
        // A transpose that is *kept* (bound, returned, reused) is fine —
        // the rule only targets transpose-then-stream-once.
        "fn f(a: &Matrix) -> Matrix { a.transpose() }\n",
        "fn f(a: &Matrix, b: &Matrix) -> Matrix { let at = a.transpose(); at.matmul(b) }\n",
        // `Option::transpose` chains continue with `?`, not a product call.
        "fn f(x: Option<Result<u32, E>>) -> Result<u32, E> { Ok(x.transpose()?.unwrap_or(0)) }\n",
        // Other follow-on methods are not products.
        "fn f(a: &Matrix) -> usize { a.transpose().rows() }\n",
        // Patterns inside strings and comments never fire.
        "fn f() -> &'static str { \"a.transpose().matmul(b)\" }\n",
        "fn f() {} // a.transpose().matmul(b) in a comment\n",
    ];
    for src in negatives {
        let diags = lint_rust_source(lib(), src);
        assert!(
            diags.iter().all(|d| d.rule != Rule::MaterializedTranspose),
            "R13 false positive in {src:?}: {diags:?}"
        );
    }

    // Tests, benches, and binaries may materialize transposes freely (the
    // property tests do exactly this to build naive oracles).
    let src = "fn f(a: &Matrix, b: &Matrix) -> Matrix { a.transpose().matmul(b) }\n";
    for path in [
        "crates/linalg/tests/kernel_properties.rs",
        "crates/bench/src/bin/exp_kernels.rs",
        "crates/demo/examples/quickstart.rs",
    ] {
        assert!(
            lint_rust_source(Path::new(path), src).is_empty(),
            "R13 should not fire in {path}"
        );
    }

    // `#[cfg(test)]` regions inside library files are exempt.
    let in_test = "#[cfg(test)]\n\
                   mod tests {\n\
                   \x20   fn f(a: &Matrix, b: &Matrix) -> Matrix { a.transpose().matmul(b) }\n\
                   }\n";
    assert!(lint_rust_source(lib(), in_test).is_empty());
}

#[test]
fn r13_escape_hatch() {
    let annotated = "fn f(a: &Matrix, b: &Matrix) -> Matrix {\n\
                     \x20   // lint: allow(materialized-transpose) — b is reused mutably below\n\
                     \x20   a.transpose().matmul(b)\n\
                     }\n";
    assert!(lint_rust_source(lib(), annotated).is_empty());

    // A bare annotation with no justification is itself a violation.
    let bare = "fn f(a: &Matrix, b: &Matrix) -> Matrix {\n\
                \x20   // lint: allow(materialized-transpose)\n\
                \x20   a.transpose().matmul(b)\n\
                }\n";
    let diags = lint_rust_source(lib(), bare);
    assert!(
        diags.iter().any(|d| d.rule == Rule::BadAnnotation),
        "bare allow should be rejected: {diags:?}"
    );
}

#[test]
fn lifetimes_are_not_mistaken_for_char_literals() {
    // `'a` must lex as a lifetime, not open a character literal that
    // swallows the rest of the file (which would hide the real comparator).
    let src = "fn f<'a>(xs: &'a mut Vec<f64>) {\n\
               \x20   xs.sort_by(|a, b| a.partial_cmp(b).unwrap());\n\
               }\n";
    let diags = lint_rust_source(lib(), src);
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].rule, Rule::FloatOrdering);
    assert_eq!(diags[0].line, 2);
}

// ---------------------------------------------------------------------------
// Phase-2 consumers of the lexer: the workspace model reads identifier and
// path tokens that phase 1 never needed. These regressions pin down the
// constructs a cross-file analysis is most easily fooled by.
// ---------------------------------------------------------------------------

mod phase2 {
    use easytime_lint::model::{ItemKind, SourceEntry, Vis, WorkspaceModel};

    fn model(src: &str) -> WorkspaceModel {
        WorkspaceModel::build(&[
            SourceEntry::new("crates/demo/Cargo.toml", "[package]\nname = \"easytime-demo\"\n"),
            SourceEntry::new("crates/demo/src/lib.rs", src),
        ])
    }

    #[test]
    fn raw_identifiers_are_normalized_in_items_and_mentions() {
        let ws = model(
            "/// Doc.\npub fn r#match(r#type: u32) -> u32 { r#type }\n\
             fn caller() { let _ = r#match(1); }\n",
        );
        let f = &ws.files[0];
        // The item table stores the bare name, so `r#match` and a plain
        // `match`-named mention in another crate unify.
        assert_eq!(f.items[0].name, "match");
        assert!(f.mentions.contains("match"), "mentions: {:?}", f.mentions);
        assert!(!f.mentions.iter().any(|m| m.starts_with("r#")));
    }

    #[test]
    fn raw_identifiers_are_normalized_in_use_paths() {
        let ws = model("use easytime_rng::r#impl::thing;\nfn f() {}\n");
        let f = &ws.files[0];
        assert_eq!(f.uses.len(), 1);
        assert_eq!(f.uses[0].segments, vec!["easytime_rng", "impl", "thing"]);
    }

    #[test]
    fn crate_and_super_paths_do_not_register_external_refs() {
        // `crate::` and `super::` are workspace-internal navigation; only
        // `easytime_*::` tokens are cross-crate evidence for R15.
        let ws = model(
            "use crate::detail::helper;\n\
             use super::sibling;\n\
             fn f() { crate::detail::helper(); super::sibling(); }\n",
        );
        let f = &ws.files[0];
        assert!(f.ext_refs.is_empty(), "ext_refs: {:?}", f.ext_refs);
        assert_eq!(f.uses.len(), 2);
        assert_eq!(f.uses[0].segments[0], "crate");
        assert_eq!(f.uses[1].segments[0], "super");
    }

    #[test]
    fn multi_segment_self_references_are_not_external() {
        // A crate naming its *own* lib target path-qualified is not a
        // dependency edge.
        let ws = WorkspaceModel::build(&[
            SourceEntry::new("crates/demo/Cargo.toml", "[package]\nname = \"easytime-demo\"\n"),
            SourceEntry::new(
                "crates/demo/src/lib.rs",
                "pub fn f() {}\nfn g() { crate::f(); }\n",
            ),
            SourceEntry::new(
                "crates/demo/tests/it.rs",
                "fn main() { easytime_demo::f(); }\n",
            ),
        ]);
        let test_file = ws.files.iter().find(|f| f.path.ends_with("tests/it.rs")).unwrap();
        // Recorded, but marked by file class as a non-library target.
        assert_eq!(test_file.ext_refs.len(), 1);
        assert_eq!(test_file.ext_refs[0].lib_name, "easytime_demo");
    }

    #[test]
    fn restricted_visibility_is_neither_pub_nor_private() {
        let ws = model(
            "pub struct A;\n\
             pub(crate) struct B;\n\
             pub(in crate::detail) struct C;\n\
             pub(super) struct D;\n\
             struct E;\n",
        );
        let vises: Vec<(String, Vis)> =
            ws.files[0].items.iter().map(|i| (i.name.clone(), i.vis)).collect();
        assert_eq!(vises, vec![
            ("A".to_string(), Vis::Pub),
            ("B".to_string(), Vis::Restricted),
            ("C".to_string(), Vis::Restricted),
            ("D".to_string(), Vis::Restricted),
            ("E".to_string(), Vis::Private),
        ]);
    }

    #[test]
    fn pub_in_path_groups_do_not_swallow_the_item_name() {
        // The `(in crate::detail)` group must be skipped as a unit; the
        // item is still parsed with its real name and kind.
        let ws = model("pub(in crate::detail) fn tucked(x: u8) -> u8 { x }\n");
        let item = &ws.files[0].items[0];
        assert_eq!(item.kind, ItemKind::Fn);
        assert_eq!(item.name, "tucked");
        assert_eq!(item.vis, Vis::Restricted);
    }

    #[test]
    fn string_and_comment_paths_are_not_use_evidence() {
        // Path-shaped text inside literals and comments must not create
        // ext_refs — R15's token check would otherwise flag doc prose.
        let ws = model(
            "/// Mentions easytime_automl::search in docs.\n\
             // and easytime_qa::checks in a comment\n\
             pub fn f() -> &'static str { \"easytime_bench::run\" }\n",
        );
        assert!(ws.files[0].ext_refs.is_empty(), "ext_refs: {:?}", ws.files[0].ext_refs);
    }
}
