//! Integration tests for the phase-2 workspace model and semantic rules.
//!
//! Three invariant families:
//!
//! 1. **Totality** — `WorkspaceModel::build` and `analyze_workspace` never
//!    panic, whatever token soup the deterministic RNG assembles.
//! 2. **Exactness** — a small fixture workspace produces exactly the item
//!    tables, dependency edges, and use edges the source dictates, and the
//!    semantic rules fire on seeded violations (layering backdoors, lock
//!    cycles, dead pub items, API drift).
//! 3. **Determinism** — feeding the same sources in shuffled discovery
//!    orders yields byte-identical JSON for both the diagnostics and the
//!    semantic size stats.

use easytime_lint::model::{ItemKind, SourceEntry, Vis, WorkspaceModel};
use easytime_lint::{
    analyze_workspace, api, diagnostics_to_json, locks, resolve, semantic_stats_to_json,
    workspace_effect_table_json,
};
use easytime_rng::StdRng;

const CASES: u64 = 48;
const MASTER_SEED: u64 = 0x1E8E_0002;

fn rngs() -> impl Iterator<Item = StdRng> {
    (0..CASES).map(|i| StdRng::seed_from_u64(MASTER_SEED).derive(i))
}

/// Fragments biased toward the constructs phase 2 parses: items, impls,
/// visibility modifiers, lock calls, cross-crate paths, and junk that any
/// total parser must shrug off.
const FRAGMENTS: &[&str] = &[
    "pub fn f(x: u32) -> u32 { x }",
    "fn private() {}",
    "pub(crate) struct S { field: u64 }",
    "pub(in crate::detail) fn scoped() {}",
    "pub enum E { A, B(u8) }",
    "pub trait T { fn m(&self); }",
    "impl T for S { fn m(&self) {} }",
    "impl S { pub fn assoc() {} }",
    "pub mod inner {",
    "}",
    "pub use crate::other::Thing;",
    "use easytime_rng::StdRng;",
    "use super::super::thing;",
    "let g = self.state.lock();",
    "let g = STATE.lock_poisoned();",
    "drop(registry.entries.lock());",
    "easytime_obs::span!(\"x\");",
    "pub const C: u32 = { 1 + 2 };",
    "pub static S_: &str = \"easytime_eval::metrics\";",
    "pub type Alias = Vec<(u8, u8)>;",
    "#[cfg(test)] mod tests { fn t() { helper(); } }",
    "// lint: allow(dead-pub) — exercised downstream",
    "// lint: allow(unwrap)",
    "pub fn r#match(r#type: u32) -> u32 { r#type }",
    "macro_rules! m { () => {} }",
    "m!{ pub fn not_an_item() }",
    "fn generics<T: Clone, const N: usize>(t: [T; N]) {}",
    "{ { { }",
    "} } )",
    "\"unterminated",
    "/* unterminated",
    "pub",
    "fn",
    "impl",
    "::",
    "'a",
    "#![allow(dead_code)]",
];

fn soup(rng: &mut StdRng, min_frags: usize, max_frags: usize) -> String {
    let n = rng.gen_range(min_frags..max_frags);
    let mut out = String::new();
    for _ in 0..n {
        out.push_str(FRAGMENTS[rng.gen_range(0..FRAGMENTS.len())]);
        out.push(if rng.gen_bool(0.8) { '\n' } else { ' ' });
    }
    out
}

#[test]
fn model_build_is_total_on_token_soup() {
    for mut rng in rngs() {
        let mut sources = vec![SourceEntry::new(
            "crates/demo/Cargo.toml",
            "[package]\nname = \"easytime-demo\"\n",
        )];
        let files = rng.gen_range(1..5);
        for f in 0..files {
            sources.push(SourceEntry::new(
                format!("crates/demo/src/f{f}.rs"),
                soup(&mut rng, 1, 40),
            ));
        }
        // Must not panic, and every file must land in the model.
        let ws = WorkspaceModel::build(&sources);
        assert_eq!(ws.files.len(), files);
        let _ = ws.item_count() + ws.pub_item_count() + ws.lock_site_count();
        // The downstream analyses are total too.
        let graph = locks::build_lock_graph(&ws);
        let _ = locks::check_locks(&ws, &graph);
        let _ = resolve::check_layering(&ws);
        let _ = resolve::check_dead_pub(&ws);
        let entries = api::api_entries(&ws);
        let _ = api::check_api_baseline(&entries, "z\na\n", "scripts/api-baseline.txt");
    }
}

#[test]
fn analyze_workspace_is_total_on_mangled_manifests() {
    for mut rng in rngs() {
        let manifest = soup(&mut rng, 1, 10);
        let sources = vec![
            SourceEntry::new("crates/demo/Cargo.toml", manifest),
            SourceEntry::new("crates/demo/src/lib.rs", soup(&mut rng, 1, 30)),
        ];
        let (_diags, stats) = analyze_workspace(&sources, None);
        assert_eq!(stats.files, 1);
    }
}

/// A minimal two-crate fixture using real workspace crate names, so the
/// hard-coded layering table applies: `easytime-clock` (layer 0) and
/// `easytime-eval` (layer 4), with eval legitimately depending on clock.
fn fixture() -> Vec<SourceEntry> {
    vec![
        SourceEntry::new(
            "crates/clock/Cargo.toml",
            "[package]\nname = \"easytime-clock\"\n\n[dependencies]\n",
        ),
        SourceEntry::new(
            "crates/clock/src/lib.rs",
            "/// Doc.\n\
             pub struct Clock {\n\
             \x20   now: u64,\n\
             }\n\
             \n\
             impl Clock {\n\
             \x20   /// Doc.\n\
             \x20   pub fn now(&self) -> u64 {\n\
             \x20       self.now\n\
             \x20   }\n\
             }\n",
        ),
        SourceEntry::new(
            "crates/eval/Cargo.toml",
            "[package]\nname = \"easytime-eval\"\n\n[dependencies]\n\
             easytime-clock = { path = \"../clock\" }\n",
        ),
        SourceEntry::new(
            "crates/eval/src/lib.rs",
            "use easytime_clock::Clock;\n\
             \n\
             /// Doc.\n\
             pub fn score(c: &Clock) -> u64 {\n\
             \x20   c.now()\n\
             }\n",
        ),
        SourceEntry::new(
            "crates/eval/tests/smoke.rs",
            "fn main() { let _ = easytime_eval::score; }\n",
        ),
    ]
}

#[test]
fn fixture_yields_exact_items_and_edges() {
    let ws = WorkspaceModel::build(&fixture());
    assert_eq!(
        ws.crates.keys().cloned().collect::<Vec<_>>(),
        vec!["easytime-clock", "easytime-eval"]
    );
    let eval = &ws.crates["easytime-eval"];
    assert_eq!(eval.deps.iter().map(|(d, _)| d.as_str()).collect::<Vec<_>>(), vec![
        "easytime-clock"
    ]);
    assert_eq!(eval.lib_name, "easytime_eval");

    let clock_lib = ws.files.iter().find(|f| f.path == "crates/clock/src/lib.rs").unwrap();
    let described: Vec<(ItemKind, &str, &str, Vis)> = clock_lib
        .items
        .iter()
        .map(|i| (i.kind, i.name.as_str(), i.context.as_str(), i.vis))
        .collect();
    assert_eq!(described, vec![
        (ItemKind::Struct, "Clock", "", Vis::Pub),
        (ItemKind::Fn, "now", "Clock", Vis::Pub),
    ]);

    let eval_lib = ws.files.iter().find(|f| f.path == "crates/eval/src/lib.rs").unwrap();
    assert_eq!(eval_lib.crate_name, "easytime-eval");
    assert!(eval_lib.mentions.contains("Clock"));
    assert!(eval_lib.mentions.contains("score"));
    assert_eq!(
        eval_lib.ext_refs.iter().map(|r| r.lib_name.as_str()).collect::<Vec<_>>(),
        vec!["easytime_clock"]
    );
    assert_eq!(eval_lib.uses.len(), 1);
    assert_eq!(eval_lib.uses[0].segments, vec!["easytime_clock", "Clock"]);

    assert_eq!(resolve::dep_edge_count(&ws), 1);
    assert_eq!(resolve::use_edge_count(&ws), 1);
}

#[test]
fn fixture_is_semantically_clean() {
    let sources = fixture();
    let (diags, stats) = analyze_workspace(&sources, None);
    assert!(diags.is_empty(), "unexpected diagnostics: {diags:?}");
    assert_eq!(stats.crates, 2);
    assert_eq!(stats.files, 3);
    assert_eq!(stats.dep_edges, 1);
    assert_eq!(stats.api_entries, 3);
    assert_eq!(stats.effect_sites, 0, "the fixture performs no effects");
    assert_eq!(stats.discard_sites, 0);
    assert_eq!(stats.hot_fns, 0);
}

#[test]
fn layering_violation_fires_on_inverted_dependency() {
    // clock (layer 0) declaring a dependency on eval (layer 4) inverts the
    // tower; the manifest edge and the path-qualified token are separate
    // findings.
    let mut sources = fixture();
    sources[0] = SourceEntry::new(
        "crates/clock/Cargo.toml",
        "[package]\nname = \"easytime-clock\"\n\n[dependencies]\n\
         easytime-eval = { path = \"../eval\" }\n",
    );
    sources[1] = SourceEntry::new(
        "crates/clock/src/lib.rs",
        "/// Doc.\npub fn now() -> u64 { easytime_eval::score as usize as u64 }\n",
    );
    let (diags, _) = analyze_workspace(&sources, None);
    let r15: Vec<_> = diags.iter().filter(|d| d.rule.code() == "R15").collect();
    assert_eq!(r15.len(), 2, "want manifest + token findings, got {r15:?}");
    assert!(r15.iter().any(|d| d.message.contains("must not depend on")
        && d.file.display().to_string() == "crates/clock/Cargo.toml"));
    assert!(r15.iter().any(|d| d.message.contains("path-qualified")
        && d.file.display().to_string() == "crates/clock/src/lib.rs"));
}

#[test]
fn lock_cycle_and_reacquisition_fire() {
    let sources = vec![
        SourceEntry::new(
            "crates/clock/Cargo.toml",
            "[package]\nname = \"easytime-clock\"\n",
        ),
        SourceEntry::new(
            "crates/clock/src/lib.rs",
            "fn ab(s: &State) {\n\
             \x20   let a = s.alpha.lock();\n\
             \x20   let b = s.beta.lock();\n\
             \x20   drop(b); drop(a);\n\
             }\n\
             fn ba(s: &State) {\n\
             \x20   let b = s.beta.lock();\n\
             \x20   let a = s.alpha.lock();\n\
             \x20   drop(a); drop(b);\n\
             }\n\
             fn twice(s: &State) {\n\
             \x20   let g = s.alpha.lock();\n\
             \x20   let h = s.alpha.lock();\n\
             \x20   drop(h); drop(g);\n\
             }\n",
        ),
    ];
    let ws = WorkspaceModel::build(&sources);
    let graph = locks::build_lock_graph(&ws);
    assert!(graph.identities.contains("easytime-clock.alpha"));
    assert!(graph.identities.contains("easytime-clock.beta"));
    let diags = locks::check_locks(&ws, &graph);
    assert!(
        diags.iter().any(|d| d.message.contains("lock-order cycle")),
        "no cycle diagnostic in {diags:?}"
    );
    assert!(
        diags.iter().any(|d| d.message.contains("acquired again while already held")),
        "no reacquisition diagnostic in {diags:?}"
    );
}

#[test]
fn dead_pub_fires_and_annotation_waives() {
    let mut sources = fixture();
    // An export nothing mentions outside clock's own library code.
    sources[1] = SourceEntry::new(
        "crates/clock/src/lib.rs",
        "/// Doc.\npub struct Clock { now: u64 }\n\
         impl Clock {\n\
         \x20   /// Doc.\n\
         \x20   pub fn now(&self) -> u64 { self.now }\n\
         }\n\
         /// Doc.\npub fn orphan() {}\n",
    );
    let (diags, _) = analyze_workspace(&sources, None);
    let r17: Vec<_> = diags.iter().filter(|d| d.rule.code() == "R17").collect();
    assert_eq!(r17.len(), 1, "want exactly the orphan, got {r17:?}");
    assert!(r17[0].message.contains("orphan"));

    // A justified hatch on the definition line waives it.
    sources[1] = SourceEntry::new(
        "crates/clock/src/lib.rs",
        "/// Doc.\npub struct Clock { now: u64 }\n\
         impl Clock {\n\
         \x20   /// Doc.\n\
         \x20   pub fn now(&self) -> u64 { self.now }\n\
         }\n\
         /// Doc.\n\
         // lint: allow(dead-pub) — reserved for the next milestone\n\
         pub fn orphan() {}\n",
    );
    let (diags, _) = analyze_workspace(&sources, None);
    assert!(
        !diags.iter().any(|d| d.rule.code() == "R17"),
        "hatch did not waive: {diags:?}"
    );
}

#[test]
fn api_baseline_roundtrip_through_analyze() {
    let sources = fixture();
    let ws = WorkspaceModel::build(&sources);
    let baseline = api::render_api_baseline(&api::api_entries(&ws));
    let (diags, stats) = analyze_workspace(&sources, Some(("scripts/api-baseline.txt", &baseline)));
    assert!(diags.is_empty(), "live surface should match its own snapshot: {diags:?}");
    assert_eq!(stats.api_entries, 3);

    // Drop one line: the removal surfaces as a live-entry addition.
    let pruned: String =
        baseline.lines().filter(|l| !l.contains("score")).map(|l| format!("{l}\n")).collect();
    let (diags, _) = analyze_workspace(&sources, Some(("scripts/api-baseline.txt", &pruned)));
    assert!(diags.iter().any(|d| d.rule.code() == "R14"
        && d.message.contains("not in the committed baseline")
        && d.message.contains("score")));
}

#[test]
fn output_is_byte_identical_under_shuffled_discovery_order() {
    let canonical = fixture();
    let ws = WorkspaceModel::build(&canonical);
    let baseline = api::render_api_baseline(&api::api_entries(&ws));
    let (ref_diags, ref_stats) =
        analyze_workspace(&canonical, Some(("scripts/api-baseline.txt", &baseline)));
    let ref_json = diagnostics_to_json(&ref_diags);
    let ref_stats_json = semantic_stats_to_json(&ref_stats);
    let ref_effects_json = workspace_effect_table_json(&canonical);

    for mut rng in rngs().take(12) {
        let mut shuffled = canonical.clone();
        rng.shuffle(&mut shuffled);
        let (diags, stats) =
            analyze_workspace(&shuffled, Some(("scripts/api-baseline.txt", &baseline)));
        assert_eq!(diagnostics_to_json(&diags), ref_json);
        assert_eq!(semantic_stats_to_json(&stats), ref_stats_json);
        assert_eq!(workspace_effect_table_json(&shuffled), ref_effects_json);
    }
}

#[test]
fn r14_to_r20_are_documented_and_render_uniformly() {
    use easytime_lint::{rule_doc, Diagnostic, Rule};
    use std::path::Path;

    let rules = [
        Rule::ApiSnapshot,
        Rule::CrateLayering,
        Rule::LockDiscipline,
        Rule::DeadPub,
        Rule::HotPathAlloc,
        Rule::SwallowedResult,
        Rule::LockWhileHeavy,
    ];
    for rule in rules {
        let code = rule.code();
        // `--explain` resolves every semantic rule, case-insensitively.
        let doc = rule_doc(&code.to_ascii_lowercase());
        assert!(doc.is_some_and(|d| d.code == code), "{code} has no RULE_DOCS row");
        // The JSON record carries the code and the hatch name `--explain`
        // prints, through the one rendering path every rule shares.
        let d =
            Diagnostic::new(Path::new("crates/x/src/lib.rs"), 1, rule, format!("probe {code}"));
        let json = diagnostics_to_json(&[d]);
        assert!(json.contains(&format!("\"rule\": \"{code}\"")), "{json}");
        let allow = doc.map_or("", |d| d.allow);
        assert!(json.contains(&format!("\"allow\": \"{allow}\"")), "{json}");
    }
}

#[test]
fn duplicate_sources_collapse() {
    let mut sources = fixture();
    sources.extend(fixture());
    let ws = WorkspaceModel::build(&sources);
    assert_eq!(ws.files.len(), 3);
    assert_eq!(ws.crates.len(), 2);
}
