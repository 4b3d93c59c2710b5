//! Phase 2, step 2: cross-crate resolution rules.
//!
//! **R15 crate-layering** enforces the declared layer policy against the
//! real Cargo dependency graph *and* against `easytime_*::` path tokens in
//! library code, so both manifest drift and path-qualified back-doors are
//! caught. **R17 dead-pub** rejects `pub` items in non-facade crates that
//! no other crate (and none of the defining crate's own bins/tests/benches)
//! ever mentions.

use crate::engine::AllowMark;
use crate::model::{ItemKind, Vis, WorkspaceModel};
use crate::{Diagnostic, Rule};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// Where a crate sits in the declared layering policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Layer {
    /// Layered crate: may depend only on strictly lower layers.
    Level(u32),
    /// Leaf tool (`lint`, `bench`): may depend on any layered crate, but
    /// nothing may depend on it and it may not depend on another leaf.
    Leaf,
}

/// The declared layering policy, by package name. Order is bottom-up:
/// `rng`/`clock` underpin everything, the `easytime` facade sits on top,
/// and the tooling crates are leaves outside the layer stack entirely.
/// Every workspace crate must appear here — an unknown crate is an R15
/// error, which forces new crates to take an explicit layering decision.
pub(crate) const LAYERS: &[(&str, Layer)] = &[
    ("easytime-rng", Layer::Level(0)),
    ("easytime-clock", Layer::Level(0)),
    ("easytime-obs", Layer::Level(1)),
    ("easytime-linalg", Layer::Level(1)),
    ("easytime-data", Layer::Level(2)),
    ("easytime-db", Layer::Level(2)),
    ("easytime-models", Layer::Level(3)),
    ("easytime-repr", Layer::Level(3)),
    ("easytime-eval", Layer::Level(4)),
    ("easytime-qa", Layer::Level(4)),
    ("easytime-automl", Layer::Level(5)),
    ("easytime", Layer::Level(6)),
    ("easytime-serve", Layer::Level(7)),
    ("easytime-bench", Layer::Leaf),
    ("easytime-lint", Layer::Leaf),
];

/// The facade crate whose whole purpose is re-exporting: exempt from R17.
pub(crate) const FACADE: &str = "easytime";

/// Looks up a crate's declared layer.
pub(crate) fn layer_of(package: &str) -> Option<Layer> {
    LAYERS.iter().find(|(n, _)| *n == package).map(|&(_, l)| l)
}

/// True when `from` (at `from_layer`) may depend on `to` (at `to_layer`)
/// under the policy.
fn edge_allowed(from_layer: Layer, to_layer: Layer) -> bool {
    match (from_layer, to_layer) {
        // Nothing may depend on a leaf — leaves included.
        (_, Layer::Leaf) => false,
        // Layered crates look strictly downward.
        (Layer::Level(f), Layer::Level(t)) => t < f,
        // Leaves may use any layered crate.
        (Layer::Leaf, Layer::Level(_)) => true,
    }
}

/// Renders a layer for diagnostics.
fn layer_name(l: Layer) -> String {
    match l {
        Layer::Level(n) => format!("layer {n}"),
        Layer::Leaf => "leaf".to_string(),
    }
}

/// Runs R15 over the Cargo dependency graph and the `easytime_*::` path
/// tokens of library code.
pub fn check_layering(ws: &WorkspaceModel) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    // Lib-name → package-name map for token-level checks.
    let mut by_lib: BTreeMap<&str, &str> = BTreeMap::new();
    for c in ws.crates.values() {
        by_lib.insert(&c.lib_name, &c.name);
    }

    for c in ws.crates.values() {
        let Some(from_layer) = layer_of(&c.name) else {
            diags.push(Diagnostic::new(
                Path::new(&c.manifest_path),
                1,
                Rule::CrateLayering,
                format!(
                    "crate `{}` has no layer assignment in the layering policy; add it to \
                     `LAYERS` in crates/lint/src/resolve.rs with a deliberate layer choice",
                    c.name
                ),
            ));
            continue;
        };
        // Manifest edges. Dev-dependencies are exempt: cargo permits dev
        // cycles, and test-only upward edges (obs exercising the stack it
        // instruments) are deliberate.
        for (dep, line) in &c.deps {
            if !ws.crates.contains_key(dep) {
                continue; // External deps are R2's business.
            }
            let Some(to_layer) = layer_of(dep) else { continue };
            if !edge_allowed(from_layer, to_layer) {
                diags.push(Diagnostic::new(
                    Path::new(&c.manifest_path),
                    *line,
                    Rule::CrateLayering,
                    format!(
                        "layering violation: `{}` ({}) must not depend on `{dep}` ({}); \
                         layered crates depend only on strictly lower layers and nothing \
                         depends on a leaf",
                        c.name,
                        layer_name(from_layer),
                        layer_name(to_layer),
                    ),
                ));
            }
        }
    }

    // Token-level back-doors: `easytime_x::` in library, non-test code of a
    // crate that is not allowed to depend on `easytime-x`. Catches paths
    // that compile via an undeclared transitive route or sneak in later.
    for f in &ws.files {
        if !f.class.is_library || f.crate_name.is_empty() {
            continue;
        }
        let Some(from_layer) = layer_of(&f.crate_name) else { continue };
        let own_lib = ws.crates.get(&f.crate_name).map(|c| c.lib_name.as_str()).unwrap_or("");
        for r in &f.ext_refs {
            if r.in_test || r.lib_name == own_lib || r.lib_name == "crate" {
                continue;
            }
            let Some(&to_pkg) = by_lib.get(r.lib_name.as_str()) else { continue };
            let Some(to_layer) = layer_of(to_pkg) else { continue };
            if !edge_allowed(from_layer, to_layer) {
                push_allowed(
                    &mut diags,
                    &f.allows,
                    Rule::CrateLayering,
                    &f.path,
                    r.line,
                    format!(
                        "layering violation: `{}` ({}) references `{}::` ({}) — this \
                         path-qualified use bypasses the declared layer policy",
                        f.crate_name,
                        layer_name(from_layer),
                        r.lib_name,
                        layer_name(to_layer),
                    ),
                );
            }
        }
    }
    diags
}

/// Counts workspace-internal `[dependencies]` edges (for the stats).
pub fn dep_edge_count(ws: &WorkspaceModel) -> usize {
    ws.crates
        .values()
        .flat_map(|c| &c.deps)
        .filter(|(dep, _)| ws.crates.contains_key(dep))
        .count()
}

/// Counts distinct crate→crate reference pairs from `easytime_*::` tokens
/// (for the stats).
pub fn use_edge_count(ws: &WorkspaceModel) -> usize {
    let mut by_lib: BTreeMap<&str, &str> = BTreeMap::new();
    for c in ws.crates.values() {
        by_lib.insert(&c.lib_name, &c.name);
    }
    let mut pairs: BTreeSet<(&str, &str)> = BTreeSet::new();
    for f in &ws.files {
        if f.crate_name.is_empty() {
            continue;
        }
        for r in &f.ext_refs {
            if let Some(&to) = by_lib.get(r.lib_name.as_str()) {
                if to != f.crate_name {
                    pairs.insert((f.crate_name.as_str(), to));
                }
            }
        }
    }
    pairs.len()
}

/// Runs R17: `pub` items in non-facade library code that no other crate
/// mentions and that the defining crate's own non-library targets (bins,
/// tests, benches, examples) never use either. Liveness propagates
/// through signatures: a type named in the signature of a live export is
/// itself live (callers hold it without ever writing its name).
pub fn check_dead_pub(ws: &WorkspaceModel) -> Vec<Diagnostic> {
    // Mention sets: per crate split into library vs non-library targets.
    let mut lib_mentions: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    let mut other_target_mentions: BTreeSet<&str> = BTreeSet::new();
    for f in &ws.files {
        if f.class.is_library {
            lib_mentions
                .entry(f.crate_name.as_str())
                .or_default()
                .extend(f.mentions.iter().map(String::as_str));
        } else {
            other_target_mentions.extend(f.mentions.iter().map(String::as_str));
        }
    }

    // A direct use is: a mention in another crate's library code, or a
    // mention in ANY non-library target (the defining crate's own
    // bins/tests/benches/examples included).
    let used_directly = |krate: &str, name: &str| {
        lib_mentions.iter().any(|(&c, names)| c != krate && names.contains(name))
            || other_target_mentions.contains(name)
    };

    let mut diags = Vec::new();
    for (krate, _) in ws.crates.iter() {
        if krate == FACADE {
            continue;
        }
        // Candidate pub items of this crate's library code, in file order.
        let mut candidates: Vec<(&crate::model::FileModel, &crate::model::Item)> = Vec::new();
        for f in &ws.files {
            if !f.class.is_library || f.crate_name != *krate {
                continue;
            }
            for item in &f.items {
                if item.vis != Vis::Pub
                    || item.in_test
                    || item.in_trait_impl
                    || item.name.is_empty()
                    || item.name == "_"
                    || matches!(item.kind, ItemKind::Mod | ItemKind::Use)
                {
                    continue;
                }
                candidates.push((f, item));
            }
        }
        // Liveness fixpoint: seeds are directly-used items; every ident in
        // a live non-Use item's signature is live too (a struct returned
        // by a live fn is held by callers who never write its name).
        let mut alive: BTreeSet<&str> = BTreeSet::new();
        for (_, item) in &candidates {
            if used_directly(krate, &item.name) {
                alive.insert(item.name.as_str());
            }
        }
        loop {
            let mut changed = false;
            for (_, item) in &candidates {
                if !alive.contains(item.name.as_str()) {
                    continue;
                }
                for ident in item
                    .signature
                    .split(|c: char| !c.is_alphanumeric() && c != '_')
                    .filter(|s| !s.is_empty())
                {
                    changed |= alive.insert(ident);
                }
            }
            if !changed {
                break;
            }
        }
        for (f, item) in candidates {
            if alive.contains(item.name.as_str()) {
                continue;
            }
            push_allowed(
                &mut diags,
                &f.allows,
                Rule::DeadPub,
                &f.path,
                item.line,
                format!(
                    "pub {} `{}` has no user outside `{}`'s library code; demote it to \
                     pub(crate), delete it, or annotate with \
                     `// lint: allow(dead-pub) — <why>`",
                    item.kind.label(),
                    item.name,
                    f.crate_name,
                ),
            );
        }
    }
    diags
}

/// Shared escape-hatch handling for semantic rules, mirroring the phase-1
/// `Reporter`: a justified `// lint: allow(<name>)` on the finding's line
/// waives it; a bare one is itself an R0 error.
pub(crate) fn push_allowed(
    diags: &mut Vec<Diagnostic>,
    allows: &[AllowMark],
    rule: Rule,
    path: &str,
    line: usize,
    message: String,
) {
    let name = rule.allow_name();
    if let Some(mark) = allows.iter().find(|a| a.target_line == line && a.name == name) {
        if !mark.justified {
            diags.push(Diagnostic::new(
                Path::new(path),
                mark.marker_line,
                Rule::BadAnnotation,
                format!("escape hatch `lint: allow({name})` requires a written justification"),
            ));
        }
        return;
    }
    diags.push(Diagnostic::new(Path::new(path), line, rule, message));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SourceEntry;

    fn manifest(name: &str, deps: &[&str]) -> String {
        let mut t = format!("[package]\nname = \"{name}\"\n\n[dependencies]\n");
        for d in deps {
            t.push_str(&format!("{d}.workspace = true\n"));
        }
        t
    }

    fn dir_of(name: &str) -> &str {
        name.strip_prefix("easytime-").unwrap_or("core")
    }

    fn ws(crates: &[(&str, &[&str])], files: &[(&str, &str)]) -> WorkspaceModel {
        let mut sources = Vec::new();
        for (name, deps) in crates {
            sources.push(SourceEntry::new(
                format!("crates/{}/Cargo.toml", dir_of(name)),
                manifest(name, deps),
            ));
        }
        for (path, text) in files {
            sources.push(SourceEntry::new(path.to_string(), text.to_string()));
        }
        WorkspaceModel::build(&sources)
    }

    #[test]
    fn clean_layering_passes() {
        let model = ws(
            &[
                ("easytime-rng", &[]),
                ("easytime-obs", &["easytime-clock"]),
                ("easytime-clock", &[]),
                ("easytime-eval", &["easytime-obs", "easytime-rng"]),
            ],
            &[],
        );
        assert!(check_layering(&model).is_empty());
    }

    #[test]
    fn upward_and_leafward_manifest_edges_are_flagged() {
        let model = ws(
            &[
                ("easytime-clock", &["easytime-eval"]), // upward: 0 → 4
                ("easytime-eval", &[]),
                ("easytime-obs", &["easytime-lint"]), // into a leaf
                ("easytime-lint", &[]),
            ],
            &[],
        );
        let diags = check_layering(&model);
        assert_eq!(diags.len(), 2);
        assert!(diags.iter().all(|d| d.rule == Rule::CrateLayering));
        assert!(diags.iter().any(|d| d.message.contains("`easytime-clock`")));
        assert!(diags.iter().any(|d| d.message.contains("`easytime-lint`")));
    }

    #[test]
    fn same_layer_edge_is_flagged() {
        let model =
            ws(&[("easytime-rng", &["easytime-clock"]), ("easytime-clock", &[])], &[]);
        let diags = check_layering(&model);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("strictly lower"));
    }

    #[test]
    fn unknown_crate_requires_a_layer_decision() {
        let model = ws(&[("easytime-sketch", &[])], &[]);
        let diags = check_layering(&model);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("no layer assignment"));
    }

    #[test]
    fn token_backdoor_is_flagged_but_tests_and_declared_edges_are_not() {
        let model = ws(
            &[("easytime-clock", &[]), ("easytime-eval", &[])],
            &[
                // clock (layer 0) reaching up into eval (layer 4) by path.
                (
                    "crates/clock/src/lib.rs",
                    "pub fn f() { easytime_eval::run(); }\n\
                     #[cfg(test)]\nmod t { fn g() { easytime_eval::run(); } }\n",
                ),
                // eval using clock is fine even without checking Cargo.toml.
                ("crates/eval/src/lib.rs", "pub fn g() { easytime_clock::now(); }\n"),
            ],
        );
        let diags = check_layering(&model);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].file.display().to_string(), "crates/clock/src/lib.rs");
        assert!(diags[0].message.contains("path-qualified"));
    }

    #[test]
    fn dev_dependencies_are_exempt() {
        let toml = "[package]\nname = \"easytime-obs\"\n\n[dev-dependencies]\n\
                    easytime-eval.workspace = true\n";
        let model = WorkspaceModel::build(&[
            SourceEntry::new("crates/obs/Cargo.toml", toml),
            SourceEntry::new(
                "crates/eval/Cargo.toml",
                manifest("easytime-eval", &[]),
            ),
        ]);
        assert!(check_layering(&model).is_empty());
    }

    #[test]
    fn dead_pub_flags_unused_exports_only() {
        let model = ws(
            &[("easytime-rng", &[]), ("easytime-eval", &[])],
            &[
                (
                    "crates/rng/src/lib.rs",
                    "/// Used downstream.\npub fn seed_from(x: u64) -> u64 { x }\n\
                     /// Nobody calls this.\npub fn orphan_helper() -> u64 { 0 }\n",
                ),
                ("crates/eval/src/lib.rs", "fn f() { easytime_rng::seed_from(1); }\n"),
            ],
        );
        let diags = check_dead_pub(&model);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, Rule::DeadPub);
        assert!(diags[0].message.contains("orphan_helper"));
    }

    #[test]
    fn own_crate_tests_and_bins_count_as_users() {
        let model = ws(
            &[("easytime-rng", &[])],
            &[
                ("crates/rng/src/lib.rs", "/// Exercised by the test below.\npub fn h() {}\n"),
                ("crates/rng/tests/t.rs", "fn t() { easytime_rng::h(); }\n"),
            ],
        );
        assert!(check_dead_pub(&model).is_empty());
    }

    #[test]
    fn facade_and_hatched_items_are_exempt() {
        let model = ws(
            &[("easytime", &[]), ("easytime-rng", &[])],
            &[
                ("crates/core/src/lib.rs", "/// Facade re-export surface.\npub fn unused() {}\n"),
                (
                    "crates/rng/src/lib.rs",
                    "// lint: allow(dead-pub) — speculative API for the serving engine\n\
                     pub fn speculative() {}\n",
                ),
            ],
        );
        assert!(check_dead_pub(&model).is_empty());
    }

    #[test]
    fn bare_dead_pub_hatch_is_r0() {
        let model = ws(
            &[("easytime-rng", &[])],
            &[(
                "crates/rng/src/lib.rs",
                "// lint: allow(dead-pub)\npub fn speculative() {}\n",
            )],
        );
        let diags = check_dead_pub(&model);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, Rule::BadAnnotation);
    }

    #[test]
    fn edge_counts_are_stable() {
        let model = ws(
            &[("easytime-clock", &[]), ("easytime-eval", &["easytime-clock"])],
            &[(
                "crates/eval/src/lib.rs",
                "pub fn g() { easytime_clock::now(); easytime_clock::later(); }\n",
            )],
        );
        assert_eq!(dep_edge_count(&model), 1);
        assert_eq!(use_edge_count(&model), 1);
    }
}
