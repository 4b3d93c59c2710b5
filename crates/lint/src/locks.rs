//! Phase 2, step 3: lock-discipline analysis (R16).
//!
//! From the per-function acquisition summaries in the workspace model this
//! module builds a **lock-order graph**: an edge `A → B` means some
//! function acquires lock `B` (directly, or any number of calls away)
//! while holding lock `A`. Call resolution is name-based and restricted
//! to each caller's crate plus its transitive Cargo dependencies, so a
//! common method name in an unrelated crate cannot create phantom edges.
//!
//! Two deadlock shapes are errors:
//!
//! 1. **Same-lock reacquisition** — a lock held across a call into a
//!    function that (transitively) acquires the same lock identity, or a
//!    direct second acquisition in the held region. `std::sync::Mutex` is
//!    not reentrant: this self-deadlocks on the spot.
//! 2. **Lock-order cycles** — a cycle between two or more distinct lock
//!    identities in the transitively-closed lock-order graph: two threads
//!    taking the locks in opposite orders deadlock each other.
//!
//! A lock identity is `(crate, field name)` — `self.records.lock()` in
//! `easytime-eval` is `easytime-eval.records`. Two different mutexes
//! behind the same field name in one crate collapse into one identity
//! (conservative: may merge, never splits), and a guard passed directly as
//! a call argument (`f(&self.x.lock())`) escapes the held-region scan —
//! both limits are documented in DESIGN.md.

use crate::model::{FnSummary, WorkspaceModel};
use crate::resolve::push_allowed;
use crate::{Diagnostic, Rule};
use std::collections::{BTreeMap, BTreeSet};

/// A lock identity rendered as `crate.field`.
pub(crate) type LockId = String;

/// The transitively-closed lock-order graph.
#[derive(Debug, Clone, Default)]
pub struct LockGraph {
    /// Every lock identity seen at any acquisition site.
    pub identities: BTreeSet<LockId>,
    /// `held → acquired` edges, each with one representative site
    /// `(file, line)` — the lexicographically first contributor.
    pub edges: BTreeMap<(LockId, LockId), (String, usize)>,
}

/// Per-function index key: `(crate, fn name)`. Methods share the key with
/// free functions of the same name — name-based resolution is deliberately
/// conservative (may merge, never misses a same-crate callee).
pub(crate) type FnKey = (String, String);

/// Everything the checker needs precomputed from the model. The phase-3
/// effect pass ([`crate::effects`]) reuses the same index so both analyses
/// resolve calls identically.
pub(crate) struct Index<'a> {
    /// Function summaries by `(crate, name)`.
    pub(crate) fns: BTreeMap<FnKey, Vec<(&'a str, &'a FnSummary)>>,
    /// For each crate: itself plus its transitive normal dependencies.
    pub(crate) reachable: BTreeMap<&'a str, BTreeSet<&'a str>>,
    /// Transitive lock acquisitions per `(crate, fn name)` key.
    trans_acquires: BTreeMap<FnKey, BTreeSet<LockId>>,
}

/// Builds the `(crate, fn)` index and the transitive-acquisition fixpoint.
pub(crate) fn build_index<'a>(ws: &'a WorkspaceModel) -> Index<'a> {
    let mut fns: BTreeMap<FnKey, Vec<(&str, &FnSummary)>> = BTreeMap::new();
    for f in &ws.files {
        if f.crate_name.is_empty() {
            continue;
        }
        for s in &f.fns {
            if s.in_test {
                continue;
            }
            fns.entry((f.crate_name.clone(), s.name.clone()))
                .or_default()
                .push((f.path.as_str(), s));
        }
    }

    // Reachability: crate → {itself + transitive normal deps}.
    let mut reachable: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for name in ws.crates.keys() {
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        let mut stack = vec![name.as_str()];
        while let Some(c) = stack.pop() {
            if !seen.insert(c) {
                continue;
            }
            if let Some(info) = ws.crates.get(c) {
                for (dep, _) in &info.deps {
                    if ws.crates.contains_key(dep) {
                        stack.push(dep.as_str());
                    }
                }
            }
        }
        reachable.insert(name.as_str(), seen);
    }

    // Fixpoint: trans_acquires(f) = direct(f) ∪ ⋃ trans_acquires(callee)
    // over callees resolved within the caller's reachable crates.
    let mut trans: BTreeMap<FnKey, BTreeSet<LockId>> = BTreeMap::new();
    for ((krate, name), sums) in &fns {
        let mut direct = BTreeSet::new();
        for (_, s) in sums {
            for a in &s.acquires {
                direct.insert(format!("{krate}.{}", a.target));
            }
        }
        trans.insert((krate.clone(), name.clone()), direct);
    }
    loop {
        let mut changed = false;
        for ((krate, name), sums) in &fns {
            let mut add: BTreeSet<LockId> = BTreeSet::new();
            let empty = BTreeSet::new();
            let visible = reachable.get(krate.as_str()).unwrap_or(&empty);
            for (_, s) in sums {
                for call in &s.calls {
                    for target in visible {
                        let key = (target.to_string(), call.clone());
                        if let Some(acq) = trans.get(&key) {
                            add.extend(acq.iter().cloned());
                        }
                    }
                }
            }
            let own = trans.entry((krate.clone(), name.clone())).or_default();
            for id in add {
                changed |= own.insert(id);
            }
        }
        if !changed {
            break;
        }
    }
    Index { fns, reachable, trans_acquires: trans }
}

/// Builds the transitively-closed lock-order graph for the whole
/// workspace (reported in the stats; cycles in it are R16 errors).
pub fn build_lock_graph(ws: &WorkspaceModel) -> LockGraph {
    let idx = build_index(ws);
    let mut graph = LockGraph::default();
    let empty = BTreeSet::new();
    for ((krate, _name), sums) in &idx.fns {
        let visible = idx.reachable.get(krate.as_str()).unwrap_or(&empty);
        for (path, s) in sums {
            for a in &s.acquires {
                let held: LockId = format!("{krate}.{}", a.target);
                graph.identities.insert(held.clone());
                let mut record = |to: LockId, line: usize| {
                    let site = (path.to_string(), line);
                    graph
                        .edges
                        .entry((held.clone(), to))
                        .and_modify(|existing| {
                            if site < *existing {
                                *existing = site.clone();
                            }
                        })
                        .or_insert(site);
                };
                for (target, line) in &a.held_acquires {
                    let to = format!("{krate}.{target}");
                    graph.identities.insert(to.clone());
                    if to != held {
                        record(to, *line);
                    }
                }
                for (call, line) in &a.held_calls {
                    for target in visible {
                        let key = (target.to_string(), call.clone());
                        if let Some(acq) = idx.trans_acquires.get(&key) {
                            for to in acq {
                                graph.identities.insert(to.clone());
                                if *to != held {
                                    record(to.clone(), *line);
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    graph
}

/// Runs R16: same-lock reacquisition at each site, then cycles across the
/// closed lock-order graph.
pub fn check_locks(ws: &WorkspaceModel, graph: &LockGraph) -> Vec<Diagnostic> {
    let idx = build_index(ws);
    let mut diags = Vec::new();
    let empty = BTreeSet::new();

    // Shape 1: same-lock reacquisition, per acquisition site.
    for f in &ws.files {
        if f.crate_name.is_empty() {
            continue;
        }
        let visible = idx.reachable.get(f.crate_name.as_str()).unwrap_or(&empty);
        for s in &f.fns {
            if s.in_test {
                continue;
            }
            for a in &s.acquires {
                let held: LockId = format!("{}.{}", f.crate_name, a.target);
                for (target, line) in &a.held_acquires {
                    if *target == a.target {
                        push_allowed(
                            &mut diags,
                            &f.allows,
                            Rule::LockDiscipline,
                            &f.path,
                            *line,
                            format!(
                                "lock `{held}` acquired again while already held (taken at \
                                 line {}); std mutexes are not reentrant — this \
                                 self-deadlocks",
                                a.line
                            ),
                        );
                    }
                }
                for (call, line) in &a.held_calls {
                    let mut reacquires = false;
                    for target in visible {
                        let key = (target.to_string(), call.clone());
                        if idx.trans_acquires.get(&key).is_some_and(|acq| acq.contains(&held)) {
                            reacquires = true;
                        }
                    }
                    if reacquires {
                        push_allowed(
                            &mut diags,
                            &f.allows,
                            Rule::LockDiscipline,
                            &f.path,
                            *line,
                            format!(
                                "lock `{held}` (taken at line {}) is held across a call to \
                                 `{call}`, which can reacquire it; std mutexes are not \
                                 reentrant — restructure so the guard is dropped first",
                                a.line
                            ),
                        );
                    }
                }
            }
        }
    }

    // Shape 2: cycles between distinct identities. Find strongly connected
    // components of the edge graph; any component with ≥2 nodes is a
    // deadlock-capable ordering cycle. (Self-loops never enter the graph —
    // shape 1 reports those per site.)
    for component in sccs(graph) {
        if component.len() < 2 {
            continue;
        }
        // Anchor at the lexicographically first edge site inside the
        // component for a deterministic, clickable diagnostic.
        let in_comp: BTreeSet<&LockId> = component.iter().collect();
        let site = graph
            .edges
            .iter()
            .filter(|((a, b), _)| in_comp.contains(a) && in_comp.contains(b))
            .map(|(_, site)| site)
            .min()
            .cloned()
            .unwrap_or_else(|| ("<unknown>".to_string(), 1));
        let names = component.join(" -> ");
        diags.push(Diagnostic::new(
            std::path::Path::new(&site.0),
            site.1,
            Rule::LockDiscipline,
            format!(
                "lock-order cycle between {{{names}}}: two threads taking these locks in \
                 different orders can deadlock; impose one global acquisition order"
            ),
        ));
    }
    diags
}

/// Strongly connected components of the lock-order graph, each returned
/// sorted, in deterministic order (iterative Tarjan over sorted nodes).
fn sccs(graph: &LockGraph) -> Vec<Vec<LockId>> {
    let nodes: Vec<&LockId> = graph.identities.iter().collect();
    let index_of: BTreeMap<&LockId, usize> =
        nodes.iter().enumerate().map(|(i, &n)| (n, i)).collect();
    let mut succ: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    for (a, b) in graph.edges.keys() {
        if let (Some(&i), Some(&j)) = (index_of.get(a), index_of.get(b)) {
            succ[i].push(j);
        }
    }

    // Iterative Tarjan.
    let n = nodes.len();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut out: Vec<Vec<LockId>> = Vec::new();

    for start in 0..n {
        if index[start] != usize::MAX {
            continue;
        }
        // Work frames: (node, next child position).
        let mut frames: Vec<(usize, usize)> = vec![(start, 0)];
        while let Some(&mut (v, ref mut ci)) = frames.last_mut() {
            if *ci == 0 {
                index[v] = next_index;
                low[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if *ci < succ[v].len() {
                let w = succ[v][*ci];
                *ci += 1;
                if index[w] == usize::MAX {
                    frames.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
                continue;
            }
            // All children done: close the frame.
            frames.pop();
            if let Some(&mut (parent, _)) = frames.last_mut() {
                low[parent] = low[parent].min(low[v]);
            }
            if low[v] == index[v] {
                let mut component = Vec::new();
                while let Some(w) = stack.pop() {
                    on_stack[w] = false;
                    component.push(nodes[w].clone());
                    if w == v {
                        break;
                    }
                }
                component.sort();
                out.push(component);
            }
        }
    }
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{SourceEntry, WorkspaceModel};

    fn ws(files: &[(&str, &str)]) -> WorkspaceModel {
        let mut sources = vec![SourceEntry::new(
            "crates/demo/Cargo.toml",
            "[package]\nname = \"easytime-demo\"\n",
        )];
        for (path, text) in files {
            sources.push(SourceEntry::new(path.to_string(), text.to_string()));
        }
        WorkspaceModel::build(&sources)
    }

    #[test]
    fn sequential_temporary_locks_are_clean() {
        let model = ws(&[(
            "crates/demo/src/lib.rs",
            "pub fn f(&self) {\n\
             \x20   self.a.lock().push(1);\n\
             \x20   self.b.lock().push(2);\n\
             }\n",
        )]);
        let graph = build_lock_graph(&model);
        assert!(graph.edges.is_empty());
        assert!(check_locks(&model, &graph).is_empty());
    }

    #[test]
    fn nested_distinct_locks_make_an_edge_but_no_error() {
        let model = ws(&[(
            "crates/demo/src/lib.rs",
            "pub fn f(&self) {\n\
             \x20   let a = self.alpha.lock();\n\
             \x20   let b = self.beta.lock();\n\
             \x20   use_both(a, b);\n\
             }\n",
        )]);
        let graph = build_lock_graph(&model);
        assert!(graph
            .edges
            .contains_key(&("easytime-demo.alpha".into(), "easytime-demo.beta".into())));
        assert!(check_locks(&model, &graph).is_empty());
    }

    #[test]
    fn opposite_order_nesting_is_a_cycle() {
        let model = ws(&[(
            "crates/demo/src/lib.rs",
            "pub fn f(&self) {\n\
             \x20   let a = self.alpha.lock();\n\
             \x20   let b = self.beta.lock();\n\
             \x20   use_both(a, b);\n\
             }\n\
             pub fn g(&self) {\n\
             \x20   let b = self.beta.lock();\n\
             \x20   let a = self.alpha.lock();\n\
             \x20   use_both(a, b);\n\
             }\n",
        )]);
        let graph = build_lock_graph(&model);
        let diags = check_locks(&model, &graph);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, Rule::LockDiscipline);
        assert!(diags[0].message.contains("lock-order cycle"));
        assert!(diags[0].message.contains("easytime-demo.alpha"));
        assert!(diags[0].message.contains("easytime-demo.beta"));
    }

    #[test]
    fn direct_reacquisition_is_flagged() {
        let model = ws(&[(
            "crates/demo/src/lib.rs",
            "pub fn f(&self) {\n\
             \x20   let a = self.state.lock();\n\
             \x20   let b = self.state.lock();\n\
             \x20   use_both(a, b);\n\
             }\n",
        )]);
        let graph = build_lock_graph(&model);
        let diags = check_locks(&model, &graph);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("acquired again while already held"));
    }

    #[test]
    fn transitive_reacquisition_through_a_helper_is_flagged() {
        let model = ws(&[(
            "crates/demo/src/lib.rs",
            "pub fn outer(&self) {\n\
             \x20   let g = self.state.lock();\n\
             \x20   helper(&g);\n\
             }\n\
             fn helper(&self) {\n\
             \x20   self.state.lock().touch();\n\
             }\n",
        )]);
        let graph = build_lock_graph(&model);
        let diags = check_locks(&model, &graph);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("held across a call to `helper`"));
    }

    #[test]
    fn cross_crate_resolution_requires_a_dependency_edge() {
        // demo has NO dependency on easytime-other, so `helper` must not
        // resolve into it even though the names collide.
        let mut sources = vec![
            SourceEntry::new("crates/demo/Cargo.toml", "[package]\nname = \"easytime-demo\"\n"),
            SourceEntry::new(
                "crates/other/Cargo.toml",
                "[package]\nname = \"easytime-other\"\n",
            ),
            SourceEntry::new(
                "crates/demo/src/lib.rs",
                "pub fn outer(&self) {\n\
                 \x20   let g = self.state.lock();\n\
                 \x20   helper(&g);\n\
                 }\n",
            ),
            SourceEntry::new(
                "crates/other/src/lib.rs",
                "pub fn helper(x: &X) { x.state.lock().touch(); }\n",
            ),
        ];
        let model = WorkspaceModel::build(&sources);
        let graph = build_lock_graph(&model);
        assert!(check_locks(&model, &graph).is_empty());

        // Now declare the edge: `helper` resolves, identities differ by
        // crate, so an order edge appears but no same-lock error.
        sources[0] = SourceEntry::new(
            "crates/demo/Cargo.toml",
            "[package]\nname = \"easytime-demo\"\n\n[dependencies]\n\
             easytime-other.workspace = true\n",
        );
        let model = WorkspaceModel::build(&sources);
        let graph = build_lock_graph(&model);
        assert!(graph
            .edges
            .contains_key(&("easytime-demo.state".into(), "easytime-other.state".into())));
        assert!(check_locks(&model, &graph).is_empty());
    }

    #[test]
    fn test_functions_are_exempt() {
        let model = ws(&[(
            "crates/demo/src/lib.rs",
            "#[cfg(test)]\nmod tests {\n\
             \x20   fn t(&self) { let a = self.s.lock(); let b = self.s.lock(); use2(a, b); }\n\
             }\n",
        )]);
        let graph = build_lock_graph(&model);
        assert!(check_locks(&model, &graph).is_empty());
    }

    #[test]
    fn justified_hatch_waives_and_bare_hatch_is_r0() {
        let model = ws(&[(
            "crates/demo/src/lib.rs",
            "pub fn f(&self) {\n\
             \x20   let a = self.state.lock();\n\
             \x20   // lint: allow(lock-discipline) — same thread re-entry impossible here\n\
             \x20   let b = self.state.lock();\n\
             \x20   use_both(a, b);\n\
             }\n",
        )]);
        let graph = build_lock_graph(&model);
        assert!(check_locks(&model, &graph).is_empty());

        let model = ws(&[(
            "crates/demo/src/lib.rs",
            "pub fn f(&self) {\n\
             \x20   let a = self.state.lock();\n\
             \x20   // lint: allow(lock-discipline)\n\
             \x20   let b = self.state.lock();\n\
             \x20   use_both(a, b);\n\
             }\n",
        )]);
        let graph = build_lock_graph(&model);
        let diags = check_locks(&model, &graph);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, Rule::BadAnnotation);
    }
}
