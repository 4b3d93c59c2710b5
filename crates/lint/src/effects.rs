//! Phase 3, step 2: interprocedural **effect analysis** (R18–R20).
//!
//! Each function body contributes local effect sites — heap allocation,
//! lock acquisition, panic-family calls, clock reads, file IO — tagged
//! with loop position from the control-flow sketch ([`crate::cfg`]). This
//! module closes those sites transitively over the PR-6 call graph (the
//! same per-crate dependency-restricted, name-based resolution as
//! [`crate::locks`]) into a deterministic BTree-backed [`EffectTable`],
//! then runs three rules on top:
//!
//! - **R18 `hot-path-alloc`** — a function declared hot with
//!   `// lint: hot(<why>)` must not reach an allocating effect from loop
//!   position: direct in-loop allocation sites, in-loop calls whose closed
//!   summary allocates, and straight-line calls whose own loops allocate
//!   all fire; one-time setup outside loops is exempt.
//! - **R19 `swallowed-result`** — a discarded `Result` in library code:
//!   `let _ = call(…)` and `call(…).unwrap_or_default()` when the call
//!   resolves to a workspace function whose signature returns a `Result`,
//!   plus any whole-statement `….ok();`.
//! - **R20 `lock-while-heavy`** — a held lock region (the R16 let-bound /
//!   temporary analysis) spanning a call whose closed summary allocates or
//!   does file IO.
//!
//! Closure resolution skips [`UBIQUITOUS`] names (`new`, `clone`,
//! `insert`, …) that collide with std methods on nearly every call site —
//! an accepted false-negative trade documented in DESIGN.md §Effect
//! analysis. The hot-list sync test uses [`reachable_from`], which applies
//! no such filter, so static coverage is bound to the runtime
//! counting-allocator suites conservatively.

use crate::engine::SourceFile;
use crate::lexer::TokenKind;
use crate::locks::{build_index, FnKey};
use crate::model::{FileModel, FnSummary, ItemKind, WorkspaceModel, NON_CALL_KEYWORDS};
use crate::resolve::push_allowed;
use crate::{json_escape, Diagnostic, Rule};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// One coordinate of the effect lattice: the five observable side-effect
/// families the phase-3 analysis tracks per function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Effect {
    /// Heap allocation (`vec!`, `format!`, `Vec::new`, `.collect()`, …).
    Alloc,
    /// Lock acquisition (the same identities as the R16 analysis).
    Lock,
    /// Panic family (`panic!`, `assert!`, `.unwrap()`, `.expect()`, …).
    Panic,
    /// Wall-clock read (`Instant::now` / `SystemTime::now`).
    Clock,
    /// File IO (`File::open`, `fs::read_to_string`, …).
    Io,
}

impl Effect {
    /// Lower-case label used in the JSON effect table and diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            Effect::Alloc => "alloc",
            Effect::Lock => "lock",
            Effect::Panic => "panic",
            Effect::Clock => "clock",
            Effect::Io => "io",
        }
    }
}

/// One local effect site inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
// lint: allow(dead-pub) — reachable through a pub field of an exported type, which R17's item-signature scan does not cover
pub struct EffectSite {
    /// Which effect family the marker belongs to.
    pub effect: Effect,
    /// The concrete marker matched (`format!`, `Vec::new`, `.collect()`).
    pub what: String,
    /// 1-based line of the site.
    pub line: usize,
    /// True when the site sits inside a `loop`/`while`/`for` body.
    pub in_loop: bool,
}

/// One call site inside a function body, with loop position.
#[derive(Debug, Clone, PartialEq, Eq)]
// lint: allow(dead-pub) — reachable through a pub field of an exported type, which R17's item-signature scan does not cover
pub struct CallSite {
    /// Callee name as written (`r#` stripped).
    pub name: String,
    /// 1-based line of the call.
    pub line: usize,
    /// True when the call sits inside a `loop`/`while`/`for` body.
    pub in_loop: bool,
}

/// How a `Result` value was discarded (R19).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
// lint: allow(dead-pub) — reachable through DiscardSite's pub `kind` field, which R17's item-signature scan does not cover
pub enum DiscardKind {
    /// `let _ = call(…);`
    LetUnderscore,
    /// A whole statement of the form `….ok();`.
    StatementOk,
    /// `call(…).unwrap_or_default()` — errors silently become defaults.
    UnwrapOrDefault,
}

/// One discarded-result candidate site. R19 decides via the workspace
/// signature table whether the discarded call actually returns a `Result`
/// (except [`DiscardKind::StatementOk`], which is `Result`-only by
/// construction: `Option` has no `.ok()` method).
#[derive(Debug, Clone, PartialEq, Eq)]
// lint: allow(dead-pub) — reachable through a pub field of an exported type, which R17's item-signature scan does not cover
pub struct DiscardSite {
    /// The call whose result is discarded (empty when unresolvable).
    pub call: String,
    /// Discard shape.
    pub kind: DiscardKind,
    /// 1-based line of the site.
    pub line: usize,
}

/// Panic-family macro names.
const PANIC_MACROS: [&str; 10] = [
    "panic",
    "assert",
    "assert_eq",
    "assert_ne",
    "debug_assert",
    "debug_assert_eq",
    "debug_assert_ne",
    "unreachable",
    "todo",
    "unimplemented",
];
/// Macro names that allocate.
const ALLOC_MACROS: [&str; 2] = ["vec", "format"];
/// Method names that allocate a fresh owned value. `reserve` / `extend` /
/// `clear` / `push` are deliberately absent: the workspace's scratch-reuse
/// convention amortizes them to zero in steady state, which is exactly
/// what the runtime counting-allocator tests verify.
const ALLOC_METHODS: [&str; 5] = ["clone", "collect", "to_vec", "to_string", "to_owned"];
/// `Base::name` associated-function pairs that allocate.
const ALLOC_PATHS: [(&str, &str); 7] = [
    ("Vec", "new"),
    ("Vec", "with_capacity"),
    ("Vec", "from"),
    ("Box", "new"),
    ("String", "new"),
    ("String", "from"),
    ("String", "with_capacity"),
];
/// Panic-family method names.
const PANIC_METHODS: [&str; 2] = ["unwrap", "expect"];
/// `fs::…` free functions counted as file IO.
const FS_IO: [&str; 10] = [
    "read_to_string",
    "read",
    "write",
    "create_dir_all",
    "read_dir",
    "remove_file",
    "remove_dir_all",
    "copy",
    "rename",
    "metadata",
];

/// Call names excluded from effect-closure resolution because they
/// collide with std inherent/trait methods on practically every call site
/// (`new`, `clone`, `insert`, `get`, …). Skipping them keeps one
/// `BTreeMap::insert` from smearing a same-named workspace function's
/// effects across the whole graph. The cost is a false-negative class
/// (a workspace fn deliberately named `get` never contributes to closures)
/// accepted and documented in DESIGN.md §Effect analysis.
const UBIQUITOUS: [&str; 112] = [
    "new",
    "abs", "all", "and_then", "any", "bytes", "ceil", "chain", "chars", "chunks",
    "chunks_exact", "clear", "clone", "cloned", "cmp", "collect", "contains",
    "contains_key", "copied", "copy_from_slice", "count", "default", "drain", "entry",
    "enumerate", "eq", "err", "exp", "expect", "extend", "extend_from_slice", "fill",
    "filter", "find", "first", "flat_map", "flatten", "floor", "flush", "fmt", "fold",
    "from", "get", "get_mut", "hash", "insert", "into", "into_inner", "into_iter",
    "is_empty", "is_err", "is_none", "is_ok", "is_some", "iter", "iter_mut", "join",
    "last", "len", "lines", "ln", "map", "max", "min", "mul_add", "ne", "next", "ok",
    "ok_or", "ok_or_else", "or_insert", "or_insert_with", "parse", "partial_cmp",
    "position", "powf", "powi", "product", "push", "pop", "remove", "reserve", "resize",
    "rev", "round", "skip", "sort", "sort_by", "sort_unstable", "sort_unstable_by",
    "split", "split_whitespace", "sqrt", "sum", "swap", "take", "to_owned", "to_string",
    "to_vec", "total_cmp", "trim", "truncate", "trunc", "unwrap", "unwrap_or",
    "unwrap_or_default", "unwrap_or_else", "windows", "wrapping_add", "wrapping_mul",
    "write", "zip",
];

/// When the identifier at code index `q` is a local effect marker, returns
/// the effect and the concrete marker text for diagnostics.
pub(crate) fn local_effect_at(sf: &SourceFile<'_>, q: usize) -> Option<(Effect, String)> {
    let name = sf.ctext(q);
    // Macro form: `name!(…)` / `name![…]` / `name!{…}`.
    if sf.is_punct(q + 1, '!')
        && (sf.is_punct(q + 2, '(') || sf.is_punct(q + 2, '[') || sf.is_punct(q + 2, '{'))
    {
        if ALLOC_MACROS.contains(&name) {
            return Some((Effect::Alloc, format!("{name}!")));
        }
        if PANIC_MACROS.contains(&name) {
            return Some((Effect::Panic, format!("{name}!")));
        }
        return None;
    }
    if !sf.is_punct(q + 1, '(') {
        return None;
    }
    // Method form: `.name(…)`.
    if q > 0 && sf.is_punct(q - 1, '.') {
        if ALLOC_METHODS.contains(&name) {
            return Some((Effect::Alloc, format!(".{name}()")));
        }
        if PANIC_METHODS.contains(&name) {
            return Some((Effect::Panic, format!(".{name}()")));
        }
        return None;
    }
    // Path form: `Base::name(…)` (turbofish `Vec::<T>::new` is a known
    // miss — the base sits further back than one path segment).
    if q >= 3 && sf.is_punct_seq(q - 2, "::") {
        let base = sf.ctext(q - 3);
        if ALLOC_PATHS.contains(&(base, name)) {
            return Some((Effect::Alloc, format!("{base}::{name}")));
        }
        if (base == "Instant" || base == "SystemTime") && name == "now" {
            return Some((Effect::Clock, format!("{base}::now")));
        }
        if base == "File" && (name == "open" || name == "create") {
            return Some((Effect::Io, format!("File::{name}")));
        }
        if base == "fs" && FS_IO.contains(&name) {
            return Some((Effect::Io, format!("fs::{name}")));
        }
    }
    None
}

/// When the identifier at code index `q` starts (or completes) a
/// discarded-result shape, returns the candidate site.
pub(crate) fn discard_at(
    sf: &SourceFile<'_>,
    q: usize,
    body_open: usize,
) -> Option<DiscardSite> {
    let name = sf.ctext(q);
    let line = sf.ct(q).map_or(1, |t| t.line);
    // `let _ = …;` — the first top-level call in the initializer is the
    // candidate whose signature R19 looks up.
    if name == "let" && sf.is_ident(q + 1, "_") && sf.is_punct(q + 2, '=') {
        let call = initializer_call(sf, q + 3);
        return call.map(|call| DiscardSite { call, kind: DiscardKind::LetUnderscore, line });
    }
    if q == 0 || !sf.is_punct(q - 1, '.') || !sf.is_punct(q + 1, '(') {
        return None;
    }
    // Whole-statement `….ok();`.
    if name == "ok" {
        let close = sf.matching_close(q + 1)?;
        if sf.is_punct(close + 1, ';') && statement_position(sf, q - 1, body_open) {
            let call = receiver_call_name(sf, q - 1).unwrap_or_default();
            return Some(DiscardSite { call, kind: DiscardKind::StatementOk, line });
        }
        return None;
    }
    // `call(…).unwrap_or_default()` in any position.
    if name == "unwrap_or_default" {
        let call = receiver_call_name(sf, q - 1)?;
        return Some(DiscardSite { call, kind: DiscardKind::UnwrapOrDefault, line });
    }
    None
}

/// First call name at delimiter depth 0 in the initializer starting at
/// code index `from` (bounded scan to the statement's `;`).
fn initializer_call(sf: &SourceFile<'_>, from: usize) -> Option<String> {
    let mut depth = 0i64;
    let mut p = from;
    let mut hops = 0usize;
    while hops < 200 {
        hops += 1;
        let t = sf.ct(p)?;
        if sf.is_punct(p, '(') || sf.is_punct(p, '[') || sf.is_punct(p, '{') {
            depth += 1;
        } else if sf.is_punct(p, ')') || sf.is_punct(p, ']') || sf.is_punct(p, '}') {
            depth -= 1;
            if depth < 0 {
                return None;
            }
        } else if depth == 0 && sf.is_punct(p, ';') {
            return None;
        } else if depth == 0
            && t.kind == TokenKind::Ident
            && sf.is_punct(p + 1, '(')
            && !NON_CALL_KEYWORDS.contains(&sf.ctext(p))
        {
            return Some(sf.ctext(p).to_string());
        }
        p += 1;
    }
    None
}

/// True when the expression ending at the `.` at code index `from` started
/// a statement: walking back at delimiter depth 0 reaches `;`, `{`, or `}`
/// before any `let`, `=`, `return`, `,`, or an unmatched opener (which
/// would mean the value is consumed).
fn statement_position(sf: &SourceFile<'_>, from: usize, floor: usize) -> bool {
    let mut p = from;
    let mut depth = 0i64;
    let mut hops = 0usize;
    while p > floor && hops < 120 {
        p -= 1;
        hops += 1;
        if sf.is_punct(p, ')') || sf.is_punct(p, ']') {
            depth += 1;
            continue;
        }
        if sf.is_punct(p, '(') || sf.is_punct(p, '[') {
            depth -= 1;
            if depth < 0 {
                return false;
            }
            continue;
        }
        if depth > 0 {
            continue;
        }
        if sf.is_punct(p, ';') || sf.is_punct(p, '{') || sf.is_punct(p, '}') {
            return true;
        }
        if sf.is_punct(p, '=')
            || sf.is_punct(p, ',')
            || sf.is_ident(p, "let")
            || sf.is_ident(p, "return")
            || sf.is_ident(p, "match")
            || sf.is_ident(p, "if")
            || sf.is_ident(p, "while")
        {
            return false;
        }
    }
    true
}

/// When the token before the `.` at code index `dot` closes a call,
/// returns the called name (`try_io` for `try_io(…).ok()`).
fn receiver_call_name(sf: &SourceFile<'_>, dot: usize) -> Option<String> {
    if dot == 0 || !sf.is_punct(dot - 1, ')') {
        return None;
    }
    let mut p = dot - 1;
    let mut depth = 1i64;
    let mut hops = 0usize;
    while p > 0 && depth > 0 && hops < 200 {
        p -= 1;
        hops += 1;
        if sf.is_punct(p, ')') {
            depth += 1;
        } else if sf.is_punct(p, '(') {
            depth -= 1;
        }
    }
    if depth != 0 || p == 0 {
        return None;
    }
    let cand = p - 1;
    if sf.ct(cand).is_some_and(|t| t.kind == TokenKind::Ident)
        && !NON_CALL_KEYWORDS.contains(&sf.ctext(cand))
    {
        return Some(sf.ctext(cand).to_string());
    }
    None
}

/// One function's effect summary: representative definition site, local
/// (direct) effects, and the two transitive closures.
#[derive(Debug, Clone, Default)]
// lint: allow(dead-pub) — reachable through a pub field of an exported type, which R17's item-signature scan does not cover
pub struct FnEffects {
    /// Representative definition file (lexicographically first path).
    pub file: String,
    /// 1-based line of the representative definition.
    pub line: usize,
    /// True when a `// lint: hot(…)` marker targets this function.
    pub hot: bool,
    /// Effects from the function's own body.
    pub direct: BTreeSet<Effect>,
    /// Effects reachable through any call chain, any loop position.
    pub closed: BTreeSet<Effect>,
    /// Effects that recur per iteration when the function runs: direct
    /// loop-position sites, full closures of loop-position callees, and
    /// the loop closures of straight-line callees.
    pub loop_closed: BTreeSet<Effect>,
    /// One representative origin per closed effect, propagated from the
    /// first contributor in deterministic key order.
    pub witness: BTreeMap<Effect, String>,
}

/// The effect lattice closed over the call graph, keyed like the R16 lock
/// analysis by `(crate package name, function name)` — same-name functions
/// within a crate merge conservatively.
#[derive(Debug, Clone, Default)]
pub struct EffectTable {
    /// Per-function summaries in deterministic key order.
    pub fns: BTreeMap<FnKey, FnEffects>,
}

/// Resolves each `// lint: hot(…)` marker in `file` to the function whose
/// head is the first at or below the marker's target line. `None` entries
/// are dangling markers (reported as R0 by [`check_effects`]).
fn hot_targets(file: &FileModel) -> Vec<(Option<&FnSummary>, &crate::engine::HotMark)> {
    file.hots
        .iter()
        .map(|mark| {
            let target = file
                .fns
                .iter()
                .filter(|s| s.line >= mark.target_line)
                .min_by_key(|s| s.line);
            (target, mark)
        })
        .collect()
}

/// Builds the closed effect table for the whole workspace: direct effects
/// per `(crate, fn)` key, then the `closed` fixpoint over all calls, then
/// the `loop_closed` fixpoint that distinguishes loop-position callees.
pub fn build_effect_table(ws: &WorkspaceModel) -> EffectTable {
    let idx = build_index(ws);
    let empty = BTreeSet::new();

    // Hot keys from marker targets.
    let mut hot_keys: BTreeSet<FnKey> = BTreeSet::new();
    for f in &ws.files {
        if f.crate_name.is_empty() {
            continue;
        }
        for (target, _) in hot_targets(f) {
            if let Some(s) = target {
                if !s.in_test {
                    hot_keys.insert((f.crate_name.clone(), s.name.clone()));
                }
            }
        }
    }

    // Direct effects, witnesses, and loop-position seeds.
    let mut table = EffectTable::default();
    let mut closed: BTreeMap<FnKey, BTreeSet<Effect>> = BTreeMap::new();
    let mut loop_closed: BTreeMap<FnKey, BTreeSet<Effect>> = BTreeMap::new();
    let mut witness: BTreeMap<FnKey, BTreeMap<Effect, String>> = BTreeMap::new();
    for (key, sums) in &idx.fns {
        let mut fe = FnEffects { hot: hot_keys.contains(key), ..FnEffects::default() };
        if let Some((path, s)) = sums.first() {
            fe.file = path.to_string();
            fe.line = s.line;
        }
        let mut loop_direct = BTreeSet::new();
        let mut wit = BTreeMap::new();
        for (path, s) in sums {
            for site in &s.effects {
                fe.direct.insert(site.effect);
                wit.entry(site.effect)
                    .or_insert_with(|| format!("`{}` at {}:{}", site.what, path, site.line));
                if site.in_loop {
                    loop_direct.insert(site.effect);
                }
            }
        }
        closed.insert(key.clone(), fe.direct.clone());
        loop_closed.insert(key.clone(), loop_direct);
        witness.insert(key.clone(), wit);
        table.fns.insert(key.clone(), fe);
    }

    // Fixpoint 1: closed(f) = direct(f) ∪ ⋃ closed(callee).
    loop {
        let mut changed = false;
        for (key, sums) in &idx.fns {
            let visible = idx.reachable.get(key.0.as_str()).unwrap_or(&empty);
            let mut add: Vec<(Effect, String)> = Vec::new();
            for (_, s) in sums {
                for call in &s.calls {
                    if UBIQUITOUS.contains(&call.as_str()) {
                        continue;
                    }
                    for target in visible {
                        let ckey = (target.to_string(), call.clone());
                        if let Some(ce) = closed.get(&ckey) {
                            for &e in ce {
                                let w = witness
                                    .get(&ckey)
                                    .and_then(|m| m.get(&e))
                                    .cloned()
                                    .unwrap_or_else(|| format!("via `{target}::{call}`"));
                                add.push((e, w));
                            }
                        }
                    }
                }
            }
            let own = closed.entry(key.clone()).or_default();
            let own_wit = witness.entry(key.clone()).or_default();
            for (e, w) in add {
                if own.insert(e) {
                    changed = true;
                    own_wit.entry(e).or_insert(w);
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Fixpoint 2: loop_closed(f) = direct loop sites ∪ closed(in-loop
    // callees) ∪ loop_closed(straight-line callees).
    loop {
        let mut changed = false;
        for (key, sums) in &idx.fns {
            let visible = idx.reachable.get(key.0.as_str()).unwrap_or(&empty);
            let mut add: Vec<Effect> = Vec::new();
            for (_, s) in sums {
                for c in &s.call_sites {
                    if UBIQUITOUS.contains(&c.name.as_str()) {
                        continue;
                    }
                    for target in visible {
                        let ckey = (target.to_string(), c.name.clone());
                        let src = if c.in_loop { &closed } else { &loop_closed };
                        if let Some(ce) = src.get(&ckey) {
                            add.extend(ce.iter().copied());
                        }
                    }
                }
            }
            let own = loop_closed.entry(key.clone()).or_default();
            for e in add {
                changed |= own.insert(e);
            }
        }
        if !changed {
            break;
        }
    }

    for (key, fe) in &mut table.fns {
        if let Some(c) = closed.remove(key) {
            fe.closed = c;
        }
        if let Some(l) = loop_closed.remove(key) {
            fe.loop_closed = l;
        }
        if let Some(w) = witness.remove(key) {
            fe.witness = w;
        }
    }
    table
}

/// Renders a closed effect set as a JSON array of labels.
fn effect_set_json(set: &BTreeSet<Effect>) -> String {
    let labels: Vec<String> = set.iter().map(|e| format!("\"{}\"", e.name())).collect();
    labels.join(", ")
}

/// Renders the effect table as schema-versioned JSON — the
/// `--effects-out results/lint_effects.json` artifact, byte-identical for
/// any file-discovery order because every map is a BTree keyed by
/// `(crate, fn)`.
pub(crate) fn effect_table_to_json(table: &EffectTable) -> String {
    let mut out = String::from("{\n  \"schema_version\": 1,\n  \"functions\": [");
    let mut first = true;
    for ((krate, name), fe) in &table.fns {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "\n    {{\"crate\": \"{}\", \"fn\": \"{}\", \"file\": \"{}\", \"line\": {}, \
             \"hot\": {}, \"direct\": [{}], \"closed\": [{}], \"loop_closed\": [{}]}}",
            json_escape(krate),
            json_escape(name),
            json_escape(&fe.file),
            fe.line,
            fe.hot,
            effect_set_json(&fe.direct),
            effect_set_json(&fe.closed),
            effect_set_json(&fe.loop_closed),
        ));
    }
    out.push_str(if table.fns.is_empty() { "]\n}\n" } else { "\n  ]\n}\n" });
    out
}

/// All `(crate, fn)` keys reachable from any function named in `entries`,
/// over the same dependency-restricted call graph as the effect closure
/// but with **no** ubiquitous-name filtering — deliberately conservative
/// in the more-reachable direction, so the hot-list sync test never
/// under-approximates what the runtime counting-allocator suites drive.
pub fn reachable_from(ws: &WorkspaceModel, entries: &[&str]) -> BTreeSet<FnKey> {
    let idx = build_index(ws);
    let empty = BTreeSet::new();
    let mut seen: BTreeSet<FnKey> = BTreeSet::new();
    let mut stack: Vec<FnKey> = idx
        .fns
        .keys()
        .filter(|k| entries.contains(&k.1.as_str()))
        .cloned()
        .collect();
    while let Some(key) = stack.pop() {
        if !seen.insert(key.clone()) {
            continue;
        }
        let Some(sums) = idx.fns.get(&key) else { continue };
        let visible = idx.reachable.get(key.0.as_str()).unwrap_or(&empty);
        for (_, s) in sums {
            for call in &s.calls {
                for target in visible {
                    let ckey = (target.to_string(), call.clone());
                    if idx.fns.contains_key(&ckey) && !seen.contains(&ckey) {
                        stack.push(ckey);
                    }
                }
            }
        }
    }
    seen
}

/// True when a normalized item signature declares a `Result` return type
/// (`io::Result`, `EvalResult` aliases included — substring after `->`).
fn returns_result(signature: &str) -> bool {
    signature.find("->").is_some_and(|p| signature[p..].contains("Result"))
}

/// Counts alphanumeric characters — the same justification bar the allow
/// hatches use (≥ 8 means a real reason was written).
fn alnum_len(text: &str) -> usize {
    text.chars().filter(|c| c.is_alphanumeric()).count()
}

/// Runs R18/R19/R20 (plus R0 for malformed hot markers) against the
/// closed effect table. Every diagnostic goes through the shared
/// [`push_allowed`] path, so `// lint: allow(<rule>) — <why>` hatches
/// apply uniformly.
pub(crate) fn check_effects(ws: &WorkspaceModel, table: &EffectTable) -> Vec<Diagnostic> {
    let idx = build_index(ws);
    let empty = BTreeSet::new();
    let mut diags = Vec::new();

    // Workspace functions whose signature returns a Result (for R19).
    let mut result_fns: BTreeSet<FnKey> = BTreeSet::new();
    for f in &ws.files {
        if f.crate_name.is_empty() {
            continue;
        }
        for i in &f.items {
            if i.kind == ItemKind::Fn && !i.in_test && returns_result(&i.signature) {
                result_fns.insert((f.crate_name.clone(), i.name.clone()));
            }
        }
    }

    for f in &ws.files {
        if f.crate_name.is_empty() {
            continue;
        }
        let visible = idx.reachable.get(f.crate_name.as_str()).unwrap_or(&empty);

        // R18 (+ R0 for malformed markers): hot functions must not reach
        // an allocating effect from loop position.
        for (target, mark) in hot_targets(f) {
            let Some(s) = target else {
                diags.push(Diagnostic::new(
                    Path::new(&f.path),
                    mark.marker_line,
                    Rule::BadAnnotation,
                    "dangling `lint: hot(…)` marker: no function definition follows it"
                        .to_string(),
                ));
                continue;
            };
            if alnum_len(&mark.why) < 8 {
                diags.push(Diagnostic::new(
                    Path::new(&f.path),
                    mark.marker_line,
                    Rule::BadAnnotation,
                    "hot-path marker `lint: hot(<why>)` requires a written reason why the \
                     path is latency-critical"
                        .to_string(),
                ));
            }
            if s.in_test {
                continue;
            }
            for site in &s.effects {
                if site.effect == Effect::Alloc && site.in_loop {
                    push_allowed(
                        &mut diags,
                        &f.allows,
                        Rule::HotPathAlloc,
                        &f.path,
                        site.line,
                        format!(
                            "hot path `{}` allocates in loop position via `{}`; hoist the \
                             allocation out of the loop or justify the site",
                            s.name, site.what
                        ),
                    );
                }
            }
            for c in &s.call_sites {
                if UBIQUITOUS.contains(&c.name.as_str()) {
                    continue;
                }
                for target_crate in visible {
                    let ckey = (target_crate.to_string(), c.name.clone());
                    let Some(fe) = table.fns.get(&ckey) else { continue };
                    let wit = fe
                        .witness
                        .get(&Effect::Alloc)
                        .cloned()
                        .unwrap_or_else(|| format!("via `{}`", c.name));
                    if c.in_loop && fe.closed.contains(&Effect::Alloc) {
                        push_allowed(
                            &mut diags,
                            &f.allows,
                            Rule::HotPathAlloc,
                            &f.path,
                            c.line,
                            format!(
                                "hot path `{}` calls `{}` in loop position, which can \
                                 allocate ({wit}); make the callee allocation-free or \
                                 justify the site",
                                s.name, c.name
                            ),
                        );
                        break;
                    }
                    if !c.in_loop && fe.loop_closed.contains(&Effect::Alloc) {
                        push_allowed(
                            &mut diags,
                            &f.allows,
                            Rule::HotPathAlloc,
                            &f.path,
                            c.line,
                            format!(
                                "hot path `{}` calls `{}`, whose own loops allocate per \
                                 iteration ({wit}); make the callee allocation-free or \
                                 justify the site",
                                s.name, c.name
                            ),
                        );
                        break;
                    }
                }
            }
        }

        // R19: discarded Results in library code.
        if f.class.is_library {
            for s in &f.fns {
                if s.in_test {
                    continue;
                }
                for d in &s.discards {
                    let (fires, message) = match d.kind {
                        DiscardKind::StatementOk => (
                            true,
                            format!(
                                "statement-position `.ok()` discards the `Result` of \
                                 `{}`; handle or propagate the error, or justify the \
                                 discard",
                                if d.call.is_empty() { "this call" } else { &d.call }
                            ),
                        ),
                        DiscardKind::LetUnderscore => (
                            visible.iter().any(|t| {
                                result_fns.contains(&(t.to_string(), d.call.clone()))
                            }),
                            format!(
                                "`let _ =` discards the `Result` returned by `{}`; \
                                 handle or propagate the error, or justify the discard",
                                d.call
                            ),
                        ),
                        DiscardKind::UnwrapOrDefault => (
                            visible.iter().any(|t| {
                                result_fns.contains(&(t.to_string(), d.call.clone()))
                            }),
                            format!(
                                "`unwrap_or_default()` on the `Result` returned by `{}` \
                                 silently maps errors to a default; handle the error or \
                                 justify the fallback",
                                d.call
                            ),
                        ),
                    };
                    if fires {
                        push_allowed(
                            &mut diags,
                            &f.allows,
                            Rule::SwallowedResult,
                            &f.path,
                            d.line,
                            message,
                        );
                    }
                }
            }
        }

        // R20: a held lock region spanning a call whose closed summary
        // allocates or does file IO. Same scope as R16: non-test code
        // (a stretched critical section in a test harness hurts nobody).
        if f.class.is_test_like {
            continue;
        }
        for s in &f.fns {
            if s.in_test {
                continue;
            }
            for a in &s.acquires {
                for (call, line) in &a.held_calls {
                    if UBIQUITOUS.contains(&call.as_str()) {
                        continue;
                    }
                    for target_crate in visible {
                        let ckey = (target_crate.to_string(), call.clone());
                        let Some(fe) = table.fns.get(&ckey) else { continue };
                        let heavy_alloc = fe.closed.contains(&Effect::Alloc);
                        let heavy_io = fe.closed.contains(&Effect::Io);
                        if !heavy_alloc && !heavy_io {
                            continue;
                        }
                        let what = match (heavy_alloc, heavy_io) {
                            (true, true) => "allocates and does file IO",
                            (true, false) => "can allocate",
                            _ => "does file IO",
                        };
                        let wit = fe
                            .witness
                            .get(if heavy_alloc { &Effect::Alloc } else { &Effect::Io })
                            .cloned()
                            .unwrap_or_else(|| format!("via `{call}`"));
                        push_allowed(
                            &mut diags,
                            &f.allows,
                            Rule::LockWhileHeavy,
                            &f.path,
                            *line,
                            format!(
                                "lock `{}.{}` (taken at line {}) is held across a call \
                                 to `{call}`, which {what} ({wit}); move the heavy work \
                                 outside the critical section or justify the hold",
                                f.crate_name, a.target, a.line
                            ),
                        );
                        break;
                    }
                }
            }
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SourceEntry;

    fn site_of(src: &str, ident: &str) -> Option<(Effect, String)> {
        let sf = SourceFile::parse(src);
        let k = (0..sf.code.len()).find(|&k| sf.is_ident(k, ident))?;
        local_effect_at(&sf, k)
    }

    #[test]
    fn local_effect_markers_cover_the_lattice() {
        assert_eq!(site_of("let v = vec![1];", "vec"), Some((Effect::Alloc, "vec!".into())));
        assert_eq!(
            site_of("let s = format!(\"x\");", "format"),
            Some((Effect::Alloc, "format!".into()))
        );
        assert_eq!(
            site_of("let v = Vec::with_capacity(4);", "with_capacity"),
            Some((Effect::Alloc, "Vec::with_capacity".into()))
        );
        assert_eq!(site_of("let b = Box::new(1);", "new"), Some((Effect::Alloc, "Box::new".into())));
        assert_eq!(site_of("let c = x.clone();", "clone"), Some((Effect::Alloc, ".clone()".into())));
        assert_eq!(site_of("let u = x.unwrap();", "unwrap"), Some((Effect::Panic, ".unwrap()".into())));
        assert_eq!(site_of("assert_eq!(a, b);", "assert_eq"), Some((Effect::Panic, "assert_eq!".into())));
        assert_eq!(site_of("let t = Instant::now();", "now"), Some((Effect::Clock, "Instant::now".into())));
        assert_eq!(
            site_of("let s = fs::read_to_string(p);", "read_to_string"),
            Some((Effect::Io, "fs::read_to_string".into()))
        );
        // Scratch-reuse methods are deliberately not markers.
        assert_eq!(site_of("out.reserve(n);", "reserve"), None);
        assert_eq!(site_of("scratch.clear();", "clear"), None);
        // `Vec::new` in type position (no call parens) is not a site.
        assert_eq!(site_of("let v: Vec<f64> = Vec::new();", "new"), Some((Effect::Alloc, "Vec::new".into())));
    }

    fn discards_of(src: &str) -> Vec<DiscardSite> {
        let full = format!("fn f() {{ {src} }}");
        let sf = SourceFile::parse(&full);
        let open = (0..sf.code.len())
            .find(|&k| sf.is_punct(k, '{'))
            .unwrap_or(0);
        let close = sf.matching_close(open).unwrap_or(sf.code.len());
        let mut out = Vec::new();
        for q in open + 1..close {
            if let Some(d) = discard_at(&sf, q, open) {
                out.push(d);
            }
        }
        out
    }

    #[test]
    fn discard_shapes_are_detected_with_their_calls() {
        let d = discards_of("let _ = try_io();");
        assert_eq!(d.len(), 1);
        assert_eq!((d[0].call.as_str(), d[0].kind), ("try_io", DiscardKind::LetUnderscore));

        let d = discards_of("try_io().ok();");
        assert_eq!(d.len(), 1);
        assert_eq!((d[0].call.as_str(), d[0].kind), ("try_io", DiscardKind::StatementOk));

        let d = discards_of("let n = count().unwrap_or_default();");
        assert_eq!(d.len(), 1);
        assert_eq!((d[0].call.as_str(), d[0].kind), ("count", DiscardKind::UnwrapOrDefault));

        // A used `.ok()` (bound, returned, or an argument) is not a discard.
        assert!(discards_of("let v = try_io().ok();").is_empty());
        assert!(discards_of("take(try_io().ok());").is_empty());
        assert!(discards_of("return try_io().ok();").is_empty());
    }

    fn demo_ws(lib: &str) -> WorkspaceModel {
        WorkspaceModel::build(&[
            SourceEntry::new("crates/demo/Cargo.toml", "[package]\nname = \"easytime-demo\"\n"),
            SourceEntry::new("crates/demo/src/lib.rs", lib.to_string()),
        ])
    }

    #[test]
    fn closure_propagates_transitive_allocation() {
        let ws = demo_ws(
            "pub fn leaf() -> Vec<f64> { let v = Vec::new(); v }\n\
             pub fn caller() { leaf(); }\n\
             pub fn clean(x: f64) -> f64 { x }\n",
        );
        let t = build_effect_table(&ws);
        let caller = &t.fns[&("easytime-demo".into(), "caller".into())];
        assert!(caller.direct.is_empty());
        assert!(caller.closed.contains(&Effect::Alloc));
        let clean = &t.fns[&("easytime-demo".into(), "clean".into())];
        assert!(clean.closed.is_empty());
    }

    #[test]
    fn loop_closure_distinguishes_setup_from_per_iteration_work() {
        let ws = demo_ws(
            "pub fn setup_only(n: usize) {\n\
             \x20   let v = Vec::with_capacity(n);\n\
             \x20   for x in &v { touch(x); }\n\
             }\n\
             pub fn loopy(n: usize) {\n\
             \x20   for i in 0..n { let s = format!(\"{i}\"); touch(&s); }\n\
             }\n",
        );
        let t = build_effect_table(&ws);
        let setup = &t.fns[&("easytime-demo".into(), "setup_only".into())];
        assert!(setup.direct.contains(&Effect::Alloc));
        assert!(!setup.loop_closed.contains(&Effect::Alloc), "setup alloc is not per-iteration");
        let loopy = &t.fns[&("easytime-demo".into(), "loopy".into())];
        assert!(loopy.loop_closed.contains(&Effect::Alloc));
    }

    #[test]
    fn call_graph_cycles_converge() {
        let ws = demo_ws(
            "pub fn ping(n: u32) { if n > 0 { pong(n - 1); } }\n\
             pub fn pong(n: u32) { let s = format!(\"{n}\"); touch(&s); if n > 0 { ping(n - 1); } }\n",
        );
        let t = build_effect_table(&ws);
        assert!(t.fns[&("easytime-demo".into(), "ping".into())].closed.contains(&Effect::Alloc));
        assert!(t.fns[&("easytime-demo".into(), "pong".into())].closed.contains(&Effect::Alloc));
    }

    #[test]
    fn hot_fn_calling_allocating_callee_in_loop_is_r18() {
        let ws = demo_ws(
            "pub fn build_row() -> Vec<f64> { let v = Vec::new(); v }\n\
             // lint: hot(steady-state scoring loop for the demo)\n\
             pub fn hot_loop(n: usize) {\n\
             \x20   for _i in 0..n { build_row(); }\n\
             }\n",
        );
        let t = build_effect_table(&ws);
        assert!(t.fns[&("easytime-demo".into(), "hot_loop".into())].hot);
        let diags = check_effects(&ws, &t);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, Rule::HotPathAlloc);
        assert!(diags[0].message.contains("build_row"));

        // The `;` of an array return type does not hide the callee's body,
        // and a `std::` path never resolves to the workspace's `from_fn`.
        let ws = demo_ws(
            "pub fn sums(xs: &[f64]) -> [f64; 2] { let v = xs.to_vec(); [v[0], v[1]] }\n\
             pub fn from_fn(n: usize) -> Vec<f64> { Vec::with_capacity(n) }\n\
             // lint: hot(steady-state scoring loop for the demo)\n\
             pub fn hot_loop(xs: &[f64]) {\n\
             \x20   for _i in 0..4 { sums(xs); }\n\
             \x20   for _i in 0..4 { let _a: [f64; 3] = std::array::from_fn(|i| xs[i]); }\n\
             }\n",
        );
        let diags = check_effects(&ws, &build_effect_table(&ws));
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, Rule::HotPathAlloc);
        assert!(diags[0].message.contains("sums"));
    }

    #[test]
    fn hot_setup_outside_loops_is_exempt_and_hatches_waive() {
        let clean = demo_ws(
            "// lint: hot(kernel inner product on the serving path)\n\
             pub fn dot(a: &[f64], b: &[f64]) -> f64 {\n\
             \x20   let mut acc = 0.0;\n\
             \x20   for i in 0..a.len() { acc += a[i] * b[i]; }\n\
             \x20   acc\n\
             }\n",
        );
        let t = build_effect_table(&clean);
        assert!(check_effects(&clean, &t).is_empty());

        let hatched = demo_ws(
            "// lint: hot(steady-state scoring loop for the demo)\n\
             pub fn hot_loop(n: usize) {\n\
             \x20   for i in 0..n {\n\
             \x20       // lint: allow(hot-path-alloc) — cold diagnostic branch, taken at most once per run\n\
             \x20       let s = format!(\"{i}\");\n\
             \x20       touch(&s);\n\
             \x20   }\n\
             }\n",
        );
        let t = build_effect_table(&hatched);
        assert!(check_effects(&hatched, &t).is_empty());
    }

    #[test]
    fn bare_hot_marker_and_dangling_marker_are_r0() {
        let ws = demo_ws("// lint: hot(x)\npub fn f() {}\n// lint: hot(left at end of file)\n");
        let t = build_effect_table(&ws);
        let diags = check_effects(&ws, &t);
        assert_eq!(diags.len(), 2);
        assert!(diags.iter().all(|d| d.rule == Rule::BadAnnotation));
        assert!(diags.iter().any(|d| d.message.contains("written reason")));
        assert!(diags.iter().any(|d| d.message.contains("dangling")));
    }

    #[test]
    fn swallowed_results_resolve_through_the_signature_table() {
        let ws = demo_ws(
            "pub fn try_io() -> Result<(), String> { Err(\"x\".to_string()) }\n\
             pub fn ignores() { let _ = try_io(); }\n\
             pub fn statement_ok() { try_io().ok(); }\n\
             pub fn defaults() -> usize { count().unwrap_or_default() }\n\
             pub fn count() -> Result<usize, String> { Ok(1) }\n\
             pub fn fine() { let _ = not_a_result(); }\n\
             pub fn not_a_result() -> usize { 1 }\n",
        );
        let t = build_effect_table(&ws);
        let diags: Vec<_> = check_effects(&ws, &t)
            .into_iter()
            .filter(|d| d.rule == Rule::SwallowedResult)
            .collect();
        assert_eq!(diags.len(), 3, "{diags:?}");
    }

    #[test]
    fn lock_held_over_allocating_call_is_r20() {
        let ws = demo_ws(
            "pub fn heavy() -> String { let s = format!(\"x\"); s }\n\
             pub fn locked(&self) {\n\
             \x20   let g = self.state.lock();\n\
             \x20   apply(heavy());\n\
             }\n",
        );
        let t = build_effect_table(&ws);
        let diags: Vec<_> = check_effects(&ws, &t)
            .into_iter()
            .filter(|d| d.rule == Rule::LockWhileHeavy)
            .collect();
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("easytime-demo.state"));
        assert!(diags[0].message.contains("heavy"));
    }

    #[test]
    fn reachability_for_the_sync_test_ignores_the_skip_list() {
        let ws = demo_ws(
            "pub fn entry() { helper(); }\n\
             pub fn helper() { get(); }\n\
             pub fn get() -> usize { 1 }\n\
             pub fn unrelated() {}\n",
        );
        let reach = reachable_from(&ws, &["entry"]);
        assert!(reach.contains(&("easytime-demo".into(), "helper".into())));
        assert!(reach.contains(&("easytime-demo".into(), "get".into())), "no UBIQUITOUS filter");
        assert!(!reach.contains(&("easytime-demo".into(), "unrelated".into())));
    }
}
