//! Token-level static analysis for the EasyTime workspace.
//!
//! `easytime-lint` lexes every workspace source into a real Rust token
//! stream ([`lexer`]), segments it into items ([`engine`]), and runs the
//! workspace invariant rules ([`rules`]) over it — no rustc plugin, no
//! external dependencies. Because rules see tokens rather than raw lines,
//! patterns inside string literals and comments can never false-positive,
//! and `#[cfg(test)]` exemption follows real item boundaries.
//!
//! The linter keeps only the rules no compiler lint covers. The retired
//! codes R1 (panics), R3 (lossy casts), R5 (process exit), R7 (float
//! equality), R9 (missing docs), and R11 (print macros) are enforced by
//! rustc and clippy through `[workspace.lints]` and the
//! `cargo clippy --workspace --lib -- -D warnings` gate in `scripts/ci.sh`.
//!
//! The token rules:
//!
//! * **R2 dependency allowlist** — every `Cargo.toml` dependency must be a
//!   workspace crate; the build stays hermetic.
//! * **R4 typed errors** — `pub fn` returning `Result` uses the crate's
//!   typed error, not `Box<dyn Error>`.
//! * **R6 NaN-safe ordering** — no `partial_cmp(..).unwrap()` /
//!   `.unwrap_or(Ordering::Equal)` comparators anywhere (tests included);
//!   float comparators must use `f64::total_cmp` so rankings stay
//!   deterministic under NaN.
//! * **R8 determinism** — no iteration over `HashMap`/`HashSet` in
//!   library code (order is nondeterministic; reports and SQL results must
//!   not depend on it), and no direct `Instant::now` / `SystemTime` reads
//!   outside the `easytime-clock` helper.
//! * **R12 policy wildcard** — a `match` over a refit policy
//!   (scrutinee mentions `refit` / `refit_policy` / `RefitPolicy`) must
//!   not contain a top-level `_` arm: adding a `RefitPolicy` variant has
//!   to be a compile error at every dispatch site, not a silent
//!   fall-through into the wrong evaluation protocol.
//! * **R13 materialized transpose** — no `.transpose()` immediately feeding
//!   `.matmul(..)` / `.matvec(..)` in library code: the chain allocates and
//!   fills the transposed matrix only to stream through it once. Use the
//!   fused `Matrix::tr_matmul` / `Matrix::tr_matvec` kernels instead.
//!
//! The **semantic rules** (R14–R17) run over the cross-file workspace
//! [`model`] built in a second phase:
//!
//! * **R14 api-snapshot** — every crate's full `pub` surface is serialized
//!   to the committed `scripts/api-baseline.txt`; additions, removals, or
//!   signature changes not reflected there fail CI, so API breaks become
//!   explicit diffs in review. Regenerate deliberately with
//!   `--write-api-baseline`.
//! * **R15 crate-layering** — the declared layer policy (`rng`/`clock` at
//!   the bottom, the `easytime` facade at the top, `lint`/`bench` leaf-only)
//!   is enforced against the real Cargo dependency graph *and* against
//!   `easytime_*::` path tokens in library code, catching both manifest
//!   drift and path-qualified back-doors.
//! * **R16 lock-discipline** — lock-acquisition summaries are transitively
//!   closed over the call graph; any cycle between two lock identities and
//!   any lock held across a call that can reacquire the same lock is an
//!   error (the deadlock shapes a serving engine must never ship).
//! * **R17 dead-pub** — a `pub` item in a non-facade crate with zero
//!   cross-crate uses is an error: demote it to `pub(crate)`, delete it,
//!   or annotate with `// lint: allow(dead-pub) — <why>`.
//!
//! The **effect rules** (R18–R20) run over per-function control-flow
//! sketches ([`cfg`]) and the interprocedural effect table ([`effects`])
//! in a third phase:
//!
//! * **R18 hot-path-alloc** — functions annotated `// lint: hot(<why>)`
//!   must not reach an allocating effect from loop position; one-time
//!   setup outside loops is exempt, and the hot list is bound to the
//!   runtime counting-allocator suites by a sync test.
//! * **R19 swallowed-result** — no discarded `Result` in library code:
//!   `let _ = call(…)`, whole-statement `….ok();`, and
//!   `call(…).unwrap_or_default()` on a `Result`-returning workspace call.
//! * **R20 lock-while-heavy** — no lock held across a call whose closed
//!   effect summary allocates or does file IO.
//!
//! Any rule can be waived for one statement with an escape-hatch comment
//! carrying a mandatory justification:
//!
//! ```text
//! // lint: allow(float-ordering) — SQL semantics: NaN comparisons yield NULL
//! ```
//!
//! A bare marker is itself a violation (R0). Diagnostics print as
//! `file:line: R# message`; `--format json` emits machine-readable records
//! (R10).

use std::fmt;
use std::path::{Path, PathBuf};

pub mod api;
pub mod cfg;
pub mod effects;
pub mod engine;
pub mod lexer;
pub mod locks;
pub mod model;
pub mod resolve;
pub mod rules;

/// Which invariant a diagnostic belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// R2: dependencies restricted to workspace crates.
    DepAllowlist,
    /// R4: public `Result` APIs use typed errors.
    TypedError,
    /// R6: no NaN-unsafe `partial_cmp` comparators; use `total_cmp`.
    FloatOrdering,
    /// R8: no unordered hash-container iteration in library code.
    HashOrder,
    /// R8: wall-clock reads only inside the `easytime-clock` helper.
    WallClock,
    /// R12: no `_` arm in `match`es over a refit policy.
    PolicyWildcard,
    /// R13: no materialized `.transpose()` feeding `.matmul`/`.matvec`.
    MaterializedTranspose,
    /// R14: the committed API baseline matches the live `pub` surface.
    ApiSnapshot,
    /// R15: crate dependencies respect the declared layer policy.
    CrateLayering,
    /// R16: no lock-order cycles or same-lock reacquisition while held.
    LockDiscipline,
    /// R17: no `pub` items without any cross-crate user.
    DeadPub,
    /// R18: hot-path functions reach no allocation from loop position.
    HotPathAlloc,
    /// R19: no discarded `Result` in library code.
    SwallowedResult,
    /// R20: no lock held across an allocating or IO-doing call.
    LockWhileHeavy,
    /// A malformed escape-hatch annotation.
    BadAnnotation,
}

impl Rule {
    /// Short rule code used in diagnostics (`R2`…`R20`; `R0` for malformed
    /// annotations). `HashOrder` and `WallClock` are both facets of R8.
    pub fn code(self) -> &'static str {
        match self {
            Rule::DepAllowlist => "R2",
            Rule::TypedError => "R4",
            Rule::FloatOrdering => "R6",
            Rule::HashOrder | Rule::WallClock => "R8",
            Rule::PolicyWildcard => "R12",
            Rule::MaterializedTranspose => "R13",
            Rule::ApiSnapshot => "R14",
            Rule::CrateLayering => "R15",
            Rule::LockDiscipline => "R16",
            Rule::DeadPub => "R17",
            Rule::HotPathAlloc => "R18",
            Rule::SwallowedResult => "R19",
            Rule::LockWhileHeavy => "R20",
            Rule::BadAnnotation => "R0",
        }
    }

    /// The name accepted by `// lint: allow(<name>)` for this rule.
    pub(crate) fn allow_name(self) -> &'static str {
        match self {
            Rule::DepAllowlist => "dependency",
            Rule::TypedError => "boxed-error",
            Rule::FloatOrdering => "float-ordering",
            Rule::HashOrder => "hash-order",
            Rule::WallClock => "wall-clock",
            Rule::PolicyWildcard => "policy-wildcard",
            Rule::MaterializedTranspose => "materialized-transpose",
            Rule::ApiSnapshot => "api-snapshot",
            Rule::CrateLayering => "crate-layering",
            Rule::LockDiscipline => "lock-discipline",
            Rule::DeadPub => "dead-pub",
            Rule::HotPathAlloc => "hot-path-alloc",
            Rule::SwallowedResult => "swallowed-result",
            Rule::LockWhileHeavy => "lock-while-heavy",
            Rule::BadAnnotation => "",
        }
    }
}

/// One row of the shared rule-documentation table: the single source both
/// `--explain <RULE>` and the README rule table are generated from, so the
/// binary and the docs cannot drift (a generator-check test asserts the
/// README contains exactly these rows).
#[derive(Debug, Clone, Copy)]
pub struct RuleDoc {
    /// Rule code (`R2` … `R20`).
    pub code: &'static str,
    /// Escape-hatch name accepted by `// lint: allow(<name>)`.
    pub allow: &'static str,
    /// One-line summary of what the rule enforces (README cell).
    pub enforces: &'static str,
    /// Why the rule exists (printed by `--explain`).
    pub rationale: &'static str,
    /// Where the rule applies (printed by `--explain`).
    pub scope: &'static str,
}

/// The rule-documentation table, ordered by rule number. R8 appears once
/// with both of its hatch names; R10 is the reporting layer itself and has
/// no row (it cannot be violated), nor do the compiler-enforced codes R1,
/// R3, R5, R7, R9, and R11.
pub const RULE_DOCS: &[RuleDoc] = &[
    RuleDoc {
        code: "R2",
        allow: "dependency",
        enforces: "every Cargo.toml dependency is a workspace crate",
        rationale: "the build stays hermetic and std-only: no supply-chain drift, no version \
                    skew, reproducible from a clean checkout with no network",
        scope: "all dependency sections of every manifest, including [workspace.dependencies]",
    },
    RuleDoc {
        code: "R4",
        allow: "boxed-error",
        enforces: "pub fns returning Result use the crate's typed error, not Box<dyn Error>",
        rationale: "typed errors keep failure modes enumerable at crate boundaries so callers \
                    can match instead of string-inspecting",
        scope: "public functions in library code",
    },
    RuleDoc {
        code: "R6",
        allow: "float-ordering",
        enforces: "no NaN-unsafe partial_cmp(..).unwrap()-style comparators; use total_cmp",
        rationale: "one NaN in a ranking either panics or silently reorders results; \
                    f64::total_cmp keeps leaderboards deterministic",
        scope: "everywhere, tests included",
    },
    RuleDoc {
        code: "R8",
        allow: "hash-order / wall-clock",
        enforces: "no HashMap/HashSet iteration in library code; no direct wall-clock reads \
                   outside easytime-clock",
        rationale: "hash order and wall time are the two ambient nondeterminism sources; both \
                    must flow through deterministic choke points (BTree iteration, the Clock)",
        scope: "library code (easytime-clock itself is exempt from the clock facet)",
    },
    RuleDoc {
        code: "R12",
        allow: "policy-wildcard",
        enforces: "no `_` arm in a match over a refit policy",
        rationale: "adding a RefitPolicy variant must be a compile error at every dispatch \
                    site, not a silent fall-through into the wrong evaluation protocol",
        scope: "matches whose scrutinee mentions refit / refit_policy / RefitPolicy",
    },
    RuleDoc {
        code: "R13",
        allow: "materialized-transpose",
        enforces: "no .transpose() immediately feeding .matmul(..)/.matvec(..)",
        rationale: "the chain allocates and fills a transposed matrix only to stream through it \
                    once; the fused tr_matmul/tr_matvec kernels skip the copy",
        scope: "library code",
    },
    RuleDoc {
        code: "R14",
        allow: "api-snapshot",
        enforces: "the committed scripts/api-baseline.txt matches the live pub surface",
        rationale: "API additions, removals, and signature changes become explicit diffs in \
                    review instead of silent drift; regenerate deliberately with \
                    --write-api-baseline",
        scope: "pub items in library code of every workspace crate",
    },
    RuleDoc {
        code: "R15",
        allow: "crate-layering",
        enforces: "crate dependencies respect the declared layer policy (rng/clock at the \
                   bottom, the easytime facade at the top, lint/bench leaf-only)",
        rationale: "layering is what keeps the dependency graph acyclic and the low layers \
                    reusable; both Cargo.toml edges and easytime_*:: path tokens are checked \
                    so manifest drift and path-qualified back-doors are caught alike",
        scope: "normal dependencies of every workspace crate plus library-code path tokens \
                (dev-dependencies are exempt: cargo permits dev cycles)",
    },
    RuleDoc {
        code: "R16",
        allow: "lock-discipline",
        enforces: "no cycles in the lock-order graph and no lock held across a call that can \
                   reacquire the same lock",
        rationale: "these are the two deadlock shapes a multi-tenant serving engine must never \
                    ship; the rule closes lock-acquisition summaries transitively over the \
                    call graph so the hold can be any number of calls away",
        scope: "non-test functions, with call resolution restricted to each crate's \
                transitive dependencies",
    },
    RuleDoc {
        code: "R17",
        allow: "dead-pub",
        enforces: "no pub item in a non-facade crate with zero cross-crate users",
        rationale: "an export nobody imports is surface area without a contract: demote it to \
                    pub(crate), delete it, or justify why it is deliberately speculative",
        scope: "pub items in library code of every crate except the easytime facade; uses in \
                the crate's own bins/tests/benches count",
    },
    RuleDoc {
        code: "R18",
        allow: "hot-path-alloc",
        enforces: "functions annotated `// lint: hot(<why>)` reach no allocating effect from \
                   loop position",
        rationale: "the steady-state serving loops must not allocate per iteration; the rule \
                    closes allocation effects over the call graph with loop-position \
                    granularity, so one-time setup outside loops stays legal while a \
                    Vec::new three calls deep inside the loop is caught — and a sync test \
                    binds the hot list to the runtime counting-allocator suites",
        scope: "non-test functions targeted by a `// lint: hot(<why>)` marker",
    },
    RuleDoc {
        code: "R19",
        allow: "swallowed-result",
        enforces: "no discarded Result in library code (`let _ =`, statement-position `.ok()`, \
                   `unwrap_or_default()` on a Result-returning call)",
        rationale: "a silently dropped Result turns a typed failure into a wrong answer; the \
                    rule resolves the discarded call against the workspace signature table so \
                    only real Result returns fire",
        scope: "library code (tests, benches, examples, and binaries are exempt)",
    },
    RuleDoc {
        code: "R20",
        allow: "lock-while-heavy",
        enforces: "no lock held across a call whose closed effect summary allocates or does \
                   file IO",
        rationale: "heap allocation and IO under a lock stretch the critical section by \
                    unbounded latency, starving every other tenant of the serving engine; \
                    the held-region analysis is the R16 one, the heaviness verdict comes \
                    from the transitive effect closure",
        scope: "non-test functions, with call resolution restricted to each crate's \
                transitive dependencies",
    },
];

/// Looks up the documentation row for a rule code (case-insensitive,
/// `R8` and `r8` both work).
pub fn rule_doc(code: &str) -> Option<&'static RuleDoc> {
    RULE_DOCS.iter().find(|d| d.code.eq_ignore_ascii_case(code))
}

/// Renders the README rule-table rows from [`RULE_DOCS`] — the generator
/// side of the docs-drift check (`--explain` and the README share it).
pub fn readme_rule_rows() -> String {
    let mut out = String::new();
    for d in RULE_DOCS {
        let allow = d
            .allow
            .split(" / ")
            .map(|a| format!("`{a}`"))
            .collect::<Vec<_>>()
            .join(" / ");
        let enforces = d.enforces.split_whitespace().collect::<Vec<_>>().join(" ");
        out.push_str(&format!("| {} | {} | {} |\n", d.code, allow, enforces));
    }
    out
}

/// One violation, anchored to a file and 1-based line. Every diagnostic
/// fails the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// File the violation is in (workspace-relative where possible).
    pub file: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// Violated rule.
    pub rule: Rule,
    /// Human-readable description.
    pub message: String,
}

impl Diagnostic {
    /// Builds a diagnostic.
    pub fn new(file: &Path, line: usize, rule: Rule, message: String) -> Diagnostic {
        Diagnostic { file: file.to_path_buf(), line, rule, message }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {} {}", self.file.display(), self.line, self.rule.code(), self.message)
    }
}

/// How a source file is classified for rule applicability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileClass {
    /// Library code under `crates/<name>/src` (not a binary target).
    pub is_library: bool,
    /// Test / bench / example target.
    pub is_test_like: bool,
}

/// Classifies a workspace-relative path (`crates/<name>/...`). Binary
/// targets (`src/bin/**`, `src/main.rs`) are neither library nor
/// test-like.
pub fn classify(rel_path: &Path) -> FileClass {
    let p = rel_path.to_string_lossy().replace('\\', "/");
    let is_bin = p.contains("/src/bin/") || p.ends_with("/src/main.rs");
    let is_test_like =
        p.contains("/tests/") || p.contains("/benches/") || p.contains("/examples/");
    let is_library = p.contains("/src/") && !is_bin && !is_test_like;
    FileClass { is_library, is_test_like }
}

/// Runs all token-level rules (R4, R6, R8, R12, R13) over one Rust source
/// file.
pub fn lint_rust_source(rel_path: &Path, source: &str) -> Vec<Diagnostic> {
    let class = classify(rel_path);
    let sf = engine::SourceFile::parse(source);
    let mut diags = rules::lint_tokens(rel_path, class, &sf);
    diags.sort_by(|a, b| (a.line, a.rule.code()).cmp(&(b.line, b.rule.code())));
    diags.dedup();
    diags
}

/// Runs R2 over one `Cargo.toml`. Every dependency in any dependency
/// section must be a workspace crate (`easytime*`).
pub(crate) fn lint_manifest(rel_path: &Path, source: &str) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let mut in_dep_section = false;
    for (idx, raw) in source.lines().enumerate() {
        let line = raw.trim();
        if line.starts_with('[') {
            in_dep_section = matches!(
                line,
                "[dependencies]"
                    | "[dev-dependencies]"
                    | "[build-dependencies]"
                    | "[workspace.dependencies]"
            ) || line.starts_with("[target.") && line.contains("dependencies");
            continue;
        }
        if !in_dep_section || line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some(name) = line.split(['=', '.', ' ']).next() else {
            continue;
        };
        let name = name.trim();
        if name.is_empty() {
            continue;
        }
        if !is_allowed_dependency(name) {
            diags.push(Diagnostic::new(
                rel_path,
                idx + 1,
                Rule::DepAllowlist,
                format!(
                    "external dependency `{name}` is not in the allowlist; the build must stay \
                     hermetic (std-only) — vendor the functionality into a workspace crate"
                ),
            ));
        }
    }
    diags
}

/// The dependency allowlist: workspace crates only. Extend deliberately —
/// each addition breaks the hermetic-build guarantee.
pub(crate) fn is_allowed_dependency(name: &str) -> bool {
    name.starts_with("easytime")
}

/// Reads every `.rs` and `Cargo.toml` file under `root/crates` plus the
/// root `Cargo.toml` (the `[workspace.dependencies]` chokepoint) into
/// path-sorted [`model::SourceEntry`] values — the single input both
/// analysis phases run from.
pub fn collect_workspace_sources(root: &Path) -> std::io::Result<Vec<model::SourceEntry>> {
    let mut files = Vec::new();
    collect_files(&root.join("crates"), &mut files)?;
    let root_manifest = root.join("Cargo.toml");
    if root_manifest.is_file() {
        files.push(root_manifest);
    }
    files.sort();
    let mut sources = Vec::with_capacity(files.len());
    for file in files {
        let rel = file.strip_prefix(root).unwrap_or(&file);
        let text = std::fs::read_to_string(&file)?;
        sources.push(model::SourceEntry::new(rel.to_string_lossy().into_owned(), text));
    }
    sources.sort_by(|a, b| a.path.cmp(&b.path));
    Ok(sources)
}

/// Phase 1: runs the per-file rules (R2–R13) over in-memory sources.
/// Entries are processed in path order regardless of input order.
pub fn lint_sources(sources: &[model::SourceEntry]) -> Vec<Diagnostic> {
    let mut sorted: Vec<&model::SourceEntry> = sources.iter().collect();
    sorted.sort_by(|a, b| a.path.cmp(&b.path));
    let mut diags = Vec::new();
    for entry in sorted {
        let rel = Path::new(&entry.path);
        if entry.path.ends_with("Cargo.toml") {
            diags.extend(lint_manifest(rel, &entry.text));
        } else if entry.path.ends_with(".rs") {
            diags.extend(lint_rust_source(rel, &entry.text));
        }
    }
    diags
}

/// Size summary of the semantic pass, serialized to
/// `results/lint_semantic.json` by the CLI. Every count is derived from
/// the path-sorted workspace model, so the rendering is byte-identical
/// across runs and file-discovery orders.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SemanticStats {
    /// Workspace crates with a parsed manifest.
    pub crates: usize,
    /// Rust files in the model.
    pub files: usize,
    /// Item-table rows across all files.
    pub items: usize,
    /// `pub` (unrestricted) items in non-test library code.
    pub pub_items: usize,
    /// Entries in the live API snapshot.
    pub api_entries: usize,
    /// Workspace-internal `[dependencies]` edges.
    pub dep_edges: usize,
    /// Distinct crate→crate reference pairs from `easytime_*::` tokens.
    pub use_edges: usize,
    /// Call-name entries across all function summaries.
    pub call_sites: usize,
    /// Lock-acquisition sites across all function summaries.
    pub lock_sites: usize,
    /// Distinct lock identities (`crate.field`).
    pub lock_identities: usize,
    /// Edges in the transitively-closed lock-order graph.
    pub lock_order_edges: usize,
    /// Local effect sites across all function summaries.
    pub effect_sites: usize,
    /// Discarded-result candidate sites across all function summaries.
    pub discard_sites: usize,
    /// Functions targeted by a `// lint: hot(<why>)` marker.
    pub hot_fns: usize,
    /// Emitted diagnostics per semantic rule code (R0 included).
    pub rule_counts: Vec<(String, usize)>,
}

/// Renders [`SemanticStats`] as a stable JSON object. Schema version 2
/// added the phase-3 effect counts (`effect_sites`, `discard_sites`,
/// `hot_fns`) and the R18–R20 rule buckets.
pub fn semantic_stats_to_json(s: &SemanticStats) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"schema_version\": 2,\n");
    out.push_str(&format!("  \"crates\": {},\n", s.crates));
    out.push_str(&format!("  \"files\": {},\n", s.files));
    out.push_str(&format!("  \"items\": {},\n", s.items));
    out.push_str(&format!("  \"pub_items\": {},\n", s.pub_items));
    out.push_str(&format!("  \"api_entries\": {},\n", s.api_entries));
    out.push_str(&format!("  \"dep_edges\": {},\n", s.dep_edges));
    out.push_str(&format!("  \"use_edges\": {},\n", s.use_edges));
    out.push_str(&format!("  \"call_sites\": {},\n", s.call_sites));
    out.push_str(&format!("  \"lock_sites\": {},\n", s.lock_sites));
    out.push_str(&format!("  \"lock_identities\": {},\n", s.lock_identities));
    out.push_str(&format!("  \"lock_order_edges\": {},\n", s.lock_order_edges));
    out.push_str(&format!("  \"effect_sites\": {},\n", s.effect_sites));
    out.push_str(&format!("  \"discard_sites\": {},\n", s.discard_sites));
    out.push_str(&format!("  \"hot_fns\": {},\n", s.hot_fns));
    out.push_str("  \"rules\": {");
    for (i, (code, count)) in s.rule_counts.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("\"{}\": {}", json_escape(code), count));
    }
    out.push_str("}\n}\n");
    out
}

/// Phase 2+3: builds the workspace model and runs the semantic rules
/// (R15–R17, plus R14 when `api_baseline` carries the committed baseline
/// text and its display path) and the effect rules (R18–R20). Returns the
/// diagnostics sorted by `(file, line, code, message)` and the size stats.
pub fn analyze_workspace(
    sources: &[model::SourceEntry],
    api_baseline: Option<(&str, &str)>,
) -> (Vec<Diagnostic>, SemanticStats) {
    let ws = model::WorkspaceModel::build(sources);
    let entries = api::api_entries(&ws);
    let graph = locks::build_lock_graph(&ws);
    let effect_table = effects::build_effect_table(&ws);

    let mut diags = Vec::new();
    diags.extend(resolve::check_layering(&ws));
    diags.extend(resolve::check_dead_pub(&ws));
    diags.extend(locks::check_locks(&ws, &graph));
    diags.extend(effects::check_effects(&ws, &effect_table));
    if let Some((path, text)) = api_baseline {
        diags.extend(api::check_api_baseline(&entries, text, path));
    }
    diags.sort_by(|a, b| {
        (a.file.display().to_string(), a.line, a.rule.code(), a.message.as_str()).cmp(&(
            b.file.display().to_string(),
            b.line,
            b.rule.code(),
            b.message.as_str(),
        ))
    });
    diags.dedup();

    let mut rule_counts: std::collections::BTreeMap<&str, usize> = [
        ("R14", 0),
        ("R15", 0),
        ("R16", 0),
        ("R17", 0),
        ("R18", 0),
        ("R19", 0),
        ("R20", 0),
        ("R0", 0),
    ]
    .into_iter()
    .collect();
    for d in &diags {
        *rule_counts.entry(d.rule.code()).or_insert(0) += 1;
    }
    let stats = SemanticStats {
        crates: ws.crates.len(),
        files: ws.files.len(),
        items: ws.item_count(),
        pub_items: ws.pub_item_count(),
        api_entries: entries.len(),
        dep_edges: resolve::dep_edge_count(&ws),
        use_edges: resolve::use_edge_count(&ws),
        call_sites: ws.files.iter().flat_map(|f| &f.fns).map(|f| f.calls.len()).sum(),
        lock_sites: ws.lock_site_count(),
        lock_identities: graph.identities.len(),
        lock_order_edges: graph.edges.len(),
        effect_sites: ws.files.iter().flat_map(|f| &f.fns).map(|f| f.effects.len()).sum(),
        discard_sites: ws.files.iter().flat_map(|f| &f.fns).map(|f| f.discards.len()).sum(),
        hot_fns: effect_table.fns.values().filter(|fe| fe.hot).count(),
        rule_counts: rule_counts.into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
    };
    (diags, stats)
}

/// Phase 3 artifact: builds the workspace model and renders the closed
/// effect table as schema-versioned JSON (the `--effects-out` payload).
/// Input order does not matter — the model sorts sources by path and the
/// table is BTree-keyed, so the bytes are identical for any discovery
/// order.
pub fn workspace_effect_table_json(sources: &[model::SourceEntry]) -> String {
    let ws = model::WorkspaceModel::build(sources);
    effects::effect_table_to_json(&effects::build_effect_table(&ws))
}

fn collect_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if entry.file_type()?.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect_files(&path, out)?;
        } else if name == "Cargo.toml" || name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Renders diagnostics as a JSON array of `{file, line, rule, allow,
/// message}` records (R10, `--format json`) for CI artifacts.
pub fn diagnostics_to_json(diags: &[Diagnostic]) -> String {
    let mut out = String::from("[");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n  {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"allow\": \"{}\", \
             \"message\": \"{}\"}}",
            json_escape(&d.file.display().to_string().replace('\\', "/")),
            d.line,
            d.rule.code(),
            d.rule.allow_name(),
            json_escape(&d.message)
        ));
    }
    out.push_str(if diags.is_empty() { "]\n" } else { "\n]\n" });
    out
}

pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib_path() -> PathBuf {
        PathBuf::from("crates/demo/src/lib.rs")
    }

    fn rules_of(diags: &[Diagnostic]) -> Vec<Rule> {
        diags.iter().map(|d| d.rule).collect()
    }

    // ---- escape hatches (shared by every token rule) ----

    #[test]
    fn r8_escape_hatch_with_justification_is_accepted() {
        let src = "fn f() -> std::time::Instant {\n\
                   \x20   // lint: allow(wall-clock) — the one sanctioned epoch read of this demo\n\
                   \x20   std::time::Instant::now()\n\
                   }\n";
        assert!(lint_rust_source(&lib_path(), src).is_empty());
    }

    #[test]
    fn r8_escape_hatch_spanning_a_comment_block_is_accepted() {
        let src = "fn f() -> std::time::Instant {\n\
                   \x20   // lint: allow(wall-clock) — the construction above\n\
                   \x20   // guarantees this runs once per process.\n\
                   \x20   std::time::Instant::now()\n\
                   }\n";
        assert!(lint_rust_source(&lib_path(), src).is_empty());
    }

    #[test]
    fn r8_bare_escape_hatch_without_justification_is_flagged() {
        let src = "fn f() -> std::time::Instant {\n\
                   \x20   // lint: allow(wall-clock)\n\
                   \x20   std::time::Instant::now()\n\
                   }\n";
        let diags = lint_rust_source(&lib_path(), src);
        assert_eq!(rules_of(&diags), vec![Rule::BadAnnotation]);
        assert_eq!(diags[0].line, 2);
    }

    // ---- R2 ----

    #[test]
    fn r2_accepts_workspace_only_manifests() {
        let toml = "[package]\nname = \"easytime-demo\"\n\n[dependencies]\n\
                    easytime-linalg.workspace = true\neasytime-data = { path = \"../data\" }\n";
        assert!(lint_manifest(Path::new("crates/demo/Cargo.toml"), toml).is_empty());
    }

    #[test]
    fn r2_flags_external_dependencies_in_any_section() {
        let toml = "[dependencies]\nrand = \"0.8\"\n\n[dev-dependencies]\nproptest = \"1\"\n\n\
                    [workspace.dependencies]\ncriterion = \"0.5\"\n";
        let diags = lint_manifest(Path::new("Cargo.toml"), toml);
        assert_eq!(rules_of(&diags), vec![Rule::DepAllowlist; 3]);
        assert!(diags[0].message.contains("rand"));
        assert!(diags[1].message.contains("proptest"));
        assert!(diags[2].message.contains("criterion"));
    }

    #[test]
    fn r2_ignores_non_dependency_sections() {
        let toml = "[package]\nname = \"x\"\n\n[features]\nextra = []\n\n[lints]\nworkspace = true\n";
        assert!(lint_manifest(Path::new("crates/demo/Cargo.toml"), toml).is_empty());
    }

    // ---- R4 ----

    #[test]
    fn r4_flags_boxed_dyn_error_returns() {
        let src = "/// Documented, but badly typed.\n\
                   pub fn f() -> Result<u32, Box<dyn std::error::Error>> {\n\
                   \x20   Ok(1)\n\
                   }\n";
        let diags = lint_rust_source(&lib_path(), src);
        assert_eq!(rules_of(&diags), vec![Rule::TypedError]);
        assert_eq!(diags[0].line, 2);
    }

    #[test]
    fn r4_catches_multi_line_signatures_and_accepts_typed_errors() {
        let bad = "/// Documented.\n\
                   pub fn f(\n\
                   \x20   x: u32,\n\
                   ) -> Result<u32, Box<dyn std::error::Error + Send + Sync>>\n\
                   {\n\
                   \x20   Ok(x)\n\
                   }\n";
        assert_eq!(rules_of(&lint_rust_source(&lib_path(), bad)), vec![Rule::TypedError]);
        // The `;` of an array parameter does not end the signature.
        let array = "/// Documented.\n\
                     pub fn f(x: [u8; 4]) -> Result<u8, Box<dyn std::error::Error>> { Ok(x[0]) }\n";
        assert_eq!(rules_of(&lint_rust_source(&lib_path(), array)), vec![Rule::TypedError]);
        let good = "/// Documented.\n\
                    pub fn f() -> Result<u32, DemoError> { Ok(1) }\n\
                    fn private() -> Result<u32, Box<dyn std::error::Error>> { Ok(1) }\n";
        // Private helpers are out of scope for R4.
        assert!(lint_rust_source(&lib_path(), good).is_empty());
    }

    // ---- R6 ----

    #[test]
    fn r6_flags_nan_unsafe_comparators() {
        let src = "fn f(xs: &mut Vec<f64>) {\n\
                   \x20   xs.sort_by(|a, b| a.partial_cmp(b).unwrap());\n\
                   \x20   xs.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));\n\
                   \x20   xs.sort_by(|a, b| a.partial_cmp(b).unwrap_or_else(|| Ordering::Equal));\n\
                   }\n";
        let diags = lint_rust_source(&lib_path(), src);
        assert_eq!(rules_of(&diags), vec![Rule::FloatOrdering; 3]);
        assert_eq!(diags[0].line, 2);
        assert_eq!(diags[1].line, 3);
        assert_eq!(diags[2].line, 4);
    }

    #[test]
    fn r6_accepts_bare_partial_cmp_and_total_cmp() {
        let src = "fn f(a: f64, b: f64) -> Option<std::cmp::Ordering> {\n\
                   \x20   let _sorted = |xs: &mut Vec<f64>| xs.sort_by(|x, y| x.total_cmp(y));\n\
                   \x20   a.partial_cmp(&b)\n\
                   }\n";
        assert!(lint_rust_source(&lib_path(), src).is_empty());
    }

    #[test]
    fn r6_applies_inside_tests_and_bins_too() {
        let src = "fn main() {\n\
                   \x20   let mut v = vec![1.0, f64::NAN];\n\
                   \x20   v.sort_by(|a, b| a.partial_cmp(b).unwrap());\n\
                   }\n";
        for p in ["crates/demo/tests/t.rs", "crates/demo/src/bin/tool.rs"] {
            let diags = lint_rust_source(Path::new(p), src);
            assert_eq!(rules_of(&diags), vec![Rule::FloatOrdering], "{p}");
        }
    }

    #[test]
    fn r6_honours_escape_hatch_and_skips_unwrap_or_without_equal() {
        let src = "fn f(a: f64, b: f64) -> bool {\n\
                   \x20   // lint: allow(float-ordering) — SQL semantics want None on NaN\n\
                   \x20   let _ = a.partial_cmp(&b).unwrap_or(std::cmp::Ordering::Equal);\n\
                   \x20   a.partial_cmp(&b).map(|o| o.is_lt()).unwrap_or(false)\n\
                   }\n";
        assert!(lint_rust_source(&lib_path(), src).is_empty());
    }

    #[test]
    fn r6_ignores_occurrences_in_strings_and_comments() {
        let src = "fn f() {\n\
                   \x20   let _s = \"a.partial_cmp(b).unwrap()\";\n\
                   \x20   // a.partial_cmp(b).unwrap_or(Ordering::Equal)\n\
                   }\n";
        assert!(lint_rust_source(&lib_path(), src).is_empty());
    }

    // ---- R8 ----

    #[test]
    fn r8_flags_hash_container_iteration_in_library_code() {
        let src = "use std::collections::HashMap;\n\
                   fn f(m: &HashMap<String, u32>) -> u32 {\n\
                   \x20   let mut total = 0;\n\
                   \x20   for (_k, v) in m.iter() { total += v; }\n\
                   \x20   total\n\
                   }\n";
        let diags = lint_rust_source(&lib_path(), src);
        assert_eq!(rules_of(&diags), vec![Rule::HashOrder]);
        assert_eq!(diags[0].line, 4);
    }

    #[test]
    fn r8_accepts_keyed_access_btree_and_annotated_iteration() {
        let src = "use std::collections::{BTreeMap, HashMap};\n\
                   fn f(m: &HashMap<String, u32>, b: &BTreeMap<String, u32>) -> u32 {\n\
                   \x20   let mut total = *m.get(\"x\").unwrap_or(&0);\n\
                   \x20   for (_k, v) in b.iter() { total += v; }\n\
                   \x20   // lint: allow(hash-order) — the sum below is order-independent\n\
                   \x20   for (_k, v) in m.iter() { total += v; }\n\
                   \x20   total\n\
                   }\n";
        assert!(lint_rust_source(&lib_path(), src).is_empty());
    }

    #[test]
    fn r8_flags_direct_wall_clock_reads_outside_the_clock_crate() {
        let src = "use std::time::Instant;\n\
                   fn f() -> std::time::Instant {\n\
                   \x20   Instant::now()\n\
                   }\n";
        let diags = lint_rust_source(&lib_path(), src);
        assert_eq!(rules_of(&diags), vec![Rule::WallClock]);
        // The designated helper and binaries are exempt.
        assert!(lint_rust_source(Path::new("crates/clock/src/lib.rs"), src).is_empty());
        assert!(lint_rust_source(Path::new("crates/demo/src/bin/tool.rs"), src).is_empty());
        let sys = "fn f() -> u64 { let _t = SystemTime::now(); 0 }\n";
        let diags = lint_rust_source(&lib_path(), sys);
        assert_eq!(rules_of(&diags), vec![Rule::WallClock]);
    }

    #[test]
    fn r8_skips_strings_comments_and_test_modules() {
        let src = "fn f() {\n\
                   \x20   let _s = \"contains Instant::now() and SystemTime\";\n\
                   \x20   // a comment mentioning Instant::now() is fine\n\
                   \x20   /* block with SystemTime::now() */\n\
                   }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                   \x20   #[test]\n\
                   \x20   fn t() { let _t = std::time::Instant::now(); }\n\
                   }\n";
        assert!(lint_rust_source(&lib_path(), src).is_empty());
    }

    #[test]
    fn r8_exempts_test_bench_example_and_bin_paths() {
        let src = "fn main() { let _t = std::time::Instant::now(); }\n";
        assert_eq!(rules_of(&lint_rust_source(&lib_path(), src)), vec![Rule::WallClock]);
        for p in [
            "crates/demo/tests/t.rs",
            "crates/demo/benches/b.rs",
            "crates/demo/examples/e.rs",
            "crates/demo/src/bin/tool.rs",
            "crates/demo/src/main.rs",
        ] {
            assert!(
                lint_rust_source(Path::new(p), src).is_empty(),
                "{p} should be exempt from R8"
            );
        }
    }

    // ---- R13 ----

    #[test]
    fn r13_catches_multi_line_chains() {
        let src = "fn f(a: &Matrix, b: &Matrix) -> Matrix {\n\
                   \x20   a.transpose()\n\
                   \x20       .matmul\n\
                   \x20       (b)\n\
                   }\n";
        let diags = lint_rust_source(&lib_path(), src);
        assert_eq!(rules_of(&diags), vec![Rule::MaterializedTranspose]);
        assert_eq!(diags[0].line, 2);
    }

    // ---- R10: JSON ----

    #[test]
    fn json_output_is_escaped_and_structured() {
        let d = Diagnostic::new(
            &lib_path(),
            7,
            Rule::FloatOrdering,
            "uses `partial_cmp(..)` with \"quotes\"\nand newline".into(),
        );
        let json = diagnostics_to_json(&[d]);
        assert!(json.starts_with('['));
        assert!(json.trim_end().ends_with(']'));
        assert!(json.contains("\"rule\": \"R6\""));
        assert!(json.contains("\"allow\": \"float-ordering\""));
        assert!(json.contains("\\\"quotes\\\""));
        assert!(json.contains("\\n"));
        assert_eq!(diagnostics_to_json(&[]), "[]\n");
    }

    // ---- infrastructure ----

    #[test]
    fn classify_partitions_the_tree() {
        assert!(classify(Path::new("crates/db/src/parser.rs")).is_library);
        assert!(classify(Path::new("crates/core/tests/integration.rs")).is_test_like);
        assert!(classify(Path::new("crates/bench/benches/sql.rs")).is_test_like);
        for bin in ["crates/core/src/bin/easytime.rs", "crates/lint/src/main.rs"] {
            let class = classify(Path::new(bin));
            assert!(!class.is_library && !class.is_test_like, "{bin}");
        }
    }

    #[test]
    fn diagnostics_render_file_line_rule() {
        let d = Diagnostic::new(
            Path::new("crates/demo/src/lib.rs"),
            7,
            Rule::WallClock,
            "direct wall-clock read".into(),
        );
        assert_eq!(format!("{d}"), "crates/demo/src/lib.rs:7: R8 direct wall-clock read");
    }
}
