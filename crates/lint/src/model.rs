//! Phase 2, step 1: the cross-file **workspace model**.
//!
//! Phase 1 ([`crate::lint_rust_source`]) sees one token stream at a time.
//! This module lifts every workspace source into an owned, order-independent
//! summary — per-crate item tables, per-function call and lock-acquisition
//! summaries, `use` paths, and ident mention sets — that the semantic rules
//! ([`crate::resolve`] R15/R17, [`crate::locks`] R16, [`crate::api`] R14)
//! join across files. Inputs are sorted by path before extraction, so the
//! model (and everything derived from it) is byte-identical regardless of
//! file-discovery order.
//!
//! The extraction is a heuristic single pass over each token stream, not a
//! full parse: function bodies are skipped during the item walk (so locals
//! and closures never pollute the item table) and re-scanned separately for
//! calls and lock acquisitions; macro-invocation bodies are skipped
//! entirely. Known limits are documented in DESIGN.md §Static analysis
//! architecture.

use crate::effects::{CallSite, DiscardSite, Effect, EffectSite};
use crate::engine::{AllowMark, HotMark, SourceFile};
use crate::lexer::TokenKind;
use crate::{classify, FileClass};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// One workspace source handed to the analyzer: a path relative to the
/// workspace root plus its full text.
#[derive(Debug, Clone)]
pub struct SourceEntry {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// Full file contents.
    pub text: String,
}

impl SourceEntry {
    /// Builds an entry, normalizing path separators.
    pub fn new(path: impl Into<String>, text: impl Into<String>) -> SourceEntry {
        SourceEntry { path: path.into().replace('\\', "/"), text: text.into() }
    }
}

/// What kind of item a table row describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ItemKind {
    /// A free or associated function (incl. trait methods).
    Fn,
    /// A struct definition.
    Struct,
    /// An enum definition.
    Enum,
    /// A trait definition.
    Trait,
    /// A `type` alias.
    TypeAlias,
    /// A `const` item.
    Const,
    /// A `static` item.
    Static,
    /// A `union` definition.
    Union,
    /// A `mod name;` out-of-line module declaration.
    Mod,
    /// A `use` declaration (re-exports are API when `pub`).
    Use,
}

impl ItemKind {
    /// Lower-case label used in API-baseline entries and diagnostics.
    pub fn label(self) -> &'static str {
        match self {
            ItemKind::Fn => "fn",
            ItemKind::Struct => "struct",
            ItemKind::Enum => "enum",
            ItemKind::Trait => "trait",
            ItemKind::TypeAlias => "type",
            ItemKind::Const => "const",
            ItemKind::Static => "static",
            ItemKind::Union => "union",
            ItemKind::Mod => "mod",
            ItemKind::Use => "use",
        }
    }
}

/// Item visibility as written.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Vis {
    /// `pub` — exported surface.
    Pub,
    /// `pub(crate)` / `pub(super)` / `pub(in …)` — crate-internal.
    Restricted,
    /// No visibility keyword.
    Private,
}

/// One row of a crate's item table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Item {
    /// Item kind.
    pub kind: ItemKind,
    /// Item name with any `r#` raw-identifier prefix stripped; empty for
    /// `use` groups.
    pub name: String,
    /// Enclosing `mod`/`impl`/`trait` labels within the file, joined with
    /// `::` (empty at file top level).
    pub context: String,
    /// Visibility as written.
    pub vis: Vis,
    /// True when an outer doc comment or `#[doc…]` precedes the item.
    pub has_doc: bool,
    /// True when the item sits inside a `#[cfg(test)]` region.
    pub in_test: bool,
    /// True when the item is a method of a `impl Trait for Type` block
    /// (its visibility comes from the trait, not a `pub` keyword).
    pub in_trait_impl: bool,
    /// 1-based line of the item head.
    pub line: usize,
    /// Normalized signature: code tokens from the visibility keyword
    /// through the end of the header, source-adjacent puncts kept glued.
    pub signature: String,
}

/// One lock acquisition inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
// lint: allow(dead-pub) — reachable through a pub field of an exported type, which R17's item-signature scan does not cover
pub struct Acquisition {
    /// Heuristic lock identity: the last receiver/argument field ident
    /// before the locking call (e.g. `records` for `self.records.lock()`).
    pub target: String,
    /// 1-based line of the acquisition.
    pub line: usize,
    /// `(call name, line)` for every call made while the guard is held
    /// (from the acquisition to the end of its held region).
    pub held_calls: Vec<(String, usize)>,
    /// `(identity, line)` for every further direct acquisition inside the
    /// held region.
    pub held_acquires: Vec<(String, usize)>,
}

/// Per-function summary: what it calls and which locks it takes.
#[derive(Debug, Clone, PartialEq, Eq)]
// lint: allow(dead-pub) — reachable through a pub field of an exported type, which R17's item-signature scan does not cover
pub struct FnSummary {
    /// Function name (`r#` stripped).
    pub name: String,
    /// Enclosing context labels (`Type` for methods), `::`-joined.
    pub context: String,
    /// 1-based line of the `fn` head.
    pub line: usize,
    /// True inside a `#[cfg(test)]` region.
    pub in_test: bool,
    /// Every call name in the body (functions and methods alike).
    pub calls: BTreeSet<String>,
    /// Lock acquisitions in body order.
    pub acquires: Vec<Acquisition>,
    /// Local effect sites in body order (the phase-3 effect pass).
    pub effects: Vec<EffectSite>,
    /// Call sites with loop position, in body order.
    pub call_sites: Vec<CallSite>,
    /// Discarded-result candidate sites in body order (R19).
    pub discards: Vec<DiscardSite>,
}

/// One `use` declaration, token paths flattened to segments.
#[derive(Debug, Clone, PartialEq, Eq)]
// lint: allow(dead-pub) — reachable through a pub field of an exported type, which R17's item-signature scan does not cover
pub struct UsePath {
    /// Path segments (`r#` stripped); brace groups contribute every leaf.
    pub segments: Vec<String>,
    /// 1-based line.
    pub line: usize,
    /// True inside a `#[cfg(test)]` region.
    pub in_test: bool,
}

/// A reference to another workspace crate via its lib name in a path
/// position (`easytime_linalg::…`) inside library code.
#[derive(Debug, Clone, PartialEq, Eq)]
// lint: allow(dead-pub) — reachable through a pub field of an exported type, which R17's item-signature scan does not cover
pub struct ExtRef {
    /// The referenced lib name (e.g. `easytime_linalg`).
    pub lib_name: String,
    /// 1-based line.
    pub line: usize,
    /// True inside a `#[cfg(test)]` region.
    pub in_test: bool,
}

/// Everything the semantic rules need from one Rust source file.
#[derive(Debug, Clone)]
// lint: allow(dead-pub) — reachable through a pub field of an exported type, which R17's item-signature scan does not cover
pub struct FileModel {
    /// Workspace-relative path (`/` separators).
    pub path: String,
    /// Owning crate's package name (empty when the file is not under a
    /// recognized `crates/<dir>/`).
    pub crate_name: String,
    /// Target classification (library / bin / test-like).
    pub class: FileClass,
    /// Item table rows in source order.
    pub items: Vec<Item>,
    /// Function summaries in source order.
    pub fns: Vec<FnSummary>,
    /// `use` declarations.
    pub uses: Vec<UsePath>,
    /// Workspace-crate path references.
    pub ext_refs: Vec<ExtRef>,
    /// Every identifier mentioned anywhere in the file (`r#` stripped).
    pub mentions: BTreeSet<String>,
    /// Escape-hatch annotations (for the semantic rules' allow checks).
    pub allows: Vec<AllowMark>,
    /// `// lint: hot(<why>)` declarations (resolved to functions by R18).
    pub hots: Vec<HotMark>,
}

/// One crate manifest: package name, directory, and dependency edges.
#[derive(Debug, Clone, Default)]
// lint: allow(dead-pub) — reachable through a pub field of an exported type, which R17's item-signature scan does not cover
pub struct CrateInfo {
    /// Package name (`easytime-linalg`).
    pub name: String,
    /// Crate directory relative to the workspace root (`crates/linalg`).
    pub dir: String,
    /// Rust lib name (`easytime_linalg`).
    pub lib_name: String,
    /// Manifest path relative to the workspace root.
    pub manifest_path: String,
    /// `[dependencies]` entries: `(package name, manifest line)`.
    pub deps: Vec<(String, usize)>,
    /// `[dev-dependencies]` entries: `(package name, manifest line)`.
    pub dev_deps: Vec<(String, usize)>,
}

/// The cross-file workspace model: crate manifests plus per-file
/// summaries, all held in deterministic (path/name-sorted) order.
#[derive(Debug, Clone, Default)]
pub struct WorkspaceModel {
    /// Crates keyed by package name.
    pub crates: BTreeMap<String, CrateInfo>,
    /// File models sorted by path.
    pub files: Vec<FileModel>,
}

/// Method names treated as lock acquisitions (`x.lock()` and the
/// poison-recovering `x.lock_poisoned()` convention).
const LOCK_METHODS: [&str; 2] = ["lock", "lock_poisoned"];
/// Free helper functions treated as lock acquisitions of their argument
/// (the `lock(&mutex)` poison-recovering helper convention).
const LOCK_HELPERS: [&str; 2] = ["lock", "lock_poisoned"];
/// Keywords never counted as call names even when followed by `(`.
pub(crate) const NON_CALL_KEYWORDS: [&str; 12] = [
    "if", "while", "for", "match", "loop", "return", "fn", "let", "move", "in", "as", "where",
];

impl WorkspaceModel {
    /// Builds the model from workspace sources (`.rs` files and
    /// `Cargo.toml` manifests). The input is sorted by path internally, so
    /// any discovery order produces an identical model.
    pub fn build(sources: &[SourceEntry]) -> WorkspaceModel {
        let mut sorted: Vec<&SourceEntry> = sources.iter().collect();
        sorted.sort_by(|a, b| a.path.cmp(&b.path));
        sorted.dedup_by(|a, b| a.path == b.path);

        let mut model = WorkspaceModel::default();
        // Pass 1: manifests, building the crate-dir → package-name map.
        let mut dir_to_crate: BTreeMap<String, String> = BTreeMap::new();
        for src in &sorted {
            if src.path.ends_with("Cargo.toml") {
                if let Some(info) = parse_manifest(&src.path, &src.text) {
                    dir_to_crate.insert(info.dir.clone(), info.name.clone());
                    model.crates.insert(info.name.clone(), info);
                }
            }
        }
        // Pass 2: Rust sources.
        for src in &sorted {
            if !src.path.ends_with(".rs") {
                continue;
            }
            let crate_name = crate_dir_of(&src.path)
                .and_then(|dir| dir_to_crate.get(dir).cloned())
                .unwrap_or_default();
            model.files.push(extract_file(&src.path, crate_name, &src.text));
        }
        model
    }

    /// Total item-table rows across all files.
    pub fn item_count(&self) -> usize {
        self.files.iter().map(|f| f.items.len()).sum()
    }

    /// Total `pub` (unrestricted) items in library code outside tests.
    pub fn pub_item_count(&self) -> usize {
        self.files
            .iter()
            .filter(|f| f.class.is_library)
            .flat_map(|f| &f.items)
            .filter(|i| i.vis == Vis::Pub && !i.in_test)
            .count()
    }

    /// Total lock-acquisition sites across all function summaries.
    pub fn lock_site_count(&self) -> usize {
        self.files.iter().flat_map(|f| &f.fns).map(|f| f.acquires.len()).sum()
    }
}

/// The `crates/<dir>` prefix of a workspace-relative path.
fn crate_dir_of(path: &str) -> Option<&str> {
    let rest = path.strip_prefix("crates/")?;
    let dir_len = rest.find('/')?;
    Some(&path[..("crates/".len() + dir_len)])
}

/// Parses the package name and dependency sections out of one
/// `Cargo.toml`. Returns `None` for the virtual workspace root manifest.
fn parse_manifest(path: &str, text: &str) -> Option<CrateInfo> {
    let dir = path.strip_suffix("/Cargo.toml")?.to_string();
    let mut info = CrateInfo { dir, manifest_path: path.to_string(), ..CrateInfo::default() };
    #[derive(PartialEq)]
    enum Section {
        Package,
        Deps,
        DevDeps,
        Other,
    }
    let mut section = Section::Other;
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.starts_with('[') {
            section = match line {
                "[package]" => Section::Package,
                "[dependencies]" => Section::Deps,
                "[dev-dependencies]" => Section::DevDeps,
                _ => Section::Other,
            };
            continue;
        }
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        match section {
            Section::Package => {
                if let Some(rest) = line.strip_prefix("name") {
                    let rest = rest.trim_start();
                    if let Some(value) = rest.strip_prefix('=') {
                        info.name = value.trim().trim_matches('"').to_string();
                    }
                }
            }
            Section::Deps | Section::DevDeps => {
                let Some(name) = line.split(['=', '.', ' ']).next() else {
                    continue;
                };
                let name = name.trim();
                if name.is_empty() {
                    continue;
                }
                let entry = (name.to_string(), idx + 1);
                if section == Section::Deps {
                    info.deps.push(entry);
                } else {
                    info.dev_deps.push(entry);
                }
            }
            Section::Other => {}
        }
    }
    if info.name.is_empty() {
        return None;
    }
    info.lib_name = info.name.replace('-', "_");
    Some(info)
}

/// Strips the `r#` raw-identifier prefix so cross-file name matching sees
/// `r#type` and `type` as the same identifier.
fn norm_ident(text: &str) -> &str {
    text.strip_prefix("r#").unwrap_or(text)
}

/// A scope the item walk has descended into.
struct Scope {
    /// Code index of the closing `}`.
    close: usize,
    /// Label contributed to item contexts (`None` for unlabeled scopes).
    label: Option<String>,
    /// True for `impl Trait for Type` bodies.
    trait_impl: bool,
}

/// Extracts the full [`FileModel`] from one Rust source.
fn extract_file(path: &str, crate_name: String, text: &str) -> FileModel {
    let class = classify(Path::new(path));
    let sf = SourceFile::parse(text);
    let mut fm = FileModel {
        path: path.to_string(),
        crate_name,
        class,
        items: Vec::new(),
        fns: Vec::new(),
        uses: Vec::new(),
        ext_refs: Vec::new(),
        mentions: BTreeSet::new(),
        allows: sf.allows().to_vec(),
        hots: sf.hots().to_vec(),
    };

    // Mentions and workspace-crate path references come from the flat
    // token stream (any position counts as a mention).
    let n = sf.code.len();
    for k in 0..n {
        let Some(t) = sf.ct(k) else { continue };
        if t.kind != TokenKind::Ident {
            continue;
        }
        let name = norm_ident(t.text(sf.src));
        fm.mentions.insert(name.to_string());
        if name.starts_with("easytime") && sf.is_punct_seq(k + 1, "::") {
            fm.ext_refs.push(ExtRef {
                lib_name: name.to_string(),
                line: t.line,
                in_test: sf.in_test_region(t.start),
            });
        }
    }

    // Structured item walk.
    let mut scopes: Vec<Scope> = Vec::new();
    let mut k = 0usize;
    while sf.ct(k).is_some() {
        // Leave any scope that closes here.
        if scopes.last().is_some_and(|s| s.close == k) {
            scopes.pop();
            k += 1;
            continue;
        }
        // Skip attributes wholesale (the doc check walks back over them).
        if let Some(close) = attribute_end(&sf, k) {
            k = close + 1;
            continue;
        }
        let context =
            scopes.iter().filter_map(|s| s.label.as_deref()).collect::<Vec<_>>().join("::");
        let in_trait_impl = scopes.iter().any(|s| s.trait_impl);
        match parse_item(&sf, k) {
            Parsed::Item { item, next } => {
                let mut item = item;
                item.context = context;
                item.in_trait_impl = in_trait_impl;
                fm.items.push(item);
                k = next;
            }
            Parsed::Fn { item, body, next } => {
                let mut item = item;
                item.context = context.clone();
                item.in_trait_impl = in_trait_impl;
                let mut summary = FnSummary {
                    name: item.name.clone(),
                    context,
                    line: item.line,
                    in_test: item.in_test,
                    calls: BTreeSet::new(),
                    acquires: Vec::new(),
                    effects: Vec::new(),
                    call_sites: Vec::new(),
                    discards: Vec::new(),
                };
                if let Some((open, close)) = body {
                    scan_fn_body(&sf, open, close, &mut summary);
                }
                fm.items.push(item);
                fm.fns.push(summary);
                k = next;
            }
            Parsed::Use { item, segments, next } => {
                let mut item = item;
                item.context = context;
                let line = item.line;
                let in_test = item.in_test;
                fm.items.push(item);
                fm.uses.push(UsePath { segments, line, in_test });
                k = next;
            }
            Parsed::Enter { scope, next } => {
                let mut scope = scope;
                scope.trait_impl = scope.trait_impl || in_trait_impl;
                // Record the scope-opening item (mod/trait) row first.
                scopes.push(scope);
                k = next;
            }
            Parsed::EnterWithItem { item, scope, next } => {
                let mut item = item;
                item.context = context;
                item.in_trait_impl = in_trait_impl;
                fm.items.push(item);
                scopes.push(scope);
                k = next;
            }
            Parsed::None => k += 1,
        }
    }
    fm
}

/// Result of attempting to parse an item at one code index.
enum Parsed {
    /// A plain item (struct/enum/const/…): record and jump past it.
    Item { item: Item, next: usize },
    /// A function: record, remember the body range for the lock scan.
    Fn { item: Item, body: Option<(usize, usize)>, next: usize },
    /// A `use` declaration with its flattened segments.
    Use { item: Item, segments: Vec<String>, next: usize },
    /// A scope to descend into without an item row (`impl` blocks).
    Enter { scope: Scope, next: usize },
    /// A scope to descend into that is itself an item (mod/trait).
    EnterWithItem { item: Item, scope: Scope, next: usize },
    /// Not an item head.
    None,
}

/// When code index `k` starts an attribute, returns the code index of its
/// closing `]`.
fn attribute_end(sf: &SourceFile<'_>, k: usize) -> Option<usize> {
    if !sf.is_punct(k, '#') {
        return None;
    }
    let open = if sf.is_punct(k + 1, '!') { k + 2 } else { k + 1 };
    if !sf.is_punct(open, '[') {
        return None;
    }
    sf.matching_close(open)
}

/// Parses the optional visibility at `k`. Returns `(vis, next index)`.
/// `pub(crate)` / `pub(super)` / `pub(in path::to)` are `Restricted`.
fn parse_vis(sf: &SourceFile<'_>, k: usize) -> (Vis, usize) {
    if !sf.is_ident(k, "pub") {
        return (Vis::Private, k);
    }
    if sf.is_punct(k + 1, '(') {
        match sf.matching_close(k + 1) {
            Some(close) => return (Vis::Restricted, close + 1),
            None => return (Vis::Restricted, k + 2),
        }
    }
    (Vis::Pub, k + 1)
}

/// Normalized header text: code tokens `start..end` (exclusive), glued
/// when source-adjacent (so `::`, `->`, `&[f64]` render naturally) and
/// single-spaced otherwise.
fn normalize_sig(sf: &SourceFile<'_>, start: usize, end: usize) -> String {
    let mut out = String::new();
    let mut prev_end: Option<usize> = None;
    for k in start..end {
        let Some(t) = sf.ct(k) else { break };
        if prev_end.is_some_and(|e| e != t.start) && !out.is_empty() {
            out.push(' ');
        }
        out.push_str(t.text(sf.src));
        prev_end = Some(t.end);
    }
    out
}

/// Attempts to parse the item whose head starts at code index `k`.
fn parse_item(sf: &SourceFile<'_>, k: usize) -> Parsed {
    let (vis, mut j) = parse_vis(sf, k);
    let head = k;
    let line = sf.ct(head).map_or(1, |t| t.line);
    let in_test = sf.ct(head).is_some_and(|t| sf.in_test_region(t.start));
    let has_doc = sf.raw_index(head).is_some_and(|i| sf.has_doc_before(i));

    // Qualifiers before an item keyword (`const fn`, `async fn`,
    // `unsafe fn`, `extern "C" fn`, `unsafe trait`, `unsafe impl`).
    let mut quals = 0usize;
    while matches!(sf.ctext(j), "async" | "unsafe" | "extern")
        || sf.ct(j).is_some_and(|t| t.kind == TokenKind::StrLit)
    {
        j += 1;
        quals += 1;
        if quals > 4 {
            break;
        }
    }
    // `const` is both a qualifier (`const fn`) and an item keyword.
    if sf.is_ident(j, "const") && sf.is_ident(j + 1, "fn") {
        j += 1;
    }

    let kw = sf.ctext(j).to_string();
    let mk = |kind: ItemKind, name: String, sig_end: usize| Item {
        kind,
        name,
        context: String::new(),
        vis,
        has_doc,
        in_test,
        in_trait_impl: false,
        line,
        signature: normalize_sig(sf, head, sig_end),
    };

    match kw.as_str() {
        "fn" => {
            let name = norm_ident(sf.ctext(j + 1)).to_string();
            if name.is_empty() {
                return Parsed::None;
            }
            // Header runs to the body `{` or a `;` (trait method decl). Only
            // a `;` outside parens and brackets ends it: the one in an array
            // type (`[f64; N]`) is part of the signature.
            let mut m = j + 1;
            let mut depth = 0usize;
            let (mut body, mut next, mut sig_end) = (None, j + 2, j + 2);
            while sf.ct(m).is_some() && m < j + 600 {
                if sf.is_punct(m, '{') {
                    let close = sf.matching_close(m);
                    sig_end = m;
                    body = close.map(|c| (m, c));
                    next = close.map_or(m + 1, |c| c + 1);
                    break;
                }
                if sf.is_punct(m, '(') || sf.is_punct(m, '[') {
                    depth += 1;
                } else if sf.is_punct(m, ')') || sf.is_punct(m, ']') {
                    depth = depth.saturating_sub(1);
                } else if depth == 0 && sf.is_punct(m, ';') {
                    sig_end = m;
                    next = m + 1;
                    break;
                }
                m += 1;
                sig_end = m;
                next = m;
            }
            Parsed::Fn { item: mk(ItemKind::Fn, name, sig_end), body, next }
        }
        "struct" | "enum" | "union" => {
            let kind = match kw.as_str() {
                "struct" => ItemKind::Struct,
                "enum" => ItemKind::Enum,
                _ => ItemKind::Union,
            };
            let name = norm_ident(sf.ctext(j + 1)).to_string();
            if name.is_empty() {
                return Parsed::None;
            }
            // Header ends at `{` (fields), `(` (tuple), or `;` (unit).
            let mut m = j + 1;
            let (mut next, mut sig_end) = (j + 2, j + 2);
            while sf.ct(m).is_some() && m < j + 400 {
                if sf.is_punct(m, '{') || sf.is_punct(m, '(') {
                    sig_end = m;
                    let close = sf.matching_close(m);
                    next = close.map_or(m + 1, |c| c + 1);
                    // A tuple struct still ends with `;`.
                    if sf.is_punct(m, '(') {
                        if let Some(c) = close {
                            if sf.is_punct(c + 1, ';') {
                                next = c + 2;
                            }
                        }
                    }
                    break;
                }
                if sf.is_punct(m, ';') {
                    sig_end = m;
                    next = m + 1;
                    break;
                }
                m += 1;
                sig_end = m;
                next = m;
            }
            Parsed::Item { item: mk(kind, name, sig_end), next }
        }
        "trait" => {
            let name = norm_ident(sf.ctext(j + 1)).to_string();
            if name.is_empty() {
                return Parsed::None;
            }
            // Find the body `{`; descend so trait methods are recorded.
            let mut m = j + 1;
            while sf.ct(m).is_some() && m < j + 200 && !sf.is_punct(m, '{') {
                if sf.is_punct(m, ';') {
                    return Parsed::Item { item: mk(ItemKind::Trait, name, m), next: m + 1 };
                }
                m += 1;
            }
            let Some(close) = sf.matching_close(m) else {
                return Parsed::Item { item: mk(ItemKind::Trait, name.clone(), m), next: m + 1 };
            };
            Parsed::EnterWithItem {
                item: mk(ItemKind::Trait, name.clone(), m),
                scope: Scope { close, label: Some(name), trait_impl: false },
                next: m + 1,
            }
        }
        "impl" => {
            // Header: `impl [<…>] Type {` or `impl [<…>] Trait for Type {`.
            let mut m = j + 1;
            let mut for_at: Option<usize> = None;
            while sf.ct(m).is_some() && m < j + 200 && !sf.is_punct(m, '{') {
                if sf.is_ident(m, "for") {
                    for_at = Some(m);
                }
                if sf.is_punct(m, ';') {
                    return Parsed::None;
                }
                m += 1;
            }
            let Some(close) = sf.matching_close(m) else { return Parsed::None };
            // Self-type label: last path ident before any `<` in the
            // segment after `for` (trait impls) or after the generics
            // (inherent impls).
            let seg_start = for_at.map_or(j + 1, |f| f + 1);
            let mut label = None;
            let mut q = seg_start;
            while q < m {
                if sf.ct(q).is_some_and(|t| t.kind == TokenKind::Ident)
                    && !matches!(sf.ctext(q), "dyn" | "mut" | "where")
                {
                    // Stop at a `where` clause.
                    label = Some(norm_ident(sf.ctext(q)).to_string());
                }
                if sf.is_ident(q, "where") {
                    break;
                }
                if sf.is_punct(q, '<') {
                    // Skip a generic-argument group heuristically: idents
                    // inside generics must not become the label, but the
                    // path may continue after (`Foo<T>::Bar` is rare in
                    // impl heads); stop refining at the first `<` past a
                    // label.
                    if label.is_some() {
                        break;
                    }
                }
                q += 1;
            }
            Parsed::Enter {
                scope: Scope { close, label, trait_impl: for_at.is_some() },
                next: m + 1,
            }
        }
        "mod" => {
            let name = norm_ident(sf.ctext(j + 1)).to_string();
            if name.is_empty() {
                return Parsed::None;
            }
            if sf.is_punct(j + 2, ';') {
                return Parsed::Item { item: mk(ItemKind::Mod, name, j + 2), next: j + 3 };
            }
            if sf.is_punct(j + 2, '{') {
                let Some(close) = sf.matching_close(j + 2) else { return Parsed::None };
                return Parsed::EnterWithItem {
                    item: mk(ItemKind::Mod, name.clone(), j + 2),
                    scope: Scope { close, label: Some(name), trait_impl: false },
                    next: j + 3,
                };
            }
            Parsed::None
        }
        "type" => {
            let name = norm_ident(sf.ctext(j + 1)).to_string();
            if name.is_empty() {
                return Parsed::None;
            }
            let (sig_end, next) = skip_to_semi(sf, j + 1, true);
            Parsed::Item { item: mk(ItemKind::TypeAlias, name, sig_end), next }
        }
        "const" | "static" => {
            let kind = if kw == "const" { ItemKind::Const } else { ItemKind::Static };
            let name_at = if sf.is_ident(j + 1, "mut") { j + 2 } else { j + 1 };
            let name = norm_ident(sf.ctext(name_at)).to_string();
            // `const _: () = …` and missing names are skipped.
            if name.is_empty() || name == "_" {
                let (_, next) = skip_to_semi(sf, name_at, false);
                return Parsed::Item {
                    item: mk(kind, "_".into(), name_at),
                    next,
                };
            }
            let (sig_end, next) = skip_to_semi(sf, name_at, true);
            Parsed::Item { item: mk(kind, name, sig_end), next }
        }
        "use" => {
            let mut segments = Vec::new();
            let mut m = j + 1;
            while sf.ct(m).is_some() && m < j + 300 && !sf.is_punct(m, ';') {
                if sf.ct(m).is_some_and(|t| t.kind == TokenKind::Ident) {
                    segments.push(norm_ident(sf.ctext(m)).to_string());
                }
                m += 1;
            }
            let name = segments.last().cloned().unwrap_or_default();
            Parsed::Use { item: mk(ItemKind::Use, name, m), segments, next: m + 1 }
        }
        // A macro invocation at item position (`thread_local! { … }`):
        // skip its delimited body so macro contents never register items.
        _ if sf.ct(j).is_some_and(|t| t.kind == TokenKind::Ident) && sf.is_punct(j + 1, '!') => {
            for d in ['{', '(', '['] {
                if sf.is_punct(j + 2, d) {
                    if let Some(close) = sf.matching_close(j + 2) {
                        return Parsed::Item {
                            item: mk(ItemKind::Mod, String::new(), j),
                            next: close + 1,
                        };
                    }
                }
            }
            Parsed::None
        }
        _ => Parsed::None,
    }
}

/// Scans from `from` to the terminating `;` at delimiter depth 0.
/// Returns `(signature end, next index)`; the signature ends at the first
/// top-level `=` when `stop_at_eq` (initializer values are not API).
fn skip_to_semi(sf: &SourceFile<'_>, from: usize, stop_at_eq: bool) -> (usize, usize) {
    let mut depth = 0i64;
    let mut sig_end: Option<usize> = None;
    let mut m = from;
    while sf.ct(m).is_some() && m < from + 600 {
        if sf.is_punct(m, '(') || sf.is_punct(m, '[') || sf.is_punct(m, '{') {
            depth += 1;
        } else if sf.is_punct(m, ')') || sf.is_punct(m, ']') || sf.is_punct(m, '}') {
            depth -= 1;
        } else if depth == 0 && sf.is_punct(m, ';') {
            return (sig_end.unwrap_or(m), m + 1);
        } else if depth == 0
            && stop_at_eq
            && sig_end.is_none()
            && sf.is_punct(m, '=')
            && !sf.is_punct_seq(m, "==")
            && !sf.is_punct_seq(m, "=>")
        {
            sig_end = Some(m);
        }
        m += 1;
    }
    (sig_end.unwrap_or(m), m)
}

/// Scans a function body for call names, lock acquisitions, local effect
/// sites, and discarded-result candidates. Loop position comes from the
/// body's control-flow sketch ([`crate::cfg`]).
fn scan_fn_body(sf: &SourceFile<'_>, open: usize, close: usize, out: &mut FnSummary) {
    let sketch = crate::cfg::sketch_body(sf, open, close);
    for q in open + 1..close {
        let Some(t) = sf.ct(q) else { break };
        if t.kind != TokenKind::Ident {
            continue;
        }
        let name = norm_ident(t.text(sf.src));
        let in_loop = sketch.in_loop(q);
        let is_call =
            sf.is_punct(q + 1, '(') && !NON_CALL_KEYWORDS.contains(&name) && !is_std_path(sf, q);
        if is_call {
            out.calls.insert(name.to_string());
            out.call_sites.push(CallSite { name: name.to_string(), line: t.line, in_loop });
        }
        if let Some((effect, what)) = crate::effects::local_effect_at(sf, q) {
            out.effects.push(EffectSite { effect, what, line: t.line, in_loop });
        }
        if let Some(d) = crate::effects::discard_at(sf, q, open) {
            out.discards.push(d);
        }
        // Lock acquisition?
        let Some((target, after)) = acquisition_at(sf, q) else { continue };
        out.effects.push(EffectSite {
            effect: Effect::Lock,
            what: format!("{target}.lock()"),
            line: t.line,
            in_loop,
        });
        let region_end = held_region_end(sf, q, open, close);
        let mut held_calls = Vec::new();
        let mut held_acquires = Vec::new();
        let mut p = after;
        while p < region_end {
            let Some(u) = sf.ct(p) else { break };
            if u.kind == TokenKind::Ident {
                let uname = norm_ident(u.text(sf.src));
                if sf.is_punct(p + 1, '(')
                    && !NON_CALL_KEYWORDS.contains(&uname)
                    && !is_std_path(sf, p)
                {
                    held_calls.push((uname.to_string(), u.line));
                }
                if let Some((nested, _)) = acquisition_at(sf, p) {
                    held_acquires.push((nested, u.line));
                }
            }
            p += 1;
        }
        out.acquires.push(Acquisition { target, line: t.line, held_calls, held_acquires });
    }
}

/// True when the identifier at code index `q` ends a path rooted in the
/// standard library (`std::array::from_fn`): such a call never resolves to
/// the workspace function that shares its name (`Matrix::from_fn`).
fn is_std_path(sf: &SourceFile<'_>, q: usize) -> bool {
    let mut head = q;
    while head >= 3
        && sf.is_punct_seq(head - 2, "::")
        && sf.ct(head - 3).is_some_and(|t| t.kind == TokenKind::Ident)
    {
        head -= 3;
    }
    head != q && matches!(sf.ctext(head), "std" | "core" | "alloc")
}

/// When code index `q` is a lock-acquiring call (`recv.lock()` or
/// `lock(&recv)`), returns `(identity, index after the call's `)`)`.
fn acquisition_at(sf: &SourceFile<'_>, q: usize) -> Option<(String, usize)> {
    let name = norm_ident(sf.ctext(q));
    if !sf.is_punct(q + 1, '(') {
        return None;
    }
    let close = sf.matching_close(q + 1)?;
    if q > 0 && sf.is_punct(q - 1, '.') {
        // Method form: `receiver.lock()`.
        if !LOCK_METHODS.contains(&name) {
            return None;
        }
        let target = receiver_ident(sf, q - 1)?;
        return Some((target, close + 1));
    }
    // Free-helper form: `lock(&self.sinks)` — identity from the argument.
    if LOCK_HELPERS.contains(&name) {
        let mut target = None;
        for a in q + 2..close {
            if sf.ct(a).is_some_and(|t| t.kind == TokenKind::Ident)
                && !matches!(sf.ctext(a), "self" | "mut")
            {
                target = Some(norm_ident(sf.ctext(a)).to_string());
            }
        }
        return target.map(|t| (t, close + 1));
    }
    None
}

/// Walks back from the `.` before a lock method to the receiver's last
/// meaningful field/variable ident: `self.records.lock()` → `records`,
/// `slot_refs[idx].lock()` → `slot_refs`, `m.lock()` → `m`.
fn receiver_ident(sf: &SourceFile<'_>, dot: usize) -> Option<String> {
    let mut p = dot;
    let mut hops = 0usize;
    while p > 0 && hops < 40 {
        hops += 1;
        p -= 1;
        // Skip a trailing index/call group.
        if sf.is_punct(p, ']') || sf.is_punct(p, ')') {
            let (openc, closec) =
                if sf.is_punct(p, ']') { ('[', ']') } else { ('(', ')') };
            let mut depth = 1i64;
            while p > 0 && depth > 0 {
                p -= 1;
                if sf.is_punct(p, closec) {
                    depth += 1;
                } else if sf.is_punct(p, openc) {
                    depth -= 1;
                }
            }
            continue;
        }
        let t = sf.ct(p)?;
        if t.kind == TokenKind::Ident {
            let name = norm_ident(t.text(sf.src));
            if name == "self" {
                return None;
            }
            return Some(name.to_string());
        }
        if sf.is_punct(p, '.') {
            continue;
        }
        return None;
    }
    None
}

/// End of the held region for the acquisition at code index `q`:
/// a `let`-bound guard lives to the end of its innermost enclosing block;
/// a temporary guard dies at the statement's `;`.
fn held_region_end(sf: &SourceFile<'_>, q: usize, body_open: usize, body_close: usize) -> usize {
    // Is the statement containing `q` a `let` binding? Scan back to the
    // nearest statement boundary.
    let mut let_bound = false;
    let mut p = q;
    let mut hops = 0usize;
    while p > body_open && hops < 80 {
        p -= 1;
        hops += 1;
        if sf.is_punct(p, ';') || sf.is_punct(p, '{') || sf.is_punct(p, '}') {
            break;
        }
        if sf.is_ident(p, "let") {
            let_bound = true;
            break;
        }
    }
    if let_bound {
        // Innermost enclosing block: scan backward tracking reverse depth.
        let mut depth = 0i64;
        let mut p = q;
        while p > body_open {
            p -= 1;
            if sf.is_punct(p, '}') {
                depth += 1;
            } else if sf.is_punct(p, '{') {
                if depth == 0 {
                    return sf.matching_close(p).unwrap_or(body_close).min(body_close);
                }
                depth -= 1;
            }
        }
        body_close
    } else {
        // To the statement's `;` at relative delimiter depth 0 (or the
        // enclosing block close, whichever comes first).
        let mut depth = 0i64;
        let mut p = q;
        while p < body_close {
            if sf.is_punct(p, '(') || sf.is_punct(p, '[') || sf.is_punct(p, '{') {
                depth += 1;
            } else if sf.is_punct(p, ')') || sf.is_punct(p, ']') || sf.is_punct(p, '}') {
                depth -= 1;
                if depth < 0 {
                    return p;
                }
            } else if depth == 0 && sf.is_punct(p, ';') {
                return p;
            }
            p += 1;
        }
        body_close
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(src: &str) -> FileModel {
        extract_file("crates/demo/src/lib.rs", "easytime-demo".into(), src)
    }

    #[test]
    fn items_record_kind_name_vis_and_doc() {
        let src = "\
/// Documented.\n\
pub fn f(x: u32) -> u32 { x }\n\
pub(crate) struct S { x: u32 }\n\
enum E { A }\n\
pub const C: u32 = 1;\n\
pub type Alias = u32;\n\
pub static S2: u32 = 2;\n";
        let fm = file(src);
        let rows: Vec<(ItemKind, &str, Vis, bool)> =
            fm.items.iter().map(|i| (i.kind, i.name.as_str(), i.vis, i.has_doc)).collect();
        assert_eq!(
            rows,
            vec![
                (ItemKind::Fn, "f", Vis::Pub, true),
                (ItemKind::Struct, "S", Vis::Restricted, false),
                (ItemKind::Enum, "E", Vis::Private, false),
                (ItemKind::Const, "C", Vis::Pub, false),
                (ItemKind::TypeAlias, "Alias", Vis::Pub, false),
                (ItemKind::Static, "S2", Vis::Pub, false),
            ]
        );
        assert_eq!(fm.items[0].signature, "pub fn f(x: u32) -> u32");
        assert_eq!(fm.items[3].signature, "pub const C: u32");
    }

    #[test]
    fn impl_methods_carry_type_context() {
        let src = "\
pub struct S;\n\
impl S {\n\
    pub fn new() -> S { S }\n\
    fn helper(&self) {}\n\
}\n\
impl std::fmt::Display for S {\n\
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result { Ok(()) }\n\
}\n";
        let fm = file(src);
        let new = fm.items.iter().find(|i| i.name == "new").expect("new recorded");
        assert_eq!(new.context, "S");
        assert_eq!(new.vis, Vis::Pub);
        assert!(!new.in_trait_impl);
        let fmt = fm.items.iter().find(|i| i.name == "fmt").expect("fmt recorded");
        assert_eq!(fmt.context, "S");
        assert!(fmt.in_trait_impl);
        assert_eq!(fmt.vis, Vis::Private);
    }

    #[test]
    fn mods_nest_and_fn_bodies_hide_locals() {
        let src = "\
pub mod outer {\n\
    pub mod inner {\n\
        pub fn g() { let local = 1; fn nested() {} }\n\
    }\n\
}\n";
        let fm = file(src);
        let g = fm.items.iter().find(|i| i.name == "g").expect("g recorded");
        assert_eq!(g.context, "outer::inner");
        // Locals and nested fns inside bodies are not items.
        assert!(!fm.items.iter().any(|i| i.name == "local" || i.name == "nested"));
    }

    #[test]
    fn trait_methods_inherit_recording() {
        let src = "\
pub trait Forecaster {\n\
    fn fit(&mut self, data: &[f64]);\n\
    fn update(&mut self, appended: &[f64]) -> bool { false }\n\
}\n";
        let fm = file(src);
        let fit = fm.items.iter().find(|i| i.name == "fit").expect("fit recorded");
        assert_eq!(fit.context, "Forecaster");
        assert!(fm.items.iter().any(|i| i.name == "update"));
    }

    #[test]
    fn macro_invocation_bodies_are_skipped() {
        let src = "\
thread_local! {\n\
    static LOCAL: u32 = 0;\n\
}\n\
pub fn after() {}\n";
        let fm = file(src);
        assert!(!fm.items.iter().any(|i| i.name == "LOCAL"));
        assert!(fm.items.iter().any(|i| i.name == "after"));
    }

    #[test]
    fn raw_identifiers_normalize_in_items_uses_and_mentions() {
        let src = "\
pub fn r#match() {}\n\
use easytime_db::r#type;\n\
pub fn f() { let _ = r#type(); }\n";
        let fm = file(src);
        assert!(fm.items.iter().any(|i| i.name == "match"));
        assert!(fm.uses.iter().any(|u| u.segments == vec!["easytime_db", "type"]));
        assert!(fm.mentions.contains("type"));
        assert!(!fm.mentions.contains("r#type"));
    }

    #[test]
    fn use_paths_flatten_groups_and_track_crate_and_super() {
        let src = "\
use crate::alpha::Beta;\n\
use super::gamma;\n\
use easytime_linalg::{Matrix, solve::ridge};\n";
        let fm = file(src);
        assert_eq!(fm.uses.len(), 3);
        assert_eq!(fm.uses[0].segments, vec!["crate", "alpha", "Beta"]);
        assert_eq!(fm.uses[1].segments, vec!["super", "gamma"]);
        assert_eq!(fm.uses[2].segments, vec!["easytime_linalg", "Matrix", "solve", "ridge"]);
        assert_eq!(fm.ext_refs.len(), 1);
        assert_eq!(fm.ext_refs[0].lib_name, "easytime_linalg");
    }

    #[test]
    fn lock_summaries_capture_identity_and_held_calls() {
        let src = "\
pub fn temporary(&self) {\n\
    self.records.lock().push(compute());\n\
    after();\n\
}\n\
pub fn bound(&self) {\n\
    let mut g = self.knowledge.lock();\n\
    record(&mut g);\n\
}\n\
pub fn helper_form(r: &R) {\n\
    lock(&r.sinks).push(x);\n\
}\n\
pub fn indexed(refs: &[M], i: usize) {\n\
    refs[i].lock();\n\
}\n";
        let fm = file(src);
        let t = &fm.fns[0].acquires[0];
        assert_eq!(t.target, "records");
        // `after()` is outside the temporary's statement.
        assert!(t.held_calls.iter().any(|(c, _)| c == "push"));
        assert!(t.held_calls.iter().any(|(c, _)| c == "compute"));
        assert!(!t.held_calls.iter().any(|(c, _)| c == "after"));
        let b = &fm.fns[1].acquires[0];
        assert_eq!(b.target, "knowledge");
        assert!(b.held_calls.iter().any(|(c, _)| c == "record"));
        let h = &fm.fns[2].acquires[0];
        assert_eq!(h.target, "sinks");
        assert!(h.held_calls.iter().any(|(c, _)| c == "push"));
        let ix = &fm.fns[3].acquires[0];
        assert_eq!(ix.target, "refs");
    }

    #[test]
    fn let_bound_guard_scopes_to_inner_block() {
        let src = "\
pub fn scoped(&self) {\n\
    {\n\
        let mut db = self.knowledge.lock();\n\
        write(&mut db);\n\
    }\n\
    outside();\n\
}\n";
        let fm = file(src);
        let a = &fm.fns[0].acquires[0];
        assert!(a.held_calls.iter().any(|(c, _)| c == "write"));
        assert!(!a.held_calls.iter().any(|(c, _)| c == "outside"));
    }

    #[test]
    fn nested_direct_acquisitions_are_recorded() {
        let src = "\
pub fn nested(&self) {\n\
    let a = self.first.lock();\n\
    let b = self.second.lock();\n\
    use_both(a, b);\n\
}\n";
        let fm = file(src);
        let a = &fm.fns[0].acquires[0];
        assert_eq!(a.target, "first");
        assert!(a.held_acquires.iter().any(|(t, _)| t == "second"));
    }

    #[test]
    fn manifest_parsing_extracts_name_and_dep_edges() {
        let toml = "\
[package]\n\
name = \"easytime-demo\"\n\
version = \"0.1.0\"\n\
\n\
[dependencies]\n\
easytime-linalg.workspace = true\n\
easytime-rng = { path = \"../rng\" }\n\
\n\
[dev-dependencies]\n\
easytime-data.workspace = true\n";
        let info = parse_manifest("crates/demo/Cargo.toml", toml).expect("parsed");
        assert_eq!(info.name, "easytime-demo");
        assert_eq!(info.lib_name, "easytime_demo");
        assert_eq!(info.dir, "crates/demo");
        let deps: Vec<&str> = info.deps.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(deps, vec!["easytime-linalg", "easytime-rng"]);
        let dev: Vec<&str> = info.dev_deps.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(dev, vec!["easytime-data"]);
    }

    #[test]
    fn model_build_is_order_independent() {
        let a = SourceEntry::new("crates/a/Cargo.toml", "[package]\nname = \"easytime-a\"\n");
        let b = SourceEntry::new("crates/a/src/lib.rs", "pub fn f() {}\n");
        let c = SourceEntry::new("crates/a/src/g.rs", "pub fn g() {}\n");
        let fwd = WorkspaceModel::build(&[a.clone(), b.clone(), c.clone()]);
        let rev = WorkspaceModel::build(&[c, b, a]);
        assert_eq!(fwd.files.len(), rev.files.len());
        for (x, y) in fwd.files.iter().zip(rev.files.iter()) {
            assert_eq!(x.path, y.path);
            assert_eq!(x.items, y.items);
        }
        assert_eq!(fwd.crates.keys().collect::<Vec<_>>(), rev.crates.keys().collect::<Vec<_>>());
    }
}
