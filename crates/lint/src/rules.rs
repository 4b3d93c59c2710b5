//! The token-level lint rules (R4, R6, R8, R12, R13).
//!
//! Every rule here runs over a [`SourceFile`] token stream, so string
//! literals and comments can never produce false positives, and
//! `#[cfg(test)]` exemption follows real item boundaries. R2 (dependency
//! allowlist) lints `Cargo.toml` manifests and lives in the crate root.

use crate::engine::SourceFile;
use crate::lexer::TokenKind;
use crate::{Diagnostic, FileClass, Rule};
use std::collections::BTreeSet;
use std::path::Path;

/// Order-revealing methods on hash containers flagged by R8.
const HASH_ITER_METHODS: [&str; 7] =
    ["iter", "iter_mut", "into_iter", "keys", "values", "values_mut", "drain"];
/// The one crate allowed to read the wall clock (R8); everything else —
/// including the `easytime-obs` span internals — goes through
/// `easytime_clock::{Stopwatch, Clock}`.
const CLOCK_DIR: &str = "crates/clock/src/";
/// Scrutinee identifiers that mark a `match` as refit-policy dispatch
/// (R12): such matches must stay exhaustive so new `RefitPolicy` variants
/// break the build instead of falling through a `_` arm.
const POLICY_IDENTS: [&str; 3] = ["refit", "refit_policy", "RefitPolicy"];

/// Shared reporting context: applies escape-hatch annotations and collects
/// diagnostics (including malformed-annotation reports).
struct Reporter<'a, 'b> {
    sf: &'b SourceFile<'a>,
    path: &'b Path,
    diags: Vec<Diagnostic>,
}

impl Reporter<'_, '_> {
    /// Reports `rule` at `line` unless a justified annotation waives it; a
    /// bare (unjustified) annotation is itself reported as R0.
    fn report(&mut self, rule: Rule, line: usize, message: String) {
        if let Some(mark) = self.sf.allow_on(line, rule.allow_name()) {
            if !mark.justified {
                self.diags.push(Diagnostic::new(
                    self.path,
                    mark.marker_line,
                    Rule::BadAnnotation,
                    format!(
                        "escape hatch `lint: allow({})` requires a written justification",
                        rule.allow_name()
                    ),
                ));
            }
            return;
        }
        self.diags.push(Diagnostic::new(self.path, line, rule, message));
    }
}

/// Runs all token-level rules over one Rust source file.
pub(crate) fn lint_tokens(rel_path: &Path, class: FileClass, sf: &SourceFile<'_>) -> Vec<Diagnostic> {
    let mut r = Reporter { sf, path: rel_path, diags: Vec::new() };
    let n = sf.code.len();
    let in_test = |k: usize| sf.ct(k).is_some_and(|t| sf.in_test_region(t.start));
    let path_str = rel_path.to_string_lossy().replace('\\', "/");

    let hash_names = if class.is_library { hash_container_names(sf) } else { BTreeSet::new() };

    for k in 0..n {
        let line = sf.ct(k).map_or(1, |t| t.line);

        // ---- R4: public Result APIs must use typed errors. ----
        if class.is_library && !in_test(k) && sf.is_ident(k, "pub") {
            if let Some(msg) = boxed_error_fn(sf, k) {
                r.report(Rule::TypedError, line, msg);
            }
        }

        // ---- R6: NaN-unsafe float ordering (applies everywhere — tests
        // and binaries rank things too, and rankings must be
        // deterministic). ----
        if sf.is_ident(k, "partial_cmp") && k > 0 && sf.is_punct(k - 1, '.') {
            if let Some(what) = nan_unsafe_ordering(sf, k) {
                r.report(
                    Rule::FloatOrdering,
                    line,
                    format!(
                        "NaN-unsafe comparator: `partial_cmp(..).{what}` violates strict weak \
                         ordering when a value is NaN, making sorts panic-prone and rankings \
                         non-deterministic; use `f64::total_cmp` (or annotate with \
                         `// lint: allow(float-ordering) — <why>`)"
                    ),
                );
            }
        }

        // ---- R8a: unordered hash-container iteration. ----
        if class.is_library && !in_test(k) {
            if let Some((name, how)) = hash_iteration(sf, k, &hash_names) {
                r.report(
                    Rule::HashOrder,
                    line,
                    format!(
                        "iteration over hash container `{name}` ({how}) observes \
                         nondeterministic order; use `BTreeMap`/`BTreeSet`, sort before use, \
                         or annotate with `// lint: allow(hash-order) — <why>`"
                    ),
                );
            }
        }

        // ---- R8b: wall-clock reads outside the one timing helper. ----
        if class.is_library && !in_test(k) && !path_str.starts_with(CLOCK_DIR) {
            let instant_now = sf.is_ident(k, "Instant")
                && sf.is_punct_seq(k + 1, "::")
                && sf.is_ident(k + 3, "now");
            let system_time = sf.is_ident(k, "SystemTime");
            if instant_now || system_time {
                let what = if instant_now { "Instant::now" } else { "SystemTime" };
                r.report(
                    Rule::WallClock,
                    line,
                    format!(
                        "direct wall-clock read (`{what}`) in library code; route timing \
                         through `easytime_clock::Stopwatch` so it stays auditable and \
                         mockable (or annotate with `// lint: allow(wall-clock) — <why>`)"
                    ),
                );
            }
        }

        // ---- R13: materialized transpose feeding a product in library
        // code. `Option::transpose()` chains are naturally exempt: their
        // continuation is `?` / `.ok_or(..)`, never `.matmul(`. ----
        if class.is_library && !in_test(k) {
            if let Some(method) = transpose_product(sf, k) {
                r.report(
                    Rule::MaterializedTranspose,
                    line,
                    format!(
                        "`.transpose().{method}(..)` materializes the transposed matrix only to \
                         stream through it once; use the fused `Matrix::tr_{method}` kernel \
                         (or annotate with `// lint: allow(materialized-transpose) — <why>`)"
                    ),
                );
            }
        }

        // ---- R12: refit-policy matches must stay exhaustive (applies
        // everywhere — binaries and tests dispatch on the policy too, and
        // a new variant must be handled, not silently defaulted). ----
        if sf.is_ident(k, "match") {
            if let Some(arm_line) = policy_wildcard_arm(sf, k) {
                r.report(
                    Rule::PolicyWildcard,
                    arm_line,
                    "`_` arm in a `RefitPolicy` match; spell every variant out so adding a \
                     policy is a compile error at each dispatch site (or annotate with \
                     `// lint: allow(policy-wildcard) — <why>`)"
                        .into(),
                );
            }
        }
    }

    r.diags
}

/// R13 helper: when code index `k` is a `.transpose()` call whose result
/// immediately feeds `.matmul(` / `.matvec(`, returns the product method
/// name.
fn transpose_product(sf: &SourceFile<'_>, k: usize) -> Option<&'static str> {
    if !(k > 0 && sf.is_punct(k - 1, '.') && sf.is_ident(k, "transpose") && sf.is_punct(k + 1, '('))
    {
        return None;
    }
    let close = sf.matching_close(k + 1)?;
    if !sf.is_punct(close + 1, '.') {
        return None;
    }
    ["matmul", "matvec"]
        .into_iter()
        .find(|&method| sf.is_ident(close + 2, method) && sf.is_punct(close + 3, '('))
}

/// R12 helper: when the `match` at code index `k` scrutinizes a refit
/// policy (any scrutinee identifier in [`POLICY_IDENTS`]) and its body
/// contains a top-level `_` arm, returns the arm's line.
fn policy_wildcard_arm(sf: &SourceFile<'_>, k: usize) -> Option<usize> {
    // Scrutinee: tokens up to the body `{` at paren/bracket depth 0. Rust
    // forbids bare struct literals in match scrutinees, so the first
    // top-level `{` opens the body.
    let mut is_policy = false;
    let mut depth = 0i64;
    let mut j = k + 1;
    let body_open = loop {
        let t = sf.ct(j)?;
        if j > k + 200 {
            return None;
        }
        if depth == 0 && sf.is_punct(j, '{') {
            break j;
        }
        if sf.is_punct(j, '(') || sf.is_punct(j, '[') {
            depth += 1;
        } else if sf.is_punct(j, ')') || sf.is_punct(j, ']') {
            depth -= 1;
        } else if t.kind == TokenKind::Ident && POLICY_IDENTS.contains(&t.text(sf.src)) {
            is_policy = true;
        }
        j += 1;
    };
    if !is_policy {
        return None;
    }
    // A top-level arm pattern sits at brace depth 1 with no surrounding
    // parens/brackets; `_` bindings inside patterns like `Some(_)` or
    // nested bodies are deeper and never flagged.
    let body_close = sf.matching_close(body_open)?;
    let mut brace = 1i64;
    let mut other = 0i64;
    for q in body_open + 1..body_close {
        if sf.is_punct(q, '{') {
            brace += 1;
        } else if sf.is_punct(q, '}') {
            brace -= 1;
        } else if sf.is_punct(q, '(') || sf.is_punct(q, '[') {
            other += 1;
        } else if sf.is_punct(q, ')') || sf.is_punct(q, ']') {
            other -= 1;
        } else if brace == 1
            && other == 0
            && sf.is_ident(q, "_")
            && (sf.is_punct_seq(q + 1, "=>") || sf.is_ident(q + 1, "if"))
        {
            return Some(sf.ct(q).map_or(1, |t| t.line));
        }
    }
    None
}

/// R4 helper: when code index `k` (`pub`) heads a function whose return
/// type contains `Box<dyn … Error …>`, returns the diagnostic message.
fn boxed_error_fn(sf: &SourceFile<'_>, k: usize) -> Option<String> {
    let mut j = k + 1;
    // Restricted visibility: pub(crate), pub(super), pub(in path).
    if sf.is_punct(j, '(') {
        j = sf.matching_close(j)? + 1;
    }
    // Qualifiers before `fn`.
    loop {
        let t = sf.ctext(j);
        if matches!(t, "const" | "async" | "unsafe" | "extern")
            || sf.ct(j).is_some_and(|t| t.kind == TokenKind::StrLit)
        {
            j += 1;
        } else {
            break;
        }
    }
    if !sf.is_ident(j, "fn") {
        return None;
    }
    // Scan the signature up to the body `{` or a `;` outside parens and
    // brackets (an array type's `;` is part of the signature).
    let mut arrow = None;
    let mut end = j + 1;
    let mut m = j + 1;
    let mut depth = 0usize;
    while sf.ct(m).is_some() && m < j + 400 {
        if sf.is_punct(m, '{') || (depth == 0 && sf.is_punct(m, ';')) {
            end = m;
            break;
        }
        if sf.is_punct(m, '(') || sf.is_punct(m, '[') {
            depth += 1;
        } else if sf.is_punct(m, ')') || sf.is_punct(m, ']') {
            depth = depth.saturating_sub(1);
        }
        if sf.is_punct_seq(m, "->") {
            arrow = Some(m);
        }
        m += 1;
        end = m;
    }
    let arrow = arrow?;
    let mut saw_box = false;
    let mut saw_dyn = false;
    let mut saw_error = false;
    for q in arrow..end {
        if sf.is_ident(q, "Box") {
            saw_box = true;
        }
        if sf.is_ident(q, "dyn") {
            saw_dyn = true;
        }
        if sf.ct(q).is_some_and(|t| t.kind == TokenKind::Ident) && sf.ctext(q).contains("Error")
        {
            saw_error = true;
        }
    }
    (saw_box && saw_dyn && saw_error).then(|| {
        "public API returns `Box<dyn Error>`; use the crate's typed error enum".to_string()
    })
}

/// R6 helper: when the `partial_cmp` call at code index `k` is chained
/// into `.unwrap()` / `.unwrap_or(Equal)` / `.unwrap_or_else(|| Equal)`,
/// returns the offending continuation for the message.
fn nan_unsafe_ordering(sf: &SourceFile<'_>, k: usize) -> Option<&'static str> {
    if !sf.is_punct(k + 1, '(') {
        return None;
    }
    let close = sf.matching_close(k + 1)?;
    if !sf.is_punct(close + 1, '.') {
        return None;
    }
    let m = close + 2;
    if sf.is_ident(m, "unwrap") && sf.is_punct(m + 1, '(') {
        return Some("unwrap()");
    }
    for (method, label) in [
        ("unwrap_or", "unwrap_or(Ordering::Equal)"),
        ("unwrap_or_else", "unwrap_or_else(.. Ordering::Equal)"),
    ] {
        if sf.is_ident(m, method) && sf.is_punct(m + 1, '(') {
            let argc = sf.matching_close(m + 1)?;
            for q in m + 2..argc {
                if sf.is_ident(q, "Equal") {
                    return Some(label);
                }
            }
        }
    }
    None
}

/// R8a helper, pass 1: names bound to `HashMap`/`HashSet` in this file —
/// `let name: HashMap<..>`, `name: HashSet<..>` fields, and
/// `let name = HashMap::new()` initialisers.
fn hash_container_names(sf: &SourceFile<'_>) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for k in 0..sf.code.len() {
        if !(sf.is_ident(k, "HashMap") || sf.is_ident(k, "HashSet")) {
            continue;
        }
        // Walk back over a `std::collections::` path prefix.
        let mut b = k;
        while b >= 3 && sf.is_punct_seq(b - 2, "::") {
            if sf.ct(b - 3).is_some_and(|t| t.kind == TokenKind::Ident) {
                b -= 3;
            } else {
                break;
            }
        }
        // ... and over reference sigils in types like `&'a mut HashMap<..>`.
        while b >= 1
            && (sf.is_punct(b - 1, '&')
                || sf.is_ident(b - 1, "mut")
                || sf.ct(b - 1).is_some_and(|t| t.kind == TokenKind::Lifetime))
        {
            b -= 1;
        }
        if b >= 2
            && sf.is_punct(b - 1, ':')
            && !sf.is_punct(b - 2, ':')
            && sf.ct(b - 2).is_some_and(|t| t.kind == TokenKind::Ident)
        {
            // `name : [path::]HashMap` — a typed binding or field.
            names.insert(sf.ctext(b - 2).to_string());
        } else if b >= 2
            && sf.is_punct(b - 1, '=')
            && sf.ct(b - 2).is_some_and(|t| t.kind == TokenKind::Ident)
        {
            // `let name = HashMap::new()`.
            names.insert(sf.ctext(b - 2).to_string());
        }
    }
    names
}

/// R8a helper, pass 2: when code index `k` iterates one of the collected
/// hash containers, returns `(name, how)` for the message.
fn hash_iteration(
    sf: &SourceFile<'_>,
    k: usize,
    names: &BTreeSet<String>,
) -> Option<(String, &'static str)> {
    let t = sf.ct(k)?;
    if t.kind != TokenKind::Ident {
        return None;
    }
    let name = t.text(sf.src);
    if !names.contains(name) {
        return None;
    }
    // `name.iter()` and friends.
    if sf.is_punct(k + 1, '.') && sf.is_punct(k + 3, '(') {
        let method = sf.ctext(k + 2);
        if let Some(m) = HASH_ITER_METHODS.iter().find(|&&m| m == method) {
            return Some((name.to_string(), m));
        }
    }
    // `for x in &name {` / `for x in name {`.
    if sf.is_punct(k + 1, '{') {
        let mut b = k;
        while b > 0 && (sf.is_punct(b - 1, '&') || sf.is_ident(b - 1, "mut")) {
            b -= 1;
        }
        if b > 0 && sf.is_ident(b - 1, "in") {
            return Some((name.to_string(), "for-in"));
        }
    }
    None
}
