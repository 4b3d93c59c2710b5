//! Workspace lint driver.
//!
//! ```text
//! easytime-lint [--format text|json] [--api-baseline PATH] [--write-api-baseline PATH]
//!               [--semantic-out PATH] [--effects-out PATH] [--explain RULE] [--out PATH]
//! ```
//!
//! Phase 1 (per-file rules R2–R13) always runs; phases 2 and 3 (the
//! workspace model with semantic rules R15–R17 — plus R14 when
//! `--api-baseline` is given — and the effect rules R18–R20) run on the
//! same path-sorted source set. `--semantic-out` writes the semantic size
//! stats as JSON; `--effects-out` writes the closed per-function effect
//! table. Exits non-zero iff it reports any diagnostic.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use easytime_lint::{
    analyze_workspace, api, collect_workspace_sources, diagnostics_to_json, lint_sources, model,
    rule_doc, semantic_stats_to_json, workspace_effect_table_json,
};

enum Format {
    Text,
    Json,
}

struct Options {
    format: Format,
    api_baseline: Option<PathBuf>,
    write_api_baseline: Option<PathBuf>,
    semantic_out: Option<PathBuf>,
    effects_out: Option<PathBuf>,
    out: Option<PathBuf>,
    explain: Option<String>,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        format: Format::Text,
        api_baseline: None,
        write_api_baseline: None,
        semantic_out: None,
        effects_out: None,
        out: None,
        explain: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let value_for = |flag: &str, args: &mut dyn Iterator<Item = String>| {
            args.next().ok_or_else(|| format!("{flag} requires a value"))
        };
        match arg.as_str() {
            "--format" => {
                opts.format = match value_for("--format", &mut args)?.as_str() {
                    "text" => Format::Text,
                    "json" => Format::Json,
                    other => return Err(format!("unknown format `{other}` (want text|json)")),
                };
            }
            "--api-baseline" => {
                opts.api_baseline = Some(value_for("--api-baseline", &mut args)?.into());
            }
            "--write-api-baseline" => {
                opts.write_api_baseline =
                    Some(value_for("--write-api-baseline", &mut args)?.into());
            }
            "--semantic-out" => {
                opts.semantic_out = Some(value_for("--semantic-out", &mut args)?.into());
            }
            "--effects-out" => {
                opts.effects_out = Some(value_for("--effects-out", &mut args)?.into());
            }
            "--out" => opts.out = Some(value_for("--out", &mut args)?.into()),
            "--explain" => opts.explain = Some(value_for("--explain", &mut args)?),
            "--help" | "-h" => {
                println!(
                    "usage: easytime-lint [--format text|json] [--api-baseline PATH]\n\
                     \x20                    [--write-api-baseline PATH] [--semantic-out PATH]\n\
                     \x20                    [--effects-out PATH] [--explain RULE] [--out PATH]"
                );
                return Err(String::new());
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(opts)
}

/// Prints one rule's documentation from the shared [`easytime_lint::RULE_DOCS`]
/// table (the same source the README rule table is generated from).
fn explain(code: &str) -> ExitCode {
    let Some(doc) = rule_doc(code) else {
        eprintln!(
            "easytime-lint: no rule `{code}`; known rules: {}",
            easytime_lint::RULE_DOCS.iter().map(|d| d.code).collect::<Vec<_>>().join(", ")
        );
        return ExitCode::from(2);
    };
    println!("{} — {}", doc.code, doc.enforces);
    println!();
    println!("rationale: {}", doc.rationale);
    println!("scope:     {}", doc.scope);
    println!("hatch:     // lint: allow({}) — <written justification>", doc.allow);
    ExitCode::SUCCESS
}

fn workspace_root() -> PathBuf {
    // The crate lives at <root>/crates/lint, so the workspace root is two
    // levels up from the manifest dir baked in at compile time. Fall back to
    // the current directory for out-of-tree invocations of the raw binary.
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    match manifest.parent().and_then(Path::parent) {
        Some(root) if root.join("Cargo.toml").is_file() => root.to_path_buf(),
        _ => PathBuf::from("."),
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) if e.is_empty() => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("easytime-lint: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(code) = &opts.explain {
        return explain(code);
    }

    let root = workspace_root();
    let sources = match collect_workspace_sources(&root) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("easytime-lint: failed to scan {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    let checked = sources.len();

    // Deliberate API-baseline regeneration: build the model, write the
    // snapshot, and stop — the R14 comparison would be vacuously clean.
    if let Some(path) = &opts.write_api_baseline {
        let ws = model::WorkspaceModel::build(&sources);
        let entries = api::api_entries(&ws);
        let content = api::render_api_baseline(&entries);
        if let Err(e) = std::fs::write(path, content) {
            eprintln!("easytime-lint: cannot write API baseline {}: {e}", path.display());
            return ExitCode::from(2);
        }
        eprintln!(
            "easytime-lint: wrote API baseline with {} entries to {}",
            entries.len(),
            path.display()
        );
        return ExitCode::SUCCESS;
    }

    let mut diags = lint_sources(&sources);

    let api_text = match &opts.api_baseline {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(t) => Some((path.clone(), t)),
            Err(e) => {
                eprintln!("easytime-lint: cannot read API baseline {}: {e}", path.display());
                return ExitCode::from(2);
            }
        },
        None => None,
    };
    let api_ref = api_text
        .as_ref()
        .map(|(p, t)| (p.display().to_string(), t.as_str()));
    let (semantic_diags, stats) =
        analyze_workspace(&sources, api_ref.as_ref().map(|(p, t)| (p.as_str(), *t)));
    diags.extend(semantic_diags);
    diags.sort_by(|a, b| {
        (a.file.display().to_string(), a.line, a.rule.code(), a.message.as_str()).cmp(&(
            b.file.display().to_string(),
            b.line,
            b.rule.code(),
            b.message.as_str(),
        ))
    });

    if let Some(path) = &opts.semantic_out {
        if let Err(e) = std::fs::write(path, semantic_stats_to_json(&stats)) {
            eprintln!("easytime-lint: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }

    if let Some(path) = &opts.effects_out {
        if let Err(e) = std::fs::write(path, workspace_effect_table_json(&sources)) {
            eprintln!("easytime-lint: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }

    let rendered = match opts.format {
        Format::Json => diagnostics_to_json(&diags),
        Format::Text => diags.iter().map(|d| format!("{d}\n")).collect(),
    };
    match &opts.out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &rendered) {
                eprintln!("easytime-lint: cannot write {}: {e}", path.display());
                return ExitCode::from(2);
            }
        }
        None => print!("{rendered}"),
    }

    eprintln!("easytime-lint: checked {checked} files: {} error(s)", diags.len());
    if diags.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
