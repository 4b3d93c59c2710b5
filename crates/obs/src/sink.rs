//! Sinks: `trace.jsonl` (one JSON object per span/event, in start order)
//! and `metrics.json` (aggregated summary + run manifest).
//!
//! Both renderers are pure functions of a [`TraceData`], so the same data
//! always produces the same bytes — the determinism tests rely on this.

use crate::event::EventRecord;
use crate::json::{push_attr, push_f64, push_str};
use crate::metrics::Histogram;
use crate::span::{AttrValue, SpanRecord};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Version of the `metrics.json` schema; CI fails when the emitted file
/// doesn't carry this exact value, making schema drift loud.
/// v2: histogram objects gained an `"invalid"` counter (NaN/±inf split
/// out of `"overflow"`).
pub(crate) const METRICS_SCHEMA_VERSION: u64 = 2;

/// Everything recorded between two drains, ready for rendering.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct TraceData {
    /// Finished spans, sorted by start sequence.
    pub spans: Vec<SpanRecord>,
    /// Events, sorted by sequence.
    pub events: Vec<EventRecord>,
    /// Monotonic counters, merged across threads.
    pub counters: BTreeMap<String, u64>,
    /// Gauges after cross-thread last-write-wins resolution.
    pub gauges: BTreeMap<String, f64>,
    /// Histograms, merged across threads.
    pub histograms: BTreeMap<String, Histogram>,
    /// Per-span-name log2 duration histograms, built automatically at
    /// drain from every finished span — no manual `observe` calls.
    /// Rendered as quantiles in `PROFILE.json` rather than dumped into
    /// `metrics.json` (64 buckets per name would swamp it).
    pub durations: BTreeMap<String, Histogram>,
    /// Run manifest entries.
    pub manifest: BTreeMap<String, AttrValue>,
}

/// Aggregate of all spans sharing a name — the per-stage summary in
/// `metrics.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageSummary {
    /// Number of spans with this name.
    pub count: u64,
    /// Summed duration in nanoseconds.
    pub total_ns: u64,
    /// Shortest span in nanoseconds.
    pub min_ns: u64,
    /// Longest span in nanoseconds.
    pub max_ns: u64,
}

impl TraceData {
    /// Per-stage summaries keyed by span name.
    pub fn stages(&self) -> BTreeMap<&str, StageSummary> {
        let mut out: BTreeMap<&str, StageSummary> = BTreeMap::new();
        for s in &self.spans {
            let entry = out.entry(s.name.as_str()).or_insert(StageSummary {
                count: 0,
                total_ns: 0,
                min_ns: u64::MAX,
                max_ns: 0,
            });
            entry.count += 1;
            entry.total_ns += s.dur_ns;
            entry.min_ns = entry.min_ns.min(s.dur_ns);
            entry.max_ns = entry.max_ns.max(s.dur_ns);
        }
        out
    }

    /// Fraction of `root`'s duration covered by its direct children —
    /// the "per-stage spans cover ≥ 95% of wall time" acceptance check.
    /// Returns 1.0 for a zero-length root (nothing left uncovered).
    pub fn child_coverage(&self, root_id: u64) -> f64 {
        let Some(root) = self.spans.iter().find(|s| s.id == root_id) else {
            return 0.0;
        };
        if root.dur_ns == 0 {
            return 1.0;
        }
        let covered: u64 =
            self.spans.iter().filter(|s| s.parent == root_id).map(|s| s.dur_ns).sum();
        // Ratio of like-scaled nanosecond totals; u64→f64 rounding is
        // immaterial at this precision.
        covered.min(root.dur_ns) as f64 / root.dur_ns as f64
    }
}

fn push_attrs_object(out: &mut String, attrs: &[(&'static str, AttrValue)]) {
    let sorted: BTreeMap<&str, &AttrValue> =
        attrs.iter().map(|(k, v)| (*k, v)).collect();
    out.push('{');
    for (i, (k, v)) in sorted.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_str(out, k);
        out.push(':');
        push_attr(out, v);
    }
    out.push('}');
}

/// Renders the trace as JSON Lines: one object per span/event, sorted by
/// start sequence so nesting reads top-down.
pub fn render_trace_jsonl(data: &TraceData) -> String {
    let mut out = String::new();
    let mut spans = data.spans.iter().peekable();
    let mut events = data.events.iter().peekable();
    loop {
        let next_span_seq = spans.peek().map(|s| s.seq);
        let next_event_seq = events.peek().map(|e| e.seq);
        match (next_span_seq, next_event_seq) {
            (None, None) => break,
            (Some(ss), es) if es.is_none_or(|es| ss <= es) => {
                if let Some(s) = spans.next() {
                    push_span_line(&mut out, s);
                }
            }
            _ => {
                if let Some(e) = events.next() {
                    push_event_line(&mut out, e);
                }
            }
        }
    }
    out
}

fn push_span_line(out: &mut String, s: &SpanRecord) {
    out.push_str("{\"type\":\"span\",\"seq\":");
    out.push_str(&format!("{}", s.seq));
    out.push_str(",\"id\":");
    out.push_str(&format!("{}", s.id));
    out.push_str(",\"parent\":");
    out.push_str(&format!("{}", s.parent));
    out.push_str(",\"name\":");
    push_str(out, &s.name);
    out.push_str(",\"start_ns\":");
    out.push_str(&format!("{}", s.start_ns));
    out.push_str(",\"dur_ns\":");
    out.push_str(&format!("{}", s.dur_ns));
    // Allocation fields only appear when the counting hook recorded
    // something, keeping plain traces byte-compatible with schema v1.
    if s.allocs > 0 || s.alloc_bytes > 0 {
        out.push_str(&format!(",\"allocs\":{},\"alloc_bytes\":{}", s.allocs, s.alloc_bytes));
    }
    if !s.attrs.is_empty() {
        out.push_str(",\"attrs\":");
        push_attrs_object(out, &s.attrs);
    }
    out.push_str("}\n");
}

fn push_event_line(out: &mut String, e: &EventRecord) {
    out.push_str("{\"type\":\"event\",\"seq\":");
    out.push_str(&format!("{}", e.seq));
    out.push_str(",\"t_ns\":");
    out.push_str(&format!("{}", e.t_ns));
    out.push_str(",\"span\":");
    out.push_str(&format!("{}", e.span));
    out.push_str(",\"level\":");
    push_str(out, e.level.as_str());
    out.push_str(",\"target\":");
    push_str(out, &e.target);
    out.push_str(",\"message\":");
    push_str(out, &e.message);
    out.push_str("}\n");
}

/// Renders the aggregated `metrics.json` document (2-space indent, keys in
/// sorted order, schema version pinned to [`METRICS_SCHEMA_VERSION`]).
pub fn render_metrics_json(data: &TraceData) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"schema_version\": {METRICS_SCHEMA_VERSION},\n"));

    out.push_str("  \"manifest\": {");
    for (i, (k, v)) in data.manifest.iter().enumerate() {
        out.push_str(if i > 0 { ",\n    " } else { "\n    " });
        push_str(&mut out, k);
        out.push_str(": ");
        push_attr(&mut out, v);
    }
    if !data.manifest.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("},\n");

    out.push_str("  \"stages\": {");
    let stages = data.stages();
    for (i, (name, st)) in stages.iter().enumerate() {
        out.push_str(if i > 0 { ",\n    " } else { "\n    " });
        push_str(&mut out, name);
        out.push_str(&format!(
            ": {{\"count\": {}, \"total_ns\": {}, \"min_ns\": {}, \"max_ns\": {}}}",
            st.count, st.total_ns, st.min_ns, st.max_ns
        ));
    }
    if !stages.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("},\n");

    out.push_str("  \"counters\": {");
    for (i, (name, count)) in data.counters.iter().enumerate() {
        out.push_str(if i > 0 { ",\n    " } else { "\n    " });
        push_str(&mut out, name);
        out.push_str(&format!(": {count}"));
    }
    if !data.counters.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("},\n");

    out.push_str("  \"gauges\": {");
    for (i, (name, value)) in data.gauges.iter().enumerate() {
        out.push_str(if i > 0 { ",\n    " } else { "\n    " });
        push_str(&mut out, name);
        out.push_str(": ");
        push_f64(&mut out, *value);
    }
    if !data.gauges.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("},\n");

    out.push_str("  \"histograms\": {");
    for (i, (name, h)) in data.histograms.iter().enumerate() {
        out.push_str(if i > 0 { ",\n    " } else { "\n    " });
        push_str(&mut out, name);
        out.push_str(": {\"bounds\": [");
        for (j, b) in h.bounds().iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            push_f64(&mut out, *b);
        }
        out.push_str("], \"counts\": [");
        for (j, c) in h.counts().iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("{c}"));
        }
        out.push_str(&format!(
            "], \"overflow\": {}, \"invalid\": {}, \"total\": {}, \"sum_finite\": ",
            h.overflow(),
            h.invalid(),
            h.total()
        ));
        push_f64(&mut out, h.sum_finite());
        out.push('}');
    }
    if !data.histograms.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("},\n");

    out.push_str("  \"events\": {");
    let mut by_level: BTreeMap<&str, u64> = BTreeMap::new();
    for e in &data.events {
        *by_level.entry(e.level.as_str()).or_insert(0) += 1;
    }
    for (i, (level, count)) in by_level.iter().enumerate() {
        out.push_str(if i > 0 { ",\n    " } else { "\n    " });
        push_str(&mut out, level);
        out.push_str(&format!(": {count}"));
    }
    if !by_level.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("}\n");

    out.push_str("}\n");
    out
}

/// Paths of the files a flush wrote.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlushPaths {
    /// The span/event trace (`trace.jsonl`).
    pub trace: PathBuf,
    /// The aggregated metrics + manifest (`metrics.json`).
    pub metrics: PathBuf,
    /// Per-stage attribution + quantiles (`PROFILE.json`).
    pub profile: PathBuf,
    /// Collapsed flame stacks (`profile.txt`).
    pub flame: PathBuf,
}

/// Writes `trace.jsonl`, `metrics.json`, `PROFILE.json`, and `profile.txt`
/// for `data` under `dir`, creating the directory if needed.
pub fn write_files(dir: &Path, data: &TraceData) -> std::io::Result<FlushPaths> {
    std::fs::create_dir_all(dir)?;
    let trace = dir.join("trace.jsonl");
    let metrics = dir.join("metrics.json");
    let profile = dir.join("PROFILE.json");
    let flame = dir.join("profile.txt");
    std::fs::write(&trace, render_trace_jsonl(data))?;
    std::fs::write(&metrics, render_metrics_json(data))?;
    let computed = crate::profile::Profile::from_trace(data);
    std::fs::write(&profile, crate::profile::render_profile_json(&computed))?;
    std::fs::write(&flame, crate::profile::render_profile_txt(&computed))?;
    Ok(FlushPaths { trace, metrics, profile, flame })
}
