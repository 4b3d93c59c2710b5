//! The benchmark's own spans for the traced run.
//!
//! Each span wraps one call into a crate's public API, is named
//! `<crate>.<function>`, carries a label (method, question class or
//! request kind) and the id of the op it belongs to. Spans are kept in
//! memory and aggregated when the run ends. A span's raw duration is
//! normalised with its op's reference factor.

use crate::host::Timing;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub label: String,
    pub op: usize,
    pub raw_s: f64,
}

#[derive(Debug, Default)]
pub struct Tracer {
    spans: Vec<Span>,
    ops: Vec<Timing>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer::default()
    }

    /// Runs `f` inside a span of the op currently open.
    pub fn span<T>(&mut self, name: &'static str, label: &str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        let raw_s = t.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            label: label.to_string(),
            op: self.ops.len(),
            raw_s,
        });
        out
    }

    /// Closes the current op with its measured timing.
    pub fn end_op(&mut self, timing: Timing) {
        self.ops.push(timing);
    }

    pub fn ops(&self) -> usize {
        self.ops.len()
    }

    fn factor(&self, op: usize) -> f64 {
        self.ops.get(op).map_or(1.0, |t| {
            if t.raw_s > 0.0 {
                t.norm_s / t.raw_s
            } else {
                1.0
            }
        })
    }

    /// Normalised seconds in spans named `name` whose label passes `keep`.
    pub fn sum(&self, name: &str, keep: impl Fn(&str) -> bool) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name && keep(&s.label))
            .map(|s| s.raw_s * self.factor(s.op))
            .sum()
    }

    /// Number of spans named `name` whose label passes `keep`.
    pub fn count(&self, name: &str, keep: impl Fn(&str) -> bool) -> usize {
        self.spans
            .iter()
            .filter(|s| s.name == name && keep(&s.label))
            .count()
    }

    /// Normalised seconds of every closed op.
    pub fn op_total(&self) -> f64 {
        self.ops.iter().map(|t| t.norm_s).sum()
    }

    /// Share of traced op time that the spans cover.
    pub fn coverage(&self) -> f64 {
        let covered: f64 = self.spans.iter().map(|s| s.raw_s).sum();
        let total: f64 = self.ops.iter().map(|t| t.raw_s).sum();
        if total > 0.0 {
            covered / total
        } else {
            0.0
        }
    }
}

/// Any label.
pub fn all(_: &str) -> bool {
    true
}
