//! The run's result: metrics, determinism counts, oracle verdicts, and the
//! JSON line the benchmark prints last.

use crate::host::{median, peak_rss_mb, quantile, NormClock, Timing};
use std::collections::BTreeMap;

/// Every end-to-end metric with its unit, printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("p99_ms", "ms"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MiB"),
    ("forecast_smape", "%"),
    ("answer_match_frac", "ratio"),
];

/// Every per-layer metric with its unit, printed by every traced run. A
/// layer the workload does not reach reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("eval.evaluate.gboost_12.share", "ratio"),
    ("eval.evaluate.rest.ms", "ms"),
    ("eval.windows_per_op", "count"),
    ("db.record_result.us", "us"),
    ("core.one_click.overhead.share", "ratio"),
    ("data.corpus.ms", "ms"),
    ("qa.nl2sql.us", "us"),
    ("qa.answer.us", "us"),
    ("db.query.agg.ms", "ms"),
    ("db.query.lookup.ms", "ms"),
    ("db.query.share", "ratio"),
    ("db.plan.seq_scans", "count"),
    ("db.plan.index_seeks", "count"),
    ("db.plan.sorts", "count"),
    ("db.load.rows_per_s", "1/s"),
    ("serve.cache_hit_frac", "ratio"),
    ("serve.batch_size_mean", "count"),
    ("serve.rejected", "count"),
    ("serve.warm.ms", "ms"),
    ("serve.cold.ms", "ms"),
    ("serve.evaluate.ms", "ms"),
    ("serve.ask.ms", "ms"),
    ("qa.session_open.ms", "ms"),
    ("automl.recommend_batch.ms", "ms"),
    ("automl.recommend.ms", "ms"),
    ("automl.ensemble_fit.ms", "ms"),
    ("automl.weights.ms", "ms"),
    ("models.fit.naive.ms", "ms"),
    ("models.fit.seasonal_naive.ms", "ms"),
    ("models.fit.seasonal_avg.ms", "ms"),
    ("models.fit.drift.ms", "ms"),
    ("models.fit.linear_trend.ms", "ms"),
    ("models.fit.mean.ms", "ms"),
    ("models.fit.window_average_8.ms", "ms"),
    ("models.fit.ses.ms", "ms"),
    ("models.fit.theta.ms", "ms"),
    ("models.fit.lag_ridge_16.ms", "ms"),
    ("models.fit.nlinear_32.ms", "ms"),
    ("models.fit.gboost_12.ms", "ms"),
    ("automl.members.gboost_12.frac", "ratio"),
    ("automl.pretrain.eval.s", "s"),
    ("automl.pretrain.fit.s", "s"),
    ("host.ref_ms", "ms"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// Least share of traced op time the layer spans must cover.
const MIN_COVERAGE: f64 = 0.95;

/// What one closed-loop run of a workload measured.
#[derive(Debug, Default)]
pub struct OpStats {
    /// Normalised latency of every attempted op, in milliseconds, keyed by
    /// the op's input (ops with one key repeat the same work).
    pub lat_ms: Vec<(usize, f64)>,
    /// Normalised time the client was busy with ops, in seconds.
    pub busy_s: f64,
    /// The same, raw.
    pub raw_busy_s: f64,
    pub attempted: u64,
    pub completed: u64,
}

impl OpStats {
    /// Records one op on input `key`.
    pub fn record(&mut self, key: usize, t: Timing, ok: bool) {
        self.record_batch(t, u64::from(ok), 1);
        self.lat_ms.push((key, t.norm_s * 1e3));
    }

    /// Records a wave of `attempted` requests that took `t` together; the
    /// caller pushes each request's own latency.
    pub fn record_batch(&mut self, t: Timing, completed: u64, attempted: u64) {
        self.busy_s += t.norm_s;
        self.raw_busy_s += t.raw_s;
        self.attempted += attempted;
        self.completed += completed;
    }

    /// The latency samples the quantiles are taken over: every op counts
    /// once, with the median latency of all ops on its input. A script
    /// that repeats an input (one_click's datasets, qa's questions) does
    /// the same work each time, so its median over the repeats keeps which
    /// inputs are slow and drops host bursts that hit single ops; ops on
    /// inputs that occur once keep their own latency.
    fn latency_samples(&self) -> Vec<f64> {
        let mut by_input: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
        for &(key, ms) in &self.lat_ms {
            by_input.entry(key).or_default().push(ms);
        }
        by_input
            .values()
            .flat_map(|v| std::iter::repeat_n(median(v), v.len()))
            .collect()
    }
}

#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Oracle mismatches; any makes the run fail.
    pub mismatches: Vec<String>,
    pub metrics: BTreeMap<String, f64>,
    /// The determinism guard: values that must repeat exactly for a seed.
    pub counts: Vec<(String, String)>,
    /// Raw (unnormalised) seconds, printed for humans and never gated.
    pub raw: Vec<(String, f64)>,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    pub fn count(&mut self, name: &str, value: impl ToString) {
        self.counts.push((name.to_string(), value.to_string()));
    }

    pub fn mismatch(&mut self, what: String) {
        self.mismatches.push(what);
    }

    /// Fills the end-to-end metrics from a run's setup timings and ops.
    pub fn end_to_end(
        &mut self,
        setups: &[Timing],
        ops: &OpStats,
        forecast_smape: f64,
        answer_match_frac: f64,
    ) {
        let setup: Vec<f64> = setups.iter().map(|t| t.norm_s).collect();
        self.attempted = ops.attempted;
        self.failed = ops.attempted - ops.completed;
        self.set("setup_s", median(&setup));
        self.set("ops_per_s", ops.completed as f64 / ops.busy_s);
        let lat = ops.latency_samples();
        self.set("p50_ms", quantile(&lat, 0.50));
        self.set("p90_ms", quantile(&lat, 0.90));
        self.set("p99_ms", quantile(&lat, 0.99));
        self.set(
            "ok_frac",
            ops.completed as f64 / ops.attempted.max(1) as f64,
        );
        self.set("peak_rss_mb", peak_rss_mb());
        self.set("forecast_smape", forecast_smape);
        self.set("answer_match_frac", answer_match_frac);
        let raw_setup: Vec<f64> = setups.iter().map(|t| t.raw_s).collect();
        self.raw.push(("setup_s".into(), median(&raw_setup)));
        self.raw.push(("busy_s".into(), ops.raw_busy_s));
        self.raw
            .push(("ops_per_s".into(), ops.completed as f64 / ops.raw_busy_s));
        self.raw
            .push(("latency_samples".into(), ops.lat_ms.len() as f64));
    }

    /// Prints diagnostics, counts and metrics, then the JSON result line.
    /// Returns whether the run is correct.
    pub fn print(&mut self, workload: &str, cpu: usize, clock: &NormClock, trace: bool) -> bool {
        let refs = clock.samples();
        let ref_med = median(refs);
        let spread = (quantile(refs, 0.75) - quantile(refs, 0.25)) / ref_med;
        let (lo, hi) = refs
            .iter()
            .fold((f64::INFINITY, 0.0f64), |(l, h), &v| (l.min(v), h.max(v)));
        println!(
            "host: workload={workload} pinned_cpu={cpu} host.ref_ms={ref_med:.4} \
             ref_iqr_frac={spread:.4} ref_min_ms={lo:.4} ref_max_ms={hi:.4} ref_samples={}",
            refs.len()
        );
        if trace {
            self.set("host.ref_ms", ref_med);
            let coverage = self.metrics.get("trace.coverage").copied().unwrap_or(0.0);
            if coverage < MIN_COVERAGE {
                self.mismatch(format!(
                    "the layer spans cover {coverage:.4} of traced op time, below {MIN_COVERAGE}"
                ));
            }
        }
        for (k, v) in &self.raw {
            println!("raw: {k}={v:.6}");
        }
        for (k, v) in &self.counts {
            println!("count: {k}={v}");
        }
        let wanted = if trace { PER_LAYER } else { END_TO_END };
        let mut fields = Vec::new();
        for &(name, unit) in wanted {
            let value =
                self.metrics
                    .get(name)
                    .copied()
                    .unwrap_or(if trace { 0.0 } else { f64::NAN });
            if !value.is_finite() {
                self.mismatch(format!("metric {name} is not finite ({value})"));
                continue;
            }
            println!("metric: {name} = {value} {unit}");
            fields.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        for m in &self.mismatches {
            eprintln!("MISMATCH: {m}");
        }
        let correct = self.mismatches.is_empty();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        );
        correct
    }
}
