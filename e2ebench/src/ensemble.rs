//! `ensemble`: the automated ensemble. Each op calls `AutoEnsemble::fit`
//! (k = 3, learned weights) on a held-out series and then `forecast`s
//! the held-back horizon. Setup pretrains the recommender on the
//! fast-zoo method names.

use crate::common::{floats_key, pretrain, smape, sub_seed, Digest, Pretrained};
use crate::host::{median, NormClock, Timing};
use crate::report::{OpStats, Report};
use crate::trace::{all, Tracer};
use crate::RunConfig;
use easytime::{ModelSpec, TimeSeries, WeightMode};
use easytime_automl::AutoEnsemble;
use easytime_data::synthetic::{domain_spec, generate};
use easytime_data::Domain;
use std::collections::BTreeMap;

const K: usize = 3;
const VAL_RATIO: f64 = 0.2;
const HORIZON: usize = 24;
const LENGTH: usize = 264;
/// Ops whose ensemble the oracle rebuilds through the public parts.
const ORACLE_OPS: usize = 100;
/// Nominal reference-normalised op rate that sizes the script.
const OPS_PER_S: f64 = 200.0;
const SETUP_REPS: usize = 3;

/// One held-out series per op, cycling the ten domains and four variants
/// of the synthetic corpus with seeded noise, each split into the history
/// the ensemble sees and the horizon held back from it. A fresh series
/// per op keeps the member mix, and with it the op cost, a property of
/// the domains rather than of a few seeded draws.
fn held_out(seed: u64, n: usize) -> Vec<(TimeSeries, Vec<f64>)> {
    (0..n)
        .map(|i| {
            let domain = Domain::ALL[i % Domain::ALL.len()];
            let spec = domain_spec(domain, i / Domain::ALL.len(), LENGTH);
            let s = generate(
                format!("held_out_{i}"),
                &spec,
                sub_seed(seed, 1_000 + i as u64),
            )
            .expect("held-out series generate");
            let cut = s.len() - HORIZON;
            (
                s.slice(0, cut).expect("history"),
                s.values()[cut..].to_vec(),
            )
        })
        .collect()
}

/// One op's output: the member names (sorted) and the forecast.
#[derive(Debug, Clone, PartialEq)]
struct Output {
    members: Vec<String>,
    forecast: Vec<f64>,
}

impl Output {
    fn key(&self) -> String {
        format!("{}|{}", self.members.join(","), floats_key(&self.forecast))
    }
}

fn members_of(e: &AutoEnsemble) -> Vec<String> {
    let mut m: Vec<String> = e.members().iter().map(|(n, _)| n.to_string()).collect();
    m.sort();
    m
}

pub fn run(cfg: &RunConfig, clock: &mut NormClock) -> Report {
    let mut report = Report::default();
    let mut setups: Vec<Timing> = Vec::new();
    let (mut pre_eval, mut pre_fit) = (Vec::new(), Vec::new());
    let mut state: Option<Pretrained> = None;
    for _ in 0..SETUP_REPS {
        drop(state.take());
        let pre = pretrain(clock);
        setups.push(Timing {
            raw_s: pre.eval.raw_s + pre.fit.raw_s,
            norm_s: pre.eval.norm_s + pre.fit.norm_s,
        });
        pre_eval.push(pre.eval.norm_s);
        pre_fit.push(pre.fit.norm_s);
        state = Some(pre);
    }
    let pre = state.expect("at least one setup ran");
    let rec = &pre.recommender;

    let n = cfg.script_len(OPS_PER_S, Domain::ALL.len() * 4);
    let held_out = held_out(cfg.seed, n);

    // --- timed closed loop ---
    let mut ops = OpStats::default();
    let mut outputs: Vec<Option<Output>> = Vec::with_capacity(n);
    let mut replay = cfg.trace.then(Replay::default);
    for (i, (series, _)) in held_out.iter().enumerate() {
        let (res, t) = clock.time(|| {
            let ensemble = AutoEnsemble::fit(rec, series, K, VAL_RATIO, WeightMode::Learned)?;
            let forecast = ensemble.forecast(HORIZON)?;
            Ok::<_, easytime_automl::AutoMlError>(Output {
                members: members_of(&ensemble),
                forecast,
            })
        });
        ops.record(i, t, res.is_ok());
        let out = res
            .map_err(|e| report.mismatch(format!("ensemble on held-out series {i} failed: {e}")))
            .ok();
        if let Some(r) = replay.as_mut() {
            if out.as_ref() != Some(&r.op(clock, rec, series)) {
                report.mismatch(format!(
                    "op {i}: traced ensemble differs from the untraced run"
                ));
            }
        }
        outputs.push(out);
    }
    if cfg.corrupt {
        if let Some(o) = outputs[0].as_mut() {
            o.forecast[0] += 1.0;
        }
    }

    // --- oracle: every forecast finite; the first ops' ensembles rebuilt
    // through recommend + fit_with_members must be identical ---
    let mut matched = 0usize;
    let mut smapes = Vec::with_capacity(n);
    for (i, (series, actual)) in held_out.iter().enumerate() {
        let Some(o) = &outputs[i] else { continue };
        smapes.push(smape(actual, &o.forecast));
        let finite = o.forecast.iter().all(|v| v.is_finite());
        if !finite || (i < ORACLE_OPS && *o != decomposed(rec, series, None)) {
            report.mismatch(format!(
                "op {i}: ensemble is not finite or differs from recommend + fit_with_members"
            ));
        } else {
            matched += 1;
        }
    }
    let forecast_smape = smapes.iter().sum::<f64>() / smapes.len().max(1) as f64;
    report.end_to_end(&setups, &ops, forecast_smape, matched as f64 / n as f64);

    // --- determinism guard ---
    let mut digest = Digest::new();
    let mut chosen: BTreeMap<String, usize> = BTreeMap::new();
    for o in outputs.iter().flatten() {
        digest.add(&o.key());
        for m in &o.members {
            *chosen.entry(m.clone()).or_default() += 1;
        }
    }
    report.count("ops", n);
    report.count(
        "members_chosen",
        chosen
            .iter()
            .map(|(m, c)| format!("{m}:{c}"))
            .collect::<Vec<_>>()
            .join(","),
    );
    report.count("output_digest", digest.hex());

    if let Some(r) = replay {
        report.set("automl.pretrain.eval.s", median(&pre_eval));
        report.set("automl.pretrain.fit.s", median(&pre_fit));
        r.finish(&ops, &mut report);
    }
    report
}

/// The ensemble built from its public parts: `Recommender::recommend`,
/// `AutoEnsemble::fit_with_members` and `AutoEnsemble::forecast`, each in
/// a span when a tracer is given.
fn decomposed(
    rec: &easytime_automl::Recommender,
    series: &TimeSeries,
    mut tracer: Option<&mut Tracer>,
) -> Output {
    let mut span = |name: &'static str, f: &mut dyn FnMut()| match tracer.as_deref_mut() {
        Some(t) => t.span(name, "", f),
        None => f(),
    };
    let mut names = Vec::new();
    span("automl.recommend", &mut || {
        names = rec
            .recommend(series)
            .into_iter()
            .take(K)
            .map(|r| r.method)
            .collect();
    });
    let mut ensemble = None;
    span("automl.fit_with_members", &mut || {
        ensemble = Some(
            AutoEnsemble::fit_with_members(&names, series, VAL_RATIO, WeightMode::Learned)
                .expect("members fit"),
        );
    });
    let ensemble = ensemble.expect("fit ran");
    let mut forecast = Vec::new();
    span("automl.forecast", &mut || {
        forecast = ensemble.forecast(HORIZON).expect("ensemble forecasts");
    });
    Output {
        members: members_of(&ensemble),
        forecast,
    }
}

/// The traced replay: each op rebuilt through `decomposed` with spans,
/// then probes that time every member's builds and fits (the validation
/// fit and forecast, and the full refit, which `fit_with_members` runs
/// around weight learning), excluded from the op's time. Each op is
/// replayed right after its untraced run, so both see the same host
/// state.
#[derive(Default)]
struct Replay {
    tracer: Tracer,
    fits: BTreeMap<String, (f64, usize)>,
    member_fit_s: f64,
    with_gboost: usize,
}

impl Replay {
    fn op(
        &mut self,
        clock: &mut NormClock,
        rec: &easytime_automl::Recommender,
        series: &TimeSeries,
    ) -> Output {
        let tracer = &mut self.tracer;
        let (out, t) = clock.time(|| decomposed(rec, series, Some(tracer)));
        self.tracer.end_op(t);
        self.with_gboost += usize::from(out.members.iter().any(|m| m == "gboost_12"));
        let n = series.len();
        let val_len = ((n as f64) * VAL_RATIO).round() as usize;
        let train = series.slice(0, n - val_len).expect("train part");
        for name in &out.members {
            let spec = ModelSpec::parse(name).expect("member names parse");
            let ((), t) = clock.time(|| {
                let mut m = spec.build().expect("builds");
                m.fit(&train).expect("fits");
                m.forecast(val_len).expect("forecasts");
                let mut m = spec.build().expect("builds");
                m.fit(series).expect("refits");
            });
            let e = self.fits.entry(name.clone()).or_default();
            e.0 += t.norm_s;
            e.1 += 1;
            self.member_fit_s += t.norm_s;
        }
        out
    }

    fn finish(self, untraced: &OpStats, report: &mut Report) {
        let tracer = &self.tracer;
        let ops = tracer.ops() as f64;
        report.set(
            "automl.recommend.ms",
            tracer.sum("automl.recommend", all) * 1e3 / ops,
        );
        let fit = tracer.sum("automl.fit_with_members", all);
        report.set("automl.ensemble_fit.ms", fit * 1e3 / ops);
        report.set("automl.weights.ms", (fit - self.member_fit_s) * 1e3 / ops);
        for (name, (s, c)) in &self.fits {
            report.set(&format!("models.fit.{name}.ms"), s * 1e3 / *c as f64);
        }
        report.set(
            "automl.members.gboost_12.frac",
            self.with_gboost as f64 / ops,
        );
        report.set("trace.coverage", tracer.coverage());
        report.set(
            "trace.overhead_frac",
            tracer.op_total() / untraced.busy_s - 1.0,
        );
    }
}
