//! `serve`: a fixed mixed request script through `ServeEngine::start` with
//! one worker. The client keeps W = 8 requests in flight (the default
//! `batch_max`) as waves: about 70% warm tenants appending observations,
//! 15% cold tenants with an auto method, 10% `Evaluate` and 5% `Ask`.
//!
//! Work does not depend on timing: warm tenants are picked round-robin
//! (never in flight twice), the cache holds every tenant of the script,
//! and the queue bound and deadline are out of reach.

use crate::common::{
    fast_zoo_names, floats_key, pretrain, record_key, rows_key, smape, sub_seed, Digest, Rng,
};
use crate::host::{median, NormClock, Timing};
use crate::qa::{KNOWN_DEFECTS, SUITE};
use crate::report::{OpStats, Report};
use crate::trace::Tracer;
use crate::RunConfig;
use easytime::knowledge::{new_knowledge_db, record_dataset, record_method, record_result};
use easytime::{MetricRegistry, ModelSpec, TimeSeries};
use easytime_automl::Recommender;
use easytime_data::synthetic::{domain_spec, generate};
use easytime_data::{Domain, Scaler};
use easytime_db::Database;
use easytime_eval::{evaluate, EvalConfig, Strategy, ValidatedEvalConfig};
use easytime_models::zoo::standard_zoo;
use easytime_qa::QaSession;
use easytime_serve::{Request, Response, ServeConfig, ServeContext, ServeEngine};
use std::collections::BTreeMap;
use std::time::Instant;

/// Requests in flight per wave (the engine's default `batch_max`).
const WAVE: usize = 8;
/// One block of the script: 28 warm, 6 cold, 4 evaluate, 2 ask, shuffled.
const BLOCK: [(Kind, usize); 4] = [
    (Kind::Warm, 28),
    (Kind::Cold, 6),
    (Kind::Evaluate, 4),
    (Kind::Ask, 2),
];
const BLOCK_LEN: usize = 40;
const WARM_TENANTS: usize = 32;
/// Methods the warm tenants pin: fast-zoo members with a warm `update`.
const WARM_METHODS: [&str; 6] = [
    "naive",
    "seasonal_naive",
    "drift",
    "mean",
    "window_average_8",
    "seasonal_avg",
];
/// Initial history of every tenant.
const HISTORY: usize = 200;
/// Observations a warm tenant appends per visit.
const APPEND: usize = 2;
const HORIZON: usize = 12;
/// Distinct series the `Evaluate` requests cycle over.
const EVAL_POOL: usize = 10;
/// Nominal reference-normalised request rate that sizes the script.
const REQUESTS_PER_S: f64 = 3000.0;
const SETUP_REPS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Warm,
    Cold,
    Evaluate,
    Ask,
}

impl Kind {
    fn label(self) -> &'static str {
        match self {
            Kind::Warm => "warm",
            Kind::Cold => "cold",
            Kind::Evaluate => "evaluate",
            Kind::Ask => "ask",
        }
    }
}

/// One scripted request: its kind and the index that selects its input
/// (tenant visit, cold tenant, evaluate job or question).
#[derive(Debug, Clone, Copy)]
struct Step {
    kind: Kind,
    /// Warm: tenant; cold: cold-tenant number; evaluate: evaluate number;
    /// ask: ask number.
    who: usize,
    /// Warm: the tenant's visit number (1-based).
    visit: usize,
}

/// The seeded inputs every setup and replay shares.
struct Inputs {
    script: Vec<Step>,
    /// Full series of each warm tenant (history, every append, and the
    /// held-back horizon after the last visit).
    warm: Vec<TimeSeries>,
    cold: Vec<TimeSeries>,
    eval_pool: Vec<TimeSeries>,
    eval_methods: Vec<String>,
    questions: Vec<usize>,
}

fn tenant_series(
    name: String,
    len: usize,
    domain: Domain,
    variant: usize,
    seed: u64,
) -> TimeSeries {
    generate(name, &domain_spec(domain, variant, len), seed).expect("tenant series generate")
}

fn make_inputs(cfg: &RunConfig) -> Inputs {
    let n = cfg.script_len(REQUESTS_PER_S, BLOCK_LEN);
    let mut rng = Rng::new(sub_seed(cfg.seed, 31));
    let mut script = Vec::with_capacity(n);
    let (mut warm_i, mut cold_i, mut eval_i, mut ask_i) = (0, 0, 0, 0);
    let mut visits = vec![0usize; WARM_TENANTS];
    for _ in 0..n / BLOCK_LEN {
        let mut block: Vec<Kind> = BLOCK
            .iter()
            .flat_map(|&(k, c)| std::iter::repeat_n(k, c))
            .collect();
        rng.shuffle(&mut block);
        for kind in block {
            let step = match kind {
                Kind::Warm => {
                    let t = warm_i % WARM_TENANTS;
                    warm_i += 1;
                    visits[t] += 1;
                    Step {
                        kind,
                        who: t,
                        visit: visits[t],
                    }
                }
                Kind::Cold => {
                    cold_i += 1;
                    Step {
                        kind,
                        who: cold_i - 1,
                        visit: 0,
                    }
                }
                Kind::Evaluate => {
                    eval_i += 1;
                    Step {
                        kind,
                        who: eval_i - 1,
                        visit: 0,
                    }
                }
                Kind::Ask => {
                    ask_i += 1;
                    Step {
                        kind,
                        who: ask_i - 1,
                        visit: 0,
                    }
                }
            };
            script.push(step);
        }
    }
    let max_visits = visits.iter().copied().max().unwrap_or(0);
    let domain = |i: usize| Domain::ALL[i % Domain::ALL.len()];
    let warm = (0..WARM_TENANTS)
        .map(|t| {
            let len = HISTORY + APPEND * max_visits + HORIZON;
            tenant_series(
                format!("warm_{t}"),
                len,
                domain(t),
                t,
                sub_seed(cfg.seed, 100 + t as u64),
            )
        })
        .collect();
    let cold = (0..cold_i)
        .map(|c| {
            let seed = sub_seed(cfg.seed, 10_000 + c as u64);
            tenant_series(format!("cold_{c}"), HISTORY + HORIZON, domain(c), c, seed)
        })
        .collect();
    let eval_pool = (0..EVAL_POOL)
        .map(|e| {
            let seed = sub_seed(cfg.seed, 5_000 + e as u64);
            tenant_series(format!("eval_{e}"), HISTORY, domain(e), e + 1, seed)
        })
        .collect();
    let mut questions: Vec<usize> = (0..SUITE.len()).filter(|&q| SUITE[q].1.is_some()).collect();
    rng.shuffle(&mut questions);
    Inputs {
        script,
        warm,
        cold,
        eval_pool,
        eval_methods: fast_zoo_names(),
        questions,
    }
}

/// The series a warm tenant sends on its `visit`-th request (visit 0 is
/// the priming request made in setup).
fn warm_visible(inputs: &Inputs, tenant: usize, visit: usize) -> TimeSeries {
    inputs.warm[tenant]
        .slice(0, HISTORY + APPEND * visit)
        .expect("visible prefix")
}

fn request(inputs: &Inputs, step: Step) -> Request {
    match step.kind {
        Kind::Warm => Request::RecommendAndForecast {
            series: warm_visible(inputs, step.who, step.visit),
            top_k: 3,
            horizon: HORIZON,
            method: Some(warm_method(step.who)),
        },
        Kind::Cold => Request::RecommendAndForecast {
            series: inputs.cold[step.who]
                .slice(0, HISTORY)
                .expect("cold history"),
            top_k: 3,
            horizon: HORIZON,
            method: None,
        },
        Kind::Evaluate => Request::Evaluate {
            series: inputs.eval_pool[step.who % EVAL_POOL].clone(),
            method: ModelSpec::parse(&inputs.eval_methods[step.who % inputs.eval_methods.len()])
                .expect("fast-zoo names parse"),
        },
        Kind::Ask => Request::Ask {
            question: SUITE[inputs.questions[step.who % inputs.questions.len()]]
                .0
                .to_string(),
        },
    }
}

fn warm_method(tenant: usize) -> ModelSpec {
    ModelSpec::parse(WARM_METHODS[tenant % WARM_METHODS.len()]).expect("warm methods parse")
}

/// A started engine with every warm tenant primed, plus what the oracles
/// and probes need.
struct State {
    engine: ServeEngine,
    recommender: Recommender,
    knowledge: Database,
    eval: ValidatedEvalConfig,
    pretrain_eval_s: f64,
    pretrain_fit_s: f64,
}

fn setup(cfg: &RunConfig, inputs: &Inputs, clock: &mut NormClock) -> (State, Timing) {
    let pre = pretrain(clock);
    let ((knowledge, eval), t_kb) = clock.time(|| {
        let mut db = new_knowledge_db();
        for entry in standard_zoo() {
            record_method(&mut db, &entry).expect("roster records");
        }
        for d in &pre.corpus {
            record_dataset(&mut db, d).expect("datasets record");
        }
        // Measured runtimes would make the knowledge base, and so the
        // "fastest methods" answers, differ between setups: store a seeded
        // runtime instead.
        let mut rng = Rng::new(sub_seed(cfg.seed, 32));
        for r in &pre.records {
            let mut r = r.clone();
            r.runtime_ms = 0.1 + 20.0 * rng.unit();
            record_result(&mut db, &r).expect("results record");
        }
        let eval = EvalConfig::builder()
            .methods(
                fast_zoo_names()
                    .iter()
                    .map(|n| ModelSpec::parse(n).expect("names parse")),
            )
            .strategy(Strategy::Rolling {
                horizon: HORIZON,
                stride: HORIZON,
                max_windows: Some(4),
            })
            .build(&MetricRegistry::standard())
            .expect("serve eval config is valid");
        (db, eval)
    });
    let tenants = WARM_TENANTS + inputs.cold.len();
    let (engine, t_start) = clock.time(|| {
        let ctx = ServeContext::new(
            pre.recommender.clone(),
            MetricRegistry::standard(),
            knowledge.clone(),
            eval.clone(),
        );
        let config = ServeConfig::builder()
            .workers(1)
            .batch_max(WAVE)
            .cache_capacity(tenants + 16)
            .queue_bound(4 * WAVE)
            .deadline_ms(1e9)
            .build()
            .expect("serve config is valid");
        let engine = ServeEngine::start(ctx, config);
        for t in 0..WARM_TENANTS {
            let req = Request::RecommendAndForecast {
                series: warm_visible(inputs, t, 0),
                top_k: 3,
                horizon: HORIZON,
                method: Some(warm_method(t)),
            };
            engine.call(req).expect("priming requests serve");
        }
        engine
    });
    let mut total = pre.eval;
    for t in [pre.fit, t_kb, t_start] {
        total.raw_s += t.raw_s;
        total.norm_s += t.norm_s;
    }
    let state = State {
        engine,
        recommender: pre.recommender,
        knowledge,
        eval,
        pretrain_eval_s: pre.eval.norm_s,
        pretrain_fit_s: pre.fit.norm_s,
    };
    (state, total)
}

/// What one reply carried, in comparable form.
#[derive(Debug, Clone, PartialEq)]
enum Output {
    Forecast {
        chosen: String,
        ranking: String,
        forecast: Vec<f64>,
        hit: bool,
    },
    Record(String),
    Answer {
        rows: String,
        sql: String,
    },
    Failed(String),
}

fn output_of(reply: Result<Response, easytime_serve::ServeError>) -> Output {
    match reply {
        Ok(Response::RecommendAndForecast {
            ranking,
            chosen,
            forecast,
            cache_hit,
        }) => {
            let ranking = ranking
                .iter()
                .map(|r| format!("{}:{:016x}:{}", r.method, r.score.to_bits(), r.rank))
                .collect::<Vec<_>>()
                .join(",");
            Output::Forecast {
                chosen,
                ranking,
                forecast,
                hit: cache_hit,
            }
        }
        Ok(Response::Evaluate { record }) => Output::Record(record_key(&record)),
        Ok(Response::Ask { response }) => Output::Answer {
            rows: rows_key(&response.table.rows),
            sql: response.sql,
        },
        Err(e) => Output::Failed(e.to_string()),
    }
}

fn output_key(o: &Output) -> String {
    match o {
        Output::Forecast {
            chosen,
            ranking,
            forecast,
            hit,
        } => {
            format!("{chosen}|{ranking}|{}|{hit}", floats_key(forecast))
        }
        Output::Record(k) => k.clone(),
        Output::Answer { rows, sql } => format!("{rows}|{sql}"),
        Output::Failed(e) => format!("failed:{e}"),
    }
}

/// The cold-refit forecast the serving engine's fit path computes: a
/// fresh scaler on the whole series, a fresh model, inverse-scaled.
fn cold_forecast(series: &TimeSeries, spec: &ModelSpec, eval: &ValidatedEvalConfig) -> Vec<f64> {
    let raw = series.values();
    let mut scaler = Scaler::new(eval.config().scaler);
    if !scaler.extend(raw).expect("scaler extends") {
        scaler.fit(raw).expect("scaler fits");
    }
    let (shift, scale) = scaler.fitted_params().expect("fitted scaler");
    let train = series
        .with_values(scaler.transform(raw).expect("transform"))
        .expect("carrier");
    let mut model = spec.build().expect("model builds");
    model.fit(&train).expect("model fits");
    model
        .forecast(HORIZON)
        .expect("model forecasts")
        .iter()
        .map(|v| v * scale + shift)
        .collect()
}

/// Drives the script wave by wave through `engine`; returns each request's
/// Drives the script wave by wave through `engine`, each wave followed by
/// its traced replay when there is one; returns each request's output
/// and records its normalised latency.
fn drive(
    engine: &ServeEngine,
    inputs: &Inputs,
    clock: &mut NormClock,
    ops: &mut OpStats,
    mut replay: Option<&mut Replay>,
    report: &mut Report,
) -> Vec<Output> {
    let mut outputs = Vec::with_capacity(inputs.script.len());
    for wave in inputs.script.chunks(WAVE) {
        let requests: Vec<Request> = wave.iter().map(|&s| request(inputs, s)).collect();
        let ((replies, lat), t) = clock.time(|| {
            let mut submitted = Vec::with_capacity(WAVE);
            for req in requests {
                submitted.push((Instant::now(), engine.submit(req)));
            }
            let mut replies = Vec::with_capacity(WAVE);
            let mut lat = Vec::with_capacity(WAVE);
            for (at, ticket) in submitted {
                replies.push(ticket.and_then(|t| t.wait()));
                lat.push(at.elapsed().as_secs_f64());
            }
            (replies, lat)
        });
        let factor = t.norm_s / t.raw_s;
        let ok = replies.iter().filter(|r| r.is_ok()).count() as u64;
        ops.record_batch(t, ok, wave.len() as u64);
        let first = outputs.len();
        ops.lat_ms.extend(
            lat.iter()
                .enumerate()
                .map(|(k, s)| (first + k, s * factor * 1e3)),
        );
        outputs.extend(replies.into_iter().map(output_of));
        if let Some(r) = replay.as_deref_mut() {
            for (k, traced) in r.wave(clock, inputs, wave).iter().enumerate() {
                if output_key(traced) != output_key(&outputs[first + k]) {
                    report.mismatch(format!(
                        "request {}: traced reply differs from the untraced run",
                        first + k
                    ));
                }
            }
        }
    }
    outputs
}

pub fn run(cfg: &RunConfig, clock: &mut NormClock) -> Report {
    let mut report = Report::default();
    let inputs = make_inputs(cfg);
    let mut setups = Vec::new();
    let (mut pre_eval, mut pre_fit) = (Vec::new(), Vec::new());
    let mut state = None;
    for _ in 0..SETUP_REPS {
        if let Some(s) = state.take() {
            let s: State = s;
            s.engine.shutdown();
        }
        let (s, t) = setup(cfg, &inputs, clock);
        setups.push(t);
        pre_eval.push(s.pretrain_eval_s);
        pre_fit.push(s.pretrain_fit_s);
        state = Some(s);
    }
    let s = state.expect("at least one setup ran");

    // --- timed closed loop ---
    let mut ops = OpStats::default();
    let mut replay = cfg.trace.then(|| Replay::new(cfg, &inputs, clock));
    let mut outputs = drive(
        &s.engine,
        &inputs,
        clock,
        &mut ops,
        replay.as_mut(),
        &mut report,
    );
    let stats = s.engine.stats();
    if cfg.corrupt {
        if let Some(Output::Forecast { forecast, .. }) = outputs
            .iter_mut()
            .find(|o| matches!(o, Output::Forecast { .. }))
        {
            forecast[0] += 1.0;
        }
    }

    // --- oracles ---
    let registry = MetricRegistry::standard();
    let (mut smapes, mut checked, mut matched, mut known) = (Vec::new(), 0usize, 0usize, 0usize);
    let mut counts = [0usize; 4];
    let mut eval_oracle: BTreeMap<(usize, usize), String> = BTreeMap::new();
    let mut ask_oracle: BTreeMap<usize, (String, String)> = BTreeMap::new();
    for (i, (&step, out)) in inputs.script.iter().zip(&outputs).enumerate() {
        counts[step.kind as usize] += 1;
        let fail = |what: &str| format!("request {i} ({}): {what}", step.kind.label());
        match (step.kind, out) {
            (
                Kind::Warm,
                Output::Forecast {
                    forecast,
                    hit,
                    chosen,
                    ..
                },
            ) => {
                let series = warm_visible(&inputs, step.who, step.visit);
                let cold = cold_forecast(&series, &warm_method(step.who), &s.eval);
                // The warm-start contract (`crates/eval/tests/warm_start.rs`):
                // within 1e-9 relative to the refit, or absolute below 1.
                let gap = if forecast.len() == cold.len() {
                    forecast
                        .iter()
                        .zip(&cold)
                        .map(|(w, c)| (w - c).abs() / c.abs().max(1.0))
                        .fold(0.0, f64::max)
                } else {
                    f64::INFINITY
                };
                if gap > 1e-9 || !hit || *chosen != warm_method(step.who).name() {
                    report.mismatch(fail(&format!(
                        "warm {chosen} reply (hit {hit}, visit {}) differs from a cold refit \
                         by {gap:e} relative, past 1e-9",
                        step.visit
                    )));
                }
                let end = series.len();
                smapes.push(smape(
                    &inputs.warm[step.who].values()[end..end + HORIZON],
                    forecast,
                ));
            }
            (
                Kind::Cold,
                Output::Forecast {
                    forecast,
                    hit,
                    chosen,
                    ranking,
                },
            ) => {
                let series = inputs.cold[step.who]
                    .slice(0, HISTORY)
                    .expect("cold history");
                let want = s.recommender.recommend(&series);
                let want_ranking = want
                    .iter()
                    .take(3)
                    .map(|r| format!("{}:{:016x}:{}", r.method, r.score.to_bits(), r.rank))
                    .collect::<Vec<_>>()
                    .join(",");
                let spec = ModelSpec::parse(&want[0].method).expect("ranked names parse");
                let cold = cold_forecast(&series, &spec, &s.eval);
                if *hit
                    || *ranking != want_ranking
                    || *chosen != want[0].method
                    || *forecast != cold
                {
                    report.mismatch(fail("cold reply differs from recommend + refit"));
                }
                smapes.push(smape(&inputs.cold[step.who].values()[HISTORY..], forecast));
            }
            (Kind::Evaluate, Output::Record(key)) => {
                let job = (step.who % EVAL_POOL, step.who % inputs.eval_methods.len());
                let want = eval_oracle.entry(job).or_insert_with(|| {
                    let series = &inputs.eval_pool[job.0];
                    let spec = ModelSpec::parse(&inputs.eval_methods[job.1]).expect("names parse");
                    record_key(
                        &evaluate(series.name(), series, &spec, &s.eval, &registry)
                            .expect("oracle evaluation runs"),
                    )
                });
                if key != want {
                    report.mismatch(fail("evaluate record differs from direct evaluate"));
                }
            }
            (Kind::Ask, Output::Answer { rows, sql }) => {
                let q = inputs.questions[step.who % inputs.questions.len()];
                let (scan, want) = ask_oracle.entry(q).or_insert_with(|| {
                    let scan = s.knowledge.query_scan(sql).expect("generated SQL scans");
                    let truth = SUITE[q].1.expect("ask questions carry ground truth");
                    let want = s.knowledge.query_scan(truth).expect("truth SQL scans");
                    (rows_key(&scan.rows), rows_key(&want.rows))
                });
                if rows != scan {
                    report.mismatch(fail("planned answer differs from the scan"));
                }
                checked += 1;
                if rows == want {
                    matched += 1;
                } else if KNOWN_DEFECTS.contains(&SUITE[q].0) {
                    known += 1;
                } else {
                    report.mismatch(fail("answer differs from ground truth"));
                }
            }
            (_, other) => report.mismatch(fail(&format!("unexpected reply {other:?}"))),
        }
    }
    let forecast_smape = smapes.iter().sum::<f64>() / smapes.len().max(1) as f64;
    report.end_to_end(
        &setups,
        &ops,
        forecast_smape,
        matched as f64 / checked.max(1) as f64,
    );

    // --- determinism guard ---
    let mut digest = Digest::new();
    outputs.iter().for_each(|o| digest.add(&output_key(o)));
    report.count("requests", inputs.script.len());
    report.count("warm", counts[Kind::Warm as usize]);
    report.count("cold", counts[Kind::Cold as usize]);
    report.count("evaluate", counts[Kind::Evaluate as usize]);
    report.count("ask", counts[Kind::Ask as usize]);
    report.count("cache_hits", stats.cache_hits);
    report.count("cache_misses", stats.cache_misses);
    report.count("known_defect_mismatches", known);
    report.count("output_digest", digest.hex());
    s.engine.shutdown();

    if let Some(r) = replay {
        report.set("serve.cache_hit_frac", stats.hit_rate());
        report.set(
            "serve.batch_size_mean",
            stats.batched_requests as f64 / stats.batches.max(1) as f64,
        );
        report.set("serve.rejected", (stats.shed + stats.expired) as f64);
        report.set("automl.pretrain.eval.s", median(&pre_eval));
        report.set("automl.pretrain.fit.s", median(&pre_fit));
        r.finish(&ops, &mut report);
    }
    report
}

/// The traced replay: the same script on a second, identically set-up
/// engine with one request in flight, each request in a span labelled by
/// kind. After every wave, probes time `QaSession::new` once per Ask and
/// `recommend_batch` over the wave's cold series. Each wave is replayed
/// right after its untraced run, so both see the same host state.
struct Replay {
    state: State,
    tracer: Tracer,
    open_s: f64,
    opens: usize,
    batch_s: f64,
    batches: usize,
}

impl Replay {
    fn new(cfg: &RunConfig, inputs: &Inputs, clock: &mut NormClock) -> Replay {
        let (state, _) = setup(cfg, inputs, clock);
        Replay {
            state,
            tracer: Tracer::new(),
            open_s: 0.0,
            opens: 0,
            batch_s: 0.0,
            batches: 0,
        }
    }

    fn wave(&mut self, clock: &mut NormClock, inputs: &Inputs, wave: &[Step]) -> Vec<Output> {
        let requests: Vec<Request> = wave.iter().map(|&st| request(inputs, st)).collect();
        let (engine, tracer) = (&self.state.engine, &mut self.tracer);
        let (outs, t) = clock.time(|| {
            let mut outs = Vec::with_capacity(WAVE);
            for (req, st) in requests.into_iter().zip(wave) {
                outs.push(tracer.span("serve.request", st.kind.label(), || {
                    output_of(engine.call(req))
                }));
            }
            outs
        });
        tracer.end_op(t);
        for _ in wave.iter().filter(|st| st.kind == Kind::Ask) {
            let (_, t) = clock.time(|| QaSession::new(self.state.knowledge.clone()));
            self.open_s += t.norm_s;
            self.opens += 1;
        }
        let cold: Vec<TimeSeries> = wave
            .iter()
            .filter(|st| st.kind == Kind::Cold)
            .map(|st| inputs.cold[st.who].slice(0, HISTORY).expect("cold history"))
            .collect();
        if !cold.is_empty() {
            let refs: Vec<&TimeSeries> = cold.iter().collect();
            let (_, t) = clock.time(|| self.state.recommender.recommend_batch(&refs));
            self.batch_s += t.norm_s;
            self.batches += 1;
        }
        outs
    }

    fn finish(self, untraced: &OpStats, report: &mut Report) {
        self.state.engine.shutdown();
        let tracer = &self.tracer;
        let per_kind = |k: &str| {
            tracer.sum("serve.request", |l| l == k) * 1e3
                / tracer.count("serve.request", |l| l == k).max(1) as f64
        };
        report.set("serve.warm.ms", per_kind("warm"));
        report.set("serve.cold.ms", per_kind("cold"));
        report.set("serve.evaluate.ms", per_kind("evaluate"));
        report.set("serve.ask.ms", per_kind("ask"));
        report.set(
            "qa.session_open.ms",
            self.open_s * 1e3 / self.opens.max(1) as f64,
        );
        report.set(
            "automl.recommend_batch.ms",
            self.batch_s * 1e3 / self.batches.max(1) as f64,
        );
        report.set("trace.coverage", tracer.coverage());
        report.set(
            "trace.overhead_frac",
            tracer.op_total() / untraced.busy_s - 1.0,
        );
    }
}
