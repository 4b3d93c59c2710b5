//! `one_click`: the paper's S1 workflow. Each op is one
//! `EasyTime::one_click_json` call on one dataset of a seeded 10-domain
//! corpus, with the twelve fast-zoo methods listed by name under rolling
//! windows; the records go into the knowledge base.

use crate::common::{fast_zoo_names, fast_zoo_specs, record_key, sub_seed, Digest, Rng};
use crate::host::{median, NormClock};
use crate::report::{OpStats, Report};
use crate::trace::{all, Tracer};
use crate::RunConfig;
use easytime::knowledge::{new_knowledge_db, record_dataset, record_method, record_result};
use easytime::{parse_config, Database, Dataset, EasyTime, MetricRegistry};
use easytime_data::synthetic::{domain_spec, generate};
use easytime_data::Domain;
use easytime_eval::{evaluate, EvalConfig, EvalRecord, Strategy};

/// Series per domain (ten domains).
const PER_DOMAIN: usize = 4;
/// Length of the shortest series; each further one is `LENGTH_STEP`
/// longer, so op costs form a ramp and no latency quantile sits on a gap
/// between two classes of ops.
const LENGTH: usize = 200;
const LENGTH_STEP: usize = 3;
const HORIZON: usize = 12;
const STRIDE: usize = 12;
const MAX_WINDOWS: usize = 2;
/// Nominal reference-normalised op rate that sizes the script.
const OPS_PER_S: f64 = 80.0;
const SETUP_REPS: usize = 9;
const METRICS: [&str; 6] = ["mae", "mse", "rmse", "smape", "mase", "r2"];

struct State {
    platform: EasyTime,
    datasets: Vec<Dataset>,
    configs: Vec<String>,
}

fn config_text(names: &[String], id: &str) -> String {
    let methods: Vec<String> = names.iter().map(|n| format!("\"{n}\"")).collect();
    format!(
        "{{\"methods\": [{}], \"strategy\": {{\"type\": \"rolling\", \"horizon\": {HORIZON}, \
         \"stride\": {STRIDE}, \"max_windows\": {MAX_WINDOWS}}}, \"datasets\": [\"{id}\"]}}",
        methods.join(", ")
    )
}

/// The seeded corpus: every domain and variant of the synthetic
/// generator, lengths on a ramp.
fn corpus(seed: u64) -> Vec<Dataset> {
    (0..Domain::ALL.len() * PER_DOMAIN)
        .map(|i| {
            let domain = Domain::ALL[i % Domain::ALL.len()];
            let variant = i / Domain::ALL.len();
            let id = format!("{}_{variant:04}", domain.name());
            let spec = domain_spec(domain, variant, LENGTH + LENGTH_STEP * i);
            let series = generate(id.clone(), &spec, sub_seed(seed, 1_000 + i as u64))
                .expect("corpus series generate");
            Dataset::from_univariate(id, domain, series)
        })
        .collect()
}

fn setup(seed: u64) -> State {
    let datasets = corpus(seed);
    let platform = EasyTime::new();
    for d in &datasets {
        platform
            .add_dataset(d.clone())
            .expect("corpus datasets register");
    }
    let names = fast_zoo_names();
    let configs = datasets
        .iter()
        .map(|d| config_text(&names, &d.meta.id))
        .collect();
    State {
        platform,
        datasets,
        configs,
    }
}

pub fn run(cfg: &RunConfig, clock: &mut NormClock) -> Report {
    let mut report = Report::default();
    let mut setups = Vec::new();
    let mut state = None;
    for _ in 0..SETUP_REPS {
        drop(state.take());
        let (s, t) = clock.time(|| setup(cfg.seed));
        setups.push(t);
        state = Some(s);
    }
    let s = state.expect("at least one setup ran");
    let n = s.datasets.len();

    let mut order: Vec<usize> = (0..n).collect();
    Rng::new(sub_seed(cfg.seed, 2)).shuffle(&mut order);
    let script: Vec<usize> = (0..cfg.script_len(OPS_PER_S, n))
        .map(|i| order[i % n])
        .collect();

    // --- timed closed loop ---
    let mut ops = OpStats::default();
    let mut outputs: Vec<Vec<EvalRecord>> = Vec::with_capacity(script.len());
    let mut replay = cfg.trace.then(|| Replay::new(&s));
    for (i, &d) in script.iter().enumerate() {
        let (res, t) = clock.time(|| s.platform.one_click_json(&s.configs[d]));
        ops.record(d, t, res.is_ok());
        let records = res.unwrap_or_else(|e| {
            report.mismatch(format!(
                "one_click on {} failed: {e}",
                s.datasets[d].meta.id
            ));
            Vec::new()
        });
        if let Some(r) = replay.as_mut() {
            let traced = r.op(clock, &s, d);
            if traced != records.iter().map(record_key).collect::<Vec<_>>() {
                report.mismatch(format!(
                    "op {i}: traced records differ from the untraced run"
                ));
            }
        }
        outputs.push(records);
    }
    let mut keys: Vec<Vec<String>> = outputs
        .iter()
        .map(|recs| recs.iter().map(record_key).collect())
        .collect();
    if cfg.corrupt {
        keys[0][0].push('!');
    }

    // --- oracle: direct `easytime_eval::evaluate` calls, bit-identical ---
    let registry = MetricRegistry::standard();
    let oracle_cfg = EvalConfig::builder()
        .methods(fast_zoo_specs())
        .strategy(Strategy::Rolling {
            horizon: HORIZON,
            stride: STRIDE,
            max_windows: Some(MAX_WINDOWS),
        })
        .metrics(METRICS)
        .build(&registry)
        .expect("oracle config is valid");
    let oracle: Vec<Vec<EvalRecord>> = s
        .datasets
        .iter()
        .map(|d| {
            let series = d.primary_series();
            oracle_cfg
                .config()
                .methods
                .iter()
                .map(|spec| {
                    evaluate(&d.meta.id, &series, spec, &oracle_cfg, &registry)
                        .expect("oracle evaluation runs")
                })
                .collect()
        })
        .collect();
    let oracle_keys: Vec<Vec<String>> = oracle
        .iter()
        .map(|recs| recs.iter().map(record_key).collect())
        .collect();
    let mut matched = 0usize;
    for (i, &d) in script.iter().enumerate() {
        if keys[i] == oracle_keys[d] {
            matched += 1;
        } else {
            report.mismatch(format!(
                "op {i}: one_click records on {} differ from direct evaluate",
                s.datasets[d].meta.id
            ));
        }
    }
    let smapes: Vec<f64> = oracle
        .iter()
        .flatten()
        .map(|r| r.score("smape"))
        .filter(|v| v.is_finite())
        .collect();
    let forecast_smape = smapes.iter().sum::<f64>() / smapes.len().max(1) as f64;
    report.end_to_end(
        &setups,
        &ops,
        forecast_smape,
        matched as f64 / script.len() as f64,
    );

    // --- determinism guard ---
    let mut digest = Digest::new();
    keys.iter().flatten().for_each(|k| digest.add(k));
    let records: usize = outputs.iter().map(Vec::len).sum();
    let windows: usize = outputs.iter().flatten().map(|r| r.windows).sum();
    report.count("ops", script.len());
    report.count("records", records);
    report.count("windows", windows);
    report.count("output_digest", digest.hex());

    if let Some(r) = replay {
        r.finish(&ops, windows, &mut report);
        let data: Vec<f64> = setups.iter().map(|t| t.norm_s * 1e3 / n as f64).collect();
        report.set("data.corpus.ms", median(&data));
    }
    report
}

/// The traced replay: `one_click` rebuilt from the calls it is made of,
/// each in a span: `parse_config`, `evaluate` per method and
/// `record_result` per record, into a knowledge base of its own. Each op
/// is replayed right after its untraced run, so both see the same host
/// state.
struct Replay {
    registry: MetricRegistry,
    db: Database,
    tracer: Tracer,
    digest: Digest,
}

impl Replay {
    fn new(s: &State) -> Replay {
        let mut db = new_knowledge_db();
        for entry in s.platform.method_roster() {
            record_method(&mut db, entry).expect("roster records");
        }
        for d in &s.datasets {
            record_dataset(&mut db, d).expect("datasets record");
        }
        Replay {
            registry: s.platform.metrics().clone(),
            db,
            tracer: Tracer::new(),
            digest: Digest::new(),
        }
    }

    /// Replays one op; returns its records' keys.
    fn op(&mut self, clock: &mut NormClock, s: &State, d: usize) -> Vec<String> {
        let Replay {
            registry,
            db,
            tracer,
            digest,
        } = self;
        let dataset = &s.datasets[d];
        let (records, t) = clock.time(|| {
            let config = tracer
                .span("core.parse_config", "", || parse_config(&s.configs[d]))
                .expect("benchmark configs parse");
            let validated = config
                .eval
                .into_validated(registry)
                .expect("configs validate");
            let series = dataset.primary_series();
            let mut records = Vec::new();
            for spec in &validated.config().methods {
                let record = tracer.span("eval.evaluate", &spec.name(), || {
                    evaluate(&dataset.meta.id, &series, spec, &validated, registry)
                });
                records.push(record.expect("evaluate runs"));
            }
            for r in &records {
                tracer
                    .span("db.record_result", "", || record_result(db, r))
                    .expect("insert");
            }
            records
        });
        tracer.end_op(t);
        let keys: Vec<String> = records.iter().map(record_key).collect();
        keys.iter().for_each(|k| digest.add(k));
        keys
    }

    fn finish(self, untraced: &OpStats, windows: usize, report: &mut Report) {
        let tracer = &self.tracer;
        report.count("traced_output_digest", self.digest.hex());
        let ops = tracer.ops() as f64;
        let total = tracer.op_total();
        let gboost = tracer.sum("eval.evaluate", |l| l == "gboost_12");
        let rest = tracer.sum("eval.evaluate", |l| l != "gboost_12");
        let insert = tracer.sum("db.record_result", all);
        let spans = tracer.sum("core.parse_config", all) + gboost + rest + insert;
        report.set("eval.evaluate.gboost_12.share", gboost / total);
        report.set("eval.evaluate.rest.ms", rest * 1e3 / ops);
        report.set("eval.windows_per_op", windows as f64 / ops);
        let rows = tracer.count("db.record_result", all) as f64;
        report.set("db.record_result.us", insert * 1e6 / rows);
        report.set(
            "core.one_click.overhead.share",
            1.0 - spans / untraced.busy_s,
        );
        report.set("trace.coverage", tracer.coverage());
        report.set("trace.overhead_frac", total / untraced.busy_s - 1.0);
    }
}
