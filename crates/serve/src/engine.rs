//! The serving engine: worker pool, admission control, micro-batching,
//! and the warm/cold forecast paths.
//!
//! Two driving modes share one dispatch core:
//!
//! * [`ServeEngine::start`] spawns a worker pool (real-clock QPS mode);
//!   callers [`ServeEngine::submit`] and block on the returned
//!   [`Ticket`], or use the [`ServeEngine::call`] convenience.
//! * [`ServeEngine::inline`] spawns nothing; the caller drives
//!   [`ServeEngine::tick`], each tick draining one micro-batch. Under a
//!   [`easytime_clock::ManualClock`] this makes the latency distribution
//!   bit-reproducible — the load-generator bench and CI gate rely on it.
//!
//! Admission control is strict *shed, don't crash*: a full queue rejects
//! with [`ServeError::Overloaded`] at submit time, and requests that
//! out-waited their deadline are dropped at dequeue time with
//! [`ServeError::DeadlineExceeded`] — they never consume model time.
//!
//! Within a batch, cold recommendation work is coalesced: every queued
//! auto-method forecast that misses the cache contributes its series to
//! one [`Recommender::recommend_batch`] call, which stacks the embeddings
//! and scores them with a single blocked matmul per tick.

use crate::api::{Request, Response, ServeError};
use crate::cache::{CacheEntry, ModelCache};
use crate::config::ValidatedServeConfig;
use crate::fingerprint::fingerprint;
use easytime::EasyTime;
use easytime_automl::{Recommendation, Recommender};
use easytime_clock::Clock;
use easytime_data::{Scaler, TimeSeries};
use easytime_db::Database;
use easytime_eval::{evaluate, MetricRegistry, ValidatedEvalConfig};
use easytime_models::ModelSpec;
use easytime_obs::Histogram;
use easytime_qa::{QaError, QaSession};
use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Everything the handlers need: the pretrained recommender, the metric
/// registry, a Q&A session over a knowledge-base snapshot, and the
/// evaluation configuration applied to [`Request::Evaluate`].
#[derive(Clone)]
pub struct ServeContext {
    recommender: Recommender,
    metrics: MetricRegistry,
    /// Opened once. Each [`Request::Ask`] runs on a clone with an empty
    /// history, which shares the knowledge base's tables instead of copying
    /// them. When the knowledge base cannot open a session, the error is
    /// kept and every `Ask` returns it.
    qa: Result<QaSession, QaError>,
    eval: ValidatedEvalConfig,
}

impl ServeContext {
    /// Builds a context from parts, opening the Q&A session over
    /// `knowledge`.
    pub fn new(
        recommender: Recommender,
        metrics: MetricRegistry,
        knowledge: Database,
        eval: ValidatedEvalConfig,
    ) -> ServeContext {
        ServeContext { recommender, metrics, qa: QaSession::new(knowledge), eval }
    }

    /// Builds a context from a platform instance: clones its metric
    /// registry and snapshots its knowledge base, so the serving engine
    /// is isolated from later platform writes.
    pub fn from_platform(
        platform: &EasyTime,
        recommender: Recommender,
        eval: ValidatedEvalConfig,
    ) -> ServeContext {
        ServeContext::new(
            recommender,
            platform.metrics().clone(),
            platform.knowledge_snapshot(),
            eval,
        )
    }
}

impl std::fmt::Debug for ServeContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeContext")
            .field("methods", &self.recommender.methods().len())
            .finish_non_exhaustive()
    }
}

/// Counters and the latency histogram, snapshot via [`ServeEngine::stats`].
#[derive(Debug, Clone)]
pub struct ServeStats {
    /// Requests accepted into the queue.
    pub submitted: u64,
    /// Requests served successfully.
    pub completed: u64,
    /// Requests that failed with a non-admission error.
    pub failed: u64,
    /// Requests shed at submit time (queue full).
    pub shed: u64,
    /// Requests dropped at dequeue time (deadline exceeded).
    pub expired: u64,
    /// Forecast requests served from the model cache.
    pub cache_hits: u64,
    /// Forecast requests that required a cold fit.
    pub cache_misses: u64,
    /// Cache evictions under capacity pressure.
    pub evictions: u64,
    /// Models resident in the cache at snapshot time.
    pub cached_models: u64,
    /// Micro-batches processed.
    pub batches: u64,
    /// Requests processed inside those batches.
    pub batched_requests: u64,
    /// End-to-end latency (enqueue → reply) in nanoseconds, log2 buckets.
    pub latency: Histogram,
}

impl Default for ServeStats {
    fn default() -> Self {
        ServeStats {
            submitted: 0,
            completed: 0,
            failed: 0,
            shed: 0,
            expired: 0,
            cache_hits: 0,
            cache_misses: 0,
            evictions: 0,
            cached_models: 0,
            batches: 0,
            batched_requests: 0,
            latency: Histogram::log2(),
        }
    }
}

impl ServeStats {
    /// Cache hit rate over all forecast requests (0 when none ran).
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            return 0.0;
        }
        self.cache_hits as f64 / total as f64
    }
}

/// A pending reply: block on [`Ticket::wait`] to receive it.
#[derive(Debug)]
pub struct Ticket {
    rx: mpsc::Receiver<Result<Response, ServeError>>,
}

impl Ticket {
    /// Blocks until the engine replies. In inline mode, only call this
    /// *after* driving enough [`ServeEngine::tick`]s to process the
    /// request — waiting first would deadlock the driving thread.
    pub fn wait(self) -> Result<Response, ServeError> {
        self.rx.recv().unwrap_or_else(|_| {
            Err(ServeError::Internal { reason: "engine dropped the reply channel".into() })
        })
    }

    /// Non-blocking probe: `None` while the reply is still pending.
    pub fn try_wait(&self) -> Option<Result<Response, ServeError>> {
        match self.rx.try_recv() {
            Ok(reply) => Some(reply),
            Err(mpsc::TryRecvError::Empty) => None,
            Err(mpsc::TryRecvError::Disconnected) => Some(Err(ServeError::Internal {
                reason: "engine dropped the reply channel".into(),
            })),
        }
    }
}

struct Pending {
    req: Request,
    enqueued_ns: u64,
    tx: mpsc::Sender<Result<Response, ServeError>>,
}

struct QueueState {
    pending: VecDeque<Pending>,
    shutdown: bool,
}

struct Inner {
    ctx: ServeContext,
    cfg: ValidatedServeConfig,
    clock: Clock,
    queue: Mutex<QueueState>,
    ready: Condvar,
    cache: Mutex<ModelCache>,
    stats: Mutex<ServeStats>,
}

/// The in-process serving engine. See the module docs for the two
/// driving modes.
pub struct ServeEngine {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for ServeEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeEngine").field("workers", &self.workers.len()).finish_non_exhaustive()
    }
}

impl ServeEngine {
    /// Starts a worker-pool engine on the system clock.
    pub fn start(ctx: ServeContext, cfg: ValidatedServeConfig) -> ServeEngine {
        ServeEngine::start_with_clock(ctx, cfg, Clock::system())
    }

    /// Starts a worker-pool engine on an injected clock (latency stamps
    /// and deadlines read it; worker scheduling stays OS-driven).
    pub fn start_with_clock(
        ctx: ServeContext,
        cfg: ValidatedServeConfig,
        clock: Clock,
    ) -> ServeEngine {
        let workers = cfg.workers;
        let inner = Arc::new(Inner::new(ctx, cfg, clock));
        let handles = (0..workers)
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || worker_loop(&inner))
            })
            .collect();
        ServeEngine { inner, workers: handles }
    }

    /// Builds an engine with **no** worker threads: the caller drives
    /// processing via [`ServeEngine::tick`]. With a
    /// [`easytime_clock::ManualClock`] behind `clock`, admission,
    /// batching, and the latency distribution are fully deterministic.
    pub fn inline(ctx: ServeContext, cfg: ValidatedServeConfig, clock: Clock) -> ServeEngine {
        ServeEngine { inner: Arc::new(Inner::new(ctx, cfg, clock)), workers: Vec::new() }
    }

    /// Admission control + enqueue. Returns a [`Ticket`] for the reply,
    /// or a typed rejection ([`ServeError::Overloaded`] /
    /// [`ServeError::ShuttingDown`] / [`ServeError::InvalidRequest`]).
    pub fn submit(&self, req: Request) -> Result<Ticket, ServeError> {
        let mut sp = easytime_obs::span("serve.admit");
        sp.attr("kind", req.kind());
        validate_request(&req)?;
        let enqueued_ns = self.inner.clock.now_nanos();
        let (tx, rx) = mpsc::channel();
        let bound = self.inner.cfg.queue_bound;
        let overloaded = {
            let mut q = lock(&self.inner.queue);
            if q.shutdown {
                return Err(ServeError::ShuttingDown);
            }
            if q.pending.len() >= bound {
                Some(q.pending.len())
            } else {
                q.pending.push_back(Pending { req, enqueued_ns, tx });
                None
            }
        };
        if let Some(queued) = overloaded {
            lock(&self.inner.stats).shed += 1;
            easytime_obs::add("serve.shed", 1);
            return Err(ServeError::Overloaded { queued, bound });
        }
        lock(&self.inner.stats).submitted += 1;
        self.inner.ready.notify_one();
        Ok(Ticket { rx })
    }

    /// Submit + wait. Only meaningful on a worker-pool engine; calling
    /// this on an inline engine deadlocks (nothing ticks the queue).
    pub fn call(&self, req: Request) -> Result<Response, ServeError> {
        self.submit(req)?.wait()
    }

    /// Drains and processes one micro-batch (inline mode). Returns how
    /// many requests were taken off the queue this tick.
    pub fn tick(&self) -> usize {
        let batch = {
            let mut q = lock(&self.inner.queue);
            // lint: allow(lock-while-heavy) — moving the owned requests out of the queue is the critical section's purpose; the drain is bounded by batch_max
            drain_batch(&mut q.pending, self.inner.cfg.batch_max)
        };
        if batch.is_empty() {
            return 0;
        }
        let n = batch.len();
        process_batch(&self.inner, batch);
        n
    }

    /// Snapshot of the engine's counters and latency histogram.
    pub fn stats(&self) -> ServeStats {
        let mut stats = lock(&self.inner.stats).clone();
        let cache = lock(&self.inner.cache);
        stats.evictions = cache.evictions();
        stats.cached_models = cache.len() as u64;
        stats
    }

    /// Graceful shutdown: stop admitting, drain the queue, join workers.
    /// Dropping the engine does the same.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        {
            let mut q = lock(&self.inner.queue);
            q.shutdown = true;
        }
        self.inner.ready.notify_all();
        for h in self.workers.drain(..) {
            if h.join().is_err() {
                easytime_obs::add("serve.worker_panic", 1);
            }
        }
    }
}

impl Drop for ServeEngine {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

impl Inner {
    fn new(ctx: ServeContext, cfg: ValidatedServeConfig, clock: Clock) -> Inner {
        let cache = ModelCache::new(cfg.cache_capacity);
        Inner {
            ctx,
            cfg,
            clock,
            queue: Mutex::new(QueueState { pending: VecDeque::new(), shutdown: false }),
            ready: Condvar::new(),
            cache: Mutex::new(cache),
            stats: Mutex::new(ServeStats::default()),
        }
    }
}

fn validate_request(req: &Request) -> Result<(), ServeError> {
    match req {
        Request::RecommendAndForecast { series, horizon, .. } => {
            if series.is_empty() {
                return Err(ServeError::InvalidRequest { reason: "series is empty".into() });
            }
            if *horizon == 0 {
                return Err(ServeError::InvalidRequest {
                    reason: "horizon must be at least 1".into(),
                });
            }
        }
        Request::Evaluate { series, .. } => {
            if series.is_empty() {
                return Err(ServeError::InvalidRequest { reason: "series is empty".into() });
            }
        }
        Request::Ask { question } => {
            if question.trim().is_empty() {
                return Err(ServeError::InvalidRequest { reason: "question is empty".into() });
            }
        }
    }
    Ok(())
}

fn drain_batch(pending: &mut VecDeque<Pending>, batch_max: usize) -> Vec<Pending> {
    let n = pending.len().min(batch_max);
    pending.drain(..n).collect()
}

fn worker_loop(inner: &Arc<Inner>) {
    loop {
        let batch = {
            let mut q = lock(&inner.queue);
            while q.pending.is_empty() && !q.shutdown {
                q = inner.ready.wait(q).unwrap_or_else(PoisonError::into_inner);
            }
            if q.pending.is_empty() && q.shutdown {
                return;
            }
            // lint: allow(lock-while-heavy) — moving the owned requests out of the queue is the critical section's purpose; the drain is bounded by batch_max
            drain_batch(&mut q.pending, inner.cfg.batch_max)
        };
        process_batch(inner, batch);
    }
}

/// A forecast request mid-flight through a batch.
struct ForecastJob {
    series: TimeSeries,
    top_k: usize,
    horizon: usize,
    method: Option<ModelSpec>,
    key: u64,
    entry: Option<CacheEntry>,
    ranking: Option<Vec<Recommendation>>,
    enqueued_ns: u64,
    tx: mpsc::Sender<Result<Response, ServeError>>,
}

fn reply(
    inner: &Inner,
    tx: &mpsc::Sender<Result<Response, ServeError>>,
    enqueued_ns: u64,
    result: Result<Response, ServeError>,
) {
    let latency = inner.clock.now_nanos().saturating_sub(enqueued_ns);
    {
        let mut stats = lock(&inner.stats);
        // lint: allow(lock-while-heavy) — Histogram::record is a fixed-bucket increment, alloc-free; the report conflates it with a same-named test helper
        stats.latency.record(latency as f64);
        match &result {
            Ok(_) => stats.completed += 1,
            Err(e) if e.is_rejection() => {}
            Err(_) => stats.failed += 1,
        }
    }
    if tx.send(result).is_err() {
        // The caller dropped its ticket; nothing to deliver to.
        easytime_obs::add("serve.reply_dropped", 1);
    }
}

fn process_batch(inner: &Inner, batch: Vec<Pending>) {
    let mut bsp = easytime_obs::span("serve.batch");
    bsp.attr_u64("size", batch.len() as u64);
    let deadline_ns = (inner.cfg.deadline_ms * 1_000_000.0) as u64;
    let now = inner.clock.now_nanos();
    {
        let mut stats = lock(&inner.stats);
        stats.batches += 1;
        stats.batched_requests += batch.len() as u64;
    }

    let mut forecasts: Vec<ForecastJob> = Vec::new();
    for p in batch {
        let waited = now.saturating_sub(p.enqueued_ns);
        if waited > deadline_ns {
            lock(&inner.stats).expired += 1;
            easytime_obs::add("serve.expired", 1);
            reply(
                inner,
                &p.tx,
                p.enqueued_ns,
                Err(ServeError::DeadlineExceeded {
                    waited_ms: waited as f64 / 1_000_000.0,
                    deadline_ms: inner.cfg.deadline_ms,
                }),
            );
            continue;
        }
        let mut rsp = easytime_obs::span("serve.request");
        rsp.attr("kind", p.req.kind());
        match p.req {
            Request::RecommendAndForecast { series, top_k, horizon, method } => {
                let key = fingerprint(&series, method.as_ref(), inner.cfg.seed);
                let entry = lock(&inner.cache)
                    .take(key)
                    .filter(|e| e.covers_prefix_of(series.values()));
                forecasts.push(ForecastJob {
                    series,
                    top_k,
                    horizon,
                    method,
                    key,
                    entry,
                    ranking: None,
                    enqueued_ns: p.enqueued_ns,
                    tx: p.tx,
                });
            }
            Request::Evaluate { series, method } => {
                let result = evaluate(
                    series.name(),
                    &series,
                    &method,
                    &inner.ctx.eval,
                    &inner.ctx.metrics,
                )
                .map(|record| Response::Evaluate { record })
                .map_err(ServeError::Eval);
                reply(inner, &p.tx, p.enqueued_ns, result);
            }
            Request::Ask { question } => {
                let result = inner
                    .ctx
                    .qa
                    .clone()
                    .and_then(|mut session| session.ask(&question))
                    .map(|response| Response::Ask { response })
                    .map_err(ServeError::Qa);
                reply(inner, &p.tx, p.enqueued_ns, result);
            }
        }
    }

    // Coalesce the cold auto-method recommendations: one embedding stack,
    // one blocked matmul, regardless of how many tenants queued up.
    let cold_auto: Vec<usize> = forecasts
        .iter()
        .enumerate()
        .filter(|(_, j)| j.entry.is_none() && j.method.is_none())
        .map(|(i, _)| i)
        .collect();
    if !cold_auto.is_empty() {
        let series_refs: Vec<&TimeSeries> =
            cold_auto.iter().map(|&i| &forecasts[i].series).collect();
        let rankings = inner.ctx.recommender.recommend_batch(&series_refs);
        for (&i, ranking) in cold_auto.iter().zip(rankings) {
            forecasts[i].ranking = Some(ranking);
        }
    }

    for job in forecasts {
        let ForecastJob { series, top_k, horizon, method, key, entry, ranking, enqueued_ns, tx } =
            job;
        let result =
            serve_forecast(inner, &series, top_k, horizon, method, key, entry, ranking);
        reply(inner, &tx, enqueued_ns, result);
    }
}

/// The warm/cold forecast path for one request. `entry` is a validated
/// cache hit (already removed from the cache); `ranking` is the batch
/// recommendation for cold auto requests.
#[expect(
    clippy::too_many_arguments,
    reason = "the unpacked request fields of one ForecastJob; a struct would only rename them"
)]
fn serve_forecast(
    inner: &Inner,
    series: &TimeSeries,
    top_k: usize,
    horizon: usize,
    method: Option<ModelSpec>,
    key: u64,
    entry: Option<CacheEntry>,
    ranking: Option<Vec<Recommendation>>,
) -> Result<Response, ServeError> {
    let raw = series.values();

    // Warm path: scale the appended observations under the entry's frozen
    // transform and hand them to `update` (the PR-4 warm-start contract).
    if let Some(mut entry) = entry {
        let mut hsp = easytime_obs::span("serve.cache_hit");
        hsp.attr_u64("covered", entry.covered as u64);
        lock(&inner.stats).cache_hits += 1;
        easytime_obs::add("serve.cache_hits", 1);
        let appended = &raw[entry.covered..];
        let mut warmed = true;
        if !appended.is_empty() {
            let (shift, scale) = entry.frozen;
            let scaled: Vec<f64> = appended.iter().map(|v| (v - shift) / scale).collect();
            let carrier = series.with_values(scaled)?;
            warmed = entry.model.update(&carrier)?;
        }
        if warmed {
            entry.covered = raw.len();
            entry.last_value = raw[raw.len() - 1].to_bits();
            let forecast = forecast_inverse(&entry, horizon)?;
            let ranking = truncated(&entry.ranking, top_k);
            let chosen = entry.spec.name();
            lock(&inner.cache).insert(key, entry);
            return Ok(Response::RecommendAndForecast {
                ranking,
                chosen,
                forecast,
                cache_hit: true,
            });
        }
        // `update` declined (`Ok(false)` leaves the model unchanged):
        // rebuild cold, but keep the sticky ranking — no re-embedding.
        let sticky = entry.ranking;
        return fit_and_respond(inner, series, top_k, horizon, method, key, sticky, true);
    }

    lock(&inner.stats).cache_misses += 1;
    easytime_obs::add("serve.cache_misses", 1);
    let ranking = match (&method, ranking) {
        (Some(spec), _) => vec![Recommendation { method: spec.name(), score: 1.0, rank: 0 }],
        (None, Some(r)) => r,
        // A lone cold request outside any batch pre-pass (defensive).
        (None, None) => inner.ctx.recommender.recommend(series),
    };
    fit_and_respond(inner, series, top_k, horizon, method, key, ranking, false)
}

/// Cold path: freeze the scaler on the full history, fit the chosen
/// method in scaled space, forecast, inverse-transform, cache the model.
#[expect(
    clippy::too_many_arguments,
    reason = "the unpacked request fields of one ForecastJob; a struct would only rename them"
)]
fn fit_and_respond(
    inner: &Inner,
    series: &TimeSeries,
    top_k: usize,
    horizon: usize,
    method: Option<ModelSpec>,
    key: u64,
    ranking: Vec<Recommendation>,
    was_hit: bool,
) -> Result<Response, ServeError> {
    let spec = match method {
        Some(spec) => spec,
        None => {
            let best = ranking.first().ok_or_else(|| ServeError::Internal {
                reason: "recommender returned an empty ranking".into(),
            })?;
            ModelSpec::parse(&best.method)?
        }
    };

    let _fsp = easytime_obs::span("serve.forecast");
    let raw = series.values();
    let mut scaler = Scaler::new(inner.ctx.eval.scaler);
    // Seed via the streaming path where the kind supports it, falling
    // back to a plain fit (robust scaling needs full-order statistics).
    if !scaler.extend(raw)? {
        scaler.fit(raw)?;
    }
    let frozen = scaler
        .fitted_params()
        .ok_or_else(|| ServeError::Internal { reason: "scaler fitted no parameters".into() })?;
    let scaled = scaler.transform(raw)?;
    let train = series.with_values(scaled)?;
    let mut model = spec.build()?;
    model.fit(&train)?;

    let entry = CacheEntry {
        ranking,
        spec,
        model,
        frozen,
        covered: raw.len(),
        last_value: raw[raw.len() - 1].to_bits(),
    };
    let forecast = forecast_inverse(&entry, horizon)?;
    let ranking = truncated(&entry.ranking, top_k);
    let chosen = entry.spec.name();
    lock(&inner.cache).insert(key, entry);
    Ok(Response::RecommendAndForecast { ranking, chosen, forecast, cache_hit: was_hit })
}

fn forecast_inverse(entry: &CacheEntry, horizon: usize) -> Result<Vec<f64>, ServeError> {
    let (shift, scale) = entry.frozen;
    let mut forecast = entry.model.forecast(horizon)?;
    for v in &mut forecast {
        *v = *v * scale + shift;
    }
    Ok(forecast)
}

fn truncated(ranking: &[Recommendation], top_k: usize) -> Vec<Recommendation> {
    ranking.iter().take(top_k.max(1)).cloned().collect()
}
