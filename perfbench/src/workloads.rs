//! The four workloads. Each run sets up (three times, reporting the median),
//! runs its own traffic, then runs fixed-size companion probes for the
//! end-to-end metrics its traffic does not produce: the result line of every
//! untraced run carries every end-to-end metric. Companion probes run after
//! the workload's own phases and never overlap them; `peak_rss_mb` is read
//! before them.

use crate::fixture::{self, Serving, Training};
use crate::layers::{self, Metrics, TimedEngine};
use crate::load::{self, ReadOutcome, Summary, WriteOutcome};
use crate::reference::{check_answer, Reference};
use hire_core::{train, TrainConfig};
use hire_graph::{NeighborhoodSampler, Rating};
use hire_serve::{
    recover, FrozenModel, OnlineConfig, Predictor, RatingQuery, ServeEngine, ServedBy, Server,
    ServerConfig,
};
use hire_wal::WalOptions;
use rand::Rng;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    ServeHot,
    ServeCold,
    ServeWrite,
    Train,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "serve_hot" => Some(Workload::ServeHot),
            "serve_cold" => Some(Workload::ServeCold),
            "serve_write" => Some(Workload::ServeWrite),
            "train" => Some(Workload::Train),
            _ => None,
        }
    }
}

pub struct Run {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory inside the checkout for WAL segments.
    pub scratch: PathBuf,
}

/// What a run reports.
#[derive(Default)]
pub struct Report {
    pub e2e: Metrics,
    pub layers: Metrics,
    pub attempted: u64,
    pub failed: u64,
    /// Correctness violations; any entry fails the run.
    pub errors: Vec<String>,
}

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Open-loop read rates (1/s) of the fixed-rate phases.
const HOT_RATE: f64 = 400.0;
const COLD_RATE: f64 = 90.0;
const SCORE_RATE: f64 = 80.0;
/// Share of `--seconds` given to the `train` workload's scoring phase.
const SCORE_SHARE: f64 = 0.5;
/// Share of `--seconds` given to the fixed-rate read phase.
const FIXED_SHARE: f64 = 0.5;
const COLD_FIXED_SHARE: f64 = 0.6;
/// Deadline budget carried by every `serve_cold` read. Answers whose
/// remaining budget falls under the engine's 25 ms threshold take the int8
/// rung; an expired budget degrades to the fallback rung (a failure).
const COLD_BUDGET: Duration = Duration::from_millis(500);
/// 99th-percentile latency limit behind `max_rate_qps`.
const COLD_LIMIT_MS: f64 = 100.0;
/// Acked inserts per second in `serve_write`'s fixed-rate phase, and the
/// count of the closed-loop companion write probe. Every insert invalidates
/// about three hot contexts, each re-forwarded when next read; the write
/// ramp below finds the insert rate those re-forwards saturate.
const WRITES_PER_SEC: f64 = 15.0;
const COMPANION_WRITES: usize = 250;
/// Training steps per second of `--seconds` in `train`, and of the
/// companion training probe.
const TRAIN_STEPS_PER_SEC: f64 = 10.0;
const COMPANION_STEPS_PER_SEC: f64 = 1.0;
/// Held-out cold-user ratings scored by the companion training probe.
const COMPANION_SCORED: usize = 128;
/// Answers per run checked against the f64 reference forward.
const CHECKED_ANSWERS: usize = 16;

/// The ramp that locates `max_rate_qps`: reads that miss the cache, so the
/// model path sets the rate, arriving at a rate that rises linearly from
/// `RAMP_FROM` to `RAMP_TO` per second over `RAMP_SHARE` of `--seconds`.
/// Memoized hot reads are served far faster than one generator thread can
/// send them, so the hot workloads measure this rate with the same ramp as
/// a companion. The ramp runs `RAMPS` times and the median crossing counts:
/// a host slowdown during one ramp moves one crossing, not the figure.
const RAMP_FROM: f64 = 80.0;
const RAMP_TO: f64 = 260.0;
const RAMP_SHARE: f64 = 0.15;
const RAMPS: usize = 3;
/// Reads per ramp bin, and the queue length at which a ramp stops sending.
const RAMP_BIN: usize = 50;
const RAMP_STOP_BACKLOG: usize = 64;

/// The write ramp of a traced `serve_write` run: hot reads at
/// `HOT_RATE` beside acked inserts on hot users and items whose rate rises
/// linearly from `WRITE_RAMP_FROM` to `WRITE_RAMP_TO` per second over
/// `WRITE_RAMP_SHARE` of `--seconds`. `write.max_insert_rate` is the insert
/// rate at which the median of the hot reads, in bins of `WRITE_RAMP_BIN`, passes
/// `WRITE_LIMIT_MS`, so it moves with the cost of a write: the WAL append,
/// the CSR commit, the cache invalidation and the re-forwards it forces.
/// Where one ramp crosses varies by ±25 % (the re-forwards pile up
/// suddenly), so it runs `WRITE_RAMPS` times, each ending its inserts once
/// its reads stop and starting from a warm hot set, and the median
/// crossing counts.
const WRITE_RAMP_FROM: f64 = 20.0;
const WRITE_RAMP_TO: f64 = 100.0;
const WRITE_RAMP_SHARE: f64 = 0.125;
const WRITE_RAMPS: usize = 5;
const WRITE_RAMP_BIN: usize = 100;
const WRITE_LIMIT_MS: f64 = 10.0;

fn server_config() -> ServerConfig {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    ServerConfig {
        workers: cores,
        max_batch: 8,
        max_queue: 4096,
        batch_timeout: Duration::from_millis(2),
    }
}

/// Runs `build` [`SETUPS`] times and keeps the last result.
fn timed_setups<T>(report: &mut Report, mut build: impl FnMut() -> T) -> T {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let start = Instant::now();
        last = Some(build());
        times.push(start.elapsed().as_secs_f64());
    }
    report.e2e.put("setup_s", load::median(&times), "s");
    last.expect("at least one set-up")
}

/// Process CPU time (user + system) in ms, from `/proc/self/stat`.
fn cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map_or(vec![], |(_, rest)| rest.split_whitespace().collect());
    let ticks = |k: usize| {
        fields
            .get(k)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    // utime and stime, in clock ticks of 10 ms.
    (ticks(11) + ticks(12)) * 10.0
}

/// Peak resident set of this process in MB, from `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One open-loop serving phase: reads on this thread and, optionally,
/// acked inserts on their own schedule on a second generator thread.
#[allow(clippy::too_many_arguments)]
fn serve_phase(
    engine: &Arc<ServeEngine>,
    predictor: Arc<dyn Predictor>,
    reads: &[RatingQuery],
    schedule: &[(f64, f64)],
    budget: Option<Duration>,
    stop_backlog: Option<usize>,
    writes: &[Rating],
    write_offsets: &[f64],
) -> (Vec<ReadOutcome>, Vec<WriteOutcome>) {
    let server = Server::start(predictor, server_config());
    let start = Instant::now() + Duration::from_millis(10);
    // A ramp's inserts end with its reads; a fixed phase's run to the end.
    let stop = AtomicBool::new(false);
    let result = std::thread::scope(|scope| {
        let writer =
            scope.spawn(|| load::drive_writes(engine, writes, write_offsets, start, &stop));
        let reads = load::drive_reads(&server, reads, schedule, budget, stop_backlog, start);
        if stop_backlog.is_some() {
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
        }
        (reads, writer.join().expect("write generator thread"))
    });
    server.shutdown();
    result
}

/// Counts a fixed-rate phase's reads and returns their latency summary.
fn judge_reads(outcomes: &[ReadOutcome], report: &mut Report, what: &str) -> Summary {
    report.attempted += outcomes.len() as u64;
    report.failed += outcomes.iter().filter(|o| o.failed()).count() as u64;
    let summary = Summary::of(
        outcomes
            .iter()
            .filter_map(ReadOutcome::latency_ms)
            .collect(),
    );
    eprintln!(
        "perfbench: {what}: {} reads, p50 {:.3} ms, p99 {:.3} ms, {} failed",
        outcomes.len(),
        summary.p50,
        summary.p99,
        outcomes.iter().filter(|o| o.failed()).count()
    );
    summary
}

fn judge_writes(outcomes: &[WriteOutcome], report: &mut Report) {
    report.attempted += outcomes.len() as u64;
    report.failed += outcomes.iter().filter(|o| o.result.is_err()).count() as u64;
    let acks = Summary::of(
        outcomes
            .iter()
            .filter(|o| o.result.is_ok())
            .map(|o| load::ms(o.ack))
            .collect(),
    );
    eprintln!(
        "perfbench: {} acked writes, p50 {:.3} ms, p99 {:.3} ms",
        acks.count, acks.p50, acks.p99
    );
    report.e2e.put("write_ack_p50_ms", acks.p50, "ms");
    report.layers.put("write.ack_p99_ms", acks.p99, "ms");
    let invalidated: Vec<f64> = outcomes
        .iter()
        .filter_map(|o| o.result.as_ref().ok().map(|&n| n as f64))
        .collect();
    report.layers.put(
        "cache.invalidated_per_write",
        invalidated.iter().sum::<f64>() / invalidated.len().max(1) as f64,
        "count",
    );
}

/// Runs the ramp and records `max_rate_qps`.
fn ramp_phase(
    engine: &Arc<ServeEngine>,
    predictor: Arc<dyn Predictor>,
    queries: &[RatingQuery],
    budget: Option<Duration>,
    seconds: f64,
    report: &mut Report,
) {
    let schedule = load::ramp_schedule(RAMP_FROM, RAMP_TO, RAMP_SHARE * seconds);
    let crossings: Vec<f64> = queries
        .chunks(schedule.len())
        .take(RAMPS)
        .map(|reads| {
            let (outcomes, _) = serve_phase(
                engine,
                Arc::clone(&predictor),
                reads,
                &schedule[..reads.len()],
                budget,
                Some(RAMP_STOP_BACKLOG),
                &[],
                &[],
            );
            load::max_rate(&outcomes, RAMP_BIN, 99.0, COLD_LIMIT_MS).unwrap_or_else(|| {
                eprintln!("perfbench: a ramp missed the limit from its first bin");
                RAMP_FROM
            })
        })
        .collect();
    eprintln!(
        "perfbench: ramps {RAMP_FROM}..{RAMP_TO} 1/s; max rate within p99 {COLD_LIMIT_MS} ms: {crossings:.1?} 1/s"
    );
    report
        .e2e
        .put("max_rate_qps", load::median(&crossings), "1/s");
}

/// Runs the write ramp, records `write.max_insert_rate` and returns the
/// inserts it got acked. Its inserts count as operations; its reads, past the limit by
/// design, do not.
fn write_ramp_phase(
    serving: &Serving,
    predictor: Arc<dyn Predictor>,
    pool: &[Rating],
    seed: u64,
    seconds: f64,
    report: &mut Report,
) -> Vec<Rating> {
    let secs = WRITE_RAMP_SHARE * seconds;
    let offsets: Vec<f64> = load::ramp_schedule(WRITE_RAMP_FROM, WRITE_RAMP_TO, secs)
        .iter()
        .map(|&(t, _)| t)
        .collect();
    // Each read carries the insert rate at its due time.
    let schedule: Vec<(f64, f64)> = (0..(HOT_RATE * secs).round() as usize)
        .map(|k| {
            let t = k as f64 / HOT_RATE;
            (
                t,
                WRITE_RAMP_FROM + (WRITE_RAMP_TO - WRITE_RAMP_FROM) * t / secs,
            )
        })
        .collect();
    let mut acked_writes = Vec::new();
    let crossings: Vec<f64> = pool
        .chunks(offsets.len())
        .take(WRITE_RAMPS)
        .enumerate()
        .map(|(r, writes)| {
            // Every ramp starts from a memoized hot set, not from the
            // previous ramp's invalidations.
            serving
                .engine
                .predict_batch(&serving.hot)
                .expect("warm the hot set");
            let reads = fixture::zipf_queries(
                &serving.hot,
                schedule.len(),
                &mut fixture::rng(seed, 40 + r as u64),
            );
            let (outcomes, writes) = serve_phase(
                &serving.engine,
                Arc::clone(&predictor),
                &reads,
                &schedule,
                None,
                Some(RAMP_STOP_BACKLOG),
                writes,
                &offsets[..writes.len()],
            );
            report.attempted += writes.len() as u64;
            report.failed += writes.iter().filter(|w| w.result.is_err()).count() as u64;
            acked_writes.extend(acked(&writes));
            load::max_rate(&outcomes, WRITE_RAMP_BIN, 50.0, WRITE_LIMIT_MS).unwrap_or_else(|| {
                eprintln!("perfbench: a write ramp missed the limit from its first bin");
                WRITE_RAMP_FROM
            })
        })
        .collect();
    eprintln!(
        "perfbench: write ramps {WRITE_RAMP_FROM}..{WRITE_RAMP_TO} 1/s; max insert rate within read p50 {WRITE_LIMIT_MS} ms: {crossings:.1?} 1/s"
    );
    report
        .layers
        .put("write.max_insert_rate", load::median(&crossings), "1/s");
    acked_writes
}

/// A served answer: the query, the rating and the tier that produced it.
type Served = (RatingQuery, f32, ServedBy);

fn answered(outcomes: &[ReadOutcome]) -> Vec<Served> {
    outcomes
        .iter()
        .filter(|o| !o.failed())
        .filter_map(|o| {
            o.result
                .as_ref()
                .ok()
                .map(|p| (o.query, p.rating, p.served_by))
        })
        .collect()
}

/// Checks an evenly spread sample of answers against the reference forward
/// and the sampler's contract.
fn check_answers(
    serving: &Serving,
    reference: &Reference,
    answers: &[Served],
    report: &mut Report,
) {
    let stride = (answers.len() / CHECKED_ANSWERS).max(1);
    let quant_bound = serving
        .engine
        .current_model()
        .quantized()
        .map_or(0.0, |q| q.prediction_bound());
    let graph = serving.engine.graph_snapshot();
    for &(query, rating, served_by) in answers.iter().step_by(stride).take(CHECKED_ANSWERS) {
        let verdict = serving
            .engine
            .context_for(&query)
            .map_err(|e| format!("context for {query:?}: {e}"))
            .and_then(|ctx| {
                check_answer(
                    reference,
                    &serving.frozen,
                    &serving.ds,
                    &graph,
                    &ctx,
                    &query,
                    rating,
                    served_by,
                    quant_bound,
                )
            });
        if let Err(e) = verdict {
            report.errors.push(e);
        }
    }
}

fn tier_metrics(
    engine: &ServeEngine,
    before: (hire_serve::TierStats, hire_serve::CacheStats),
    report: &mut Report,
) {
    let (t0, c0) = before;
    let (t, c) = (engine.tier_stats(), engine.cache_stats());
    let m = &mut report.layers;
    m.put("engine.answers_model", (t.model - t0.model) as f64, "count");
    m.put(
        "engine.answers_quantized",
        (t.quantized - t0.quantized) as f64,
        "count",
    );
    m.put("engine.answers_cache", (t.cache - t0.cache) as f64, "count");
    m.put(
        "engine.answers_hybrid",
        (t.hybrid - t0.hybrid) as f64,
        "count",
    );
    m.put(
        "engine.answers_fallback",
        (t.fallback - t0.fallback) as f64,
        "count",
    );
    let (hits, misses) = (c.hits - c0.hits, c.misses - c0.misses);
    m.put(
        "cache.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );
    m.put(
        "cache.invalidations",
        (c.invalidations - c0.invalidations) as f64,
        "count",
    );
}

struct Trained {
    engine: Arc<ServeEngine>,
    frozen: FrozenModel,
    ctx_per_s: f64,
    first_loss: f32,
    final_loss: f32,
}

/// Trains the split's model for `steps` steps, then freezes it into an
/// engine over the split's visible graph, with a fresh WAL in `wal` if given.
fn train_model(t: &Training, steps: usize, seed: u64, wal: Option<&Path>) -> Trained {
    let config = TrainConfig {
        steps,
        ..TrainConfig::fast()
    };
    let start = Instant::now();
    let report = train(
        &t.model,
        &t.ds,
        &t.train_graph,
        &NeighborhoodSampler,
        &config,
        &mut fixture::rng(seed, 4),
    )
    .expect("train");
    let secs = start.elapsed().as_secs_f64();
    let frozen = FrozenModel::from_model(&t.model, &t.ds).expect("freeze the trained model");
    let mut engine = ServeEngine::with_graph(
        frozen.clone(),
        Arc::clone(&t.ds),
        t.split.visible_graph(&t.ds),
        fixture::engine_config(&t.config, seed),
    );
    if let Some(dir) = wal {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).expect("create the WAL directory");
        let (wal, _) = hire_wal::Wal::open(dir, WalOptions::default()).expect("open a fresh WAL");
        engine = engine.with_wal(Arc::new(wal));
    }
    Trained {
        engine: Arc::new(engine),
        frozen,
        ctx_per_s: (steps * config.batch_size) as f64 / secs,
        first_loss: report.steps.first().map_or(f32::NAN, |s| s.loss),
        final_loss: report.final_loss().unwrap_or(f32::NAN),
    }
}

/// `count` held-out cold-user ratings, drawn without replacement.
fn held_out(t: &Training, count: usize, rng: &mut impl Rng) -> Vec<Rating> {
    let mut pool = t.split.query_ratings.clone();
    let count = count.min(pool.len());
    for k in 0..count {
        let j = rng.gen_range(k..pool.len());
        pool.swap(k, j);
    }
    pool.truncate(count);
    pool
}

fn query_of(r: &Rating) -> RatingQuery {
    RatingQuery {
        user: r.user,
        item: r.item,
    }
}

fn mae(pairs: impl Iterator<Item = (f32, f32)>) -> f64 {
    let (sum, n) = pairs.fold((0.0, 0usize), |(s, n), (a, b)| {
        (s + (a - b).abs() as f64, n + 1)
    });
    sum / n.max(1) as f64
}

/// Mean rating of the split's training ratings: the global-mean predictor.
fn global_mean(t: &Training) -> f32 {
    let r = &t.split.train_ratings;
    (r.iter().map(|x| x.value as f64).sum::<f64>() / r.len() as f64) as f32
}

/// The training probe run by the serving workloads: a short training and a
/// small scoring pass, for `train_ctx_per_s` and `cold_mae`.
fn companion_training(run: &Run, report: &mut Report) {
    let t = fixture::training(run.seed);
    let steps = ((COMPANION_STEPS_PER_SEC * run.seconds).round() as usize).max(1);
    let trained = train_model(&t, steps, run.seed, None);
    let scored = held_out(&t, COMPANION_SCORED, &mut fixture::rng(run.seed, 5));
    let queries: Vec<RatingQuery> = scored.iter().map(query_of).collect();
    let preds: Vec<f32> = queries
        .chunks(8)
        .flat_map(|c| {
            trained
                .engine
                .predict_batch(c)
                .expect("score held-out ratings")
        })
        .collect();
    report.attempted += steps as u64 + queries.len() as u64;
    report.e2e.put("train_ctx_per_s", trained.ctx_per_s, "1/s");
    report.e2e.put(
        "cold_mae",
        mae(preds.into_iter().zip(scored.iter().map(|r| r.value))),
        "rating",
    );
}

/// The closed-loop write probe run by the workloads without write traffic.
fn companion_writes(engine: &ServeEngine, ds: &hire_data::Dataset, seed: u64, report: &mut Report) {
    let users: Vec<usize> = (0..ds.num_users).collect();
    let items: Vec<usize> = (0..ds.num_items).collect();
    let graph = engine.graph_snapshot();
    let writes = fixture::fresh_edges(
        &graph,
        ds,
        &users,
        &items,
        COMPANION_WRITES,
        &mut fixture::rng(seed, 6),
    );
    let outcomes = load::drive_writes(
        engine,
        &writes,
        &vec![0.0; writes.len()],
        Instant::now(),
        &AtomicBool::new(false),
    );
    judge_writes(&outcomes, report);
    wal_metrics(engine, report);
}

fn wal_metrics(engine: &ServeEngine, report: &mut Report) {
    let stats = engine.wal().expect("WAL attached").stats();
    report
        .layers
        .put("wal.fsyncs", stats.fsyncs as f64, "count");
    report.layers.put(
        "wal.records_per_fsync",
        stats.appended as f64 / stats.fsyncs.max(1) as f64,
        "count",
    );
}

/// Per-layer microbenchmarks shared by every traced run.
fn layer_probes(
    engine: &Arc<ServeEngine>,
    ds: &hire_data::Dataset,
    seed: u64,
    report: &mut Report,
) {
    let misses = fixture::uniform_queries(ds, 64, &mut fixture::rng(seed, 30));
    let ctxs = layers::sampling(engine, &misses, &mut report.layers);
    let ctxs = &ctxs[..16];
    layers::forwards(engine, ds, ctxs, &mut report.layers);
    layers::him(
        engine.current_model().model(),
        ds,
        &ctxs[..8],
        &mut report.layers,
    );
    let graph = engine.graph_snapshot();
    let users: Vec<usize> = (0..ds.num_users).collect();
    let items: Vec<usize> = (0..ds.num_items).collect();
    let edges = fixture::fresh_edges(&graph, ds, &users, &items, 32, &mut fixture::rng(seed, 31));
    layers::graph_commit(&graph, &edges, &mut report.layers);
    let t = fixture::training(seed);
    layers::train_step_parts(&t, 4, seed, &mut report.layers);
}

/// In a traced run, the fixed-rate phase runs twice: untraced, then through
/// the timing wrapper. Returns the outcomes of the pass whose numbers count
/// and, traced, the wrapper.
struct FixedPhase {
    reads: Vec<ReadOutcome>,
    writes: Vec<WriteOutcome>,
    /// Inserts acked in every pass.
    acked: Vec<Rating>,
    timed: Option<Arc<TimedEngine>>,
}

fn acked(writes: &[WriteOutcome]) -> impl Iterator<Item = Rating> + '_ {
    writes.iter().filter(|w| w.result.is_ok()).map(|w| w.rating)
}

#[allow(clippy::too_many_arguments)]
fn fixed_phase(
    run: &Run,
    engine: &Arc<ServeEngine>,
    make_reads: &mut dyn FnMut(u64) -> Vec<RatingQuery>,
    make_writes: &mut dyn FnMut(u64) -> Vec<Rating>,
    rate: f64,
    write_rate: f64,
    budget: Option<Duration>,
    report: &mut Report,
) -> FixedPhase {
    let mut pass = |stream: u64, predictor: Arc<dyn Predictor>| {
        let reads = make_reads(stream);
        let writes = make_writes(stream);
        let offsets: Vec<f64> = (0..writes.len()).map(|k| k as f64 / write_rate).collect();
        let schedule = load::fixed_schedule(rate, reads.len());
        let cpu = cpu_ms();
        let out = serve_phase(
            engine, predictor, &reads, &schedule, budget, None, &writes, &offsets,
        );
        (out, cpu_ms() - cpu)
    };
    if !run.trace {
        let ((reads, writes), _) = pass(0, Arc::clone(engine) as Arc<dyn Predictor>);
        let acked = acked(&writes).collect();
        return FixedPhase {
            reads,
            writes,
            acked,
            timed: None,
        };
    }
    let ((plain, plain_writes), _) = pass(100, Arc::clone(engine) as Arc<dyn Predictor>);
    let timed = Arc::new(TimedEngine::new(Arc::clone(engine)));
    let ((reads, writes), cpu) = pass(0, Arc::clone(&timed) as Arc<dyn Predictor>);
    let p50 = |o: &[ReadOutcome]| {
        load::median(
            &o.iter()
                .filter_map(ReadOutcome::latency_ms)
                .collect::<Vec<_>>(),
        )
    };
    report.layers.put(
        "proc.trace_overhead_pct",
        100.0 * (p50(&reads) - p50(&plain)) / p50(&plain),
        "%",
    );
    report
        .layers
        .put("proc.cpu_ms_per_query", cpu / reads.len() as f64, "ms");
    let late = load::sorted(reads.iter().map(|o| load::ms(o.late)).collect());
    report
        .layers
        .put("loadgen.late_p99_ms", load::percentile(&late, 99.0), "ms");
    timed.server_metrics(&reads, &mut report.layers);
    let acked = acked(&plain_writes).chain(acked(&writes)).collect();
    FixedPhase {
        reads,
        writes,
        acked,
        timed: Some(timed),
    }
}

fn predictor_of(engine: &Arc<ServeEngine>, phase: &FixedPhase) -> Arc<dyn Predictor> {
    match &phase.timed {
        Some(t) => Arc::clone(t) as Arc<dyn Predictor>,
        None => Arc::clone(engine) as Arc<dyn Predictor>,
    }
}

/// `serve_hot`, `serve_cold` and `serve_write`.
fn serving_workload(run: &Run, report: &mut Report) {
    let wal_dir = run.scratch.join("wal");
    let warm = run.workload != Workload::ServeCold;
    let serving = timed_setups(report, || fixture::serving(run.seed, &wal_dir, warm));
    let (ds, engine) = (&serving.ds, &serving.engine);
    let reference = Reference::new(&serving.frozen, ds);
    let s = run.seconds;
    let before = (engine.tier_stats(), engine.cache_stats());

    let hot = serving.hot.clone();
    let (rate, share, budget) = match run.workload {
        Workload::ServeCold => (COLD_RATE, COLD_FIXED_SHARE, Some(COLD_BUDGET)),
        _ => (HOT_RATE, FIXED_SHARE, None),
    };
    let reads_per_pass = (rate * share * s).round() as usize;
    let cold = run.workload == Workload::ServeCold;
    let mut make_reads = |stream: u64| {
        let mut rng = fixture::rng(run.seed, 10 + stream);
        if cold {
            fixture::uniform_queries(ds, reads_per_pass, &mut rng)
        } else {
            fixture::zipf_queries(&hot, reads_per_pass, &mut rng)
        }
    };
    // Inserts are new edges between the hot set's users and items; each
    // pass writes its own.
    let writing = run.workload == Workload::ServeWrite;
    let writes_per_pass = (WRITES_PER_SEC * share * s).round() as usize;
    let hot_users: Vec<usize> = hot.iter().map(|q| q.user).collect();
    let hot_items: Vec<usize> = hot.iter().map(|q| q.item).collect();
    let ramp_writes =
        load::ramp_schedule(WRITE_RAMP_FROM, WRITE_RAMP_TO, WRITE_RAMP_SHARE * s).len();
    let pool = if writing {
        let count = 2 * writes_per_pass + WRITE_RAMPS * ramp_writes;
        let mut rng = fixture::rng(run.seed, 20);
        fixture::fresh_edges(
            &serving.base_graph,
            ds,
            &hot_users,
            &hot_items,
            count,
            &mut rng,
        )
    } else {
        Vec::new()
    };
    let mut make_writes = |stream: u64| {
        let pass = usize::from(stream != 0);
        pool.get(pass * writes_per_pass..(pass + 1) * writes_per_pass)
            .map_or(Vec::new(), <[Rating]>::to_vec)
    };

    let phase = fixed_phase(
        run,
        engine,
        &mut make_reads,
        &mut make_writes,
        rate,
        WRITES_PER_SEC,
        budget,
        report,
    );
    let summary = judge_reads(&phase.reads, report, "fixed-rate phase");
    report.e2e.put("query_p50_ms", summary.p50, "ms");
    report.layers.put("query.p99_ms", summary.p99, "ms");
    let mut acked = phase.acked.clone();
    if writing {
        judge_writes(&phase.writes, report);
        // Traced only: its crossing moves too much from run to run for a
        // bounded end-to-end metric (see README).
        if run.trace {
            acked.extend(write_ramp_phase(
                &serving,
                predictor_of(engine, &phase),
                &pool[2 * writes_per_pass..],
                run.seed,
                s,
                report,
            ));
        }
        wal_metrics(engine, report);
    } else {
        check_answers(&serving, &reference, &answered(&phase.reads), report);
    }

    // The cold ramp: this workload's own traffic on `serve_cold`, a
    // companion probe on the others (after their counters are read).
    if !cold {
        tier_metrics(engine, before, report);
    }
    let ramp_queries = fixture::uniform_queries(ds, 100_000, &mut fixture::rng(run.seed, 12));
    ramp_phase(
        engine,
        predictor_of(engine, &phase),
        &ramp_queries,
        Some(COLD_BUDGET),
        s,
        report,
    );
    if cold {
        tier_metrics(engine, before, report);
    }

    if writing {
        // Answers after the writes, then the same engine rebuilt from its log.
        let probes: Vec<RatingQuery> = hot.iter().take(CHECKED_ANSWERS).copied().collect();
        let answers = engine
            .predict_batch_tagged(&probes, None)
            .expect("probe the live engine");
        let served: Vec<Served> = probes
            .iter()
            .zip(&answers)
            .map(|(q, a)| (*q, a.rating, a.served_by))
            .collect();
        check_answers(&serving, &reference, &served, report);
        check_recovery(&serving, &acked, &probes, &answers, report);
    }
    report.e2e.put("peak_rss_mb", peak_rss_mb(), "MB");
    if !writing {
        companion_writes(engine, ds, run.seed, report);
    }
    if run.trace {
        layer_probes(engine, ds, run.seed, report);
    } else {
        companion_training(run, report);
    }
}

/// Rebuilds the engine from its WAL directory and checks that every acked
/// insert is in the recovered graph and that probe answers are bit-identical.
fn check_recovery(
    serving: &Serving,
    acked: &[Rating],
    probes: &[RatingQuery],
    live: &[hire_serve::Answer],
    report: &mut Report,
) {
    let recovered = recover(
        serving.frozen.clone(),
        Arc::clone(&serving.ds),
        Arc::clone(&serving.base_graph),
        fixture::engine_config(&serving.config, serving.engine.config().seed),
        OnlineConfig::default(),
        &serving.wal_dir,
        WalOptions::default(),
    );
    let recovered = match recovered {
        Ok(r) => r,
        Err(e) => {
            report
                .errors
                .push(format!("recovery from the WAL failed: {e}"));
            return;
        }
    };
    let graph = recovered.engine.graph_snapshot();
    let lost = acked
        .iter()
        .filter(|w| graph.rating(w.user, w.item) != Some(w.value))
        .count();
    if lost > 0 {
        report.errors.push(format!(
            "{lost} of {} acked inserts missing after recovery",
            acked.len()
        ));
    }
    match recovered.engine.predict_batch(probes) {
        Ok(again) => {
            let same = again
                .iter()
                .zip(live)
                .all(|(a, b)| a.to_bits() == b.rating.to_bits());
            if !same {
                report
                    .errors
                    .push("recovered engine answers differ from the live engine".into());
            }
        }
        Err(e) => report
            .errors
            .push(format!("recovered engine failed a probe: {e}")),
    }
    eprintln!(
        "perfbench: recovered {} ratings from the WAL; {} acked inserts checked",
        recovered.ratings,
        acked.len()
    );
}

fn train_workload(run: &Run, report: &mut Report) {
    let t = timed_setups(report, || fixture::training(run.seed));
    let s = run.seconds;
    let steps = ((TRAIN_STEPS_PER_SEC * s).round() as usize).max(2);
    let trained = train_model(&t, steps, run.seed, Some(&run.scratch.join("wal")));
    report.attempted += steps as u64;
    report.e2e.put("train_ctx_per_s", trained.ctx_per_s, "1/s");
    // NaN losses fail the check too.
    if trained.final_loss.partial_cmp(&trained.first_loss) != Some(Ordering::Less) {
        report.errors.push(format!(
            "training did not reduce the loss: first step {} final {}",
            trained.first_loss, trained.final_loss
        ));
    }

    // Score held-out cold-user ratings through the server at a fixed rate.
    // The scoring pass, the traced run's second pass and the ramp draw
    // disjoint ratings, so none of them is answered from another's memo.
    let engine = &trained.engine;
    let count = (SCORE_RATE * SCORE_SHARE * s).round() as usize;
    let pool = held_out(&t, usize::MAX, &mut fixture::rng(run.seed, 10));
    let truth: HashMap<RatingQuery, f32> = pool.iter().map(|r| (query_of(r), r.value)).collect();
    let mut make_reads = |stream: u64| {
        let pass = if stream == 0 { 0 } else { 1 };
        pool[pass * count..(pass + 1) * count]
            .iter()
            .map(query_of)
            .collect()
    };
    let before = (engine.tier_stats(), engine.cache_stats());
    let phase = fixed_phase(
        run,
        engine,
        &mut make_reads,
        &mut |_| Vec::new(),
        SCORE_RATE,
        1.0,
        None,
        report,
    );
    let summary = judge_reads(&phase.reads, report, "scoring phase");
    report.e2e.put("query_p50_ms", summary.p50, "ms");
    report.layers.put("query.p99_ms", summary.p99, "ms");
    let scored: Vec<(f32, f32)> = phase
        .reads
        .iter()
        .filter(|o| !o.failed())
        .map(|o| (o.result.as_ref().expect("answered").rating, truth[&o.query]))
        .collect();
    let cold_mae = mae(scored.iter().copied());
    let mean = global_mean(&t);
    let baseline = mae(scored.iter().map(|&(_, y)| (mean, y)));
    eprintln!(
        "perfbench: {steps} steps, loss {:.4} -> {:.4}; cold MAE {cold_mae:.4} vs global mean {baseline:.4}",
        trained.first_loss, trained.final_loss
    );
    if cold_mae.partial_cmp(&baseline) != Some(Ordering::Less) {
        report.errors.push(format!(
            "cold-user MAE {cold_mae:.4} does not beat the global-mean predictor's {baseline:.4}"
        ));
    }
    report.e2e.put("cold_mae", cold_mae, "rating");

    let serving = Serving {
        ds: Arc::clone(&t.ds),
        config: t.config.clone(),
        frozen: trained.frozen.clone(),
        base_graph: Arc::new(t.split.visible_graph(&t.ds)),
        engine: Arc::clone(engine),
        wal_dir: run.scratch.join("wal"),
        hot: Vec::new(),
    };
    let reference = Reference::new(&trained.frozen, &t.ds);
    check_answers(&serving, &reference, &answered(&phase.reads), report);

    let ramp_queries: Vec<RatingQuery> = pool[2 * count..].iter().map(query_of).collect();
    ramp_phase(
        engine,
        predictor_of(engine, &phase),
        &ramp_queries,
        None,
        s,
        report,
    );
    tier_metrics(engine, before, report);
    report.e2e.put("peak_rss_mb", peak_rss_mb(), "MB");
    companion_writes(engine, &t.ds, run.seed, report);
    if run.trace {
        layer_probes(engine, &t.ds, run.seed, report);
    }
}

pub fn run(run: &Run) -> Report {
    let mut report = Report::default();
    match run.workload {
        Workload::Train => train_workload(run, &mut report),
        _ => serving_workload(run, &mut report),
    }
    if run.workload != Workload::ServeWrite {
        // Only `serve_write` runs the write ramp.
        report.layers.put("write.max_insert_rate", 0.0, "1/s");
    }
    report
}
