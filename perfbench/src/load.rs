//! Open-loop load generation and latency statistics.
//!
//! Every request is due at a fixed offset from the phase start and is timed
//! from that due instant, so a generator or server stall is charged to the
//! requests it delayed. The generator's own lateness is kept per request.

use hire_graph::Rating;
use hire_serve::{Prediction, RatingQuery, ServeEngine, ServeError, ServedBy, Server};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Submissions between two backlog checks during a ramp.
const RAMP_CHECK_EVERY: usize = 8;
/// A ramp also ends once the generator itself falls this far behind.
const RAMP_MAX_LATE: Duration = Duration::from_millis(100);

pub fn sleep_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Nearest-rank percentile of an ascending slice (`p` in 0..=100).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_by(f64::total_cmp);
    xs
}

pub fn median(xs: &[f64]) -> f64 {
    percentile(&sorted(xs.to_vec()), 50.0)
}

/// One read request of an open-loop phase.
pub struct ReadOutcome {
    pub query: RatingQuery,
    /// Arrival rate of the schedule at this request's due time (1/s).
    pub rate: f64,
    /// When the generator submitted it, and how late that was.
    pub submitted: Instant,
    pub late: Duration,
    pub result: Result<Prediction, ServeError>,
}

impl ReadOutcome {
    /// A failed read: refused, answered with a typed error, or answered
    /// below the model tiers.
    pub fn failed(&self) -> bool {
        match &self.result {
            Ok(p) => matches!(p.served_by, ServedBy::Hybrid | ServedBy::Fallback),
            Err(_) => true,
        }
    }

    /// Due-time-to-answer latency. The server stamps its answer latency
    /// from the enqueue instant, which is the submission instant; the
    /// generator's lateness is added so the clock starts at the due time.
    pub fn latency_ms(&self) -> Option<f64> {
        match (&self.result, self.failed()) {
            (Ok(p), false) => Some(ms(self.late + p.latency)),
            _ => None,
        }
    }
}

/// Due offsets (seconds) of `count` requests at a fixed `rate`.
pub fn fixed_schedule(rate: f64, count: usize) -> Vec<(f64, f64)> {
    (0..count).map(|k| (k as f64 / rate, rate)).collect()
}

/// Due offsets (seconds) and instantaneous rates of a linear ramp from
/// `from` to `to` requests per second over `secs` seconds.
pub fn ramp_schedule(from: f64, to: f64, secs: f64) -> Vec<(f64, f64)> {
    let mut out = Vec::new();
    let mut t = 0.0;
    while t < secs {
        let rate = from + (to - from) * t / secs;
        out.push((t, rate));
        t += 1.0 / rate;
    }
    out
}

/// Submits `queries[k]` at `start + schedule[k].0`, then waits for every
/// answer. With `stop_backlog`, submission ends early once the server's
/// queue holds more than that many requests (the backlog is growing).
pub fn drive_reads(
    server: &Server,
    queries: &[RatingQuery],
    schedule: &[(f64, f64)],
    budget: Option<Duration>,
    stop_backlog: Option<usize>,
    start: Instant,
) -> Vec<ReadOutcome> {
    let mut pending = Vec::with_capacity(schedule.len());
    for (k, (&(offset, rate), &query)) in schedule.iter().zip(queries).enumerate() {
        if let Some(limit) = stop_backlog {
            if k % RAMP_CHECK_EVERY == 0 && server.queue_len() > limit {
                break;
            }
        }
        let due = start + Duration::from_secs_f64(offset);
        sleep_until(due);
        let submitted = Instant::now();
        if stop_backlog.is_some() && submitted - due > RAMP_MAX_LATE {
            break;
        }
        let handle = server.submit_with_deadline(query, budget);
        pending.push((query, rate, submitted, due, handle));
    }
    pending
        .into_iter()
        .map(|(query, rate, submitted, due, handle)| ReadOutcome {
            query,
            rate,
            submitted,
            late: submitted.saturating_duration_since(due),
            result: handle.and_then(|h| h.wait()),
        })
        .collect()
}

/// One acked insert.
pub struct WriteOutcome {
    pub rating: Rating,
    /// `insert_rating` call-to-ack time.
    pub ack: Duration,
    /// Cache entries the insert invalidated, or the error it returned.
    pub result: Result<usize, ServeError>,
}

/// Calls `insert_rating(writes[k])` at `start + offsets[k]`, until `stop`
/// is set.
pub fn drive_writes(
    engine: &ServeEngine,
    writes: &[Rating],
    offsets: &[f64],
    start: Instant,
    stop: &AtomicBool,
) -> Vec<WriteOutcome> {
    writes
        .iter()
        .zip(offsets)
        .map_while(|(&rating, &offset)| {
            sleep_until(start + Duration::from_secs_f64(offset));
            if stop.load(Ordering::Relaxed) {
                return None;
            }
            let called = Instant::now();
            let result = engine.insert_rating(rating);
            Some(WriteOutcome {
                rating,
                ack: called.elapsed(),
                result,
            })
        })
        .collect()
}

/// Latency summary of one phase: median and 99th percentile.
pub struct Summary {
    pub p50: f64,
    pub p99: f64,
    pub count: usize,
}

impl Summary {
    pub fn of(values: Vec<f64>) -> Summary {
        let s = sorted(values);
        Summary {
            p50: percentile(&s, 50.0),
            p99: percentile(&s, 99.0),
            count: s.len(),
        }
    }
}

/// Consecutive ramp bins that must miss the latency limit before the
/// ramp counts as past the limit; a single bin hit by a host stall does not.
const SUSTAINED_BINS: usize = 3;

/// Highest rate of a ramp at which the `pct`-th percentile latency of its
/// reads stays within `limit_ms`; the rate is each read's `rate`. The
/// ramp's reads are cut into consecutive bins of `bin` reads; a failed read
/// counts as missing the limit. The limit
/// is passed at the first bin that starts a run of [`SUSTAINED_BINS`]
/// missing bins (or that misses it with every later bin, when the ramp
/// ends sooner); the rate is interpolated between that bin and the one
/// before it. Returns `None` if the first bin already missed it.
pub fn max_rate(outcomes: &[ReadOutcome], bin: usize, pct: f64, limit_ms: f64) -> Option<f64> {
    let bins: Vec<(f64, f64)> = outcomes
        .chunks(bin)
        .map(|chunk| {
            let lat: Vec<f64> = chunk
                .iter()
                .map(|o| o.latency_ms().unwrap_or(f64::INFINITY))
                .collect();
            let rate = chunk.iter().map(|o| o.rate).sum::<f64>() / chunk.len() as f64;
            (rate, percentile(&sorted(lat), pct))
        })
        .collect();
    let missed = |k: usize| {
        bins[k..(k + SUSTAINED_BINS).min(bins.len())]
            .iter()
            .all(|b| b.1 > limit_ms)
    };
    match (0..bins.len()).find(|&k| missed(k)) {
        Some(0) => None,
        Some(k) => {
            let ((r0, p0), (r1, p1)) = (bins[k - 1], bins[k]);
            let frac = if p1.is_finite() && p0 <= limit_ms {
                (limit_ms - p0) / (p1 - p0)
            } else {
                0.0
            };
            Some(r0 + (r1 - r0) * frac)
        }
        // The ramp never passed the limit: its top rate is a lower bound.
        None => bins.last().map(|b| b.0),
    }
}
