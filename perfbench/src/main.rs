//! End-to-end benchmark of the HIRE serving stack, durable writes and
//! training, with a traced per-layer breakdown. See `README.md`.
//!
//! Usage: `perfbench --workload <serve_hot|serve_cold|serve_write|train>
//! --seed <n> --seconds <s> --trace <0|1>`. The last line of standard output
//! is one JSON object: `{"correct", "attempted", "failed", "metrics"}`; with
//! `--trace 0` the metrics are the end-to-end ones, with `--trace 1` the
//! per-layer ones. Progress and notes go to standard error.

mod fixture;
mod layers;
mod load;
mod reference;
mod workloads;

use layers::Metrics;
use workloads::{Run, Workload};

/// End-to-end metrics every untraced run prints (`BENCHMARK.json`).
const END_TO_END: [&str; 7] = [
    "setup_s",
    "query_p50_ms",
    "max_rate_qps",
    "write_ack_p50_ms",
    "train_ctx_per_s",
    "cold_mae",
    "peak_rss_mb",
];

/// Per-layer metrics every traced run prints (`BENCHMARK.json`).
const PER_LAYER: [&str; 42] = [
    "query.p99_ms",
    "write.ack_p99_ms",
    "write.max_insert_rate",
    "server.queue_wait_p50_ms",
    "server.queue_wait_p99_ms",
    "server.batch_size_mean",
    "server.engine_calls",
    "loadgen.late_p99_ms",
    "engine.batch_p50_ms",
    "engine.answers_model",
    "engine.answers_quantized",
    "engine.answers_cache",
    "engine.answers_hybrid",
    "engine.answers_fallback",
    "cache.hit_ratio",
    "cache.invalidations",
    "cache.invalidated_per_write",
    "sample.ctx_ms",
    "forward.b1_ms_per_ctx",
    "forward.b8_ms_per_ctx",
    "forward.quant_b1_ms_per_ctx",
    "forward.gflops",
    "him.mbu_ms",
    "him.mbi_ms",
    "him.mba_ms",
    "him.post_ms",
    "him.decode_ms",
    "mhsa.proj_ms",
    "mhsa.permute_ms",
    "mhsa.scores_ms",
    "mhsa.softmax_ms",
    "mhsa.av_ms",
    "mhsa.out_ms",
    "wal.fsyncs",
    "wal.records_per_fsync",
    "graph.commit_ms",
    "train.sample_ms_per_ctx",
    "train.forward_ms_per_ctx",
    "train.backward_ms_per_step",
    "train.optim_ms_per_step",
    "proc.cpu_ms_per_query",
    "proc.trace_overhead_pct",
];

const USAGE: &str =
    "usage: perfbench --workload <serve_hot|serve_cold|serve_write|train> --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<Run, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("invalid {flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(1.0..=600.0).contains(&s) {
                    return Err(format!("--seconds {s} outside 1..=600"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let name = format!("{workload:?}-{}", std::process::id());
    Ok(Run {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scratch: std::path::Path::new(".perfbench_run").join(name),
    })
}

/// The result line: exactly `names`, in that order, from `metrics`.
fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &Metrics,
    names: &[&str],
) -> Result<String, String> {
    let mut fields = Vec::new();
    for name in names {
        let (value, unit) = metrics
            .0
            .get(name)
            .ok_or(format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    ))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run = match parse(&args) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    eprintln!(
        "perfbench: {:?} seed {} for {} s, trace {}, {} cores",
        run.workload,
        run.seed,
        run.seconds,
        run.trace,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let report = workloads::run(&run);
    let _ = std::fs::remove_dir_all(&run.scratch);
    let _ = std::fs::remove_dir(".perfbench_run");
    let (metrics, names): (&Metrics, &[&str]) = if run.trace {
        (&report.layers, &PER_LAYER)
    } else {
        (&report.e2e, &END_TO_END)
    };
    for e in &report.errors {
        eprintln!("perfbench: WRONG: {e}");
    }
    let correct = report.errors.is_empty();
    match result_line(correct, report.attempted, report.failed, metrics, names) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
    if !correct {
        std::process::exit(1);
    }
}
