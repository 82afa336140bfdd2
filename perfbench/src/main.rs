//! The repository's serving benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <stock-1k|stock-100k|tcp-churn> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One load-generating process builds the workload's broker from the
//! seeded inputs (several times, to time set-up), serves it through the
//! staged server (and, for `tcp-churn`, the TCP front on loopback), and
//! drives it at a fixed offered rate. Every delivered record is checked:
//! conservation for every phase, and for the stock workloads each
//! outcome against a synchronous `Broker::publish` of the same event.
//!
//! With `--trace 0` the last stdout line reports the end-to-end metrics;
//! with `--trace 1` it reports the per-layer metrics of a separate traced
//! run, which also writes its spans to `.perfbench/trace-<workload>.jsonl`.
//! The process exits 1 when a check fails and 2 on a usage error.

mod check;
mod layers;
mod phases;
mod serve;
mod sink;
mod stats;
mod stock;
mod tcp_churn;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::time::Instant;

use pubsub_server::ServingConfig;

use serve::{Metrics, SETUP_REPS};
use workload::Spec;

/// Scratch space for journals and the span file, inside the working
/// directory.
const WORK_DIR: &str = ".perfbench";

/// Command-line arguments.
pub struct Args {
    workload: String,
    /// Seed the run's inputs are drawn from.
    pub seed: u64,
    /// Measured seconds, split over the rounds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| format!("bad --seconds {value}"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if workload::find(&args.workload).is_none() {
        let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!("--workload must be one of {}", names.join(", ")));
    }
    Ok(args)
}

/// Every per-layer metric a traced run reports, in order.
const PER_LAYER: [&str; 67] = [
    "wire.encode_ns",
    "wire.decode_ns",
    "tcp.front_us",
    "ingest.submit_ns.p50",
    "ingest.submit_ns.p99",
    "ingest.batcher_us.p50",
    "ingest.queue_wait_us.p50",
    "ingest.events_per_batch",
    "ingest.queue_max_depth",
    "ingest.shed",
    "view.process_ns_per_event",
    "view.in_pipeline_us.p50",
    "view.overhead_ns_per_event",
    "matcher.match_ns_per_event",
    "matcher.batch_match_ns_per_event",
    "matcher.subs_per_event",
    "matcher.nodes_per_event",
    "matcher.simd_block_share",
    "covering.aggregation_ratio",
    "cost_decide.ns_per_event",
    "decide.multicast_share",
    "decide.unicast_share",
    "decide.drop_share",
    "decide.wasted_per_event",
    "fold.ns_per_event",
    "fold.scheme_walks_per_event",
    "egress.stage_us.p50",
    "egress.sink_ns",
    "journal.append_us.p50",
    "journal.append_us.p99",
    "control.subscribe_ms.p50",
    "control.unsubscribe_ms.p50",
    "control.first_op_ms",
    "churn.overlay_len",
    "churn.local_refreshes",
    "churn.recompiles",
    "thread.busy_share.gen",
    "thread.busy_share.exec",
    "thread.busy_share.fold",
    "thread.busy_share.egress",
    "thread.busy_share.flusher",
    "thread.busy_share.conn",
    "gen.lag_us.p50",
    "gen.lag_us.p99",
    "budget.gen_lag_us.p50",
    "budget.gen_lag_us.p99",
    "budget.ingest_us.p50",
    "budget.ingest_us.p99",
    "budget.pipeline_us.p50",
    "budget.pipeline_us.p99",
    "budget.egress_us.p50",
    "budget.egress_us.p99",
    "budget.residual_us.p50",
    "setup.topology_s",
    "setup.subscriptions_s",
    "setup.compile_s",
    "trace.overhead_ms",
    "error_ratio",
    "control.p50_ms",
    "deliver.p90_ms",
    "ack.p90_us",
    "control.p90_ms",
    "deliver.samples",
    "deliver.tail_q",
    "deliver.tail_ms",
    "rss.peak_mb",
    "run.wall_s",
];

/// Every end-to-end metric a gated run reports, in order.
const END_TO_END: [&str; 7] = [
    "deliver_p50_ms",
    "capacity_eps",
    "ack_p50_us",
    "cost_improvement_pct",
    "delivered_ratio",
    "setup_s",
    "peak_rss_mb",
];

/// Orders `m` by `names`, failing the run if one is missing.
fn ordered(m: &Metrics, names: &[&'static str], errors: &mut Vec<String>) -> Metrics {
    let mut out = Metrics::default();
    for &n in names {
        match m.0.iter().find(|(k, _, _)| *k == n) {
            Some(&(k, v, u)) => {
                if !v.is_finite() {
                    errors.push(format!("metric {n} is not finite"));
                }
                out.set(k, v, u);
            }
            None => errors.push(format!("metric {n} was not measured")),
        }
    }
    out
}

fn header(spec: &Spec, args: &Args) -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let config = ServingConfig::default();
    let executors = pubsub_parallel::effective_threads(config.executors);
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"run_seconds\": {}, \"trace\": {}, \
         \"available_parallelism\": {cores}, \"executors\": {executors}, \
         \"stage_threads\": \"pubsub-exec-* x{executors}, pubsub-fold, pubsub-egress, pubsub-flusher{}\", \
         \"load_threads\": \"{}\", \"simd_level\": \"{}\", \"journal_fsync\": {}, \
         \"offered_rate_eps\": {}, \"rate_why\": \"{}\", \"workload_why\": \"{}\", \
         \"serving_config\": \"ingest_capacity={} egress_capacity={} max_batch={} flush_interval_us={} shards={}\", \
         \"setup_reps_min\": {SETUP_REPS}, \"rounds\": {}}}",
        spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        if spec.tcp_journaled {
            ", pubsub-accept, pubsub-conn-* x2"
        } else {
            ""
        },
        if spec.tcp_journaled {
            format!(
                "perfbench-cli-* x{} (lock-step: paced, then closed loop)",
                tcp_churn::CONNECTIONS
            )
        } else {
            "perfbench-gen x1 (open loop, then closed loop)".to_string()
        },
        pubsub_stree::simd::active_level().name(),
        spec.tcp_journaled,
        spec.open_loop_eps.unwrap_or(tcp_churn::PACED_EPS * tcp_churn::CONNECTIONS as f64),
        spec.rate_why,
        spec.why,
        config.ingest_capacity,
        config.egress_capacity,
        config.max_batch,
        config.flush_interval.as_micros(),
        config.shards,
        serve::rounds(args.seconds),
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let spec = workload::find(&args.workload).expect("validated in parse_args");
    let base = Instant::now();
    let work = PathBuf::from(WORK_DIR).join(format!("{}-{}", spec.name, std::process::id()));
    println!("# header {}", header(&spec, &args));

    let mut out = if spec.tcp_journaled {
        tcp_churn::run(&spec, &args, base, &work)
    } else {
        stock::run(&spec, &args, base, &work)
    };
    out.per_layer.set("rss.peak_mb", trace::peak_rss_mb(), "MB");
    out.per_layer
        .set("run.wall_s", base.elapsed().as_secs_f64(), "s");
    let _ = std::fs::remove_dir_all(&work);

    let e2e = ordered(&out.end_to_end, &END_TO_END, &mut out.errors);
    for (n, v, u) in &e2e.0 {
        println!("{n:<24} {v:>14.4} {u}");
    }
    for note in &out.notes {
        println!("# {note}");
    }
    let metrics = if args.trace {
        let layer = ordered(&out.per_layer, &PER_LAYER, &mut out.errors);
        for (n, v, u) in &layer.0 {
            println!("{n:<32} {v:>14.4} {u}");
        }
        let path = Path::new(WORK_DIR).join(format!("trace-{}.jsonl", spec.name));
        match trace::write_spans(&path, &out.spans) {
            Ok(()) => println!("# {} spans written to {}", out.spans.len(), path.display()),
            Err(e) => out.errors.push(format!("writing spans: {e}")),
        }
        layer
    } else {
        e2e
    };
    for e in &out.errors {
        eprintln!("perfbench: FAILED {e}");
    }
    let correct = out.errors.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted.max(1),
        out.failed,
        metrics.json()
    );
    if !correct {
        std::process::exit(1);
    }
}
