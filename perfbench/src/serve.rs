//! What both workload runners share: the running server, set-up, the
//! per-phase checks, and the figures every run reports.

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use pubsub_core::{Broker, CostReport, LatencyHisto, MessageCosts, MetricsSnapshot};
use pubsub_server::tcp::TcpFront;
use pubsub_server::{ServerStats, ServingConfig, StagedServer};

use crate::check::{Ledger, Tally};
use crate::layers;
use crate::phases::Churner;
use crate::sink::{self, BenchSink, SinkData};
use crate::stats::{median, Summary};
use crate::trace::{self, Span};
use crate::workload::{self, BuildTimes, Inputs, Spec};

/// Full broker builds per run, at least; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// Builds continue past [`SETUP_REPS`] until set-up has taken this long
/// (at most [`SETUP_REPS_MAX`]), so a fast build's median rests on more
/// samples.
const SETUP_BUDGET_S: f64 = 1.0;
/// Upper limit on builds per run.
const SETUP_REPS_MAX: usize = 25;
/// Rounds a run of `seconds` is cut into: one per second (at least 3).
/// Each round runs every phase on a freshly started server, and a gated
/// figure is the median over rounds: host noise that lasts a round, or
/// a thread placement that favours one server instance, then moves one
/// round, not the figure.
pub fn rounds(seconds: f64) -> usize {
    (seconds.round() as usize).clamp(3, 120)
}
/// Transient subscriptions the control loop keeps live at most.
pub const CHURN_LIVE: usize = 16;

/// Metrics in report order: name, value, unit.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    /// Adds one metric.
    pub fn set(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    /// The metrics as the result line's `metrics` object.
    pub fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            // A non-finite value has already failed the run; keep the
            // line parseable.
            .map(|(n, v, u)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// One run's verdict and figures.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every failed check.
    pub errors: Vec<String>,
    /// Operations attempted (publishes and control operations).
    pub attempted: u64,
    /// Operations that failed or were refused outside the capacity
    /// phase.
    pub failed: u64,
    /// Gated figures.
    pub end_to_end: Metrics,
    /// Traced-run figures.
    pub per_layer: Metrics,
    /// Extra lines for the human-readable part.
    pub notes: Vec<String>,
    /// Spans recorded by a traced run.
    pub spans: Vec<Span>,
}

impl Outcome {
    /// Records a failed check unless `ok`.
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    /// Records a checker verdict, prefixed with `phase`.
    pub fn checked(&mut self, phase: &str, result: Result<Tally, Vec<String>>) -> Tally {
        result.unwrap_or_else(|errs| {
            self.errors
                .extend(errs.into_iter().map(|e| format!("{phase}: {e}")));
            Tally::default()
        })
    }

    /// The conservation identities of the server's own counters.
    pub fn stats_conserve(&mut self, phase: &str, stats: &ServerStats, ledger: &Ledger) {
        let acked = ledger.accepted.len() as u64;
        self.require(stats.accepted == acked, || {
            format!(
                "{phase}: server accepted {} but acked {acked}",
                stats.accepted
            )
        });
        self.require(stats.delivered + stats.failed == stats.accepted, || {
            format!(
                "{phase}: server delivered {} + failed {} != accepted {}",
                stats.delivered, stats.failed, stats.accepted
            )
        });
    }

    /// The fold's cost report against the sink-order sums of the
    /// delivered outcomes (bit for bit), and with an oracle, against the
    /// synchronous broker's costs summed in the same order.
    pub fn check_costs(
        &mut self,
        phase: &str,
        report: &CostReport,
        data: &SinkData,
        oracle: Option<&[(u64, MessageCosts)]>,
    ) {
        self.require(report_matches(report, &data.costs), || {
            format!("{phase}: fold report costs differ from the delivered outcomes' sums")
        });
        if let Some(oracle) = oracle {
            let mut sums = CostReport::default();
            for r in data.recs.iter().filter(|r| r.ok) {
                let c = oracle[(r.seq % oracle.len() as u64) as usize].1;
                sums.scheme_cost += c.scheme;
                sums.unicast_cost += c.unicast;
                sums.ideal_cost += c.ideal;
            }
            let same = report.scheme_cost.to_bits() == sums.scheme_cost.to_bits()
                && report.unicast_cost.to_bits() == sums.unicast_cost.to_bits()
                && report.ideal_cost.to_bits() == sums.ideal_cost.to_bits()
                && report.improvement_percent().to_bits() == sums.improvement_percent().to_bits();
            self.require(same, || {
                format!("{phase}: cost improvement differs from the synchronous broker's")
            });
        }
    }
}

fn report_matches(report: &CostReport, sums: &MessageCosts) -> bool {
    report.scheme_cost.to_bits() == sums.scheme.to_bits()
        && report.unicast_cost.to_bits() == sums.unicast.to_bits()
        && report.ideal_cost.to_bits() == sums.ideal.to_bits()
}

/// A running server (and TCP front) plus the slot its sink's data lands
/// in.
pub struct Served {
    /// The staged server.
    pub server: StagedServer,
    slot: Arc<Mutex<Option<SinkData>>>,
    front: Option<TcpFront>,
}

impl Served {
    /// Starts the default-configured server on `broker`; `traced` times
    /// the sink, `tcp` adds a loopback TCP front.
    pub fn start(broker: Broker, base: Instant, traced: bool, reserve: usize, tcp: bool) -> Served {
        let trace_from = Arc::new(AtomicU64::new(if traced { 0 } else { u64::MAX }));
        let (sink, slot) = BenchSink::new(base, trace_from, reserve);
        let server = StagedServer::start(broker, ServingConfig::default(), Box::new(sink));
        let front = tcp.then(|| {
            TcpFront::start("127.0.0.1:0", server.handle()).expect("bind a loopback port")
        });
        Served {
            server,
            slot,
            front,
        }
    }

    /// The TCP front's address.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.front.as_ref().expect("tcp front running").local_addr()
    }

    /// Stops the front and the server; returns the broker, the server's
    /// stats and everything the sink collected.
    pub fn stop(self) -> (Broker, ServerStats, SinkData) {
        if let Some(front) = self.front {
            front.stop();
        }
        let (broker, stats) = self.server.stop();
        let data = sink::collect(&self.slot);
        (broker, stats, data)
    }
}

/// Set-up: [`SETUP_REPS`] or more full builds, each timed until the server (and
/// front) accepts. Returns the last `keep` builds' brokers, stopped and
/// newest first, plus the per-rep times and the median build split.
pub fn setup(
    spec: &Spec,
    base: Instant,
    journal: Option<&Path>,
    keep: usize,
) -> (Vec<Broker>, Vec<f64>, BuildTimes) {
    assert!(
        (1..=SETUP_REPS).contains(&keep),
        "keep 1..=SETUP_REPS builds"
    );
    let mut setup_s = Vec::new();
    let mut splits = Vec::new();
    let mut brokers = Vec::new();
    let start = Instant::now();
    while setup_s.len() < SETUP_REPS
        || (setup_s.len() < SETUP_REPS_MAX && start.elapsed().as_secs_f64() < SETUP_BUDGET_S)
    {
        let t0 = Instant::now();
        let (broker, split) = workload::build_broker(spec, journal);
        let served = Served::start(broker, base, false, 0, spec.tcp_journaled);
        setup_s.push(t0.elapsed().as_secs_f64());
        splits.push(split);
        brokers.insert(0, served.stop().0);
        brokers.truncate(keep);
    }
    let med = |f: fn(&BuildTimes) -> f64| median(&splits.iter().map(f).collect::<Vec<_>>());
    let split = BuildTimes {
        topology_s: med(|b| b.topology_s),
        subscriptions_s: med(|b| b.subscriptions_s),
        compile_s: med(|b| b.compile_s),
    };
    (brokers, setup_s, split)
}

/// The gated figures of each round; a run reports their medians.
#[derive(Debug, Default)]
pub struct Rounds {
    /// Publish → deliver median, ms.
    pub deliver_p50: Vec<f64>,
    /// Publish → deliver 90th percentile, ms.
    pub deliver_p90: Vec<f64>,
    /// Closed-loop delivered (or acked) rate, events/s.
    pub capacity: Vec<f64>,
    /// Publish → ack median, µs.
    pub ack_p50: Vec<f64>,
    /// Publish → ack 90th percentile, µs.
    pub ack_p90: Vec<f64>,
    /// Control call → return median, ms.
    pub control_p50: Vec<f64>,
    /// Control call → return 90th percentile, ms.
    pub control_p90: Vec<f64>,
}

impl Rounds {
    /// Adds one round's control operations: those `churner` recorded
    /// past the given counts.
    pub fn control(&mut self, churner: &Churner, from: (usize, usize)) {
        let mut ops: Vec<f64> = churner.subscribe_ns[from.0..]
            .iter()
            .chain(&churner.unsubscribe_ns[from.1..])
            .map(|ns| ns / 1e6)
            .collect();
        let s = Summary::of(&mut ops);
        self.control_p50.push(s.p50);
        self.control_p90.push(s.p90);
    }

    /// The medians. Latency, ack and capacity medians are gated. The
    /// 90th percentiles (bimodal across runs on a shared 2-core host) and
    /// the control-call median (journal fsync and thread wake-ups, whose
    /// run-to-run spread on a shared virtual disk reached 0.18 of the
    /// median) are reported with the per-layer figures.
    pub fn report(&self, gated: &mut Metrics, traced: &mut Metrics) {
        gated.set("deliver_p50_ms", median(&self.deliver_p50), "ms");
        gated.set("capacity_eps", median(&self.capacity), "events/s");
        gated.set("ack_p50_us", median(&self.ack_p50), "us");
        traced.set("control.p50_ms", median(&self.control_p50), "ms");
        traced.set("deliver.p90_ms", median(&self.deliver_p90), "ms");
        traced.set("ack.p90_us", median(&self.ack_p90), "us");
        traced.set("control.p90_ms", median(&self.control_p90), "ms");
    }
}

/// `after - before`, bucket by bucket.
fn histo_delta(after: &LatencyHisto, before: &LatencyHisto) -> LatencyHisto {
    let mut d = *after;
    for (a, b) in d.buckets.iter_mut().zip(before.buckets.iter()) {
        *a -= b;
    }
    d.count -= before.count;
    d.total_ns -= before.total_ns;
    d
}

/// Server-side counters of the measured phases, accumulated as deltas
/// between metrics snapshots of the stopped broker.
#[derive(Debug, Default)]
pub struct Stages {
    batcher: LatencyHisto,
    queue_wait: LatencyHisto,
    pipeline: LatencyHisto,
    egress: LatencyHisto,
    match_blocks: u64,
    simd_blocks: u64,
    scheme_walks: u64,
    accepted: u64,
    batches: u64,
    /// Cost report over the phases.
    pub report: CostReport,
}

impl Stages {
    /// Adds one phase: the snapshots before and after it, and its stats.
    /// `report` is the fold's report over the phase alone.
    pub fn add(
        &mut self,
        before: &MetricsSnapshot,
        after: &MetricsSnapshot,
        stats: &ServerStats,
        report: &CostReport,
    ) {
        let (b, a) = (&before.pipeline, &after.pipeline);
        self.batcher
            .merge(&histo_delta(&a.stage_batcher, &b.stage_batcher));
        self.queue_wait
            .merge(&histo_delta(&a.stage_queue_wait, &b.stage_queue_wait));
        self.pipeline
            .merge(&histo_delta(&a.stage_pipeline, &b.stage_pipeline));
        self.egress
            .merge(&histo_delta(&a.stage_egress, &b.stage_egress));
        self.match_blocks += a.match_blocks - b.match_blocks;
        self.simd_blocks += a.simd_blocks - b.simd_blocks;
        self.scheme_walks += after.scheme_cost_walks - before.scheme_cost_walks;
        self.accepted += stats.accepted;
        self.batches += stats.batches;
        let r = &mut self.report;
        r.messages += report.messages;
        r.dropped += report.dropped;
        r.unicasts += report.unicasts;
        r.multicasts += report.multicasts;
        r.partial_multicasts += report.partial_multicasts;
        r.scheme_cost += report.scheme_cost;
        r.unicast_cost += report.unicast_cost;
        r.ideal_cost += report.ideal_cost;
        r.wasted_deliveries += report.wasted_deliveries;
        r.unreachable_skipped += report.unreachable_skipped;
    }

    /// Events per processed batch.
    pub fn events_per_batch(&self) -> f64 {
        self.accepted as f64 / self.batches.max(1) as f64
    }

    /// The per-layer figures these counters give.
    pub fn layers(&self, m: &mut Metrics) {
        m.set(
            "ingest.batcher_us.p50",
            self.batcher.quantile_ns(0.5) / 1e3,
            "us",
        );
        m.set(
            "ingest.queue_wait_us.p50",
            self.queue_wait.quantile_ns(0.5) / 1e3,
            "us",
        );
        m.set("ingest.events_per_batch", self.events_per_batch(), "count");
        m.set(
            "view.in_pipeline_us.p50",
            self.pipeline.quantile_ns(0.5) / 1e3,
            "us",
        );
        m.set(
            "matcher.simd_block_share",
            self.simd_blocks as f64 / self.match_blocks.max(1) as f64,
            "ratio",
        );
        m.set(
            "egress.stage_us.p50",
            self.egress.quantile_ns(0.5) / 1e3,
            "us",
        );
        m.set(
            "fold.scheme_walks_per_event",
            self.scheme_walks as f64 / self.accepted.max(1) as f64,
            "count",
        );
        let r = &self.report;
        let msgs = r.messages.max(1) as f64;
        m.set(
            "decide.multicast_share",
            r.multicasts as f64 / msgs,
            "ratio",
        );
        m.set("decide.unicast_share", r.unicasts as f64 / msgs, "ratio");
        m.set("decide.drop_share", r.dropped as f64 / msgs, "ratio");
        m.set(
            "decide.wasted_per_event",
            r.wasted_deliveries as f64 / msgs,
            "count",
        );
    }

    /// Isolated engine, wire and journal loops, plus the figures derived
    /// from them and these counters. The engine loops run on the first
    /// 1024 pool events at the observed mean batch size.
    pub fn isolated(
        &self,
        out: &mut Outcome,
        broker: &mut Broker,
        inputs: &Inputs,
        work: &Path,
        base: Instant,
    ) {
        let m = &mut out.per_layer;
        let sample = &inputs.pool[..inputs.pool.len().min(1024)];
        let (encode, decode) = layers::wire(sample);
        m.set("wire.encode_ns", encode, "ns");
        m.set("wire.decode_ns", decode, "ns");
        let epb = self.events_per_batch();
        let e = layers::engine(broker, sample, epb.round() as usize);
        m.set("view.process_ns_per_event", e.process_ns, "ns");
        m.set(
            "view.overhead_ns_per_event",
            self.pipeline.mean_ns() / epb.max(1.0) - e.process_ns - e.fold_ns,
            "ns",
        );
        m.set("matcher.match_ns_per_event", e.match_ns, "ns");
        m.set("matcher.batch_match_ns_per_event", e.batch_match_ns, "ns");
        m.set("matcher.subs_per_event", e.subs_per_event, "count");
        m.set("matcher.nodes_per_event", e.nodes_per_event, "count");
        m.set(
            "covering.aggregation_ratio",
            broker
                .covering_stats()
                .map_or(1.0, |c| c.aggregation_ratio()),
            "ratio",
        );
        // The fused pass matches with the block kernel, so cost + decide
        // is the pass minus that kernel at the same batch size.
        m.set(
            "cost_decide.ns_per_event",
            e.process_ns - e.batch_match_ns,
            "ns",
        );
        m.set("fold.ns_per_event", e.fold_ns, "ns");
        let (journal, spans) =
            layers::journal_append(&work.join("journal-isolated"), &inputs.churn, 200, base);
        m.set("journal.append_us.p50", journal.p50, "us");
        m.set("journal.append_us.p99", journal.p99, "us");
        out.spans.extend(spans);
    }
}

/// One traced event's hops: (latency, generator lag, ingest, pipeline,
/// egress), ns.
pub type Hops = (f64, f64, f64, f64, f64);

/// The latency budget of traced records: per event, generator lag,
/// ingest, pipeline and egress, and what the hops leave unexplained.
pub fn budget(m: &mut Metrics, hops: &[Hops]) {
    let pick = |f: fn(&Hops) -> f64| Summary::of(&mut hops.iter().map(f).collect::<Vec<_>>());
    for (p50, p99, s) in [
        (
            "budget.gen_lag_us.p50",
            "budget.gen_lag_us.p99",
            pick(|h| h.1),
        ),
        (
            "budget.ingest_us.p50",
            "budget.ingest_us.p99",
            pick(|h| h.2),
        ),
        (
            "budget.pipeline_us.p50",
            "budget.pipeline_us.p99",
            pick(|h| h.3),
        ),
        (
            "budget.egress_us.p50",
            "budget.egress_us.p99",
            pick(|h| h.4),
        ),
    ] {
        m.set(p50, s.p50 / 1e3, "us");
        m.set(p99, s.p99 / 1e3, "us");
    }
    let residual = pick(|h| h.0 - h.1 - h.2 - h.3 - h.4);
    m.set("budget.residual_us.p50", residual.p50 / 1e3, "us");
}

/// Per-role busy shares: the median over rounds.
pub fn busy(m: &mut Metrics, rounds: &[HashMap<&'static str, f64>]) {
    for (role, name) in trace::ROLES.iter().zip([
        "thread.busy_share.gen",
        "thread.busy_share.exec",
        "thread.busy_share.fold",
        "thread.busy_share.egress",
        "thread.busy_share.flusher",
        "thread.busy_share.conn",
    ]) {
        let shares: Vec<f64> = rounds.iter().map(|r| r[role]).collect();
        m.set(name, median(&shares), "ratio");
    }
}

/// Set-up figures: the median build-until-serving time and its split.
pub fn setup_metrics(out: &mut Outcome, setup_s: &mut [f64], split: &BuildTimes) {
    let s = Summary::of(setup_s);
    out.end_to_end.set("setup_s", s.p50, "s");
    out.notes
        .push(format!("setup_s over {} builds: {}", s.n, s.describe("s")));
    out.per_layer.set("setup.topology_s", split.topology_s, "s");
    out.per_layer
        .set("setup.subscriptions_s", split.subscriptions_s, "s");
    out.per_layer.set("setup.compile_s", split.compile_s, "s");
}

/// Control-loop figures and the live-subscription check.
pub fn control_layers(out: &mut Outcome, churner: &Churner, broker: &Broker, expected_live: usize) {
    let live = broker.registry().len();
    out.require(live == expected_live, || {
        format!("control: {live} live subscriptions, the control loop expects {expected_live}")
    });
    out.require(churner.failed == 0, || {
        format!("control: {} operations failed", churner.failed)
    });
    let m = &mut out.per_layer;
    let p50 = |ns: &[f64]| median(ns) / 1e6;
    m.set("control.subscribe_ms.p50", p50(&churner.subscribe_ns), "ms");
    m.set(
        "control.unsubscribe_ms.p50",
        p50(&churner.unsubscribe_ns),
        "ms",
    );
    let churn = broker.churn_counters();
    m.set("churn.overlay_len", churn.overlay_len as f64, "count");
    m.set(
        "churn.local_refreshes",
        churn.local_refreshes as f64,
        "count",
    );
    m.set("churn.recompiles", churn.recompiles as f64, "count");
}

/// The tail a traced run reports: sample count, quantile and value.
pub fn deliver_tail(m: &mut Metrics, s: &Summary) {
    m.set("deliver.samples", s.n as f64, "count");
    m.set("deliver.tail_q", s.tail_q, "quantile");
    m.set("deliver.tail_ms", s.tail, "ms");
}
