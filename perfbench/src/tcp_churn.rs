//! tcp-churn: in each round, lock-step session clients publish over
//! loopback TCP to a journaled broker — first paced at a fixed rate (the
//! latency figures), then back to back (the capacity figure) — each
//! phase on a freshly started front and server, while connection 0 runs
//! subscribe/unsubscribe pairs throughout.

use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

use pubsub_core::Broker;
use pubsub_server::ServerStats;

use crate::check::{check, Ledger};
use crate::phases::{self, Churner, ConnLog, TcpRun};
use crate::serve::{self, Hops, Outcome, Rounds, Served, Stages, CHURN_LIVE};
use crate::sink::SinkData;
use crate::stats::{median, Summary};
use crate::trace::{self, Span};
use crate::workload::{self, Inputs, Spec};
use crate::Args;

/// One control pair per this many publishes on connection 0.
const CHURN_EVERY: u64 = 200;
/// Lock-step client connections.
pub const CONNECTIONS: usize = 2;
/// Paced publishes per second per connection: ~20% of what two
/// lock-step connections sustain closed loop on a 2-core host (~80k/s),
/// so the latency is the path's and not a backlog's. Fixed, not probed.
pub const PACED_EPS: f64 = 8_000.0;
/// Client id of the isolated `submit_now` loop (never a session id).
const ISOLATED_CLIENT: u32 = u32::MAX - 1;
/// Events the isolated `submit_now` loop submits.
const ISOLATED_SUBMITS: u64 = 4096;

/// Publish → deliver latency in ms of every delivered publish, timed
/// from when it was due (paced) or sent (closed loop).
fn latencies(run: &TcpRun, data: &SinkData) -> Vec<f64> {
    let conn_of: HashMap<u32, &ConnLog> = run.conns.iter().map(|c| (c.client, c)).collect();
    data.recs
        .iter()
        .filter(|r| r.ok)
        .filter_map(|r| {
            let sent = *conn_of
                .get(&r.client)?
                .send_ns
                .get(r.seq.checked_sub(1)? as usize)?;
            Some(r.at_ns.saturating_sub(sent) as f64 / 1e6)
        })
        .collect()
}

/// One TCP phase on a fresh front and server, checked.
struct Phase {
    run: TcpRun,
    stats: ServerStats,
    data: SinkData,
    /// Publishes offered by the clients.
    offered: u64,
    /// Publishes shed, or delivered with a broker error.
    refused: u64,
    /// The traced phase's isolated `submit_now` times and spans.
    isolated: Option<(Vec<f64>, Vec<Span>)>,
}

/// What every phase of a run shares.
struct Ctx<'a> {
    args: &'a Args,
    inputs: &'a Inputs,
    base: Instant,
    /// Length of one phase.
    seconds: f64,
}

/// Runs one phase: paced when `paced`, with spans when `traced`.
fn phase(
    out: &mut Outcome,
    ctx: &Ctx<'_>,
    broker: Broker,
    churner: &mut Churner,
    stream: u64,
    (paced, traced): (bool, bool),
) -> (Broker, Phase) {
    let schedules: Vec<_> = (0..CONNECTIONS as u64)
        .map(|c| {
            paced
                .then(|| workload::arrivals(ctx.args.seed, 64 * stream + c, PACED_EPS, ctx.seconds))
        })
        .collect();
    let served = Served::start(broker, ctx.base, traced, 0, true);
    let handle = served.server.handle();
    let run = phases::tcp(
        served.addr(),
        &handle,
        ctx.inputs,
        churner,
        &schedules,
        CHURN_EVERY,
        ctx.seconds,
        (ctx.args.seed, stream),
        ctx.base,
        traced,
    );
    let isolated = traced.then(|| {
        phases::isolated_submits(
            &handle,
            ctx.inputs,
            ISOLATED_CLIENT,
            ISOLATED_SUBMITS,
            ctx.base,
        )
    });
    drop(handle);
    let (broker, stats, data) = served.stop();

    let name = format!("tcp {stream}");
    let mut ledger = Ledger::default();
    for c in &run.conns {
        ledger.offered += c.ledger.offered;
        ledger.rejected += c.ledger.rejected;
        ledger.accepted.extend_from_slice(&c.ledger.accepted);
        out.require(c.errors == 0, || {
            format!(
                "{name}: connection {} had {} transport errors",
                c.client, c.errors
            )
        });
    }
    let (offered, rejected) = (ledger.offered, ledger.rejected);
    let isolated = isolated.map(|(iso, times, spans)| {
        ledger.offered += iso.offered;
        ledger.rejected += iso.rejected;
        ledger.accepted.extend_from_slice(&iso.accepted);
        (times, spans)
    });
    let tally = out.checked(&name, check(&ledger, &data.recs, None));
    out.stats_conserve(&name, &stats, &ledger);
    out.check_costs(&name, broker.report(), &data, None);
    let phase = Phase {
        run,
        stats,
        data,
        offered,
        refused: rejected + tally.failed,
        isolated,
    };
    (broker, phase)
}

fn round_trips(run: &TcpRun) -> Vec<f64> {
    run.conns
        .iter()
        .flat_map(|c| c.ack_ns.iter().map(|ns| ns / 1e3))
        .collect()
}

/// `tcp.front_us` of a traced phase — the median publish → ack round
/// trip minus the median isolated `submit_now` — and the submit times.
fn front(out: &mut Outcome, p: &Phase) -> Summary {
    let (mut times, _) = p.isolated.clone().expect("traced phase submits");
    let submit = Summary::of(&mut times);
    let rtt = Summary::of(&mut round_trips(&p.run));
    out.per_layer
        .set("tcp.front_us", rtt.p50 - submit.p50 / 1e3, "us");
    submit
}

/// The TCP front's cost for a workload whose pipeline bypasses it: one
/// traced paced phase, as tcp-churn's, against `broker`. Run it after
/// anything that needs `broker` unchurned: connection 0 churns.
pub fn front_probe(
    out: &mut Outcome,
    args: &Args,
    inputs: &Inputs,
    mut broker: Broker,
    base: Instant,
) -> Broker {
    // The phase checks the fold's report against its own deliveries.
    broker.reset_report();
    let ctx = Ctx {
        args,
        inputs,
        base,
        seconds: 0.5,
    };
    let mut churner = Churner::new(&inputs.churn, CHURN_LIVE, false);
    let stream = u64::from(u32::MAX);
    let (broker, p) = phase(out, &ctx, broker, &mut churner, stream, (true, true));
    front(out, &p);
    broker
}

/// The tcp-churn run.
pub fn run(spec: &Spec, args: &Args, base: Instant, work: &Path) -> Outcome {
    let mut out = Outcome::default();
    let inputs = workload::inputs(args.seed);
    let n_rounds = serve::rounds(args.seconds);
    let ctx = Ctx {
        args,
        inputs: &inputs,
        base,
        seconds: args.seconds / n_rounds as f64 / 2.0,
    };
    let (brokers, mut setup_s, split) = serve::setup(spec, base, Some(&work.join("journal")), 1);
    let mut broker = brokers.into_iter().next().expect("one build kept");
    out.end_to_end
        .set("peak_rss_mb", trace::peak_rss_mb(), "MB");
    serve::setup_metrics(&mut out, &mut setup_s, &split);
    let base_subs = broker.registry().len();

    let mut rounds = Rounds::default();
    let mut stages = Stages::default();
    let mut busy = Vec::new();
    let mut threads = Vec::new();
    let (mut all_latency, mut all_rtt) = (Vec::new(), Vec::new());
    let (mut offered, mut refused, mut max_depth) = (0u64, 0u64, 0u64);
    let (mut closed_offered, mut shed) = (0u64, 0u64);
    let mut churner = Churner::new(&inputs.churn, CHURN_LIVE, args.trace);
    for round in 0..n_rounds as u64 {
        // Paced: the latency figures and the cost report.
        let before = broker.metrics_snapshot();
        let from = (churner.subscribe_ns.len(), churner.unsubscribe_ns.len());
        let (b, p) = phase(
            &mut out,
            &ctx,
            broker,
            &mut churner,
            2 * round,
            (true, false),
        );
        broker = b;
        stages.add(
            &before,
            &broker.metrics_snapshot(),
            &p.stats,
            broker.report(),
        );
        broker.reset_report();
        let mut lat = latencies(&p.run, &p.data);
        all_latency.extend_from_slice(&lat);
        let d = Summary::of(&mut lat);
        rounds.deliver_p50.push(d.p50);
        rounds.deliver_p90.push(d.p90);
        max_depth = max_depth.max(p.stats.ingest_queue_max_depth);
        offered += p.offered;
        refused += p.refused;

        // Closed loop: acked publishes per second, skipping the first
        // tenth while the connections open, and the ack round trip —
        // measured here because back-to-back clients keep their threads
        // running, while a paced client's round trip is mostly two
        // wake-ups from idle, which a shared host varies run to run.
        let (b, p) = phase(
            &mut out,
            &ctx,
            broker,
            &mut churner,
            2 * round + 1,
            (false, false),
        );
        broker = b;
        broker.reset_report();
        // Sheds are this phase's mechanism, not errors.
        shed += p.refused;
        closed_offered += p.offered;
        let mut rtt = round_trips(&p.run);
        all_rtt.extend_from_slice(&rtt);
        let a = Summary::of(&mut rtt);
        rounds.ack_p50.push(a.p50);
        rounds.ack_p90.push(a.p90);
        let from_ns = p.run.start_ns + (p.run.end_ns - p.run.start_ns) / 10;
        let acked = p
            .run
            .conns
            .iter()
            .flat_map(|c| c.ack_at_ns.iter())
            .filter(|&&t| t >= from_ns)
            .count();
        rounds
            .capacity
            .push(acked as f64 / ((p.run.end_ns - from_ns) as f64 / 1e9));
        rounds.control(&churner, from);
        busy.push(p.run.busy.clone());
        threads = p.run.threads.clone();
        max_depth = max_depth.max(p.stats.ingest_queue_max_depth);
    }
    rounds.report(&mut out.end_to_end, &mut out.per_layer);
    serve::control_layers(&mut out, &churner, &broker, base_subs + churner.live());
    let first_op_ms = churner.subscribe_ns.first().map_or(0.0, |ns| ns / 1e6);
    out.per_layer.set("control.first_op_ms", first_op_ms, "ms");
    out.end_to_end.set(
        "cost_improvement_pct",
        stages.report.improvement_percent(),
        "%",
    );
    out.end_to_end.set(
        "delivered_ratio",
        (offered - refused) as f64 / offered.max(1) as f64,
        "ratio",
    );
    out.attempted += offered + closed_offered + churner.ops();
    out.failed += refused + churner.failed;
    let deliver = Summary::of(&mut all_latency);
    out.notes.push(format!(
        "deliver (tcp, paced {CONNECTIONS} x {PACED_EPS} publishes/s, all rounds): {}",
        deliver.describe("ms")
    ));
    out.notes.push(format!(
        "tcp_publish_eps {:.1} publishes/s, closed loop over {CONNECTIONS} connections (= capacity_eps)",
        median(&rounds.capacity)
    ));
    let ack = Summary::of(&mut all_rtt);
    out.notes.push(format!(
        "ack round trip (closed loop, all rounds): {}",
        ack.describe("us")
    ));
    out.notes.push(format!(
        "error_ratio {:.6} ratio ({refused} shed or failed of {offered} paced publishes; \
         {shed} closed-loop sheds retried)",
        refused as f64 / offered.max(1) as f64
    ));
    out.notes.push(format!(
        "threads during closed loop: {}",
        threads.join(", ")
    ));

    if args.trace {
        let stream = 2 * n_rounds as u64;
        let (b, p) = phase(&mut out, &ctx, broker, &mut churner, stream, (true, true));
        broker = b;
        traced_figures(&mut out, &p, &rounds);
        let m = &mut out.per_layer;
        stages.layers(m);
        m.set("ingest.queue_max_depth", max_depth as f64, "count");
        m.set("ingest.shed", (refused + shed) as f64, "count");
        serve::busy(m, &busy);
        serve::deliver_tail(m, &deliver);
        m.set(
            "error_ratio",
            refused as f64 / offered.max(1) as f64,
            "ratio",
        );
        stages.isolated(&mut out, &mut broker, &inputs, work, base);
        out.spans.append(&mut churner.spans);
    }
    out
}

/// The traced phase's figures: latency budget (a paced client's lateness
/// is its generator lag), sink cost, front cost, tracing overhead against
/// the untraced rounds' median, and its spans.
fn traced_figures(out: &mut Outcome, p: &Phase, rounds: &Rounds) {
    let mut hops: Vec<Hops> = Vec::with_capacity(p.data.recs.len());
    let mut sink_ns = Vec::with_capacity(p.data.recs.len());
    let conn_of: HashMap<u32, &ConnLog> = p.run.conns.iter().map(|c| (c.client, c)).collect();
    for r in p
        .data
        .recs
        .iter()
        .filter(|r| r.ok && r.client != ISOLATED_CLIENT)
    {
        sink_ns.push(f64::from(r.sink_ns));
        out.spans.push(Span {
            name: "egress.sink",
            client: r.client,
            seq: r.seq,
            start_ns: r.at_ns,
            end_ns: r.at_ns + u64::from(r.sink_ns),
        });
        let Some(conn) = conn_of.get(&r.client) else {
            continue;
        };
        let i = (r.seq - 1) as usize;
        if let (Some(&due), Some(span)) = (conn.send_ns.get(i), conn.spans.get(i)) {
            let latency = r.at_ns.saturating_sub(due) as f64;
            let late = span.start_ns.saturating_sub(due) as f64;
            hops.push((
                latency,
                late,
                f64::from(r.ingest_ns),
                f64::from(r.pipeline_ns),
                f64::from(r.egress_ns),
            ));
        }
    }
    let mut lag: Vec<f64> = hops.iter().map(|h| h.1).collect();
    let lag = Summary::of(&mut lag);
    let mut traced = latencies(&p.run, &p.data);
    let traced_p50 = Summary::of(&mut traced).p50;
    let submit = front(out, p);
    let m = &mut out.per_layer;
    m.set("ingest.submit_ns.p50", submit.p50, "ns");
    m.set("ingest.submit_ns.p99", submit.p99, "ns");
    m.set("gen.lag_us.p50", lag.p50 / 1e3, "us");
    m.set("gen.lag_us.p99", lag.p99 / 1e3, "us");
    m.set(
        "trace.overhead_ms",
        traced_p50 - median(&rounds.deliver_p50),
        "ms",
    );
    m.set("egress.sink_ns", median(&sink_ns), "ns");
    serve::budget(m, &hops);
    if let Some((_, spans)) = &p.isolated {
        out.spans.extend_from_slice(spans);
    }
    for c in &p.run.conns {
        out.spans.extend_from_slice(&c.spans);
    }
}
