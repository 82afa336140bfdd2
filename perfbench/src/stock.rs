//! stock-1k / stock-100k: in each round, open-loop arrivals at the fixed
//! rate, then the closed-loop capacity phase, then the control loop,
//! each on a freshly started server. Every delivered outcome is checked
//! against a synchronous broker.

use std::path::Path;
use std::time::Instant;

use pubsub_core::{Broker, MessageCosts};
use pubsub_workload::Arrival;

use crate::check::check;
use crate::phases::{self, Churner, OpenLoop};
use crate::serve::{self, Hops, Outcome, Rounds, Served, Stages, CHURN_LIVE};
use crate::sink::{self, SinkData};
use crate::stats::{median, Summary};
use crate::tcp_churn;
use crate::trace::{self, Span};
use crate::workload::{self, Inputs, Spec, POOL};
use crate::Args;

/// Share of a round spent in each phase: open loop, capacity, control.
const SPLIT: (f64, f64, f64) = (0.5, 0.3, 0.2);

/// Runs the open-loop generator on its own named thread.
fn generate(
    served: &Served,
    inputs: &Inputs,
    arrivals: &[Arrival],
    seq_base: u64,
    base: Instant,
    traced: bool,
) -> OpenLoop {
    let handle = served.server.handle();
    std::thread::scope(|s| {
        std::thread::Builder::new()
            .name("perfbench-gen".into())
            .spawn_scoped(s, || {
                phases::open_loop(&handle, inputs, arrivals, seq_base, base, traced)
            })
            .expect("spawn generator")
            .join()
            .expect("generator panicked")
    })
}

/// Publish → deliver (ms) of every delivered open-loop event, timed from
/// its scheduled arrival.
fn latencies(gen: &OpenLoop, data: &SinkData) -> Vec<f64> {
    data.recs
        .iter()
        .filter(|r| r.ok)
        .filter_map(|r| {
            let scheduled = *gen
                .scheduled_ns
                .get(r.seq.checked_sub(gen.seq_base)? as usize)?;
            Some(r.at_ns.saturating_sub(scheduled) as f64 / 1e6)
        })
        .collect()
}

/// The stock workloads' run.
pub fn run(spec: &Spec, args: &Args, base: Instant, work: &Path) -> Outcome {
    let mut out = Outcome::default();
    let inputs = workload::inputs(args.seed);
    let rate = spec.open_loop_eps.expect("stock workloads are open loop");
    let n_rounds = serve::rounds(args.seconds);
    let round_s = args.seconds / n_rounds as f64;
    let (open_s, cap_s, ctl_s) = (SPLIT.0 * round_s, SPLIT.1 * round_s, SPLIT.2 * round_s);

    // Three identical builds: one serves publishes, one is the
    // synchronous oracle (and runs the isolated loops), one serves the
    // control loop — churn changes groups, so publishes must not see it.
    let (brokers, mut setup_s, split) = serve::setup(spec, base, None, 3);
    let [mut broker, mut spare, mut control_broker]: [Broker; 3] =
        brokers.try_into().expect("three builds kept");
    out.end_to_end
        .set("peak_rss_mb", trace::peak_rss_mb(), "MB");
    serve::setup_metrics(&mut out, &mut setup_s, &split);
    let base_subs = control_broker.registry().len();
    // The oracle: an identically built synchronous broker publishing
    // each pool event once.
    let oracle: Vec<(u64, MessageCosts)> = inputs
        .pool
        .iter()
        .map(|e| {
            let o = spare.publish(e).expect("pool events fit the space");
            (sink::digest(&o), o.costs)
        })
        .collect();
    let oracle_of = |_client: u32, seq: u64| oracle[(seq % POOL as u64) as usize].0;

    let mut rounds = Rounds::default();
    let mut stages = Stages::default();
    let mut busy = Vec::new();
    let mut stage_threads = Vec::new();
    let (mut all_latency, mut all_lag, mut all_submit) = (Vec::new(), Vec::new(), Vec::new());
    let (mut offered, mut refused, mut max_depth, mut shed) = (0u64, 0u64, 0u64, 0u64);
    let mut next_seq = 0u64;
    let mut churner = Churner::new(&inputs.churn[1..], CHURN_LIVE, args.trace);
    let mut first_op_ms = 0.0;

    for round in 0..n_rounds {
        // Open loop at the fixed rate: the latency figures.
        let arrivals = workload::arrivals(args.seed, round as u64, rate, open_s);
        let before = broker.metrics_snapshot();
        let served = Served::start(broker, base, false, arrivals.len(), false);
        let gen = generate(&served, &inputs, &arrivals, next_seq, base, false);
        next_seq += arrivals.len() as u64;
        let (b, stats, data) = served.stop();
        broker = b;
        let phase = format!("open loop {round}");
        let tally = out.checked(&phase, check(&gen.ledger, &data.recs, Some(&oracle_of)));
        out.stats_conserve(&phase, &stats, &gen.ledger);
        out.check_costs(&phase, broker.report(), &data, Some(&oracle));
        stages.add(&before, &broker.metrics_snapshot(), &stats, broker.report());
        broker.reset_report();
        let mut lat = latencies(&gen, &data);
        all_latency.extend_from_slice(&lat);
        let s = Summary::of(&mut lat);
        rounds.deliver_p50.push(s.p50);
        rounds.deliver_p90.push(s.p90);
        let mut acks: Vec<f64> = gen.submit_ns.iter().map(|ns| ns / 1e3).collect();
        let a = Summary::of(&mut acks);
        rounds.ack_p50.push(a.p50);
        rounds.ack_p90.push(a.p90);
        all_submit.extend_from_slice(&gen.submit_ns);
        all_lag.extend_from_slice(&gen.lag_ns);
        offered += gen.ledger.offered;
        refused += gen.ledger.rejected + tally.failed;

        // Closed loop: the capacity figure.
        let served = Served::start(broker, base, false, 0, false);
        let (cap, shares, threads) = {
            let handle = served.server.handle();
            let inputs = &inputs;
            std::thread::scope(|s| {
                std::thread::Builder::new()
                    .name("perfbench-gen".into())
                    .spawn_scoped(s, || {
                        let before = trace::thread_cpu();
                        let wall = Instant::now();
                        let cap = phases::capacity(&handle, inputs, next_seq, cap_s, base);
                        // Read while the generator is still alive.
                        let after = trace::thread_cpu();
                        let shares =
                            trace::busy_shares(&before, &after, wall.elapsed().as_secs_f64());
                        (cap, shares, trace::thread_names())
                    })
                    .expect("spawn generator")
                    .join()
                    .expect("generator panicked")
            })
        };
        next_seq = cap.next_seq;
        let (b, stats, data) = served.stop();
        broker = b;
        let phase = format!("capacity {round}");
        let tally = out.checked(&phase, check(&cap.ledger, &data.recs, Some(&oracle_of)));
        out.stats_conserve(&phase, &stats, &cap.ledger);
        out.check_costs(&phase, broker.report(), &data, Some(&oracle));
        broker.reset_report();
        // Skip the first tenth while the queue fills; stop counting when
        // the generator stops (the drain after it is not capacity).
        let span = cap.end_ns - cap.start_ns;
        let from = cap.start_ns + span / 10;
        let done = data
            .recs
            .iter()
            .filter(|r| r.at_ns >= from && r.at_ns < cap.end_ns)
            .count();
        rounds
            .capacity
            .push(done as f64 / ((cap.end_ns - from) as f64 / 1e9));
        busy.push(shares);
        stage_threads = threads;
        max_depth = max_depth.max(stats.ingest_queue_max_depth);
        shed += cap.shed_retries;
        out.attempted += cap.ledger.accepted.len() as u64;
        out.failed += tally.failed;

        // The control loop, on its own broker and an idle server.
        let served = Served::start(control_broker, base, false, 0, false);
        let handle = served.server.handle();
        if round == 0 {
            // The first control operation builds the broker's churn
            // state (for 100k subscriptions, seconds of work paid once
            // per broker); it is timed on its own.
            let mut first = Churner::new(&inputs.churn[..1], 0, false);
            first.pair(&handle, base);
            first_op_ms = first.subscribe_ns.first().map_or(0.0, |ns| ns / 1e6);
            out.require(first.failed == 0, || {
                "control: the first operation failed".into()
            });
            out.attempted += first.ops();
        }
        let from = (churner.subscribe_ns.len(), churner.unsubscribe_ns.len());
        phases::control(&handle, &mut churner, ctl_s, 20_000, base);
        rounds.control(&churner, from);
        drop(handle);
        let (b, _, data) = served.stop();
        control_broker = b;
        out.require(data.recs.is_empty(), || {
            "control: records without publishes".into()
        });
    }
    rounds.report(&mut out.end_to_end, &mut out.per_layer);
    serve::control_layers(
        &mut out,
        &churner,
        &control_broker,
        base_subs + churner.live(),
    );
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
    out.attempted += offered + churner.ops();
    out.failed += refused + churner.failed;
    let deliver = Summary::of(&mut all_latency);
    out.notes.push(format!(
        "deliver (open loop, {rate} events/s, all rounds): {}",
        deliver.describe("ms")
    ));
    out.notes.push(format!(
        "first control op (builds churn state): {first_op_ms:.3} ms"
    ));
    out.notes.push(format!(
        "error_ratio {:.6} ratio ({refused} refused or failed of {offered} open-loop offers)",
        refused as f64 / offered.max(1) as f64
    ));
    out.notes.push(format!(
        "capacity: {shed} shed retries, ingest queue max depth {max_depth}"
    ));
    out.notes.push(format!(
        "threads during capacity: {}",
        stage_threads.join(", ")
    ));

    if args.trace {
        let arrivals = workload::arrivals(args.seed, n_rounds as u64, rate, open_s);
        traced_round(
            &mut out, broker, &inputs, &arrivals, next_seq, &oracle, base, &rounds,
        );
        let m = &mut out.per_layer;
        stages.layers(m);
        let submit = Summary::of(&mut all_submit);
        m.set("ingest.submit_ns.p50", submit.p50, "ns");
        m.set("ingest.submit_ns.p99", submit.p99, "ns");
        m.set("ingest.queue_max_depth", max_depth as f64, "count");
        m.set("ingest.shed", (shed + refused) as f64, "count");
        serve::busy(m, &busy);
        let lag = Summary::of(&mut all_lag);
        m.set("gen.lag_us.p50", lag.p50 / 1e3, "us");
        m.set("gen.lag_us.p99", lag.p99 / 1e3, "us");
        serve::deliver_tail(m, &deliver);
        m.set(
            "error_ratio",
            refused as f64 / offered.max(1) as f64,
            "ratio",
        );
        stages.isolated(&mut out, &mut spare, &inputs, work, base);
        tcp_churn::front_probe(&mut out, args, &inputs, spare, base);
        out.spans.append(&mut churner.spans);
    }
    out
}

/// One more open-loop round with spans around every submit and a timed
/// sink: the latency budget, the sink's own cost, and the tracing
/// overhead against the untraced rounds' median.
#[allow(clippy::too_many_arguments)]
fn traced_round(
    out: &mut Outcome,
    broker: Broker,
    inputs: &Inputs,
    arrivals: &[Arrival],
    seq_base: u64,
    oracle: &[(u64, MessageCosts)],
    base: Instant,
    rounds: &Rounds,
) {
    let served = Served::start(broker, base, true, arrivals.len(), false);
    let gen = generate(&served, inputs, arrivals, seq_base, base, true);
    let (broker, stats, data) = served.stop();
    let oracle_of = |_c: u32, seq: u64| oracle[(seq % POOL as u64) as usize].0;
    out.checked(
        "traced open loop",
        check(&gen.ledger, &data.recs, Some(&oracle_of)),
    );
    out.stats_conserve("traced open loop", &stats, &gen.ledger);
    out.check_costs("traced open loop", broker.report(), &data, Some(oracle));
    let mut hops: Vec<Hops> = Vec::with_capacity(data.recs.len());
    let mut sink_ns = Vec::with_capacity(data.recs.len());
    for r in data.recs.iter().filter(|r| r.ok) {
        let i = (r.seq - seq_base) as usize;
        let latency = r.at_ns.saturating_sub(gen.scheduled_ns[i]) as f64;
        hops.push((
            latency,
            gen.lag_ns[i],
            f64::from(r.ingest_ns),
            f64::from(r.pipeline_ns),
            f64::from(r.egress_ns),
        ));
        sink_ns.push(f64::from(r.sink_ns));
        out.spans.push(Span {
            name: "egress.sink",
            client: r.client,
            seq: r.seq,
            start_ns: r.at_ns,
            end_ns: r.at_ns + u64::from(r.sink_ns),
        });
    }
    let mut lat: Vec<f64> = hops.iter().map(|h| h.0 / 1e6).collect();
    let traced_p50 = Summary::of(&mut lat).p50;
    let m = &mut out.per_layer;
    m.set(
        "trace.overhead_ms",
        traced_p50 - median(&rounds.deliver_p50),
        "ms",
    );
    m.set("egress.sink_ns", median(&sink_ns), "ns");
    serve::budget(m, &hops);
    out.spans.extend(gen.spans);
}
