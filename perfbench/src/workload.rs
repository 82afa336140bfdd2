//! The three workloads: their fixed inputs, fixed rates, and the set-up
//! that turns them into a running broker.
//!
//! Rates are constants written here, never derived from a probe: a
//! closed-loop calibration probe of the staged server moved 13% between
//! two back-to-back runs on a 2-core host (145k vs 126k events/s at one
//! executor, 172k vs 296k at two), and an offered rate derived from it
//! moved the measured p99 from 122 ms to 42 ms. A fixed rate makes two
//! runs of the same code offer the same load.

use std::path::Path;
use std::time::Instant;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use pubsub_clustering::{ClusteringAlgorithm, ClusteringConfig};
use pubsub_core::{Broker, CoveringConfig, DeliveryMode, JournalConfig};
use pubsub_geom::{Point, Rect};
use pubsub_netsim::{NodeId, Topology, TransitStubConfig};
use pubsub_workload::{stock_space, Modes, OpenLoopConfig, ScaleConfig, SubscriptionConfig};

/// Topology seed of the paper testbed fixture (the experiment harness's
/// default): every workload runs on the same 522-node transit-stub net.
const TOPOLOGY_SEED: u64 = 1903;
/// Subscription-population seed of the fixture.
const SUBSCRIPTION_SEED: u64 = 2003;
/// Seed of the fixture's transient subscriptions. They are part of the
/// fixture, not of the seeded inputs: churn reshapes the groups, so a
/// per-seed churn set would make the cost figure a property of the seed.
const CHURN_SEED: u64 = 2004;
/// Distinct publications per run, drawn from the nine-mode model with the
/// run's seed; events cycle through this pool, and the oracle digests
/// each pool event once.
pub const POOL: usize = 16_384;
/// Simulated clients the open-loop arrivals are spread over.
pub const CLIENTS: usize = 10_000;
/// Transient subscriptions the control loop cycles through.
const CHURN_CANDIDATES: usize = 256;

/// Which subscription population a workload compiles.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Population {
    /// The paper's 1000 §5 stock subscriptions.
    Testbed,
    /// `ScaleConfig::stock(n)`: Zipf θ = 1 picks over 4096 rectangles.
    Scale(usize),
}

/// One workload definition.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why the workload exists: which layers own its time.
    pub why: &'static str,
    /// Subscriptions compiled into the broker.
    pub population: Population,
    /// Whether the covering layer is on.
    pub covering: bool,
    /// Whether control operations are journaled with fsync, and load
    /// arrives over the TCP front.
    pub tcp_journaled: bool,
    /// In-process open-loop Poisson arrival rate, events/s (`None`: the
    /// load arrives over TCP instead).
    pub open_loop_eps: Option<f64>,
    /// Why that rate.
    pub rate_why: &'static str,
}

/// Every workload the benchmark runs.
pub const WORKLOADS: [Spec; 3] = [
    Spec {
        name: "stock-1k",
        why: "paper testbed: the fused pass is ~4 us of a ~200 us median, so batching, \
              queueing, handoffs, fold and egress own the time; TCP and journal bypassed",
        population: Population::Testbed,
        covering: false,
        tcp_journaled: false,
        open_loop_eps: Some(30_000.0),
        rate_why: "~10% of the 330-400k events/s closed-loop capacity of a 2-core host: the \
                   median shows pipeline latency, not queueing; fixed because a probe moved 13%",
    },
    Spec {
        name: "stock-100k",
        why: "100k covered subscriptions: matching, covering expansion, costing and fold \
              (~50 us/event, ~1.3k matches) own the time; set-up and memory matter",
        population: Population::Scale(100_000),
        covering: true,
        tcp_journaled: false,
        open_loop_eps: Some(5_000.0),
        rate_why: "~15% of the 32-36k events/s closed-loop capacity of a 2-core host, so the \
                   median is the per-event work plus batching, not a backlog",
    },
    Spec {
        name: "tcp-churn",
        why: "the only path through the wire protocol, sessions, journal fsync, overlay \
              matching and view republish; 2 lock-step TCP clients plus live churn",
        population: Population::Testbed,
        covering: false,
        tcp_journaled: true,
        open_loop_eps: None,
        rate_why: "2 lock-step connections (no more load threads than a 2-core host has cores), \
                   each paced at 8k publishes/s (~20% of the ~80k/s they sustain closed loop) for \
                   latency, then back to back for capacity; a subscribe/unsubscribe pair every 200 \
                   publishes",
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<Spec> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// Derives an independent sub-seed from the run's seed.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The inputs of one run.
#[derive(Debug)]
pub struct Inputs {
    /// Publication pool, drawn with the run's seed.
    pub pool: Vec<Point>,
    /// Subscriptions the control loop adds and removes (fixture).
    pub churn: Vec<(NodeId, Rect)>,
}

impl Inputs {
    /// The pool event a `seq` publishes.
    pub fn event(&self, seq: u64) -> &Point {
        &self.pool[(seq % POOL as u64) as usize]
    }
}

/// The run's inputs: the pool from `seed`, the churn set from the
/// fixture.
pub fn inputs(seed: u64) -> Inputs {
    let topology = fixture_topology();
    let model = Modes::Nine.model();
    let mut rng = ChaCha8Rng::seed_from_u64(sub_seed(seed, 1));
    let pool = (0..POOL).map(|_| model.sample(&mut rng)).collect();
    let churn = SubscriptionConfig::riabov()
        .generate(&topology, CHURN_SEED)
        .expect("preset subscription config is valid")
        .into_iter()
        .take(CHURN_CANDIDATES)
        .map(|p| (p.node, p.rect))
        .collect();
    Inputs { pool, churn }
}

/// The open-loop arrival schedule of one round: Poisson at `rate` for
/// `seconds`.
pub fn arrivals(seed: u64, round: u64, rate: f64, seconds: f64) -> Vec<pubsub_workload::Arrival> {
    OpenLoopConfig {
        clients: CLIENTS,
        mean_rate: rate,
        // A burst ratio of 1 makes the on/off process plain Poisson.
        burst_ratio: 1.0,
        mean_on_ms: 50.0,
        mean_off_ms: 150.0,
        duration_s: seconds,
    }
    .generate(sub_seed(seed, 1000 + round))
    .expect("fixed open-loop config is valid")
}

fn fixture_topology() -> Topology {
    TransitStubConfig::riabov()
        .generate(TOPOLOGY_SEED)
        .expect("preset topology config is valid")
}

/// Wall-clock split of one broker build.
#[derive(Clone, Copy, Debug, Default)]
pub struct BuildTimes {
    /// Topology generation, s.
    pub topology_s: f64,
    /// Subscription generation, s.
    pub subscriptions_s: f64,
    /// Broker build (clustering, compile, journal create), s.
    pub compile_s: f64,
}

/// Builds the workload's broker from scratch, timing each step; a
/// journaled workload writes its journal under `journal_dir`.
pub fn build_broker(spec: &Spec, journal_dir: Option<&Path>) -> (Broker, BuildTimes) {
    let t0 = Instant::now();
    let topology = fixture_topology();
    let t1 = Instant::now();
    let subscriptions: Vec<(NodeId, Rect)> = match spec.population {
        Population::Testbed => SubscriptionConfig::riabov()
            .generate(&topology, SUBSCRIPTION_SEED)
            .expect("preset subscription config is valid")
            .into_iter()
            .map(|p| (p.node, p.rect))
            .collect(),
        Population::Scale(n) => ScaleConfig::stock(n)
            .generate(&topology, SUBSCRIPTION_SEED, None)
            .expect("scale preset is valid")
            .to_vec(),
    };
    let t2 = Instant::now();
    let model = Modes::Nine.model();
    let mut builder = Broker::builder(topology, stock_space())
        .subscriptions(subscriptions)
        .clustering(ClusteringConfig::new(ClusteringAlgorithm::ForgyKMeans, 11))
        .threshold(0.15)
        .delivery_mode(DeliveryMode::DenseMode)
        .density(move |r| model.mass(r));
    if spec.covering {
        builder = builder.covering(CoveringConfig::default());
    }
    if let Some(dir) = journal_dir {
        builder = builder.journal(JournalConfig::new(dir));
    }
    let broker = builder.build().expect("workload configuration is valid");
    let t3 = Instant::now();
    (
        broker,
        BuildTimes {
            topology_s: (t1 - t0).as_secs_f64(),
            subscriptions_s: (t2 - t1).as_secs_f64(),
            compile_s: (t3 - t2).as_secs_f64(),
        },
    )
}
