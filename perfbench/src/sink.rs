//! The benchmark's own [`DeliverySink`]: one compact record per
//! delivered event, an outcome digest for the oracle check, and the
//! sink-order cost sums the fold's report must reproduce bit for bit.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use pubsub_core::{Decision, MessageCosts, PublishOutcome, UnicastReason};
use pubsub_server::{DeliverySink, EventRecord};

/// One delivered event as the benchmark keeps it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Rec {
    /// Submitting client.
    pub client: u32,
    /// The client's sequence number.
    pub seq: u64,
    /// Whether the outcome was a publish (not a broker error).
    pub ok: bool,
    /// [`digest`] of the outcome (0 for an error).
    pub digest: u64,
    /// When the sink saw the record, in ns since the run's base instant.
    pub at_ns: u64,
    /// The server's stage stamps, ns (saturated to `u32`).
    pub ingest_ns: u32,
    /// Executor dequeue → fold complete, ns.
    pub pipeline_ns: u32,
    /// Fold handoff → record stamped, ns.
    pub egress_ns: u32,
    /// Time spent inside this sink for the record (traced runs only).
    pub sink_ns: u32,
}

/// Everything a sink collected, handed back when the server drops it.
#[derive(Debug, Default)]
pub struct SinkData {
    /// Records in sink (= fold) order.
    pub recs: Vec<Rec>,
    /// Scheme / unicast / ideal cost sums over `Ok` records in sink
    /// order — the order the fold accumulates its report in.
    pub costs: MessageCosts,
}

/// Collects [`Rec`]s on the egress thread. The data moves to the shared
/// slot when the server drops the sink at shutdown, so the hot path
/// takes no lock.
#[derive(Debug)]
pub struct BenchSink {
    base: Instant,
    trace_from: Arc<AtomicU64>,
    data: SinkData,
    out: Arc<Mutex<Option<SinkData>>>,
}

impl BenchSink {
    /// A sink stamping times relative to `base`; records arriving at or
    /// after `trace_from` (ns since `base`) also time the sink itself.
    /// Returns the slot the data lands in after shutdown.
    pub fn new(
        base: Instant,
        trace_from: Arc<AtomicU64>,
        reserve: usize,
    ) -> (Self, Arc<Mutex<Option<SinkData>>>) {
        let out = Arc::new(Mutex::new(None));
        let sink = BenchSink {
            base,
            trace_from,
            data: SinkData {
                recs: Vec::with_capacity(reserve),
                costs: MessageCosts::default(),
            },
            out: Arc::clone(&out),
        };
        (sink, out)
    }
}

fn sat32(ns: u64) -> u32 {
    u32::try_from(ns).unwrap_or(u32::MAX)
}

impl DeliverySink for BenchSink {
    fn on_record(&mut self, record: EventRecord) {
        let now = Instant::now();
        let (ok, digest) = match &record.outcome {
            Ok(outcome) => {
                let c = &mut self.data.costs;
                c.scheme += outcome.costs.scheme;
                c.unicast += outcome.costs.unicast;
                c.ideal += outcome.costs.ideal;
                (true, digest(outcome))
            }
            Err(_) => (false, 0),
        };
        let at_ns = now.duration_since(self.base).as_nanos() as u64;
        // A statistic switch, publishing nothing else: Relaxed suffices.
        let sink_ns = if at_ns >= self.trace_from.load(Ordering::Relaxed) {
            sat32(now.elapsed().as_nanos() as u64)
        } else {
            0
        };
        self.data.recs.push(Rec {
            client: record.client,
            seq: record.seq,
            ok,
            digest,
            at_ns,
            ingest_ns: sat32(record.ingest_ns),
            pipeline_ns: sat32(record.pipeline_ns),
            egress_ns: sat32(record.egress_ns),
            sink_ns,
        });
    }
}

impl Drop for BenchSink {
    fn drop(&mut self) {
        // Never panic in drop: a poisoned slot just loses the data, and
        // the conservation check then reports every record missing.
        if let Ok(mut slot) = self.out.lock() {
            *slot = Some(std::mem::take(&mut self.data));
        }
    }
}

/// Takes a finished sink's data out of its slot.
pub fn collect(slot: &Arc<Mutex<Option<SinkData>>>) -> SinkData {
    slot.lock()
        .ok()
        .and_then(|mut s| s.take())
        .unwrap_or_default()
}

fn mix(h: u64, word: u64) -> u64 {
    let x = (h ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^ (x >> 29)
}

/// A 64-bit digest of everything an outcome says: decision (with group
/// and unicast reason), group region, matched ids, interested and
/// unreachable nodes, and the three costs bitwise.
pub fn digest(o: &PublishOutcome) -> u64 {
    let decision = match o.decision {
        Decision::Drop => 1,
        Decision::Unicast { reason } => {
            let why: u64 = match reason {
                UnicastReason::CatchAll => 0,
                UnicastReason::BelowThreshold => 1,
                UnicastReason::GroupSevered => 2,
            };
            2 | (why << 8)
        }
        Decision::Multicast { group } => 3 | ((group as u64) << 8),
        Decision::PartialMulticast { group } => 4 | ((group as u64) << 8),
    };
    let mut h = mix(0x5EED, decision);
    h = mix(h, o.group_region.map_or(u64::MAX, |g| g as u64));
    h = mix(h, o.matched_subscriptions.len() as u64);
    for id in &o.matched_subscriptions {
        h = mix(h, u64::from(id.0));
    }
    h = mix(h, o.interested.len() as u64);
    for node in &o.interested {
        h = mix(h, u64::from(node.0));
    }
    h = mix(h, o.unreachable.len() as u64);
    for node in &o.unreachable {
        h = mix(h, u64::from(node.0));
    }
    h = mix(h, o.costs.scheme.to_bits());
    h = mix(h, o.costs.unicast.to_bits());
    mix(h, o.costs.ideal.to_bits())
}
