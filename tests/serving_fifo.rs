//! Per-client FIFO through the work-conserving ingest.
//!
//! Idle executors sweep the shard batchers themselves, racing the
//! submitters' size-trigger flushes and the control operations' shard
//! flushes. A shard may only be swept while the ingest queue is empty
//! (checked under the shard's lock), so no earlier batch of the shard
//! can still be waiting for a ticket. These tests drive several
//! submitters on distinct clients plus a thread issuing subscribe /
//! unsubscribe / metrics against a one-slot ingest queue, and require every
//! client's events to reach the sink exactly once, in submission order,
//! with outcomes identical to a synchronous broker.
//!
//! The racing subscribe / unsubscribe calls are ones the broker refuses
//! (an unknown node, an already removed handle). They still take the
//! whole control path — shard flush, ticket, view-version bump and view
//! republish — but change no outcome, so every record can be compared
//! with the synchronous broker exactly. Outcome-changing churn is
//! covered by `serving_churn.rs`, whose single caller fixes the order.

use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;

use pubsub::clustering::{ClusteringAlgorithm, ClusteringConfig};
use pubsub::core::Broker;
use pubsub::geom::{Point, Rect, Space};
use pubsub::netsim::{NodeId, TransitStubConfig};
use pubsub::server::{CollectorSink, RejectReason, ServingConfig, ServingError, StagedServer};

const CLIENTS: u32 = 8;
const PER_CLIENT: u64 = 2000;

fn rect(lo: [f64; 2], hi: [f64; 2]) -> Rect {
    Rect::from_corners(&lo, &hi).unwrap()
}

fn build() -> Broker {
    let topo = TransitStubConfig::tiny().generate(11).unwrap();
    let nodes = topo.stub_nodes().to_vec();
    let space = Space::anonymous(rect([0.0, 0.0], [10.0, 10.0])).unwrap();
    Broker::builder(topo, space)
        .threshold(0.3)
        .clustering(ClusteringConfig::new(ClusteringAlgorithm::ForgyKMeans, 2).with_max_cells(30))
        .grid_cells(5)
        .subscription(nodes[0], rect([0.0, 0.0], [5.0, 5.0]))
        .subscription(nodes[3 % nodes.len()], rect([2.0, 1.0], [8.0, 8.0]))
        .subscription(nodes[7 % nodes.len()], rect([4.0, 4.0], [9.0, 9.0]))
        .build()
        .unwrap()
}

fn event(client: u32, seq: u64) -> Point {
    let x = ((client as u64 * 31 + seq * 7) % 70) as f64 / 10.0;
    let y = ((client as u64 * 17 + seq * 13) % 70) as f64 / 10.0;
    Point::new(vec![x, y]).unwrap()
}

fn churn_rect() -> Rect {
    rect([1.0, 1.0], [3.0, 3.0])
}

fn run_case(executors: usize, max_batch: usize) {
    let sink = CollectorSink::new();
    let server = StagedServer::start(
        build(),
        ServingConfig {
            // A one-slot queue keeps submitters spinning on sheds, so a
            // shard batch is pushed the moment an executor frees the
            // slot — right inside the window between its empty pop and
            // its sweep, the race the sweep rule must survive.
            ingest_capacity: 1,
            egress_capacity: 64,
            max_batch,
            threads: Some(1),
            executors: Some(executors),
            shards: 8,
            ..ServingConfig::default()
        },
        Box::new(sink.clone()),
    );
    let handle = server.handle();
    // One real subscribe / unsubscribe pair (replayed on the reference
    // below) leaves a dead handle for the racing unsubscribes.
    let dead = handle.subscribe(NodeId(2), churn_rect()).unwrap();
    handle.unsubscribe(dead).unwrap();
    let done = AtomicBool::new(false);
    thread::scope(|s| {
        let control = s.spawn(|| {
            let mut ops = 0u64;
            while !done.load(Ordering::SeqCst) {
                let refused = handle.subscribe(NodeId(u32::MAX), churn_rect());
                assert!(matches!(refused, Err(ServingError::Broker(_))));
                handle.metrics().unwrap();
                let refused = handle.unsubscribe(dead);
                assert!(matches!(refused, Err(ServingError::Broker(_))));
                ops += 1;
            }
            ops
        });
        let submitters: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let handle = handle.clone();
                s.spawn(move || {
                    for seq in 0..PER_CLIENT {
                        loop {
                            match handle.submit_now(client, seq, event(client, seq)) {
                                Ok(()) => break,
                                Err(RejectReason::Shed { .. }) => thread::yield_now(),
                                Err(other) => panic!("client {client} seq {seq}: {other}"),
                            }
                        }
                    }
                })
            })
            .collect();
        for submitter in submitters {
            submitter.join().unwrap();
        }
        done.store(true, Ordering::SeqCst);
        assert!(control.join().unwrap() > 0, "no control op raced the load");
    });
    let (_broker, stats) = server.stop();
    let total = CLIENTS as u64 * PER_CLIENT;
    assert_eq!(stats.accepted, total);
    assert_eq!(stats.delivered, total);

    let mut reference = build();
    let ref_dead = reference.subscribe(NodeId(2), churn_rect()).unwrap();
    reference.unsubscribe(ref_dead).unwrap();
    let mut next = vec![0u64; CLIENTS as usize];
    let records = sink.take();
    assert_eq!(records.len() as u64, total);
    for r in &records {
        let expected_seq = &mut next[r.client as usize];
        assert_eq!(
            r.seq, *expected_seq,
            "client {} out of order (executors={executors}, max_batch={max_batch})",
            r.client
        );
        *expected_seq += 1;
        let want = reference.publish(&event(r.client, r.seq)).unwrap();
        assert_eq!(
            r.outcome.as_ref().unwrap(),
            &want,
            "client {} seq {} diverges from the synchronous broker",
            r.client,
            r.seq
        );
    }
    assert!(next.iter().all(|&n| n == PER_CLIENT));
}

#[test]
fn per_client_order_survives_racing_sweeps_and_control_ops() {
    // Two passes: the race is timing-dependent, and a second pass makes
    // a broken sweep rule show up on almost every run.
    for _pass in 0..2 {
        for executors in [1, 2, 3, 7] {
            for max_batch in [1, 2, 64] {
                run_case(executors, max_batch);
            }
        }
    }
}
