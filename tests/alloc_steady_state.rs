//! The zero-allocation guarantee of the fused batch pipeline: once the
//! per-worker states are warm, `publish_batch_stats` in dense mode
//! performs **no heap allocation at all** — not per event, not per
//! batch — on both the inline and the pooled dispatch path.
//!
//! The staged server's submit path is pinned the same way: a submit
//! into a shard an executor just swept reuses the shard's buffers.
//!
//! Verified with a counting global allocator. This test lives in its own
//! integration-test file so it owns the process: the only threads that
//! can allocate while the counter is armed are the ones under test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pubsub::core::Broker;
use pubsub::geom::{Point, Rect, Space};
use pubsub::netsim::TransitStubConfig;
use pubsub::parallel::WorkerPool;
use pubsub::server::{CollectorSink, ServingConfig, StagedServer};

/// Counts every `alloc`/`realloc`/`alloc_zeroed` while armed — from any
/// thread, or from the one thread armed with [`count_thread_allocations`];
/// delegates all work to the system allocator.
struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD_ARMED: Cell<bool> = const { Cell::new(false) };
}

fn note_allocation() {
    if ARMED.load(Ordering::Relaxed) || THREAD_ARMED.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Serializes the tests in this file: the armed counter is global, so
/// two tests measuring at once would count each other's allocations.
static COUNTER_OWNER: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Runs `f` with the allocation counter armed; returns how many heap
/// allocations happened inside.
fn count_allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    ALLOCATIONS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    let result = f();
    ARMED.store(false, Ordering::SeqCst);
    (ALLOCATIONS.load(Ordering::SeqCst), result)
}

/// [`count_allocations`] restricted to the calling thread: the stage
/// threads of a running server keep allocating around it.
fn count_thread_allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    ALLOCATIONS.store(0, Ordering::SeqCst);
    THREAD_ARMED.with(|armed| armed.set(true));
    let result = f();
    THREAD_ARMED.with(|armed| armed.set(false));
    (ALLOCATIONS.load(Ordering::SeqCst), result)
}

#[test]
fn warm_batch_publish_is_allocation_free() {
    let _serial = COUNTER_OWNER.lock().unwrap();
    let pool = Arc::new(WorkerPool::new(2));
    let topo = TransitStubConfig::tiny().generate(11).unwrap();
    let space = Space::anonymous(Rect::from_corners(&[0.0, 0.0], &[10.0, 10.0]).unwrap()).unwrap();
    let nodes = topo.stub_nodes().to_vec();
    let mut broker = Broker::builder(topo, space)
        .worker_pool(Arc::clone(&pool))
        .subscription(
            nodes[0],
            Rect::from_corners(&[0.0, 0.0], &[6.0, 6.0]).unwrap(),
        )
        .subscription(
            nodes[1],
            Rect::from_corners(&[2.0, 1.0], &[9.0, 8.0]).unwrap(),
        )
        .subscription(
            nodes[2],
            Rect::from_corners(&[5.0, 4.0], &[10.0, 10.0]).unwrap(),
        )
        .build()
        .unwrap();
    // Several blocks' worth of events so the pooled path actually fans out.
    let events: Vec<Point> = (0..256)
        .map(|i| Point::new(vec![(i % 10) as f64 + 0.3, ((i * 7) % 10) as f64 + 0.1]).unwrap())
        .collect();

    for threads in [1usize, 2] {
        // Warm-up: grows arenas, creates SPT rows, fills the scheme memo.
        for _ in 0..2 {
            broker.publish_batch_stats(&events, Some(threads)).unwrap();
        }
        let growths_before = broker.pipeline_counters().arena_growths;
        let before = broker.report().messages;

        let (allocations, report) =
            count_allocations(|| broker.publish_batch_stats(&events, Some(threads)).unwrap());

        assert_eq!(report.messages, before + events.len() as u64);
        assert_eq!(
            broker.pipeline_counters().arena_growths,
            growths_before,
            "warm states must not regrow (threads = {threads})"
        );
        assert_eq!(
            allocations, 0,
            "steady-state publish_batch_stats must not allocate (threads = {threads})"
        );
    }
}

/// The durable subscription journal must be zero-cost off the control
/// path: it hooks subscribe/unsubscribe/recompile only, so even a
/// broker *with* a journal attached keeps the warm publish path
/// allocation-free — and a journal-less broker (the default, exercised
/// by the test above) cannot regress by construction.
#[test]
fn journaled_broker_publish_path_is_still_allocation_free() {
    let _serial = COUNTER_OWNER.lock().unwrap();
    let dir = std::env::temp_dir().join(format!("pubsub-alloc-journal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let topo = TransitStubConfig::tiny().generate(11).unwrap();
    let space = Space::anonymous(Rect::from_corners(&[0.0, 0.0], &[10.0, 10.0]).unwrap()).unwrap();
    let nodes = topo.stub_nodes().to_vec();
    let mut broker = Broker::builder(topo, space)
        .journal(pubsub::core::JournalConfig::new(&dir))
        .subscription(
            nodes[0],
            Rect::from_corners(&[0.0, 0.0], &[6.0, 6.0]).unwrap(),
        )
        .subscription(
            nodes[1],
            Rect::from_corners(&[2.0, 1.0], &[9.0, 8.0]).unwrap(),
        )
        .build()
        .unwrap();
    let events: Vec<Point> = (0..256)
        .map(|i| Point::new(vec![(i % 10) as f64 + 0.3, ((i * 7) % 10) as f64 + 0.1]).unwrap())
        .collect();

    for _ in 0..2 {
        broker.publish_batch_stats(&events, Some(1)).unwrap();
    }
    let wal_before = broker.journal().unwrap().wal_len();
    let before = broker.report().messages;

    let (allocations, report) =
        count_allocations(|| broker.publish_batch_stats(&events, Some(1)).unwrap());

    assert_eq!(report.messages, before + events.len() as u64);
    assert_eq!(
        broker.journal().unwrap().wal_len(),
        wal_before,
        "publishing must not touch the journal"
    );
    assert_eq!(
        allocations, 0,
        "the journal must stay off the publish path entirely"
    );
    drop(broker);
    let _ = std::fs::remove_dir_all(&dir);
}

/// An idle executor sweeps a lone event out of its shard by moving the
/// events and leaving the shard's buffers in place, so the next submit
/// into that shard pushes without allocating — the property that keeps
/// the accept ack as cheap as the submit itself.
#[test]
fn submit_into_a_swept_shard_is_allocation_free() {
    let _serial = COUNTER_OWNER.lock().unwrap();
    let topo = TransitStubConfig::tiny().generate(11).unwrap();
    let space = Space::anonymous(Rect::from_corners(&[0.0, 0.0], &[10.0, 10.0]).unwrap()).unwrap();
    let nodes = topo.stub_nodes().to_vec();
    let broker = Broker::builder(topo, space)
        .subscription(
            nodes[0],
            Rect::from_corners(&[0.0, 0.0], &[6.0, 6.0]).unwrap(),
        )
        .build()
        .unwrap();
    let sink = CollectorSink::new();
    let server = StagedServer::start(
        broker,
        ServingConfig {
            shards: 1,
            executors: Some(1),
            ..ServingConfig::default()
        },
        Box::new(sink.clone()),
    );
    let handle = server.handle();
    const WARM_UP: usize = 8;
    let events: Vec<Point> = (0..WARM_UP + 32)
        .map(|i| Point::new(vec![(i % 10) as f64 + 0.3, ((i * 7) % 10) as f64 + 0.1]).unwrap())
        .collect();
    for (i, event) in events.into_iter().enumerate() {
        let (allocations, accepted) =
            count_thread_allocations(|| handle.submit_now(0, i as u64, event));
        accepted.unwrap();
        // The size trigger is out of reach: only a sweep delivers it.
        let deadline = Instant::now() + Duration::from_secs(10);
        while sink.len() <= i {
            assert!(Instant::now() < deadline, "event {i} was never swept");
            std::thread::sleep(Duration::from_micros(200));
        }
        if i >= WARM_UP {
            assert_eq!(allocations, 0, "submit {i} into a swept shard allocated");
        }
    }
    let (_, stats) = server.stop();
    assert_eq!(stats.delivered, (WARM_UP + 32) as u64);
}
