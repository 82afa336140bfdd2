//! The staged server: ingest shards → ordered work queue → concurrent
//! pipeline executors → in-order fold (owns the broker) → egress thread
//! (owns the sink).
//!
//! See the crate docs for the stage architecture and the backpressure
//! contract. The implementation notes that matter:
//!
//! * **The pipeline stage is concurrent but the broker is not shared.**
//!   Executors run the read-only fused pass ([`PublishView`]) against an
//!   epoch-stamped view of the engine; the **fold thread owns the
//!   `Broker` exclusively** and consumes executor results strictly in
//!   ticket order through a [`SequenceWindow`], so the scheme-cost memo,
//!   the cumulative f64 report and the per-event outcomes are
//!   bit-identical to a synchronous broker processing the same batches
//!   in the same order.
//! * **The epoch barrier.** A single dispatcher lock assigns each popped
//!   work item a monotone ticket and stamps batches with the current
//!   *view version*; popping a control operation (subscribe /
//!   unsubscribe / recompile) bumps the version. An executor waits until
//!   the fold has published exactly its batch's version before running
//!   the pass — and the fold publishes version `v+1` only after folding
//!   every ticket before the bumping control — so a batch enqueued
//!   before a recompile is processed under the pre-recompile view, under
//!   the pre-recompile epoch, and its outcome records say so.
//! * **Egress stays deterministic.** The fold forwards batches to egress
//!   in ticket order (the sequence window re-orders whatever the
//!   executors finish out of order), so the sink sees exactly the record
//!   sequence the single-threaded server produced.
//! * **Accepted means delivered-or-reported.** Once `submit` returns
//!   `Ok`, the event sits in a shard batcher or the queue; shutdown
//!   flushes every shard with a *blocking* push before closing the
//!   queue, so exactly one [`EventRecord`] per accepted event reaches
//!   the sink — even records for events the broker itself rejected
//!   (fault-plan aborts) carry the error instead of vanishing.
//! * **Under a fault plan the executors stand down**: the fault clock,
//!   health hysteresis and mid-batch aborts are fold-side, per-event
//!   state, so batches are forwarded raw and the fold degrades to
//!   per-event processing — bit-identical to a synchronous `publish`
//!   loop while giving every event an attributable record.
//! * **Ingest is work-conserving.** There is no flush timer: an executor
//!   that finds the ingest queue empty sweeps the shard batchers itself
//!   (see [`dispatch`]), so an idle server hands a lone event to an
//!   executor within one short park, and batches grow past one event
//!   only while every executor is busy.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, TryLockError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pubsub_core::{
    Broker, BrokerError, LatencyHisto, MetricsSnapshot, PublishOutcome, PublishScratch,
    PublishStage, PublishView, StageKind, SubscriptionHandle,
};
use pubsub_geom::{Point, Rect};
use pubsub_netsim::NodeId;
use pubsub_parallel::{PushError, SequenceWindow, StageQueue, TimedPop, VersionedCell};

use crate::batcher::{EventBatch, EventBatcher, SubmitMeta};

pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

/// [`lock`] without blocking: `None` if another thread holds the lock.
fn try_lock<T>(mutex: &Mutex<T>) -> Option<MutexGuard<'_, T>> {
    match mutex.try_lock() {
        Ok(guard) => Some(guard),
        Err(TryLockError::Poisoned(e)) => Some(e.into_inner()),
        Err(TryLockError::WouldBlock) => None,
    }
}

pub(crate) fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Configuration of a [`StagedServer`]. Passive data: public fields.
#[derive(Clone, Copy, Debug)]
pub struct ServingConfig {
    /// Bounded ingest-queue capacity in work items (batches + control
    /// operations). This is the admission-control knob: when the
    /// pipeline falls behind by this many batches, submissions reject.
    pub ingest_capacity: usize,
    /// Bounded pipeline → egress queue capacity in batches. A slow sink
    /// eventually stalls the fold (lossless internal backpressure),
    /// which fills the ingest queue, which rejects — pressure propagates
    /// to the edge instead of growing unbounded memory.
    pub egress_capacity: usize,
    /// Size trigger: a shard batch flushes into the ingest queue when it
    /// reaches this many events. Also caps the batch an idle executor
    /// sweeps together from the shards. Below the trigger, events wait
    /// only while every executor is busy.
    pub max_batch: usize,
    /// Time one queued batch represents when the shed tier scales its
    /// retry hint (backlog depth × this interval). Nothing is flushed on
    /// a timer: idle executors sweep the shards instead.
    pub flush_interval: Duration,
    /// Worker threads for the broker's own fused pass (`None` =
    /// available parallelism). Only exercised on the fold-side fault
    /// path; the concurrent executors are single-worker passes by
    /// construction.
    pub threads: Option<usize>,
    /// Concurrent pipeline executors running the fused match → cost →
    /// decide pass (`None` = available parallelism). The in-order fold
    /// and the egress remain single threads regardless.
    pub executors: Option<usize>,
    /// Connection shards (batchers). Clients map to shards by
    /// `client % shards`; more shards mean less submit-lock contention
    /// but smaller, more frequent batches.
    pub shards: usize,
}

impl Default for ServingConfig {
    fn default() -> Self {
        ServingConfig {
            ingest_capacity: 64,
            egress_capacity: 64,
            max_batch: 256,
            flush_interval: Duration::from_millis(1),
            threads: None,
            executors: None,
            shards: 8,
        }
    }
}

/// Why a submission was not accepted. The explicit reject ack of the
/// backpressure contract — the caller knows synchronously and nothing
/// was enqueued.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RejectReason {
    /// Admission control: the bounded ingest queue is full and the
    /// shard's batch could not be handed off. Kept for wire
    /// compatibility; the live publish path sheds with
    /// [`RejectReason::Shed`] instead, which carries a retry hint.
    QueueFull,
    /// Load shedding: the publish tier is over capacity. Control
    /// operations (subscribe/unsubscribe/recompile/metrics) are always
    /// admitted — only publishes shed. The hint says how long to back
    /// off before retrying, scaled to the current backlog.
    Shed {
        /// Suggested client backoff before retrying, in milliseconds.
        retry_after_ms: u32,
    },
    /// The event has the wrong dimensionality for the broker's space.
    Malformed,
    /// The server is shutting down (or already stopped).
    Closed,
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RejectReason::QueueFull => write!(f, "ingest queue full"),
            RejectReason::Shed { retry_after_ms } => {
                write!(f, "overloaded, retry after {retry_after_ms}ms")
            }
            RejectReason::Malformed => write!(f, "malformed event"),
            RejectReason::Closed => write!(f, "server closed"),
        }
    }
}

/// Errors from the control-plane calls on [`IngestHandle`].
#[derive(Debug)]
pub enum ServingError {
    /// The server has shut down; the operation was not applied.
    Closed,
    /// The broker rejected the operation.
    Broker(BrokerError),
    /// A stage thread died and the supervisor had no recovery path (or
    /// recovery itself failed); the serving state is lost.
    Crashed(String),
}

impl fmt::Display for ServingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServingError::Closed => write!(f, "server closed"),
            ServingError::Broker(e) => write!(f, "broker: {e}"),
            ServingError::Crashed(why) => write!(f, "unrecoverable stage crash: {why}"),
        }
    }
}

impl std::error::Error for ServingError {}

/// What the egress stage emits for every accepted event: the outcome (or
/// the broker's error, so fault-plan rejects are visible rather than
/// silent), the epoch the event was processed under, and the per-stage
/// timings.
#[derive(Clone, PartialEq, Debug)]
pub struct EventRecord {
    /// The submitting client.
    pub client: u32,
    /// The client's sequence number for the event.
    pub seq: u64,
    /// Engine-snapshot epoch the event was matched and costed under.
    pub epoch: u64,
    /// The publish outcome, or the broker's error message when the event
    /// was accepted into the queue but the engine refused it (e.g. the
    /// publisher was down under a fault plan).
    pub outcome: Result<PublishOutcome, String>,
    /// End-to-end latency: scheduled arrival → record stamped. Under
    /// open-loop load the scheduled instant is the generator's arrival
    /// time, so queueing delay shows up here when the system falls
    /// behind.
    pub latency_ns: u64,
    /// Ingest-stage residence: submission → executor dequeue.
    pub ingest_ns: u64,
    /// Pipeline-stage residence of the event's batch: executor dequeue →
    /// fold complete (fused pass, re-order window and fold included).
    pub pipeline_ns: u64,
    /// Egress-stage residence: fold handoff → this record stamped.
    pub egress_ns: u64,
}

/// Consumer of [`EventRecord`]s, owned by the egress thread.
pub trait DeliverySink: Send {
    /// Called exactly once per accepted event, in processing order.
    fn on_record(&mut self, record: EventRecord);
}

impl<F: FnMut(EventRecord) + Send> DeliverySink for F {
    fn on_record(&mut self, record: EventRecord) {
        self(record)
    }
}

/// A sink that keeps every record — what the correctness tests use.
/// Clones share the same buffer, so keep one clone outside the server to
/// read results after [`StagedServer::stop`].
#[derive(Clone, Debug, Default)]
pub struct CollectorSink {
    records: Arc<Mutex<Vec<EventRecord>>>,
}

impl CollectorSink {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes everything collected so far.
    pub fn take(&self) -> Vec<EventRecord> {
        std::mem::take(&mut lock(&self.records))
    }

    /// Records collected so far.
    pub fn len(&self) -> usize {
        lock(&self.records).len()
    }

    /// Whether nothing has been collected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl DeliverySink for CollectorSink {
    fn on_record(&mut self, record: EventRecord) {
        lock(&self.records).push(record);
    }
}

/// A sink that keeps only end-to-end latencies (plus a failure count) —
/// cheap enough for million-event benchmark runs.
#[derive(Clone, Debug, Default)]
pub struct LatencySink {
    latencies: Arc<Mutex<Vec<u64>>>,
    failed: Arc<AtomicU64>,
}

impl LatencySink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes the latencies (ns) of every delivered event so far.
    pub fn take(&self) -> Vec<u64> {
        std::mem::take(&mut lock(&self.latencies))
    }

    /// Events whose record carried a broker error.
    pub fn failed(&self) -> u64 {
        self.failed.load(Ordering::Relaxed)
    }
}

impl DeliverySink for LatencySink {
    fn on_record(&mut self, record: EventRecord) {
        if record.outcome.is_ok() {
            lock(&self.latencies).push(record.latency_ns);
        } else {
            self.failed.fetch_add(1, Ordering::Relaxed);
        }
    }
}

pub(crate) enum ControlOp {
    Subscribe(
        NodeId,
        Rect,
        mpsc::Sender<Result<SubscriptionHandle, BrokerError>>,
    ),
    Unsubscribe(SubscriptionHandle, mpsc::Sender<Result<(), BrokerError>>),
    Recompile(mpsc::Sender<Result<(), BrokerError>>),
    Metrics(mpsc::Sender<MetricsSnapshot>),
}

impl ControlOp {
    /// Whether applying this op can change what the publish path reads —
    /// and therefore bumps the view version at dispatch and republishes
    /// the [`PublishView`] after the fold applies it. A metrics poll
    /// only reads, so it rides the ticket order without a bump.
    pub(crate) fn bumps_view(&self) -> bool {
        !matches!(self, ControlOp::Metrics(_))
    }
}

pub(crate) enum WorkItem {
    Batch(EventBatch),
    Control(ControlOp),
}

/// One work item after dispatch, on its way through an executor to the
/// sequence window.
// `Processed` dwarfs the other variants, but it is also the common
// case: boxing the scratch would put a heap round-trip on the hot path
// to slim the rare ones.
#[allow(clippy::large_enum_variant)]
pub(crate) enum Staged {
    /// A batch whose fused pass already ran on this executor under the
    /// view at `epoch`; the fold consumes the scratch.
    Processed {
        batch: EventBatch,
        scratch: PublishScratch,
        epoch: u64,
        dequeued: Instant,
    },
    /// A batch forwarded untouched for fold-side processing (active
    /// fault plan, or the view refused the batch).
    Raw {
        batch: EventBatch,
        dequeued: Instant,
    },
    /// A control operation, applied by the fold at its ticket.
    Control(ControlOp),
}

pub(crate) struct EgressBatch {
    pub(crate) meta: Vec<SubmitMeta>,
    pub(crate) results: Vec<Result<PublishOutcome, String>>,
    pub(crate) epoch: u64,
    pub(crate) dequeued: Instant,
    pub(crate) folded: Instant,
}

pub(crate) struct IngestShared {
    pub(crate) queue: StageQueue<WorkItem>,
    pub(crate) shards: Vec<Mutex<EventBatcher>>,
    pub(crate) accepting: AtomicBool,
    pub(crate) accepted: AtomicU64,
    pub(crate) rejected: AtomicU64,
    /// Rejections already folded into the broker's counters (so gauge
    /// syncs at metrics polls and shutdown never double-count).
    pub(crate) rejected_reported: AtomicU64,
    pub(crate) dims: usize,
    pub(crate) max_batch: usize,
    pub(crate) flush_interval: Duration,
}

impl IngestShared {
    pub(crate) fn new(config: &ServingConfig, dims: usize) -> Self {
        let max_batch = config.max_batch.max(1);
        IngestShared {
            queue: StageQueue::new(config.ingest_capacity),
            shards: (0..config.shards.max(1))
                .map(|_| Mutex::new(EventBatcher::new(max_batch, dims)))
                .collect(),
            accepting: AtomicBool::new(true),
            accepted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            rejected_reported: AtomicU64::new(0),
            dims,
            max_batch,
            flush_interval: config.flush_interval,
        }
    }
}

impl fmt::Debug for IngestShared {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("IngestShared")
            .field("queue", &self.queue)
            .field("shards", &self.shards.len())
            .field("accepting", &self.accepting)
            .field("accepted", &self.accepted)
            .field("rejected", &self.rejected)
            .finish_non_exhaustive()
    }
}

/// The dispatcher's ordered-handoff state: one lock assigns tickets and
/// version stamps, making "popped before the control" a total order the
/// window and the versioned view can both rely on.
#[derive(Debug, Default)]
pub(crate) struct DispatchState {
    /// Next ticket — the position of the popped item in the global work
    /// order; the sequence window releases results in this order.
    pub(crate) next_ticket: u64,
    /// Current view version: the number of version-bumping control
    /// operations popped so far. Batches are stamped with it at pop.
    pub(crate) version: u64,
}

/// Everything the executor and fold threads share.
pub(crate) struct ExecShared {
    pub(crate) ingest: Arc<IngestShared>,
    pub(crate) dispatch: Mutex<DispatchState>,
    pub(crate) window: SequenceWindow<Staged>,
    pub(crate) cell: VersionedCell<PublishView>,
    /// Recycled pass scratches: executors pop (or default), the fold
    /// pushes back after consuming — the arenas regrow only on workload
    /// shifts.
    pub(crate) scratch_pool: Mutex<Vec<PublishScratch>>,
    /// Whether the broker had a fault plan installed at start. Fault
    /// state is fold-side and per-event; executors forward batches raw
    /// when set. Plans install before `StagedServer::start`, so this is
    /// constant for the server's lifetime.
    pub(crate) faults_active: bool,
}

impl fmt::Debug for ExecShared {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ExecShared")
            .field("ingest", &self.ingest)
            .field("faults_active", &self.faults_active)
            .finish_non_exhaustive()
    }
}

/// The transport-in handle: submit events, run control operations, poll
/// metrics. Cheap to clone; every connection thread (or simulated
/// client) holds one.
#[derive(Clone, Debug)]
pub struct IngestHandle {
    pub(crate) shared: Arc<IngestShared>,
}

impl IngestHandle {
    /// Submits one event on behalf of `client`, with an explicit
    /// open-loop `scheduled` arrival instant (end-to-end latency is
    /// measured from it, so queueing delay is visible when submission
    /// lags the schedule).
    ///
    /// `Ok` is the accept ack: the event will produce exactly one sink
    /// record. `Err` is the reject ack: nothing was enqueued.
    ///
    /// # Errors
    ///
    /// [`RejectReason::Shed`] under backpressure (with a retry-after
    /// hint scaled to the backlog),
    /// [`RejectReason::Malformed`] for a wrong-dimensional event,
    /// [`RejectReason::Closed`] during/after shutdown.
    pub fn submit(
        &self,
        client: u32,
        seq: u64,
        event: Point,
        scheduled: Instant,
    ) -> Result<(), RejectReason> {
        let sh = &*self.shared;
        if event.dims() != sh.dims {
            return Err(RejectReason::Malformed);
        }
        let now = Instant::now();
        let shard = &sh.shards[client as usize % sh.shards.len()];
        let mut batcher = lock(shard);
        // Re-check under the shard lock: shutdown sets the flag before
        // flushing the shards, so a submit that lands after the final
        // flush sees it here and cannot strand an accepted event.
        if !sh.accepting.load(Ordering::SeqCst) {
            return Err(RejectReason::Closed);
        }
        if batcher.is_full() {
            // Mandatory flush before accepting more: if the queue will
            // not take the shard's batch, the *new* event is rejected
            // and everything already accepted stays buffered.
            let batch = batcher.take(now);
            if let Err(err) = sh.queue.try_push(WorkItem::Batch(batch)) {
                let (reason, item) = match err {
                    // Publishes shed with a retry hint; control ops keep
                    // their blocking-push lane and are always admitted.
                    PushError::Full(item) => (
                        RejectReason::Shed {
                            retry_after_ms: shed_hint(sh),
                        },
                        item,
                    ),
                    PushError::Closed(item) => (RejectReason::Closed, item),
                };
                if let WorkItem::Batch(batch) = item {
                    batcher.restore(batch);
                }
                sh.rejected.fetch_add(1, Ordering::Relaxed);
                return Err(reason);
            }
        }
        batcher.push(
            SubmitMeta {
                client,
                seq,
                scheduled,
                submitted: now,
            },
            event,
        );
        sh.accepted.fetch_add(1, Ordering::Relaxed);
        // Below the size trigger nothing is woken: an idle executor
        // sweeps the shard within one park (waking one from here would
        // cost more than the whole submit).
        if batcher.is_full() {
            // Opportunistic size-trigger flush; a full queue just leaves
            // the batch for the next submit or an executor sweep.
            let batch = batcher.take(now);
            if let Err(err) = sh.queue.try_push(WorkItem::Batch(batch)) {
                if let WorkItem::Batch(batch) = err.into_inner() {
                    batcher.restore(batch);
                }
            }
        }
        Ok(())
    }

    /// [`IngestHandle::submit`] with `scheduled = now` — for closed-loop
    /// callers (the TCP front) where submission *is* the arrival.
    ///
    /// # Errors
    ///
    /// As [`IngestHandle::submit`].
    pub fn submit_now(&self, client: u32, seq: u64, event: Point) -> Result<(), RejectReason> {
        self.submit(client, seq, event, Instant::now())
    }

    /// Adds a subscription through the ordered pipeline: every event
    /// accepted before this call is matched under the old subscription
    /// set, everything after under the new one.
    ///
    /// # Errors
    ///
    /// [`ServingError::Closed`] after shutdown, or the broker's own
    /// rejection.
    pub fn subscribe(&self, node: NodeId, rect: Rect) -> Result<SubscriptionHandle, ServingError> {
        let (tx, rx) = mpsc::channel();
        self.control(ControlOp::Subscribe(node, rect, tx))?;
        rx.recv()
            .map_err(|_| ServingError::Closed)?
            .map_err(ServingError::Broker)
    }

    /// Removes a subscription through the ordered pipeline.
    ///
    /// # Errors
    ///
    /// As [`IngestHandle::subscribe`].
    pub fn unsubscribe(&self, handle: SubscriptionHandle) -> Result<(), ServingError> {
        let (tx, rx) = mpsc::channel();
        self.control(ControlOp::Unsubscribe(handle, tx))?;
        rx.recv()
            .map_err(|_| ServingError::Closed)?
            .map_err(ServingError::Broker)
    }

    /// Forces a full engine recompile through the ordered pipeline. The
    /// epoch bump lands *between* queued batches, never inside one —
    /// batches accepted earlier keep their pre-recompile epoch (see
    /// [`EventRecord::epoch`]).
    ///
    /// # Errors
    ///
    /// As [`IngestHandle::subscribe`].
    pub fn recompile(&self) -> Result<(), ServingError> {
        let (tx, rx) = mpsc::channel();
        self.control(ControlOp::Recompile(tx))?;
        rx.recv()
            .map_err(|_| ServingError::Closed)?
            .map_err(ServingError::Broker)
    }

    /// Polls a coherent metrics snapshot from the fold thread (counters,
    /// cost report, stage-latency histograms, queue gauges).
    ///
    /// # Errors
    ///
    /// [`ServingError::Closed`] after shutdown.
    pub fn metrics(&self) -> Result<MetricsSnapshot, ServingError> {
        let (tx, rx) = mpsc::channel();
        self.control(ControlOp::Metrics(tx))?;
        rx.recv().map_err(|_| ServingError::Closed)
    }

    /// Submissions accepted so far.
    pub fn accepted(&self) -> u64 {
        self.shared.accepted.load(Ordering::Relaxed)
    }

    /// Submissions rejected by admission control so far.
    pub fn rejected(&self) -> u64 {
        self.shared.rejected.load(Ordering::Relaxed)
    }

    /// Enqueues a control operation behind everything already accepted:
    /// flushes every shard (blocking — accepted events are never
    /// dropped), then pushes the op through the same ordered queue.
    /// Events an executor swept before the flush reached their shard
    /// already hold earlier tickets.
    pub(crate) fn control(&self, op: ControlOp) -> Result<(), ServingError> {
        let sh = &*self.shared;
        for shard in &sh.shards {
            let mut batcher = lock(shard);
            if !batcher.is_empty() {
                let batch = batcher.take(Instant::now());
                if let Err(WorkItem::Batch(batch)) = sh.queue.push(WorkItem::Batch(batch)) {
                    // Queue closed mid-shutdown: put them back for the
                    // final flush and report closed.
                    batcher.restore(batch);
                    return Err(ServingError::Closed);
                }
            }
        }
        sh.queue
            .push(WorkItem::Control(op))
            .map_err(|_| ServingError::Closed)
    }
}

/// Totals the egress thread hands back at shutdown.
#[derive(Debug, Default)]
pub(crate) struct EgressTotals {
    pub(crate) histo: LatencyHisto,
    pub(crate) delivered: u64,
    pub(crate) failed: u64,
    pub(crate) batches: u64,
}

/// Aggregate serving statistics returned by [`StagedServer::stop`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ServerStats {
    /// Submissions accepted (each produced exactly one sink record).
    pub accepted: u64,
    /// Submissions rejected by admission control.
    pub rejected: u64,
    /// Accepted events whose outcome was a successful publish.
    pub delivered: u64,
    /// Accepted events the engine refused (fault-plan aborts etc.); their
    /// records carry the error.
    pub failed: u64,
    /// Batches the pipeline processed.
    pub batches: u64,
    /// High-water mark of the ingest queue.
    pub ingest_queue_max_depth: u64,
    /// Stage threads the supervisor restarted after a crash (always 0
    /// for the unsupervised [`StagedServer`]).
    pub restarts: u64,
    /// In-flight work items salvaged and replayed across stage restarts
    /// (always 0 for the unsupervised [`StagedServer`]).
    pub replayed_batches: u64,
}

/// The running staged server. Owns the executor, fold and egress
/// threads; [`StagedServer::stop`] (or drop) shuts down cleanly,
/// returning the broker and the aggregate stats.
#[derive(Debug)]
pub struct StagedServer {
    handle: IngestHandle,
    ctx: Arc<ExecShared>,
    executors: Vec<JoinHandle<()>>,
    fold: Option<JoinHandle<Broker>>,
    egress: Option<JoinHandle<EgressTotals>>,
    stats: ServerStats,
}

impl StagedServer {
    /// Starts the staged server around `broker`: spawns the pipeline
    /// executors (sharing an immutable [`PublishView`] of the broker),
    /// the fold thread (which takes ownership of the broker) and the
    /// egress thread (which takes ownership of `sink`).
    pub fn start(mut broker: Broker, config: ServingConfig, sink: Box<dyn DeliverySink>) -> Self {
        let shared = Arc::new(IngestShared::new(&config, broker.space().dims()));
        let executors = pubsub_parallel::effective_threads(config.executors);
        let ctx = Arc::new(ExecShared {
            ingest: Arc::clone(&shared),
            dispatch: Mutex::new(DispatchState::default()),
            // The window bounds how far ahead of the fold the executors
            // can run; modest slack past the executor count is enough to
            // keep them all busy without unbounded reorder memory.
            window: SequenceWindow::new(executors as u64 * 2 + 2),
            cell: VersionedCell::new(broker.publish_view()),
            scratch_pool: Mutex::new(Vec::new()),
            faults_active: broker.faults_active(),
        });
        let egress_queue: StageQueue<EgressBatch> = StageQueue::new(config.egress_capacity);
        let executor_handles = (0..executors)
            .map(|i| {
                let ctx = Arc::clone(&ctx);
                std::thread::Builder::new()
                    .name(format!("pubsub-exec-{i}"))
                    .spawn(move || executor_loop(&ctx))
                    .expect("spawn executor thread")
            })
            .collect();
        let fold = {
            let ctx = Arc::clone(&ctx);
            let egress_queue = egress_queue.clone();
            let threads = config.threads;
            std::thread::Builder::new()
                .name("pubsub-fold".into())
                .spawn(move || fold_loop(broker, &ctx, &egress_queue, threads))
                .expect("spawn fold thread")
        };
        let egress = std::thread::Builder::new()
            .name("pubsub-egress".into())
            .spawn(move || egress_loop(&egress_queue, sink))
            .expect("spawn egress thread");

        StagedServer {
            handle: IngestHandle { shared },
            ctx,
            executors: executor_handles,
            fold: Some(fold),
            egress: Some(egress),
            stats: ServerStats::default(),
        }
    }

    /// A transport-in handle for submitting events and control ops.
    pub fn handle(&self) -> IngestHandle {
        self.handle.clone()
    }

    /// Stops accepting, flushes every shard, drains the queues and the
    /// sequence window, joins the stage threads, and returns the broker
    /// (with the egress histogram merged into its counters) plus the
    /// aggregate stats.
    ///
    /// # Panics
    ///
    /// Panics if a stage thread itself panicked.
    pub fn stop(mut self) -> (Broker, ServerStats) {
        let broker = self.shutdown().expect("stage threads healthy");
        (broker, self.stats)
    }

    fn shutdown(&mut self) -> Option<Broker> {
        let fold = self.fold.take()?;
        let sh = &*self.handle.shared;
        sh.accepting.store(false, Ordering::SeqCst);
        // Final flush: every accepted event must reach the pipeline, so
        // this push blocks rather than rejects.
        for shard in &sh.shards {
            let mut batcher = lock(shard);
            if !batcher.is_empty() {
                let batch = batcher.take(Instant::now());
                let _ = sh.queue.push(WorkItem::Batch(batch));
            }
        }
        sh.queue.close();
        // Executors drain the closed queue and push their last tickets;
        // only then may the window close (it would otherwise drop the
        // gap behind a straggler).
        for executor in self.executors.drain(..) {
            executor.join().expect("executor thread panicked");
        }
        self.ctx.window.close();
        let mut broker = fold.join().expect("fold thread panicked");
        let totals = self
            .egress
            .take()
            .expect("egress joined once")
            .join()
            .expect("egress thread panicked");
        broker.merge_stage_latencies(StageKind::Egress, &totals.histo);
        sync_gauges(&mut broker, sh);
        self.stats = ServerStats {
            accepted: sh.accepted.load(Ordering::Relaxed),
            rejected: sh.rejected.load(Ordering::Relaxed),
            delivered: totals.delivered,
            failed: totals.failed,
            batches: totals.batches,
            ingest_queue_max_depth: sh.queue.max_depth() as u64,
            restarts: 0,
            replayed_batches: 0,
        };
        Some(broker)
    }
}

impl Drop for StagedServer {
    fn drop(&mut self) {
        // Explicit `stop` already ran if the fold is None; otherwise
        // shut down so no stage thread outlives the server.
        let _ = self.shutdown();
    }
}

/// Folds the ingest-side gauges (queue high-water mark, rejection count)
/// into the broker's counters, exactly once per rejection.
pub(crate) fn sync_gauges(broker: &mut Broker, shared: &IngestShared) {
    let total = shared.rejected.load(Ordering::Relaxed);
    let prev = shared.rejected_reported.swap(total, Ordering::Relaxed);
    broker.note_rejected(total - prev);
    broker.note_queue_depth(shared.queue.max_depth() as u64);
}

/// The shed tier's retry hint: roughly how long the current backlog
/// takes to drain (queue depth × the flush interval each entry
/// represents), clamped to a sane client-side backoff band. A deeper
/// backlog tells clients to stay away longer instead of hammering the
/// admission edge.
pub(crate) fn shed_hint(shared: &IngestShared) -> u32 {
    let depth = shared.queue.depth().max(1) as u128;
    let per_batch_ms = shared.flush_interval.as_millis().max(1);
    (depth * per_batch_ms).clamp(1, 10_000) as u32
}

/// What an executor popped, after the dispatcher stamped it.
pub(crate) enum Popped {
    /// A batch plus the view version it must process under.
    Batch(EventBatch, u64),
    Control(ControlOp),
}

/// How long an idle executor parks on the empty ingest queue before it
/// sweeps the shard batchers again. A push into the queue (size
/// trigger, control op) wakes it at once; a lone event below the size
/// trigger waits at most one park. Linux's default 50 µs timer slack
/// sets the real park length (about 60 µs), so the timeout only needs
/// to be short, not tuned.
const PARK: Duration = Duration::from_micros(10);

/// The one dispatch step every executor (supervised or not) runs: pop
/// the ingest queue; if it is empty, sweep the shard batchers into one
/// batch; if there is nothing to sweep, park on the queue for [`PARK`]
/// and repeat. The item gets the next ticket and, if it is a batch, the
/// current view version; a view-bumping control op advances the
/// version. Everything happens under the dispatcher lock, which makes
/// tickets a total order consistent with the queue order — idle peers
/// block on that lock instead of the queue, which costs nothing, they
/// could not pop anyway. Returns `None` once the queue is closed and
/// drained.
pub(crate) fn dispatch(ctx: &ExecShared) -> Option<(u64, Popped)> {
    let sh = &*ctx.ingest;
    let mut st = lock(&ctx.dispatch);
    let item = loop {
        if let Some(item) = sh.queue.try_pop() {
            break item;
        }
        if let Some(batch) = sweep(sh) {
            break WorkItem::Batch(batch);
        }
        match sh.queue.pop_timeout(PARK) {
            TimedPop::Item(item) => break item,
            TimedPop::TimedOut => {}
            TimedPop::Closed => return None,
        }
    };
    let ticket = st.next_ticket;
    st.next_ticket += 1;
    let popped = match item {
        WorkItem::Batch(batch) => Popped::Batch(batch, st.version),
        WorkItem::Control(op) => {
            if op.bumps_view() {
                st.version += 1;
            }
            Popped::Control(op)
        }
    };
    Some((ticket, popped))
}

/// Merges every buffered shard batch (shard order, each shard's events
/// contiguous, at most `max_batch` events) into one batch, or `None` if
/// there is nothing to take.
///
/// A shard is swept only while the ingest queue is empty, checked under
/// that shard's lock: every push of a shard's batches happens under its
/// lock, so an empty queue means no earlier batch of the shard can still
/// be waiting for a ticket — per-client order holds. Shards are taken
/// with `try_lock` and skipped when busy: the caller holds the
/// dispatcher lock, and `control` can hold a shard lock while blocked on
/// a full queue that only the dispatcher drains.
fn sweep(sh: &IngestShared) -> Option<EventBatch> {
    let mut swept: Option<EventBatch> = None;
    for shard in &sh.shards {
        let Some(mut batcher) = try_lock(shard) else {
            continue;
        };
        let taken = swept.as_ref().map_or(0, EventBatch::len);
        if batcher.is_empty() || (taken > 0 && taken + batcher.len() > sh.max_batch) {
            continue;
        }
        if sh.queue.depth() > 0 {
            break;
        }
        let out = swept.get_or_insert_with(|| EventBatch::new(sh.dims, Instant::now()));
        batcher.drain_into(out);
    }
    swept
}

/// Runs the read-only fused pass over `batch` against the view at
/// exactly `version`. `None` sends the batch to the fold raw: an active
/// fault plan, or a view that refused the batch (unreachable in practice
/// — submit validates dimensions — but losing records is not an option,
/// so the fold produces the errors).
pub(crate) fn run_pass(
    ctx: &ExecShared,
    batch: &EventBatch,
    version: u64,
) -> Option<(PublishScratch, u64)> {
    if ctx.faults_active {
        return None;
    }
    // The fold publishes version v only after folding every ticket
    // before the op that bumped to v, and all such tickets precede
    // ours — so the wait both terminates and can only ever observe our
    // version.
    let (seen, view) = ctx.cell.wait_at_least(version);
    debug_assert_eq!(seen, version, "executor observed a future view");
    let mut scratch = lock(&ctx.scratch_pool).pop().unwrap_or_default();
    match view.process_into(&batch.points, Some(&batch.soa), &mut scratch) {
        Ok(()) => Some((scratch, view.epoch())),
        Err(_) => {
            lock(&ctx.scratch_pool).push(scratch);
            None
        }
    }
}

/// One concurrent pipeline executor: [`dispatch`] an item, run the
/// read-only fused pass against the view at exactly the stamped
/// version, and push the result into the sequence window at the ticket.
/// Everything order-sensitive (broker mutation, version publication,
/// egress handoff) happens on the fold side, in ticket order.
fn executor_loop(ctx: &ExecShared) {
    while let Some((ticket, popped)) = dispatch(ctx) {
        let staged = match popped {
            Popped::Control(op) => Staged::Control(op),
            Popped::Batch(batch, version) => {
                let dequeued = Instant::now();
                match run_pass(ctx, &batch, version) {
                    Some((scratch, epoch)) => Staged::Processed {
                        batch,
                        scratch,
                        epoch,
                        dequeued,
                    },
                    None => Staged::Raw { batch, dequeued },
                }
            }
        };
        let _ = ctx.window.push(ticket, staged);
    }
}

/// Per-event transport-in latencies, recorded when the fold (the only
/// broker owner) sees the batch: batcher residency, queue wait, and
/// their sum kept as the whole-stage histogram.
pub(crate) fn note_ingest(
    broker: &mut Broker,
    meta: &[SubmitMeta],
    enqueued: Instant,
    dequeued: Instant,
) {
    for m in meta {
        broker.note_stage_latency(
            StageKind::Batcher,
            nanos(enqueued.saturating_duration_since(m.submitted)),
        );
        broker.note_stage_latency(
            StageKind::QueueWait,
            nanos(dequeued.saturating_duration_since(enqueued)),
        );
        broker.note_stage_latency(
            StageKind::Ingest,
            nanos(dequeued.saturating_duration_since(m.submitted)),
        );
    }
}

pub(crate) fn forward(
    egress: &StageQueue<EgressBatch>,
    batch: EventBatch,
    results: Vec<Result<PublishOutcome, String>>,
    epoch: u64,
    dequeued: Instant,
    folded: Instant,
) {
    if egress
        .push(EgressBatch {
            meta: batch.meta,
            results,
            epoch,
            dequeued,
            folded,
        })
        .is_err()
    {
        unreachable!("egress queue closes only after the fold exits");
    }
}

/// The in-order fold: the single broker owner. Consumes the sequence
/// window in ticket order — folding executor scratches, processing raw
/// (fault-path) batches, applying control operations and republishing
/// the view on version bumps — and forwards egress batches in that same
/// order, which is what keeps sink output deterministic.
fn fold_loop(
    mut broker: Broker,
    ctx: &ExecShared,
    egress: &StageQueue<EgressBatch>,
    threads: Option<usize>,
) -> Broker {
    let mut version = 0u64;
    let mut outcomes: Vec<PublishOutcome> = Vec::new();
    while let Some((_ticket, staged)) = ctx.window.pop_next() {
        match staged {
            Staged::Processed {
                batch,
                mut scratch,
                epoch,
                dequeued,
            } => {
                note_ingest(&mut broker, &batch.meta, batch.enqueued, dequeued);
                outcomes.clear();
                broker.fold_staged(batch.len(), epoch, &mut scratch, &mut outcomes);
                lock(&ctx.scratch_pool).push(scratch);
                let folded = Instant::now();
                broker.note_stage_latency(
                    StageKind::Pipeline,
                    nanos(folded.saturating_duration_since(dequeued)),
                );
                let results = outcomes.drain(..).map(Ok).collect();
                forward(egress, batch, results, epoch, dequeued, folded);
            }
            Staged::Raw { batch, dequeued } => {
                note_ingest(&mut broker, &batch.meta, batch.enqueued, dequeued);
                let (results, epoch) = process(&mut broker, &batch.points, threads);
                let folded = Instant::now();
                broker.note_stage_latency(
                    StageKind::Pipeline,
                    nanos(folded.saturating_duration_since(dequeued)),
                );
                forward(egress, batch, results, epoch, dequeued, folded);
            }
            Staged::Control(op) => {
                let bumps = op.bumps_view();
                match op {
                    ControlOp::Subscribe(node, rect, tx) => {
                        let _ = tx.send(broker.subscribe(node, rect));
                    }
                    ControlOp::Unsubscribe(handle, tx) => {
                        let _ = tx.send(broker.unsubscribe(handle));
                    }
                    ControlOp::Recompile(tx) => {
                        let _ = tx.send(broker.recompile());
                    }
                    ControlOp::Metrics(tx) => {
                        sync_gauges(&mut broker, &ctx.ingest);
                        let _ = tx.send(broker.metrics_snapshot());
                    }
                }
                if bumps {
                    // Republish even if the op itself failed: the
                    // dispatcher already advanced the version, and a
                    // batch stamped with it is (or will be) waiting.
                    version += 1;
                    ctx.cell.publish(version, Arc::new(broker.publish_view()));
                }
            }
        }
    }
    egress.close();
    broker
}

/// Runs one batch through the engine on the fold side. Fault-free
/// batches (an executor's view pass was refused) take the fused pipeline
/// in one go; under an active fault plan each event runs as its own
/// one-event batch so a mid-batch abort (publisher down) cannot leave
/// recorded events without records — see the module docs.
#[allow(clippy::type_complexity)]
pub(crate) fn process(
    broker: &mut Broker,
    points: &[Point],
    threads: Option<usize>,
) -> (Vec<Result<PublishOutcome, String>>, u64) {
    if broker.faults_active() {
        let results = points
            .iter()
            .map(|p| {
                broker
                    .process_batch(std::slice::from_ref(p), threads)
                    .map(|mut staged| staged.outcomes.pop().expect("one outcome per event"))
                    .map_err(|e| e.to_string())
            })
            .collect();
        return (results, broker.epoch());
    }
    match broker.process_batch(points, threads) {
        Ok(staged) => {
            let epoch = staged.epoch;
            (staged.outcomes.into_iter().map(Ok).collect(), epoch)
        }
        // Whole-batch validation failure: nothing recorded, every event
        // gets the error (submit-side dimension checks make this rare).
        Err(err) => {
            let msg = err.to_string();
            let epoch = broker.epoch();
            (points.iter().map(|_| Err(msg.clone())).collect(), epoch)
        }
    }
}

fn egress_loop(queue: &StageQueue<EgressBatch>, mut sink: Box<dyn DeliverySink>) -> EgressTotals {
    let mut totals = EgressTotals::default();
    while let Some(batch) = queue.pop() {
        let started = Instant::now();
        debug_assert_eq!(batch.meta.len(), batch.results.len());
        for (event, outcome) in batch.meta.into_iter().zip(batch.results) {
            let now = Instant::now();
            if outcome.is_ok() {
                totals.delivered += 1;
            } else {
                totals.failed += 1;
            }
            sink.on_record(EventRecord {
                client: event.client,
                seq: event.seq,
                epoch: batch.epoch,
                outcome,
                latency_ns: nanos(now.saturating_duration_since(event.scheduled)),
                ingest_ns: nanos(batch.dequeued.saturating_duration_since(event.submitted)),
                pipeline_ns: nanos(batch.folded.saturating_duration_since(batch.dequeued)),
                egress_ns: nanos(now.saturating_duration_since(batch.folded)),
            });
        }
        totals.histo.record(nanos(started.elapsed()));
        totals.batches += 1;
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;
    use pubsub_clustering::{ClusteringAlgorithm, ClusteringConfig};
    use pubsub_netsim::TransitStubConfig;

    fn tiny_broker() -> Broker {
        let topo = TransitStubConfig::tiny().generate(11).expect("tiny topo");
        let space = pubsub_geom::Space::anonymous(
            Rect::from_corners(&[0.0, 0.0], &[10.0, 10.0]).expect("rect"),
        )
        .expect("space");
        let nodes = topo.stub_nodes().to_vec();
        Broker::builder(topo, space)
            .subscription(
                nodes[0],
                Rect::from_corners(&[0.0, 0.0], &[6.0, 6.0]).expect("rect"),
            )
            .subscription(
                nodes[1 % nodes.len()],
                Rect::from_corners(&[3.0, 3.0], &[9.0, 9.0]).expect("rect"),
            )
            .clustering(ClusteringConfig::new(ClusteringAlgorithm::ForgyKMeans, 2))
            .threshold(0.15)
            .build()
            .expect("broker")
    }

    fn events(n: usize) -> Vec<Point> {
        (0..n)
            .map(|i| {
                let x = (i % 10) as f64;
                Point::new(vec![x, 9.5 - x]).expect("point")
            })
            .collect()
    }

    #[test]
    fn staged_results_match_synchronous_batch() {
        let sink = CollectorSink::new();
        let server = StagedServer::start(
            tiny_broker(),
            ServingConfig {
                shards: 1, // one shard keeps submission order end to end
                max_batch: 16,
                ..ServingConfig::default()
            },
            Box::new(sink.clone()),
        );
        let handle = server.handle();
        let stream = events(50);
        for (i, e) in stream.iter().enumerate() {
            handle
                .submit_now(0, i as u64, e.clone())
                .expect("no backpressure at this rate");
        }
        let (broker, stats) = server.stop();
        assert_eq!(stats.accepted, 50);
        assert_eq!(stats.rejected, 0);
        assert_eq!(stats.delivered, 50);
        assert_eq!(stats.failed, 0);

        let mut records = sink.take();
        assert_eq!(records.len(), 50);
        records.sort_by_key(|r| r.seq);
        let mut reference = tiny_broker();
        let expected = reference.publish_batch(&stream, Some(1)).expect("batch");
        for (record, want) in records.iter().zip(&expected) {
            assert_eq!(record.outcome.as_ref().expect("delivered"), want);
            assert_eq!(record.epoch, reference.epoch());
        }
        // The cumulative cost report is bit-identical too.
        assert_eq!(broker.report(), reference.report());
    }

    #[test]
    fn concurrent_executors_keep_sink_order_and_identity() {
        let sink = CollectorSink::new();
        let server = StagedServer::start(
            tiny_broker(),
            ServingConfig {
                shards: 1,
                max_batch: 4, // many small batches — real reorder pressure
                executors: Some(3),
                ..ServingConfig::default()
            },
            Box::new(sink.clone()),
        );
        let handle = server.handle();
        let stream = events(60);
        for (i, e) in stream.iter().enumerate() {
            handle
                .submit_now(0, i as u64, e.clone())
                .expect("no backpressure at this rate");
        }
        let (broker, stats) = server.stop();
        assert_eq!(stats.delivered, 60);

        // No sort: the sequence window must deliver records to the sink
        // in exact submission order despite three racing executors.
        let records = sink.take();
        let seqs: Vec<u64> = records.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, (0..60).collect::<Vec<u64>>());
        let mut reference = tiny_broker();
        let expected = reference.publish_batch(&stream, Some(1)).expect("batch");
        for (record, want) in records.iter().zip(&expected) {
            assert_eq!(record.outcome.as_ref().expect("delivered"), want);
        }
        assert_eq!(broker.report(), reference.report());
    }

    #[test]
    fn idle_executor_sweep_delivers_sparse_traffic() {
        let sink = CollectorSink::new();
        let server = StagedServer::start(
            tiny_broker(),
            ServingConfig {
                max_batch: 1_000_000, // size trigger unreachable
                ..ServingConfig::default()
            },
            Box::new(sink.clone()),
        );
        let handle = server.handle();
        handle
            .submit_now(3, 77, Point::new(vec![1.0, 1.0]).expect("point"))
            .expect("accepted");
        // Only an idle executor's sweep can move this single event.
        let deadline = Instant::now() + Duration::from_secs(5);
        while sink.is_empty() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(sink.len(), 1, "no executor swept the shard");
        let (_, stats) = server.stop();
        assert_eq!(stats.accepted, 1);
        assert_eq!(stats.delivered, 1);
    }

    #[test]
    fn control_queues_behind_the_buffered_shard_batch() {
        // No executors run, so nothing sweeps: the control op's own
        // shard flush is the only thing that moves the buffered events.
        let config = ServingConfig {
            max_batch: 1_000,
            shards: 2,
            ..ServingConfig::default()
        };
        let handle = IngestHandle {
            shared: Arc::new(IngestShared::new(&config, 2)),
        };
        for (i, e) in events(3).into_iter().enumerate() {
            handle.submit_now(i as u32, i as u64, e).expect("accepted");
        }
        let (tx, _rx) = mpsc::channel();
        handle.control(ControlOp::Recompile(tx)).expect("queued");
        let queue = &handle.shared.queue;
        assert_eq!(queue.depth(), 3, "two shard batches, then the control");
        let mut seqs = Vec::new();
        for _ in 0..2 {
            match queue.try_pop() {
                Some(WorkItem::Batch(batch)) => seqs.extend(batch.meta.iter().map(|m| m.seq)),
                _ => panic!("a buffered shard batch must precede the control op"),
            }
        }
        seqs.sort_unstable();
        assert_eq!(seqs, vec![0, 1, 2]);
        assert!(matches!(
            queue.try_pop(),
            Some(WorkItem::Control(ControlOp::Recompile(_)))
        ));
    }

    #[test]
    fn sweep_merges_shards_only_while_the_queue_is_empty() {
        let config = ServingConfig {
            max_batch: 4,
            shards: 2,
            ..ServingConfig::default()
        };
        let handle = IngestHandle {
            shared: Arc::new(IngestShared::new(&config, 2)),
        };
        let sh = &*handle.shared;
        let seqs = |batch: EventBatch| batch.meta.iter().map(|m| m.seq).collect::<Vec<_>>();
        // Clients 0 and 1 live on shards 0 and 1.
        for (seq, client) in [(0, 0), (1, 1), (2, 0), (3, 1)] {
            handle
                .submit_now(client, seq, events(1).remove(0))
                .expect("accepted");
        }
        // Queued work may hold an earlier batch of either shard: no sweep.
        let queued = sh
            .queue
            .try_push(WorkItem::Control(ControlOp::Metrics(mpsc::channel().0)));
        assert!(queued.is_ok());
        assert!(sweep(sh).is_none());
        assert!(sh.queue.try_pop().is_some());
        // A busy shard is skipped rather than waited for.
        let held = lock(&sh.shards[0]);
        assert_eq!(sweep(sh).map(seqs), Some(vec![1, 3]));
        drop(held);
        // Shard order, each shard contiguous, capped at max_batch.
        for seq in 4..7 {
            handle
                .submit_now(1, seq, events(1).remove(0))
                .expect("accepted");
        }
        assert_eq!(sweep(sh).map(seqs), Some(vec![0, 2]));
        assert_eq!(sweep(sh).map(seqs), Some(vec![4, 5, 6]));
        assert!(sweep(sh).is_none());
    }

    #[test]
    fn overload_rejects_explicitly_and_loses_nothing() {
        let sink = CollectorSink::new();
        // A sink this slow stalls egress; capacity-1 queues propagate the
        // pressure back to submissions within a few batches.
        let slow = {
            let sink = sink.clone();
            move |record: EventRecord| {
                std::thread::sleep(Duration::from_millis(20));
                let mut sink = sink.clone();
                sink.on_record(record);
            }
        };
        let server = StagedServer::start(
            tiny_broker(),
            ServingConfig {
                ingest_capacity: 1,
                egress_capacity: 1,
                max_batch: 1,
                shards: 1,
                flush_interval: Duration::from_millis(1),
                ..ServingConfig::default()
            },
            Box::new(slow),
        );
        let handle = server.handle();
        let mut accepted = 0u64;
        let mut rejected = 0u64;
        for (i, e) in events(60).into_iter().enumerate() {
            match handle.submit_now(0, i as u64, e) {
                Ok(()) => accepted += 1,
                Err(RejectReason::Shed { retry_after_ms }) => {
                    assert!(retry_after_ms >= 1, "shed hint must be actionable");
                    rejected += 1;
                }
                Err(other) => panic!("unexpected reject: {other}"),
            }
        }
        assert!(rejected > 0, "no backpressure despite stalled egress");
        let (broker, stats) = server.stop();
        assert_eq!(stats.accepted, accepted);
        assert_eq!(stats.rejected, rejected);
        // Every accepted event got exactly one record; rejected ones none.
        assert_eq!(stats.delivered + stats.failed, accepted);
        assert_eq!(sink.len() as u64, accepted);
        let counters = broker.pipeline_counters();
        assert_eq!(counters.ingest_rejected, rejected);
        assert!(counters.ingest_queue_max_depth >= 1);
    }

    #[test]
    fn malformed_and_closed_submissions_reject() {
        let server = StagedServer::start(
            tiny_broker(),
            ServingConfig::default(),
            Box::new(CollectorSink::new()),
        );
        let handle = server.handle();
        assert_eq!(
            handle.submit_now(0, 0, Point::new(vec![1.0]).expect("point")),
            Err(RejectReason::Malformed)
        );
        let (_, stats) = server.stop();
        assert_eq!(stats.accepted, 0);
        assert_eq!(
            handle.submit_now(0, 1, Point::new(vec![1.0, 2.0]).expect("point")),
            Err(RejectReason::Closed)
        );
        assert!(matches!(handle.recompile(), Err(ServingError::Closed)));
    }

    #[test]
    fn metrics_snapshot_reports_stage_histograms() {
        let server = StagedServer::start(
            tiny_broker(),
            ServingConfig {
                shards: 1,
                max_batch: 4,
                ..ServingConfig::default()
            },
            Box::new(LatencySink::new()),
        );
        let handle = server.handle();
        for (i, e) in events(12).into_iter().enumerate() {
            handle.submit_now(0, i as u64, e).expect("accepted");
        }
        let snapshot = handle.metrics().expect("metrics");
        assert!(snapshot.pipeline.events >= 1);
        assert!(!snapshot.pipeline.stage_ingest.is_empty());
        assert!(!snapshot.pipeline.stage_pipeline.is_empty());
        let (broker, _) = server.stop();
        let final_counters = broker.pipeline_counters();
        // The whole-stage histogram and its two splits see every event.
        assert_eq!(final_counters.stage_ingest.count(), 12);
        assert_eq!(final_counters.stage_batcher.count(), 12);
        assert_eq!(final_counters.stage_queue_wait.count(), 12);
        assert!(!final_counters.stage_egress.is_empty());
    }
}
