//! The supervised staged server: the same ingest → executors → fold →
//! egress pipeline as [`StagedServer`](crate::StagedServer), plus a
//! supervisor thread that detects stage-thread death and restarts the
//! stage without losing accepted work.
//!
//! # Failure model and guarantees
//!
//! Every stage thread parks its in-flight work item in a *salvage slot*
//! before entering the region where it can die, and only removes it
//! once the item's effects are fully handed to the next stage. When a
//! thread dies the supervisor (which polls
//! [`JoinHandle::is_finished`] and therefore never blocks on a healthy
//! thread) recovers the slot:
//!
//! * **Executor death** — the salvaged `(ticket, item)` is pushed into
//!   the sequence window as a *raw* batch by the replacement executor
//!   (its first act), so the window never has a permanent gap and the
//!   fold reprocesses the batch itself. Result: the batch's events are
//!   delivered exactly once.
//! * **Fold death** — the broker died with the thread. The supervisor
//!   rebuilds it through the configured [`RecoverFn`] (typically
//!   [`BrokerBuilder::recover`](pubsub_core::BrokerBuilder::recover)
//!   over the durable journal), republishes the rebuilt
//!   [`PublishView`](pubsub_core::PublishView) *at the same view
//!   version* (no reader is lied to about ordering), and spawns a new
//!   fold that first re-applies the salvaged item and then continues
//!   consuming the *same* sequence window. Batches the executors
//!   processed against the pre-crash view carry a stale engine epoch;
//!   the new fold detects the mismatch and reprocesses them fold-side
//!   instead of asserting. Acked control operations were journaled
//!   before their ack was sent, so recovery replays them exactly once;
//!   an un-acked operation in flight is applied at most once and its
//!   caller observes a clean channel drop.
//! * **Egress death** — the salvage slot holds the current egress batch
//!   *and the count of records already emitted*; the replacement thread
//!   resumes at that index, so the sink sees each record exactly once
//!   (a record can repeat only if the sink itself panicked midway
//!   through consuming it).
//!
//! # Chaos injection
//!
//! A [`CrashPlan`] schedules deterministic, single-shot panics at
//! stage-progress counts: kill executor `n` after its `k`-th pop, kill
//! the fold after its `k`-th item, kill egress after its `k`-th record.
//! Plans are plain data and can be derived from a seed
//! ([`CrashPlan::seeded`]), which is what the recovery property tests
//! drive.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Once};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pubsub_core::{Broker, BrokerError, StageKind};
use pubsub_parallel::{SequenceWindow, StageQueue, VersionedCell};

use crate::server::{
    dispatch, forward, lock, nanos, process, run_pass, sync_gauges, ControlOp, DeliverySink,
    DispatchState, EgressBatch, EgressTotals, EventRecord, ExecShared, IngestHandle, IngestShared,
    Popped, ServerStats, ServingConfig, ServingError, Staged, WorkItem,
};

/// Rebuilds a broker after the fold stage died with it — typically a
/// closure around [`BrokerBuilder::recover`](pubsub_core::BrokerBuilder::recover)
/// pointed at the durable journal the dead broker was writing.
pub type RecoverFn = Box<dyn FnMut() -> Result<Broker, BrokerError> + Send>;

/// Which stage thread a chaos event kills.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CrashKind {
    /// Kill pipeline executor `n` (0-based) after it has popped the
    /// configured number of work items off the dispatcher.
    KillExecutor(usize),
    /// Kill the fold thread (taking the broker with it) after it has
    /// consumed the configured number of sequence-window items.
    KillFold,
    /// Kill the egress thread after it has emitted the configured
    /// number of records to the sink.
    KillEgress,
}

/// One scheduled kill: fire `kind` once the matching stage-progress
/// counter reaches `after` (1-based — `after == 1` dies on the first
/// item). Each event fires at most once per server lifetime.
#[derive(Clone, Copy, Debug)]
pub struct CrashEvent {
    /// What dies.
    pub kind: CrashKind,
    /// The stage-local progress count at which it dies.
    pub after: u64,
}

/// A deterministic process-level chaos schedule: a set of single-shot
/// [`CrashEvent`]s the supervised server injects as real panics at
/// stage-progress points. Plain data — build one explicitly with
/// [`CrashPlan::kill`] or derive one from a seed with
/// [`CrashPlan::seeded`].
#[derive(Clone, Debug, Default)]
pub struct CrashPlan {
    events: Vec<CrashEvent>,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl CrashPlan {
    /// An empty plan: nothing crashes.
    pub fn new() -> Self {
        CrashPlan::default()
    }

    /// Adds one kill to the schedule.
    #[must_use]
    pub fn kill(mut self, kind: CrashKind, after: u64) -> Self {
        self.events.push(CrashEvent {
            kind,
            after: after.max(1),
        });
        self
    }

    /// A seeded random plan: `crashes` kills spread over the three
    /// stage kinds (`executors` is the executor count to draw targets
    /// from), with progress counts in `1..=32`. The same seed always
    /// yields the same plan.
    pub fn seeded(seed: u64, crashes: usize, executors: usize) -> Self {
        let mut state = seed;
        let mut plan = CrashPlan::new();
        for _ in 0..crashes {
            let roll = splitmix64(&mut state);
            let kind = match roll % 3 {
                0 => CrashKind::KillExecutor(
                    (splitmix64(&mut state) % executors.max(1) as u64) as usize,
                ),
                1 => CrashKind::KillFold,
                _ => CrashKind::KillEgress,
            };
            let after = splitmix64(&mut state) % 32 + 1;
            plan = plan.kill(kind, after);
        }
        plan
    }

    /// The scheduled kills.
    pub fn events(&self) -> &[CrashEvent] {
        &self.events
    }

    /// Whether the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// The chaos panic payload — recognized by the process-wide panic hook
/// so injected crashes do not spam stderr while still unwinding like
/// any real panic.
struct ChaosPanic;

fn install_chaos_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<ChaosPanic>().is_none() {
                prev(info);
            }
        }));
    });
}

/// Shared single-shot chaos state: per-stage progress counters plus a
/// fired flag per scheduled event.
struct ChaosSwitch {
    events: Vec<(CrashEvent, AtomicBool)>,
    exec_pops: Vec<AtomicU64>,
    fold_items: AtomicU64,
    egress_records: AtomicU64,
}

impl ChaosSwitch {
    fn new(plan: &CrashPlan, executors: usize) -> Self {
        ChaosSwitch {
            events: plan
                .events
                .iter()
                .map(|e| (*e, AtomicBool::new(false)))
                .collect(),
            exec_pops: (0..executors).map(|_| AtomicU64::new(0)).collect(),
            fold_items: AtomicU64::new(0),
            egress_records: AtomicU64::new(0),
        }
    }

    fn fire(&self, kind: CrashKind, count: u64) {
        for (event, fired) in &self.events {
            if event.kind == kind && event.after == count && !fired.swap(true, Ordering::SeqCst) {
                std::panic::panic_any(ChaosPanic);
            }
        }
    }

    /// Executor `index` popped one more work item; dies here if scheduled.
    fn executor_tick(&self, index: usize) {
        let count = self.exec_pops[index].fetch_add(1, Ordering::SeqCst) + 1;
        self.fire(CrashKind::KillExecutor(index), count);
    }

    /// The fold consumed one more window item; dies here if scheduled.
    fn fold_tick(&self) {
        let count = self.fold_items.fetch_add(1, Ordering::SeqCst) + 1;
        self.fire(CrashKind::KillFold, count);
    }

    /// Egress is about to emit one more record; dies here if scheduled.
    fn egress_tick(&self) {
        let count = self.egress_records.fetch_add(1, Ordering::SeqCst) + 1;
        self.fire(CrashKind::KillEgress, count);
    }
}

/// Options for [`SupervisedServer::start`].
#[derive(Default)]
pub struct SuperviseOptions {
    /// How to rebuild the broker when the fold stage dies. Without one,
    /// a fold crash is unrecoverable and [`SupervisedServer::stop`]
    /// reports [`ServingError::Crashed`].
    pub recover: Option<RecoverFn>,
    /// Deterministic crash schedule (empty = no injected chaos).
    pub chaos: CrashPlan,
}

impl fmt::Debug for SuperviseOptions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SuperviseOptions")
            .field("recover", &self.recover.is_some())
            .field("chaos", &self.chaos)
            .finish()
    }
}

/// Supervisor-maintained recovery counters, mirrored into the broker's
/// [`RecoveryCounters`](pubsub_core::RecoveryCounters) at every metrics
/// poll and at shutdown.
#[derive(Debug, Default)]
struct SharedCounters {
    restarts: AtomicU64,
    replayed: AtomicU64,
}

fn sync_recovery(broker: &mut Broker, counters: &SharedCounters) {
    let have = broker.recovery_counters();
    broker.note_recovery(
        counters
            .restarts
            .load(Ordering::Relaxed)
            .saturating_sub(have.restarts),
        counters
            .replayed
            .load(Ordering::Relaxed)
            .saturating_sub(have.replayed_batches),
    );
}

/// Fold-stage state that must outlive any single fold incarnation.
struct FoldState {
    /// The item being applied right now (replayed by the next
    /// incarnation if this one dies mid-apply).
    salvage: Mutex<Option<Staged>>,
    /// The last view version the fold published — the version the
    /// supervisor republishes a recovered view under.
    version: AtomicU64,
}

struct EgressState {
    /// The batch being emitted plus how many of its records already
    /// reached the sink — the resume point for a replacement thread.
    salvage: Mutex<Option<(EgressBatch, usize)>>,
    totals: Mutex<EgressTotals>,
}

enum FoldExit {
    Finished(Box<Broker>),
    Crashed,
}

struct SupervisorOutcome {
    broker: Box<Broker>,
    totals: EgressTotals,
}

/// An executor's in-flight `(ticket, item)`, salvageable after a panic.
type ExecSalvage = Arc<Mutex<Option<(u64, Staged)>>>;

/// Everything the supervisor needs to (re)spawn stage threads.
struct Supervision {
    ctx: Arc<ExecShared>,
    egress_queue: StageQueue<EgressBatch>,
    sink: Arc<Mutex<Box<dyn DeliverySink>>>,
    chaos: Arc<ChaosSwitch>,
    fold_state: Arc<FoldState>,
    egress_state: Arc<EgressState>,
    counters: Arc<SharedCounters>,
    exec_salvage: Vec<ExecSalvage>,
    threads: Option<usize>,
    recover: Option<RecoverFn>,
}

/// The supervised staged server. Same data path and backpressure
/// contract as [`StagedServer`](crate::StagedServer); additionally
/// detects executor / fold / egress thread death and restarts the dead
/// stage (see the module docs for the exact guarantees).
#[derive(Debug)]
pub struct SupervisedServer {
    handle: IngestHandle,
    supervisor: Option<JoinHandle<Result<SupervisorOutcome, String>>>,
    counters: Arc<SharedCounters>,
}

impl fmt::Debug for SupervisorOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SupervisorOutcome").finish_non_exhaustive()
    }
}

impl SupervisedServer {
    /// Starts the supervised server: the regular staged pipeline plus
    /// the supervisor thread. `options.recover` enables fold-crash
    /// recovery; `options.chaos` injects the scheduled panics.
    pub fn start(
        mut broker: Broker,
        config: ServingConfig,
        sink: Box<dyn DeliverySink>,
        options: SuperviseOptions,
    ) -> Self {
        install_chaos_hook();
        let shared = Arc::new(IngestShared::new(&config, broker.space().dims()));
        let executors = pubsub_parallel::effective_threads(config.executors);
        let ctx = Arc::new(ExecShared {
            ingest: Arc::clone(&shared),
            dispatch: Mutex::new(DispatchState::default()),
            window: SequenceWindow::new(executors as u64 * 2 + 2),
            cell: VersionedCell::new(broker.publish_view()),
            scratch_pool: Mutex::new(Vec::new()),
            faults_active: broker.faults_active(),
        });
        let egress_queue: StageQueue<EgressBatch> = StageQueue::new(config.egress_capacity);

        let sup = Supervision {
            ctx: Arc::clone(&ctx),
            egress_queue,
            sink: Arc::new(Mutex::new(sink)),
            chaos: Arc::new(ChaosSwitch::new(&options.chaos, executors)),
            fold_state: Arc::new(FoldState {
                salvage: Mutex::new(None),
                version: AtomicU64::new(0),
            }),
            egress_state: Arc::new(EgressState {
                salvage: Mutex::new(None),
                totals: Mutex::new(EgressTotals::default()),
            }),
            counters: Arc::new(SharedCounters::default()),
            exec_salvage: (0..executors).map(|_| Arc::new(Mutex::new(None))).collect(),
            threads: config.threads,
            recover: options.recover,
        };
        let counters = Arc::clone(&sup.counters);
        let supervisor = std::thread::Builder::new()
            .name("pubsub-supervisor".into())
            .spawn(move || supervisor_loop(sup, broker, executors))
            .expect("spawn supervisor thread");

        SupervisedServer {
            handle: IngestHandle { shared },
            supervisor: Some(supervisor),
            counters,
        }
    }

    /// A transport-in handle for submitting events and control ops.
    pub fn handle(&self) -> IngestHandle {
        self.handle.clone()
    }

    /// Stage threads restarted so far.
    pub fn restarts(&self) -> u64 {
        self.counters.restarts.load(Ordering::Relaxed)
    }

    /// In-flight items salvaged and replayed across restarts so far.
    pub fn replayed_batches(&self) -> u64 {
        self.counters.replayed.load(Ordering::Relaxed)
    }

    /// Stops accepting, flushes every shard, drains the pipeline, joins
    /// the supervisor and returns the broker plus aggregate stats
    /// (including restart/replay counts).
    ///
    /// # Errors
    ///
    /// [`ServingError::Crashed`] if a stage died without a recovery
    /// path, or recovery itself failed; accepted-but-undelivered events
    /// are reported lost rather than silently dropped.
    pub fn stop(mut self) -> Result<(Broker, ServerStats), ServingError> {
        let supervisor = self
            .supervisor
            .take()
            .expect("stop consumes the only handle");
        self.close_ingest();
        let outcome = supervisor
            .join()
            .map_err(|_| ServingError::Crashed("supervisor thread panicked".into()))?
            .map_err(ServingError::Crashed)?;
        let mut broker = *outcome.broker;
        let sh = &*self.handle.shared;
        broker.merge_stage_latencies(StageKind::Egress, &outcome.totals.histo);
        sync_gauges(&mut broker, sh);
        sync_recovery(&mut broker, &self.counters);
        let stats = ServerStats {
            accepted: sh.accepted.load(Ordering::Relaxed),
            rejected: sh.rejected.load(Ordering::Relaxed),
            delivered: outcome.totals.delivered,
            failed: outcome.totals.failed,
            batches: outcome.totals.batches,
            ingest_queue_max_depth: sh.queue.max_depth() as u64,
            restarts: self.counters.restarts.load(Ordering::Relaxed),
            replayed_batches: self.counters.replayed.load(Ordering::Relaxed),
        };
        Ok((broker, stats))
    }

    /// The front half of shutdown: stop admitting, flush the shards
    /// with blocking pushes (accepted events are never dropped) and
    /// close the ingest queue.
    fn close_ingest(&mut self) {
        let sh = &*self.handle.shared;
        sh.accepting.store(false, Ordering::SeqCst);
        for shard in &sh.shards {
            let mut batcher = lock(shard);
            if !batcher.is_empty() {
                let batch = batcher.take(Instant::now());
                let _ = sh.queue.push(WorkItem::Batch(batch));
            }
        }
        sh.queue.close();
    }
}

impl Drop for SupervisedServer {
    fn drop(&mut self) {
        if let Some(supervisor) = self.supervisor.take() {
            self.close_ingest();
            let _ = supervisor.join();
        }
    }
}

fn supervisor_loop(
    mut sup: Supervision,
    broker: Broker,
    executors: usize,
) -> Result<SupervisorOutcome, String> {
    let mut exec_handles: Vec<Option<JoinHandle<bool>>> = (0..executors)
        .map(|i| {
            Some(spawn_executor(
                &sup.ctx,
                &sup.chaos,
                i,
                &sup.exec_salvage[i],
                None,
            ))
        })
        .collect();
    let mut fold_handle = Some(spawn_fold(&sup, broker));
    let mut egress_handle = Some(spawn_egress(&sup));
    let mut finished_broker: Option<Box<Broker>> = None;
    let mut window_closed = false;

    loop {
        // The fold first: restarting it is what unblocks executors
        // parked on the window or the version cell, so it must never
        // wait behind another stage's bookkeeping.
        if fold_handle.as_ref().is_some_and(JoinHandle::is_finished) {
            let exit = fold_handle
                .take()
                .expect("checked above")
                .join()
                .unwrap_or(FoldExit::Crashed);
            match exit {
                FoldExit::Finished(broker) => finished_broker = Some(broker),
                FoldExit::Crashed => {
                    sup.counters.restarts.fetch_add(1, Ordering::Relaxed);
                    if lock(&sup.fold_state.salvage).is_some() {
                        sup.counters.replayed.fetch_add(1, Ordering::Relaxed);
                    }
                    let Some(recover) = sup.recover.as_mut() else {
                        abandon(&sup);
                        return Err("fold stage died and no RecoverFn was configured".into());
                    };
                    let mut broker = match recover() {
                        Ok(broker) => broker,
                        Err(e) => {
                            abandon(&sup);
                            return Err(format!("fold recovery failed: {e}"));
                        }
                    };
                    // Swap the rebuilt view in under the *same* version:
                    // executors stamped with it must neither hang nor
                    // observe a version they were not promised.
                    let version = sup.fold_state.version.load(Ordering::SeqCst);
                    sup.ctx
                        .cell
                        .republish(version, Arc::new(broker.publish_view()));
                    fold_handle = Some(spawn_fold(&sup, broker));
                }
            }
        }
        for (i, slot) in exec_handles.iter_mut().enumerate() {
            if slot.as_ref().is_some_and(JoinHandle::is_finished) {
                let clean = slot.take().expect("checked above").join().unwrap_or(false);
                if !clean {
                    sup.counters.restarts.fetch_add(1, Ordering::Relaxed);
                    let preload = lock(&sup.exec_salvage[i]).take();
                    if preload.is_some() {
                        sup.counters.replayed.fetch_add(1, Ordering::Relaxed);
                    }
                    // The *replacement* pushes the salvaged ticket (its
                    // first act), so the supervisor itself never blocks
                    // on a window the fold might currently not drain.
                    *slot = Some(spawn_executor(
                        &sup.ctx,
                        &sup.chaos,
                        i,
                        &sup.exec_salvage[i],
                        preload,
                    ));
                }
            }
        }
        // Executors exit cleanly only once the ingest queue is closed
        // and drained; the window may close only after the last of them
        // is gone (a straggler's push would be dropped behind a gap).
        if !window_closed && exec_handles.iter().all(Option::is_none) {
            sup.ctx.window.close();
            window_closed = true;
        }
        if egress_handle.as_ref().is_some_and(JoinHandle::is_finished) {
            let clean = egress_handle
                .take()
                .expect("checked above")
                .join()
                .unwrap_or(false);
            if !clean {
                sup.counters.restarts.fetch_add(1, Ordering::Relaxed);
                if lock(&sup.egress_state.salvage).is_some() {
                    sup.counters.replayed.fetch_add(1, Ordering::Relaxed);
                }
                egress_handle = Some(spawn_egress(&sup));
            }
        }
        if window_closed && fold_handle.is_none() && egress_handle.is_none() {
            if let Some(broker) = finished_broker.take() {
                let totals = std::mem::take(&mut *lock(&sup.egress_state.totals));
                return Ok(SupervisorOutcome { broker, totals });
            }
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Last-resort teardown when the fold cannot be rebuilt: wake and
/// retire every blocked stage thread so nothing leaks. Executors parked
/// on the version cell see a version bump they never expected and bail
/// through their own unwind path; producers parked on the window or
/// queue see them closed.
fn abandon(sup: &Supervision) {
    sup.ctx.ingest.queue.close();
    let (version, view) = sup.ctx.cell.current();
    sup.ctx.cell.publish(version + 1, view);
    sup.ctx.window.close();
    sup.egress_queue.close();
}

fn spawn_executor(
    ctx: &Arc<ExecShared>,
    chaos: &Arc<ChaosSwitch>,
    index: usize,
    salvage: &ExecSalvage,
    preload: Option<(u64, Staged)>,
) -> JoinHandle<bool> {
    let ctx = Arc::clone(ctx);
    let chaos = Arc::clone(chaos);
    let salvage = Arc::clone(salvage);
    std::thread::Builder::new()
        .name(format!("pubsub-exec-{index}"))
        .spawn(move || {
            catch_unwind(AssertUnwindSafe(|| {
                if let Some((ticket, staged)) = preload {
                    let _ = ctx.window.push(ticket, staged);
                }
                supervised_executor_body(&ctx, &chaos, index, &salvage)
            }))
            .is_ok()
        })
        .expect("spawn executor thread")
}

/// The supervised executor loop: the same [`dispatch`] and pass as the
/// unsupervised one, with the popped item parked in the salvage slot
/// across the whole crash window (chaos tick + view pass) so a death
/// never leaves the sequence window with a permanent gap.
fn supervised_executor_body(
    ctx: &ExecShared,
    chaos: &ChaosSwitch,
    index: usize,
    salvage: &Mutex<Option<(u64, Staged)>>,
) {
    while let Some((ticket, popped)) = dispatch(ctx) {
        match popped {
            Popped::Control(op) => {
                // Handed to the window before the crash point: a control
                // op is never in executor-side flight.
                let _ = ctx.window.push(ticket, Staged::Control(op));
                chaos.executor_tick(index);
            }
            Popped::Batch(batch, version) => {
                let dequeued = Instant::now();
                *lock(salvage) = Some((ticket, Staged::Raw { batch, dequeued }));
                chaos.executor_tick(index);
                // Run the read-only pass against the batch *in the
                // slot*: a panic anywhere in here (including inside the
                // engine pass) leaves the raw batch salvageable.
                let processed = {
                    let guard = lock(salvage);
                    let Some((_, Staged::Raw { batch, .. })) = guard.as_ref() else {
                        unreachable!("salvage slot holds the popped batch");
                    };
                    run_pass(ctx, batch, version)
                };
                let (ticket, staged) = lock(salvage).take().expect("slot still full");
                let staged = match (processed, staged) {
                    (Some((scratch, epoch)), Staged::Raw { batch, dequeued }) => {
                        Staged::Processed {
                            batch,
                            scratch,
                            epoch,
                            dequeued,
                        }
                    }
                    (None, raw) => raw,
                    (Some(_), _) => unreachable!("slot was filled with a raw batch"),
                };
                let _ = ctx.window.push(ticket, staged);
            }
        }
    }
}

fn spawn_fold(sup: &Supervision, broker: Broker) -> JoinHandle<FoldExit> {
    let ctx = Arc::clone(&sup.ctx);
    let egress = sup.egress_queue.clone();
    let chaos = Arc::clone(&sup.chaos);
    let fold_state = Arc::clone(&sup.fold_state);
    let counters = Arc::clone(&sup.counters);
    let threads = sup.threads;
    std::thread::Builder::new()
        .name("pubsub-fold".into())
        .spawn(move || {
            match catch_unwind(AssertUnwindSafe(|| {
                supervised_fold_body(
                    broker,
                    &ctx,
                    &egress,
                    threads,
                    &chaos,
                    &fold_state,
                    &counters,
                )
            })) {
                Ok(broker) => FoldExit::Finished(Box::new(broker)),
                Err(_) => FoldExit::Crashed,
            }
        })
        .expect("spawn fold thread")
}

/// The supervised fold: same in-order fold as the unsupervised server,
/// except that (a) every window item is parked in the fold salvage slot
/// while its effects are applied, (b) the published-version counter
/// lives in [`FoldState`] so a successor resumes where this incarnation
/// stopped, and (c) a batch whose pre-computed pass ran under a view
/// this (possibly recovered) broker no longer has is reprocessed
/// fold-side instead of asserting epoch equality.
fn supervised_fold_body(
    mut broker: Broker,
    ctx: &ExecShared,
    egress: &StageQueue<EgressBatch>,
    threads: Option<usize>,
    chaos: &ChaosSwitch,
    fold_state: &FoldState,
    counters: &SharedCounters,
) -> Broker {
    let mut version = fold_state.version.load(Ordering::SeqCst);
    let mut outcomes = Vec::new();
    loop {
        // A salvaged item from a dead predecessor replays first; only
        // then does this incarnation pop (and tick the chaos clock) on
        // its own account.
        if lock(&fold_state.salvage).is_none() {
            match ctx.window.pop_next() {
                Some((_ticket, staged)) => {
                    *lock(&fold_state.salvage) = Some(staged);
                    chaos.fold_tick();
                }
                None => break,
            }
        }
        let mut guard = lock(&fold_state.salvage);
        match guard.as_mut().expect("slot filled above") {
            Staged::Control(_) => {
                let Some(Staged::Control(op)) = guard.take() else {
                    unreachable!("matched above");
                };
                drop(guard);
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
                        sync_recovery(&mut broker, counters);
                        let _ = tx.send(broker.metrics_snapshot());
                    }
                }
                if bumps {
                    version += 1;
                    fold_state.version.store(version, Ordering::SeqCst);
                    ctx.cell.publish(version, Arc::new(broker.publish_view()));
                }
            }
            _ => {
                let (results, epoch, folded) = {
                    let staged = guard.as_mut().expect("slot filled above");
                    match staged {
                        Staged::Processed {
                            batch,
                            scratch,
                            epoch,
                            dequeued,
                        } if *epoch == broker.epoch() => {
                            note_ingest_ref(&mut broker, batch, *dequeued);
                            outcomes.clear();
                            broker.fold_staged(batch.len(), *epoch, scratch, &mut outcomes);
                            let folded = Instant::now();
                            broker.note_stage_latency(
                                StageKind::Pipeline,
                                nanos(folded.saturating_duration_since(*dequeued)),
                            );
                            (
                                outcomes.drain(..).map(Ok).collect::<Vec<_>>(),
                                *epoch,
                                folded,
                            )
                        }
                        // Stale pre-computed pass (the view predates a
                        // fold recovery) or a raw batch: the broker
                        // reprocesses it here, deterministically.
                        Staged::Processed {
                            batch, dequeued, ..
                        }
                        | Staged::Raw { batch, dequeued } => {
                            let dequeued = *dequeued;
                            note_ingest_ref(&mut broker, batch, dequeued);
                            let (results, epoch) = process(&mut broker, &batch.points, threads);
                            let folded = Instant::now();
                            broker.note_stage_latency(
                                StageKind::Pipeline,
                                nanos(folded.saturating_duration_since(dequeued)),
                            );
                            (results, epoch, folded)
                        }
                        Staged::Control(_) => unreachable!("matched above"),
                    }
                };
                // Effects are fully in the broker: the item leaves the
                // crash window and its batch moves on to egress.
                let staged = guard.take().expect("slot still full");
                drop(guard);
                let (batch, scratch, dequeued) = match staged {
                    Staged::Processed {
                        batch,
                        scratch,
                        dequeued,
                        ..
                    } => (batch, Some(scratch), dequeued),
                    Staged::Raw { batch, dequeued } => (batch, None, dequeued),
                    Staged::Control(_) => unreachable!("matched above"),
                };
                if let Some(scratch) = scratch {
                    lock(&ctx.scratch_pool).push(scratch);
                }
                forward(egress, batch, results, epoch, dequeued, folded);
            }
        }
    }
    egress.close();
    broker
}

/// [`note_ingest`](crate::server::note_ingest) driven from a borrowed
/// batch (the fold holds items in the salvage slot, so it cannot move
/// the meta out before the effects are applied).
fn note_ingest_ref(broker: &mut Broker, batch: &crate::batcher::EventBatch, dequeued: Instant) {
    crate::server::note_ingest(broker, &batch.meta, batch.enqueued, dequeued);
}

fn spawn_egress(sup: &Supervision) -> JoinHandle<bool> {
    let queue = sup.egress_queue.clone();
    let sink = Arc::clone(&sup.sink);
    let chaos = Arc::clone(&sup.chaos);
    let state = Arc::clone(&sup.egress_state);
    std::thread::Builder::new()
        .name("pubsub-egress".into())
        .spawn(move || {
            catch_unwind(AssertUnwindSafe(|| {
                supervised_egress_body(&queue, &sink, &chaos, &state)
            }))
            .is_ok()
        })
        .expect("spawn egress thread")
}

/// The supervised egress loop: the in-flight batch and its emitted-so-
/// far count live in the salvage slot, so a replacement resumes at the
/// exact record where its predecessor died — no dropped records, no
/// duplicates (unless the sink itself panicked mid-record).
fn supervised_egress_body(
    queue: &StageQueue<EgressBatch>,
    sink: &Mutex<Box<dyn DeliverySink>>,
    chaos: &ChaosSwitch,
    state: &EgressState,
) {
    loop {
        if lock(&state.salvage).is_none() {
            match queue.pop() {
                Some(batch) => *lock(&state.salvage) = Some((batch, 0)),
                None => return,
            }
        }
        let started = Instant::now();
        loop {
            let mut guard = lock(&state.salvage);
            let (batch, emitted) = guard.as_mut().expect("slot filled above");
            debug_assert_eq!(batch.meta.len(), batch.results.len());
            if *emitted >= batch.meta.len() {
                guard.take();
                drop(guard);
                let mut totals = lock(&state.totals);
                totals.histo.record(nanos(started.elapsed()));
                totals.batches += 1;
                break;
            }
            let index = *emitted;
            chaos.egress_tick();
            let event = batch.meta[index];
            let outcome = batch.results[index].clone();
            let delivered = outcome.is_ok();
            let now = Instant::now();
            lock(sink).on_record(EventRecord {
                client: event.client,
                seq: event.seq,
                epoch: batch.epoch,
                outcome,
                latency_ns: nanos(now.saturating_duration_since(event.scheduled)),
                ingest_ns: nanos(batch.dequeued.saturating_duration_since(event.submitted)),
                pipeline_ns: nanos(batch.folded.saturating_duration_since(batch.dequeued)),
                egress_ns: nanos(now.saturating_duration_since(batch.folded)),
            });
            *emitted += 1;
            drop(guard);
            let mut totals = lock(&state.totals);
            if delivered {
                totals.delivered += 1;
            } else {
                totals.failed += 1;
            }
        }
    }
}
