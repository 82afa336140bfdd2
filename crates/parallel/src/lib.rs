//! Deterministic data-parallel primitives: a persistent worker pool and
//! block-cyclic batch assignment.
//!
//! The batched publish pipeline needs two properties at once: results
//! **in input order** regardless of how many workers ran or how the OS
//! scheduled them, and **no per-batch setup cost** (the previous
//! implementation spawned fresh `std::thread::scope` threads per batch,
//! which made the parallel path *slower* than the single-threaded flat
//! matcher). The external `rayon` crate is unavailable in this build
//! environment, so this crate implements the primitives directly:
//!
//! * [`WorkerPool`] — long-lived threads parked on a condvar, woken by a
//!   generation counter, running a borrowed job closure with no per-batch
//!   allocation (the closure is passed by reference, never boxed).
//! * **Block-cyclic assignment** ([`block_ranges`]) — the input is cut
//!   into fixed [`BLOCK`]-sized blocks and block `b` belongs to worker
//!   `b % workers`. Every worker writes its results at the items' global
//!   indices, so the output is independent of the worker count *by
//!   construction*, and interleaving blocks keeps the load balanced even
//!   when cost varies along the event stream (one contiguous chunk per
//!   worker would stall the whole batch on the slowest region).
//! * [`PipelineScratch`] — per-worker state constructed once and reused
//!   across batches (match scratch, cost scratch, result arenas), handed
//!   to the job exclusively via [`WorkerPool::pipeline`].
//! * [`StageQueue`] — the bounded hand-off between pipeline stages of
//!   the staged (async) serving path: a multi-producer multi-consumer
//!   queue whose [`StageQueue::try_push`] is the admission-control
//!   primitive (a full queue is an *explicit reject*, never a block),
//!   with depth gauges for the serving metrics.
//!
//! # Fault containment
//!
//! A panicking job must not take down unrelated work sharing the pool.
//! Three layers enforce that:
//!
//! * every lock acquisition recovers from poisoning
//!   (`unwrap_or_else(|e| e.into_inner())`) — the pool state is
//!   consistent at every unlock point, so a panic elsewhere must not
//!   wedge other brokers sharing the pool;
//! * [`WorkerPool::try_run`] / [`WorkerPool::try_pipeline`] report *which*
//!   workers panicked instead of panicking themselves, and `try_pipeline`
//!   quarantines exactly those workers' blocks and recomputes them inline
//!   on the caller's thread (a [`PipelineScratch::begin_batch`] reset
//!   makes the retry bit-identical to a clean run);
//! * dropping the pool first drains any job still in flight — workers
//!   prioritize a dispatched generation over shutdown — so a caller
//!   blocked in [`WorkerPool::run`] is never stranded waiting for
//!   `active` to reach zero.

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

use std::mem::{ManuallyDrop, MaybeUninit};
use std::num::NonZeroUsize;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

/// Fixed block size of the block-cyclic assignment. Small enough to
/// balance load across workers on realistic batches, large enough that a
/// block's results stay cache-resident through a fused
/// match → cost → decide pass.
pub const BLOCK: usize = 64;

/// Resolves a requested worker count: `None` (or `Some(0)`) means "use
/// available parallelism", anything else is taken as given. Always ≥ 1.
pub fn effective_threads(requested: Option<usize>) -> usize {
    match requested {
        Some(n) if n > 0 => n,
        _ => std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1),
    }
}

/// Locks with poison recovery: the pool invariants hold at every unlock
/// point, so a poisoned mutex (a caller unwound while holding the guard)
/// still guards consistent state and must not wedge unrelated brokers
/// sharing the pool.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

/// [`Condvar::wait`] with the same poison recovery as [`lock`].
fn cv_wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(|e| e.into_inner())
}

/// The block-cyclic index ranges owned by one worker: blocks `worker`,
/// `worker + workers`, `worker + 2·workers`, … of `len` items, each range
/// [`BLOCK`] long except possibly the globally last. Ranges are yielded
/// in ascending index order.
#[derive(Clone, Debug)]
pub struct BlockRanges {
    len: usize,
    next: usize,
    stride: usize,
}

impl Iterator for BlockRanges {
    type Item = Range<usize>;

    fn next(&mut self) -> Option<Range<usize>> {
        if self.next >= self.len {
            return None;
        }
        let start = self.next;
        self.next = self.next.saturating_add(self.stride);
        Some(start..(start + BLOCK).min(self.len))
    }
}

/// The ranges of `0..len` assigned to `worker` out of `workers` under the
/// block-cyclic scheme. The ranges of all workers partition `0..len`.
///
/// # Panics
///
/// Panics if `worker >= workers` or `workers == 0`.
pub fn block_ranges(len: usize, workers: usize, worker: usize) -> BlockRanges {
    assert!(worker < workers, "worker {worker} out of {workers}");
    BlockRanges {
        len,
        next: worker * BLOCK,
        stride: workers * BLOCK,
    }
}

/// A raw pointer that may cross thread boundaries. Safety is the
/// caller's: every use here hands each worker a disjoint region.
struct SendPtr<T>(*mut T);

unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}

impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}

/// Maps `f` over `items` on up to `threads` scoped worker threads, giving
/// each worker its own scratch built by `make_scratch`. Results come back
/// in input order.
///
/// Work is dealt in block-cyclic fashion ([`block_ranges`]) and every
/// worker writes each result directly at its item's global index, so the
/// output is identical to a sequential `items.iter().map(f)` for any
/// thread count — and no worker is stuck with one contiguous "expensive"
/// region of the input.
///
/// A worker that panics is quarantined: its blocks are recomputed inline
/// on the caller's thread with a fresh scratch (results its panicked run
/// already produced are overwritten without being dropped, so they may
/// leak — acceptable on the panic path, never unsound). The panic only
/// propagates if the inline retry panics too.
///
/// With `threads <= 1` (or a short input) the map runs inline on the
/// caller's thread — same code path, no spawn overhead. For repeated
/// batches prefer a persistent [`WorkerPool`]; this function still spawns
/// per call.
pub fn map_with_scratch<T, U, S, MS, F>(
    items: &[T],
    threads: usize,
    make_scratch: MS,
    f: F,
) -> Vec<U>
where
    T: Sync,
    U: Send,
    MS: Fn() -> S + Sync,
    F: Fn(&T, &mut S) -> U + Sync,
{
    let workers = threads.max(1).min(items.len().max(1));
    if workers == 1 || items.len() <= BLOCK {
        let mut scratch = make_scratch();
        return items.iter().map(|item| f(item, &mut scratch)).collect();
    }

    let len = items.len();
    let mut out: Vec<MaybeUninit<U>> = Vec::with_capacity(len);
    // SAFETY: MaybeUninit needs no initialization.
    unsafe { out.set_len(len) };
    let out_ptr = SendPtr(out.as_mut_ptr());
    let (f, make_scratch) = (&f, &make_scratch);
    let panicked: Vec<AtomicBool> = (0..workers).map(|_| AtomicBool::new(false)).collect();
    let panicked = &panicked;
    std::thread::scope(|scope| {
        for (w, worker_panicked) in panicked.iter().enumerate() {
            scope.spawn(move || {
                // Bind the whole wrapper so closure capture analysis
                // doesn't reach through to the raw pointer field.
                let out_ptr = out_ptr;
                let result = catch_unwind(AssertUnwindSafe(|| {
                    let mut scratch = make_scratch();
                    for range in block_ranges(len, workers, w) {
                        for i in range {
                            let value = f(&items[i], &mut scratch);
                            // SAFETY: block ranges partition 0..len, so
                            // index i is written exactly once, by this
                            // worker (or by its inline retry below, which
                            // only starts after this worker is done).
                            unsafe { (*out_ptr.0.add(i)).write(value) };
                        }
                    }
                }));
                if result.is_err() {
                    worker_panicked.store(true, Ordering::Release);
                }
            });
        }
    });
    // Quarantine + inline retry: recompute panicked workers' blocks from
    // a fresh scratch. Slots their panicked run already wrote are simply
    // overwritten (the old value leaks rather than being dropped — a
    // MaybeUninit slot's initialization state is unknowable here).
    for (w, worker_panicked) in panicked.iter().enumerate() {
        if !worker_panicked.load(Ordering::Acquire) {
            continue;
        }
        let mut scratch = make_scratch();
        for range in block_ranges(len, workers, w) {
            for i in range {
                let value = f(&items[i], &mut scratch);
                // SAFETY: i belongs to worker w, which has exited.
                unsafe { (*out_ptr.0.add(i)).write(value) };
            }
        }
    }
    // SAFETY: every index was written exactly once by its owning worker,
    // or rewritten by the inline retry after that worker exited.
    // Vec<MaybeUninit<U>> and Vec<U> share layout.
    let mut out = ManuallyDrop::new(out);
    unsafe { Vec::from_raw_parts(out.as_mut_ptr().cast::<U>(), len, out.capacity()) }
}

/// [`map_with_scratch`] without scratch state.
pub fn map<T, U, F>(items: &[T], threads: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    map_with_scratch(items, threads, || (), |item, _scratch| f(item))
}

/// Per-worker state reused across batches by [`WorkerPool::pipeline`]:
/// scratch buffers, result arenas — anything a fused pipeline stage wants
/// to construct once and keep warm.
pub trait PipelineScratch: Send {
    /// Called on each participating worker's state at the start of every
    /// batch (before any work item), e.g. to reset result arenas while
    /// keeping their capacity. A correct implementation must erase *all*
    /// traces of prior batches: the quarantine path relies on
    /// `begin_batch` alone making an inline retry bit-identical to a
    /// clean run.
    fn begin_batch(&mut self);
}

/// A borrowed job: erased pointer to a `Fn(usize) + Sync` closure on the
/// caller's stack. Valid only while the caller blocks in
/// [`WorkerPool::run`], which it does by construction.
#[derive(Clone, Copy)]
struct Job(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is Sync and the caller keeps it alive (and itself
// blocked) until every worker is done with it.
unsafe impl Send for Job {}

struct PoolState {
    job: Option<Job>,
    /// Bumped once per dispatched job; workers detect new work by
    /// comparing against the last generation they acknowledged.
    generation: u64,
    /// Workers participating in the current generation (`0..limit`).
    limit: usize,
    /// Participating workers that have not finished the current job yet.
    active: usize,
    shutdown: bool,
    /// Indices of workers whose job panicked in the current generation.
    panicked: Vec<usize>,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Workers wait here for a new generation (or shutdown).
    work: Condvar,
    /// The caller waits here for `active == 0`.
    done: Condvar,
}

/// A persistent, deterministic worker pool: `threads` long-lived threads
/// parked on a condvar, woken per batch by a generation counter. Jobs are
/// plain `Fn(usize)` closures passed **by reference** (no boxing, no
/// per-batch allocation); [`WorkerPool::run`] blocks until every
/// participating worker has finished, so the closure may borrow freely
/// from the caller's stack.
///
/// Determinism is not the pool's concern — it dispatches worker *indices*
/// — but combined with [`block_ranges`] output order holds by
/// construction: worker `w` always owns the same global indices.
///
/// Dropping the pool drains any in-flight job, shuts the threads down and
/// joins them.
///
/// # Example
///
/// ```
/// use std::sync::atomic::{AtomicUsize, Ordering};
/// let pool = pubsub_parallel::WorkerPool::new(4);
/// let hits = AtomicUsize::new(0);
/// pool.run(3, |w| {
///     hits.fetch_add(w + 1, Ordering::Relaxed);
/// });
/// assert_eq!(hits.load(Ordering::Relaxed), 1 + 2 + 3);
/// ```
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.handles.len())
            .finish_non_exhaustive()
    }
}

/// Outcome of [`WorkerPool::try_pipeline`]: how many workers took part,
/// and how many had to be quarantined (their pool job panicked and their
/// blocks were recomputed inline on the caller's thread).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PipelineRun {
    /// Workers that participated in the batch (1 for the inline path).
    pub workers: usize,
    /// Workers whose job panicked and whose blocks were retried inline.
    /// Zero on a clean batch.
    pub quarantined: usize,
}

impl WorkerPool {
    /// Spawns a pool of `threads` workers (at least one).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                job: None,
                generation: 0,
                limit: 0,
                active: 0,
                shutdown: false,
                panicked: Vec::new(),
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let handles = (0..threads)
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("pubsub-worker-{index}"))
                    .spawn(move || worker_loop(&shared, index))
                    .expect("spawning pool worker")
            })
            .collect();
        WorkerPool { shared, handles }
    }

    /// Number of worker threads in the pool.
    pub fn threads(&self) -> usize {
        self.handles.len()
    }

    /// Runs `job(w)` for every worker index `w in 0..workers` and blocks
    /// until all of them finish. `workers` is clamped to the pool size;
    /// with one worker the job runs inline on the caller's thread.
    /// Concurrent callers are serialized (whole jobs never interleave),
    /// so one pool can be shared by several brokers.
    ///
    /// # Panics
    ///
    /// Panics if any worker's job panicked (after all workers of the
    /// batch have finished, so the pool stays usable). Use
    /// [`WorkerPool::try_run`] to observe panics without propagating.
    pub fn run(&self, workers: usize, job: impl Fn(usize) + Sync) {
        let panicked = self.try_run(workers, job);
        assert!(panicked.is_empty(), "worker pool job panicked");
    }

    /// [`WorkerPool::run`] that reports instead of panicking: returns the
    /// indices of workers whose job panicked, in ascending order (empty
    /// means a clean batch). The pool stays fully usable either way.
    ///
    /// On the single-worker inline path the job runs on the caller's own
    /// thread, so a panic there propagates directly.
    pub fn try_run(&self, workers: usize, job: impl Fn(usize) + Sync) -> Vec<usize> {
        let workers = workers.clamp(1, self.threads());
        if workers == 1 {
            job(0);
            return Vec::new();
        }
        let job_ref: *const (dyn Fn(usize) + Sync + '_) = &job;
        // SAFETY (lifetime erasure + later dereference): the pointer is
        // only dereferenced by workers of the generation dispatched
        // below, and this function does not return until all of them are
        // done with it, so the erased borrow outlives every use.
        let job_ptr = Job(unsafe {
            std::mem::transmute::<
                *const (dyn Fn(usize) + Sync + '_),
                *const (dyn Fn(usize) + Sync + 'static),
            >(job_ref)
        });
        let mut st = lock(&self.shared.state);
        while st.active != 0 {
            st = cv_wait(&self.shared.done, st);
        }
        st.job = Some(job_ptr);
        st.limit = workers;
        st.active = workers;
        st.generation += 1;
        st.panicked.clear();
        drop(st);
        self.shared.work.notify_all();
        let mut st = lock(&self.shared.state);
        while st.active != 0 {
            st = cv_wait(&self.shared.done, st);
        }
        st.job = None;
        let mut panicked = std::mem::take(&mut st.panicked);
        drop(st);
        // Wake any caller queued behind us in the serialization loop.
        self.shared.done.notify_all();
        panicked.sort_unstable();
        panicked
    }

    /// Runs a fused pipeline over `len` items: worker `w` gets exclusive
    /// access to `states[w]` (reset via [`PipelineScratch::begin_batch`])
    /// and its block-cyclic ranges ([`block_ranges`]). Returns the number
    /// of workers actually used — `workers` clamped to the pool size and
    /// `states.len()`, or 1 when the batch is at most one block (the job
    /// then runs inline with worker 0's state and ranges).
    ///
    /// A worker that panics is quarantined and its blocks recomputed
    /// inline; see [`WorkerPool::try_pipeline`], which this forwards to.
    ///
    /// # Panics
    ///
    /// Panics if `states` is empty, or if a quarantined worker's inline
    /// retry panics again.
    pub fn pipeline<S, F>(&self, workers: usize, states: &mut [S], len: usize, f: F) -> usize
    where
        S: PipelineScratch,
        F: Fn(usize, &mut S, BlockRanges) + Sync,
    {
        self.try_pipeline(workers, states, len, f).workers
    }

    /// [`WorkerPool::pipeline`] with fault containment made visible: a
    /// worker whose job panics is *quarantined* — only that worker's
    /// blocks are affected, and they are recomputed inline on the
    /// caller's thread after a fresh [`PipelineScratch::begin_batch`]
    /// reset, so the batch output is bit-identical to a run where the
    /// panic never happened. [`PipelineRun::quarantined`] reports how
    /// many workers needed that treatment.
    ///
    /// # Panics
    ///
    /// Panics if `states` is empty, or if an inline retry panics (a
    /// deterministic panic in `f` cannot be retried away).
    pub fn try_pipeline<S, F>(
        &self,
        workers: usize,
        states: &mut [S],
        len: usize,
        f: F,
    ) -> PipelineRun
    where
        S: PipelineScratch,
        F: Fn(usize, &mut S, BlockRanges) + Sync,
    {
        assert!(!states.is_empty(), "pipeline needs at least one state");
        let workers = workers.clamp(1, self.threads()).min(states.len());
        if workers == 1 || len <= BLOCK {
            pipeline_inline(&mut states[0], len, f);
            return PipelineRun {
                workers: 1,
                quarantined: 0,
            };
        }
        let ptr = SendPtr(states.as_mut_ptr());
        let panicked = self.try_run(workers, |w| {
            // Bind the whole wrapper so closure capture analysis doesn't
            // reach through to the raw pointer field.
            let ptr = &ptr;
            // SAFETY: run() invokes each worker index exactly once per
            // batch and w < workers <= states.len(), so the &mut regions
            // are disjoint.
            let state = unsafe { &mut *ptr.0.add(w) };
            state.begin_batch();
            f(w, state, block_ranges(len, workers, w));
        });
        for &w in &panicked {
            // Quarantine: the worker's state may hold a half-written
            // batch; begin_batch erases it and the retry recomputes
            // exactly the blocks that worker owned.
            let state = &mut states[w];
            state.begin_batch();
            f(w, state, block_ranges(len, workers, w));
        }
        PipelineRun {
            workers,
            quarantined: panicked.len(),
        }
    }
}

/// The single-worker pipeline fast path: runs the whole batch inline on
/// the caller's thread with worker index 0 — bit-identical to
/// [`WorkerPool::pipeline`] with any worker count, no pool required.
pub fn pipeline_inline<S, F>(state: &mut S, len: usize, f: F)
where
    S: PipelineScratch,
    F: Fn(usize, &mut S, BlockRanges) + Sync,
{
    state.begin_batch();
    f(0, state, block_ranges(len, 1, 0));
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        let mut st = lock(&self.shared.state);
        // Drain any job still in flight before shutting down: a
        // generation may be dispatched but not yet picked up, and a
        // caller may be blocked in `run` waiting for `active` to reach
        // zero. Exiting workers on `shutdown` alone would strand that
        // caller forever (the original drop-ordering deadlock).
        while st.active != 0 {
            self.shared.work.notify_all();
            st = cv_wait(&self.shared.done, st);
        }
        st.shutdown = true;
        drop(st);
        self.shared.work.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &PoolShared, index: usize) {
    let mut seen_generation = 0u64;
    loop {
        let job = {
            let mut st = lock(&shared.state);
            loop {
                // A dispatched generation takes priority over shutdown:
                // if the pool is dropped between a dispatch and the
                // pickup, the job must still drain (`active` must reach
                // zero) or the dispatching caller would block forever.
                if st.generation != seen_generation {
                    seen_generation = st.generation;
                    if index < st.limit {
                        break st.job.expect("job set for dispatched generation");
                    }
                    // Not participating in this generation: acknowledge
                    // it and keep waiting.
                }
                if st.shutdown {
                    return;
                }
                st = cv_wait(&shared.work, st);
            }
        };
        let result = catch_unwind(AssertUnwindSafe(|| {
            // SAFETY: the dispatching caller keeps the closure alive (and
            // itself blocked) until `active` reaches zero below.
            unsafe { (*job.0)(index) }
        }));
        let mut st = lock(&shared.state);
        if result.is_err() {
            st.panicked.push(index);
        }
        st.active -= 1;
        if st.active == 0 {
            shared.done.notify_all();
        }
    }
}

/// Why a [`StageQueue::try_push`] did not enqueue. Carries the rejected
/// item back so the producer can ack the rejection (or retry later)
/// without cloning every submission up front.
#[derive(Debug)]
pub enum PushError<T> {
    /// The queue is at capacity. This is the backpressure signal of the
    /// staged serving path: the caller must turn it into an explicit
    /// reject ack, not silently drop the item.
    Full(T),
    /// The queue was closed; no further items will ever be accepted.
    Closed(T),
}

impl<T> PushError<T> {
    /// Recovers the rejected item.
    pub fn into_inner(self) -> T {
        match self {
            PushError::Full(item) | PushError::Closed(item) => item,
        }
    }
}

/// What a [`StageQueue::pop_timeout`] came back with.
#[derive(Debug, PartialEq, Eq)]
pub enum TimedPop<T> {
    /// The oldest queued item.
    Item(T),
    /// Nothing arrived within the timeout; the queue is still open.
    TimedOut,
    /// The queue is closed and drained.
    Closed,
}

struct StageQueueState<T> {
    items: std::collections::VecDeque<T>,
    closed: bool,
    /// High-water mark of `items.len()` since construction.
    max_depth: usize,
    /// `try_push` calls rejected with [`PushError::Full`].
    rejected: u64,
}

struct StageQueueShared<T> {
    state: Mutex<StageQueueState<T>>,
    capacity: usize,
    /// Signalled when an item is pushed or the queue closes.
    not_empty: Condvar,
    /// Signalled when an item is popped or the queue closes.
    not_full: Condvar,
}

/// A bounded multi-producer multi-consumer queue decoupling the stages
/// of the serving path (transport-in → pipeline → transport-out).
///
/// Two disciplines coexist on the same queue:
///
/// * **Lossy producers** (event ingest) use [`StageQueue::try_push`]:
///   a full queue returns [`PushError::Full`] immediately — the
///   admission-control reject — and never blocks a transport thread.
/// * **Lossless producers** (control operations, internal stage-to-stage
///   hand-off) use the blocking [`StageQueue::push`], which parks until
///   space frees up; ordering relative to earlier pushes is preserved,
///   which is what carries churn/recompile barriers through the staging
///   in submission order.
///
/// Consumers block in [`StageQueue::pop`] until an item arrives or the
/// queue is both closed and drained, so shutdown is a `close()` followed
/// by the consumer naturally running dry — no sentinel items.
///
/// Cloning the handle is cheap (an `Arc` bump); all clones address the
/// same queue.
pub struct StageQueue<T> {
    shared: Arc<StageQueueShared<T>>,
}

impl<T> Clone for StageQueue<T> {
    fn clone(&self) -> Self {
        StageQueue {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> std::fmt::Debug for StageQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = lock(&self.shared.state);
        f.debug_struct("StageQueue")
            .field("capacity", &self.shared.capacity)
            .field("depth", &st.items.len())
            .field("max_depth", &st.max_depth)
            .field("rejected", &st.rejected)
            .field("closed", &st.closed)
            .finish()
    }
}

impl<T> StageQueue<T> {
    /// Creates a queue holding at most `capacity` items (minimum 1).
    pub fn new(capacity: usize) -> Self {
        StageQueue {
            shared: Arc::new(StageQueueShared {
                state: Mutex::new(StageQueueState {
                    items: std::collections::VecDeque::new(),
                    closed: false,
                    max_depth: 0,
                    rejected: 0,
                }),
                capacity: capacity.max(1),
                not_empty: Condvar::new(),
                not_full: Condvar::new(),
            }),
        }
    }

    /// Attempts to enqueue without blocking. A full queue is the
    /// backpressure signal: the item comes back in [`PushError::Full`]
    /// and the rejection counter advances, so "how often did admission
    /// control fire" is observable from [`StageQueue::rejected`].
    ///
    /// # Errors
    ///
    /// [`PushError::Full`] at capacity, [`PushError::Closed`] after
    /// [`StageQueue::close`].
    pub fn try_push(&self, item: T) -> Result<(), PushError<T>> {
        let mut st = lock(&self.shared.state);
        if st.closed {
            return Err(PushError::Closed(item));
        }
        if st.items.len() >= self.shared.capacity {
            st.rejected += 1;
            return Err(PushError::Full(item));
        }
        st.items.push_back(item);
        st.max_depth = st.max_depth.max(st.items.len());
        drop(st);
        self.shared.not_empty.notify_one();
        Ok(())
    }

    /// Enqueues, blocking while the queue is at capacity. Used by
    /// lossless producers (control operations, inter-stage hand-off)
    /// where backpressure should stall the producing stage rather than
    /// reject.
    ///
    /// # Errors
    ///
    /// Returns the item back if the queue is closed (before or while
    /// waiting).
    pub fn push(&self, item: T) -> Result<(), T> {
        let mut st = lock(&self.shared.state);
        loop {
            if st.closed {
                return Err(item);
            }
            if st.items.len() < self.shared.capacity {
                st.items.push_back(item);
                st.max_depth = st.max_depth.max(st.items.len());
                drop(st);
                self.shared.not_empty.notify_one();
                return Ok(());
            }
            st = cv_wait(&self.shared.not_full, st);
        }
    }

    /// Dequeues the oldest item, blocking until one arrives. Returns
    /// `None` once the queue is closed *and* drained — the consumer's
    /// natural shutdown signal.
    pub fn pop(&self) -> Option<T> {
        let mut st = lock(&self.shared.state);
        loop {
            if let Some(item) = st.items.pop_front() {
                drop(st);
                self.shared.not_full.notify_one();
                return Some(item);
            }
            if st.closed {
                return None;
            }
            st = cv_wait(&self.shared.not_empty, st);
        }
    }

    /// Dequeues the oldest item, blocking at most `timeout` for one to
    /// arrive — the park of a consumer that has other work to poll
    /// between waits.
    pub fn pop_timeout(&self, timeout: Duration) -> TimedPop<T> {
        let st = lock(&self.shared.state);
        let (mut st, _) = self
            .shared
            .not_empty
            .wait_timeout_while(st, timeout, |st| st.items.is_empty() && !st.closed)
            .unwrap_or_else(|e| e.into_inner());
        match st.items.pop_front() {
            Some(item) => {
                drop(st);
                self.shared.not_full.notify_one();
                TimedPop::Item(item)
            }
            None if st.closed => TimedPop::Closed,
            None => TimedPop::TimedOut,
        }
    }

    /// Dequeues the oldest item if one is ready; never blocks.
    pub fn try_pop(&self) -> Option<T> {
        let mut st = lock(&self.shared.state);
        let item = st.items.pop_front();
        if item.is_some() {
            drop(st);
            self.shared.not_full.notify_one();
        }
        item
    }

    /// Closes the queue: every later push fails, every blocked producer
    /// and consumer wakes, and consumers drain what is already queued
    /// before [`StageQueue::pop`] starts returning `None`.
    pub fn close(&self) {
        let mut st = lock(&self.shared.state);
        st.closed = true;
        drop(st);
        self.shared.not_empty.notify_all();
        self.shared.not_full.notify_all();
    }

    /// Whether [`StageQueue::close`] has been called.
    pub fn is_closed(&self) -> bool {
        lock(&self.shared.state).closed
    }

    /// Items currently queued.
    pub fn depth(&self) -> usize {
        lock(&self.shared.state).items.len()
    }

    /// High-water mark of [`StageQueue::depth`] since construction —
    /// the ingest-queue gauge the serving metrics report.
    pub fn max_depth(&self) -> usize {
        lock(&self.shared.state).max_depth
    }

    /// `try_push` calls rejected with [`PushError::Full`] so far.
    pub fn rejected(&self) -> u64 {
        lock(&self.shared.state).rejected
    }

    /// The fixed capacity.
    pub fn capacity(&self) -> usize {
        self.shared.capacity
    }
}

struct SequenceWindowState<T> {
    /// Out-of-order arrivals keyed by ticket, awaiting their turn.
    pending: std::collections::BTreeMap<u64, T>,
    /// The next ticket [`SequenceWindow::pop_next`] will release.
    next: u64,
    closed: bool,
    /// High-water mark of `pending.len()` since construction.
    max_held: usize,
}

struct SequenceWindowShared<T> {
    state: Mutex<SequenceWindowState<T>>,
    /// Maximum ticket *span* kept in flight: a push of ticket `t` parks
    /// while `t >= next + span`.
    span: u64,
    /// Signalled when an item arrives or the window closes.
    ready: Condvar,
    /// Signalled when `next` advances or the window closes.
    advanced: Condvar,
}

/// A re-ordering window between concurrent producers and one in-order
/// consumer: items tagged with a dense ticket sequence (0, 1, 2, …) go
/// in whenever their producer finishes, and come out strictly in ticket
/// order.
///
/// This is the egress-determinism seam of the concurrent pipeline
/// stage: N executors finish batches out of order, the fold stage pops
/// them back in submission order, so delivery records and the
/// f64-accumulating cost report stay bit-identical to a single-threaded
/// run.
///
/// The window is bounded by ticket **span**, not occupancy: a push of
/// ticket `t` blocks while `t >= next + span`. The producer holding
/// ticket `next` therefore *never* blocks (`span ≥ 1`), which makes the
/// window deadlock-free by induction — the consumer is always one push
/// away from progress — while still propagating backpressure: a stalled
/// consumer parks every producer more than `span` tickets ahead, which
/// in turn stops them from draining the ingest queue, which surfaces as
/// admission-control rejects at the front door.
pub struct SequenceWindow<T> {
    shared: Arc<SequenceWindowShared<T>>,
}

impl<T> Clone for SequenceWindow<T> {
    fn clone(&self) -> Self {
        SequenceWindow {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> std::fmt::Debug for SequenceWindow<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = lock(&self.shared.state);
        f.debug_struct("SequenceWindow")
            .field("span", &self.shared.span)
            .field("next", &st.next)
            .field("held", &st.pending.len())
            .field("max_held", &st.max_held)
            .field("closed", &st.closed)
            .finish()
    }
}

impl<T> SequenceWindow<T> {
    /// Creates a window releasing tickets 0, 1, 2, … in order, admitting
    /// at most `span` tickets beyond the next expected one (minimum 1).
    pub fn new(span: u64) -> Self {
        SequenceWindow {
            shared: Arc::new(SequenceWindowShared {
                state: Mutex::new(SequenceWindowState {
                    pending: std::collections::BTreeMap::new(),
                    next: 0,
                    closed: false,
                    max_held: 0,
                }),
                span: span.max(1),
                ready: Condvar::new(),
                advanced: Condvar::new(),
            }),
        }
    }

    /// Hands in the item for `ticket`, parking while the ticket is more
    /// than the span ahead of the next expected one. Each ticket must be
    /// pushed at most once.
    ///
    /// # Errors
    ///
    /// Returns the item back if the window was closed (before or while
    /// waiting).
    pub fn push(&self, ticket: u64, item: T) -> Result<(), T> {
        let mut st = lock(&self.shared.state);
        loop {
            if st.closed {
                return Err(item);
            }
            if ticket < st.next.saturating_add(self.shared.span) {
                debug_assert!(
                    ticket >= st.next && !st.pending.contains_key(&ticket),
                    "ticket {ticket} reused (next {})",
                    st.next
                );
                st.pending.insert(ticket, item);
                st.max_held = st.max_held.max(st.pending.len());
                drop(st);
                self.shared.ready.notify_all();
                return Ok(());
            }
            st = cv_wait(&self.shared.advanced, st);
        }
    }

    /// Releases the item for the next ticket in sequence, blocking until
    /// it arrives. Returns `None` once the window is closed and the next
    /// ticket is not pending — the consumer's shutdown signal. Close
    /// only after every producer has finished, or in-window items beyond
    /// a sequence gap are dropped.
    pub fn pop_next(&self) -> Option<(u64, T)> {
        let mut st = lock(&self.shared.state);
        loop {
            let ticket = st.next;
            if let Some(item) = st.pending.remove(&ticket) {
                st.next += 1;
                drop(st);
                self.shared.advanced.notify_all();
                return Some((ticket, item));
            }
            if st.closed {
                return None;
            }
            st = cv_wait(&self.shared.ready, st);
        }
    }

    /// Closes the window: blocked producers and the consumer wake, later
    /// pushes fail, and [`SequenceWindow::pop_next`] returns `None` once
    /// the in-order prefix is drained.
    pub fn close(&self) {
        let mut st = lock(&self.shared.state);
        st.closed = true;
        drop(st);
        self.shared.ready.notify_all();
        self.shared.advanced.notify_all();
    }

    /// High-water mark of simultaneously-held out-of-order items.
    pub fn max_held(&self) -> usize {
        lock(&self.shared.state).max_held
    }

    /// Removes and returns every pending item in ticket order — including
    /// items parked beyond a sequence gap — and advances the window past
    /// the highest drained ticket, waking blocked producers.
    ///
    /// This is the teardown/recovery seam: after a stage failure the
    /// supervisor drains the window to account for every in-flight batch
    /// (replaying or reporting each) instead of silently dropping the
    /// items stranded behind the gap a dead producer left.
    pub fn drain_pending(&self) -> Vec<(u64, T)> {
        let mut st = lock(&self.shared.state);
        let drained: Vec<(u64, T)> = std::mem::take(&mut st.pending).into_iter().collect();
        if let Some(&(last, _)) = drained.last() {
            st.next = st.next.max(last + 1);
        }
        drop(st);
        self.shared.advanced.notify_all();
        drained
    }
}

/// A read-mostly slot whose value advances through explicit, dense
/// versions: readers park until the version they need is published,
/// then share the value by `Arc`.
///
/// This is the epoch barrier of the concurrent pipeline stage. Each
/// batch is tagged at dispatch with the number of control operations
/// ordered before it; an executor asks the cell for exactly that
/// version of the engine's read-side state and blocks if the in-order
/// fold has not yet applied the intervening control op. Versions only
/// move forward, and only the single fold thread publishes, so "which
/// engine state does this batch see" is decided by queue order — never
/// by scheduling luck.
pub struct VersionedCell<T> {
    state: Mutex<(u64, Arc<T>)>,
    published: Condvar,
}

impl<T: std::fmt::Debug> std::fmt::Debug for VersionedCell<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = lock(&self.state);
        f.debug_struct("VersionedCell")
            .field("version", &st.0)
            .finish_non_exhaustive()
    }
}

impl<T> VersionedCell<T> {
    /// Creates the cell holding `value` at version 0.
    pub fn new(value: T) -> Self {
        VersionedCell {
            state: Mutex::new((0, Arc::new(value))),
            published: Condvar::new(),
        }
    }

    /// Publishes `value` as `version`, waking every waiting reader.
    /// Versions must strictly increase.
    pub fn publish(&self, version: u64, value: Arc<T>) {
        let mut st = lock(&self.state);
        debug_assert!(version > st.0, "version {version} published after {}", st.0);
        *st = (version, value);
        drop(st);
        self.published.notify_all();
    }

    /// The value at the newest version that is at least `version`,
    /// parking until one is published. In the serving path the wait can
    /// only ever observe `version` exactly — a later version implies a
    /// control op whose ticket the in-order fold cannot have reached
    /// while this batch is still unprocessed — but the cell itself makes
    /// no such assumption.
    pub fn wait_at_least(&self, version: u64) -> (u64, Arc<T>) {
        let mut st = lock(&self.state);
        while st.0 < version {
            st = cv_wait(&self.published, st);
        }
        (st.0, Arc::clone(&st.1))
    }

    /// Replaces the value *at the current version* without bumping it —
    /// the recovery seam. A supervisor that rebuilt the producer's state
    /// (e.g. replayed a journal after a fold crash) swaps the rebuilt
    /// view in under the same version so readers stamped with it are
    /// neither stuck nor lied to about ordering. Existing waiters were
    /// already satisfied by the old value; future reads see the
    /// replacement.
    pub fn republish(&self, version: u64, value: Arc<T>) {
        let mut st = lock(&self.state);
        assert_eq!(
            version, st.0,
            "republish must target the current version (got {version}, at {})",
            st.0
        );
        st.1 = value;
        drop(st);
        self.published.notify_all();
    }

    /// The newest version and value, without waiting.
    pub fn current(&self) -> (u64, Arc<T>) {
        let st = lock(&self.state);
        (st.0, Arc::clone(&st.1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn preserves_input_order_for_any_thread_count() {
        let items: Vec<u64> = (0..1000).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        for threads in [1, 2, 3, 7, 16, 1000, 5000] {
            let got = map(&items, threads, |x| x * 3 + 1);
            assert_eq!(got, expected, "threads={threads}");
        }
    }

    #[test]
    fn map_handles_non_copy_results() {
        let items: Vec<u32> = (0..500).collect();
        let expected: Vec<String> = items.iter().map(|x| format!("#{x}")).collect();
        for threads in [1, 3, 8] {
            assert_eq!(map(&items, threads, |x| format!("#{x}")), expected);
        }
    }

    #[test]
    fn scratch_is_per_worker() {
        let items: Vec<usize> = (0..256).collect();
        let got = map_with_scratch(&items, 4, Vec::<usize>::new, |item, scratch| {
            scratch.push(*item);
            // A worker only ever sees its own, in-order scratch.
            assert!(scratch.windows(2).all(|w| w[0] < w[1]));
            *item
        });
        assert_eq!(got, items);
    }

    #[test]
    fn map_survives_a_worker_panic() {
        let items: Vec<u64> = (0..700).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * 5).collect();
        let armed = AtomicBool::new(true);
        let got = map_with_scratch(
            &items,
            4,
            || (),
            |item, _scratch| {
                // One transient panic partway through a worker's blocks.
                if *item == 130 && armed.swap(false, Ordering::SeqCst) {
                    panic!("injected map fault");
                }
                *item * 5
            },
        );
        assert_eq!(got, expected);
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(map(&empty, 8, |x| *x).is_empty());
        assert_eq!(map(&[5u32], 8, |x| x + 1), vec![6]);
    }

    #[test]
    fn effective_threads_floor_is_one() {
        assert!(effective_threads(None) >= 1);
        assert!(effective_threads(Some(0)) >= 1);
        assert_eq!(effective_threads(Some(3)), 3);
    }

    #[test]
    fn block_ranges_partition_in_order() {
        for len in [0usize, 1, 63, 64, 65, 128, 1000, 4096 + 17] {
            for workers in [1usize, 2, 3, 7, 64] {
                let mut covered = vec![false; len];
                for w in 0..workers {
                    let mut prev_end = None;
                    for range in block_ranges(len, workers, w) {
                        assert!(range.end <= len);
                        assert!(
                            range.len() == BLOCK || range.end == len,
                            "only the last block may be partial"
                        );
                        if let Some(end) = prev_end {
                            assert!(range.start >= end, "ranges ascend per worker");
                        }
                        prev_end = Some(range.end);
                        for i in range {
                            assert!(!covered[i], "index {i} covered twice");
                            covered[i] = true;
                        }
                    }
                }
                assert!(covered.iter().all(|&c| c), "len={len} workers={workers}");
            }
        }
    }

    #[test]
    fn pool_runs_every_index_exactly_once() {
        let pool = WorkerPool::new(4);
        for workers in [2, 3, 4, 9] {
            let hits: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
            pool.run(workers, |w| {
                hits[w].fetch_add(1, Ordering::Relaxed);
            });
            let expected = workers.min(4);
            for (w, h) in hits.iter().enumerate() {
                let want = usize::from(w < expected);
                assert_eq!(h.load(Ordering::Relaxed), want, "worker {w}");
            }
        }
    }

    #[test]
    fn pool_reuses_workers_across_batches() {
        let pool = WorkerPool::new(3);
        let total = AtomicUsize::new(0);
        for _ in 0..100 {
            pool.run(3, |_w| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(total.load(Ordering::Relaxed), 300);
    }

    struct SumState {
        batches: usize,
        sum: u64,
    }

    impl PipelineScratch for SumState {
        fn begin_batch(&mut self) {
            self.batches += 1;
            self.sum = 0;
        }
    }

    #[test]
    fn pipeline_matches_sequential_for_any_worker_count() {
        let pool = WorkerPool::new(4);
        let items: Vec<u64> = (0..1017).collect();
        let expected: u64 = items.iter().map(|x| x * 7).sum();
        for workers in [1usize, 2, 3, 4, 9] {
            let mut states: Vec<SumState> =
                (0..4).map(|_| SumState { batches: 0, sum: 0 }).collect();
            let used = pool.pipeline(workers, &mut states, items.len(), |_w, st, ranges| {
                for range in ranges {
                    for i in range {
                        st.sum += items[i] * 7;
                    }
                }
            });
            assert_eq!(used, workers.min(4));
            let got: u64 = states[..used].iter().map(|s| s.sum).sum();
            assert_eq!(got, expected, "workers={workers}");
            // begin_batch ran exactly on the participating states.
            for (i, st) in states.iter().enumerate() {
                assert_eq!(st.batches, usize::from(i < used), "state {i}");
            }
        }
    }

    #[test]
    fn pipeline_inlines_small_batches() {
        let pool = WorkerPool::new(4);
        let mut states: Vec<SumState> = (0..4).map(|_| SumState { batches: 0, sum: 0 }).collect();
        let used = pool.pipeline(4, &mut states, BLOCK, |w, st, ranges| {
            assert_eq!(w, 0);
            st.sum = ranges.map(|r| r.len() as u64).sum();
        });
        assert_eq!(used, 1);
        assert_eq!(states[0].sum, BLOCK as u64);
    }

    #[test]
    fn pool_panics_propagate_and_pool_survives() {
        let pool = WorkerPool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(2, |w| {
                if w == 1 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err());
        // The pool is still usable after a panicked job.
        let hits = AtomicUsize::new(0);
        pool.run(2, |_w| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn try_run_reports_panicked_workers() {
        let pool = WorkerPool::new(4);
        let panicked = pool.try_run(4, |w| {
            if w == 1 || w == 3 {
                panic!("boom {w}");
            }
        });
        assert_eq!(panicked, vec![1, 3]);
        // And a clean follow-up batch reports nothing.
        assert!(pool.try_run(4, |_w| {}).is_empty());
    }

    #[test]
    fn pipeline_quarantines_and_retries_panicked_worker() {
        let pool = WorkerPool::new(4);
        let items: Vec<u64> = (0..1017).collect();
        let expected: u64 = items.iter().map(|x| x * 7).sum();
        let armed = AtomicBool::new(true);
        let mut states: Vec<SumState> = (0..4).map(|_| SumState { batches: 0, sum: 0 }).collect();
        let run = pool.try_pipeline(4, &mut states, items.len(), |w, st, ranges| {
            if w == 2 && armed.swap(false, Ordering::SeqCst) {
                // Panic after partially mutating the state: the retry
                // must reset it via begin_batch.
                st.sum = 123_456;
                panic!("injected pipeline fault");
            }
            for range in ranges {
                for i in range {
                    st.sum += items[i] * 7;
                }
            }
        });
        assert_eq!(
            run,
            PipelineRun {
                workers: 4,
                quarantined: 1
            }
        );
        let got: u64 = states[..run.workers].iter().map(|s| s.sum).sum();
        assert_eq!(got, expected);
        // Worker 2's state saw two begin_batch calls: pool run + retry.
        assert_eq!(states[2].batches, 2);
    }

    #[test]
    fn poisoned_state_lock_recovers() {
        let pool = WorkerPool::new(2);
        // Poison the state mutex from a scratch thread.
        let shared = Arc::clone(&pool.shared);
        let _ = std::thread::spawn(move || {
            let _guard = shared.state.lock().expect("first lock is clean");
            panic!("poison the pool lock");
        })
        .join();
        assert!(pool.shared.state.is_poisoned());
        // The pool still dispatches and completes jobs.
        let hits = AtomicUsize::new(0);
        pool.run(2, |_w| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn pool_drop_joins_cleanly() {
        let pool = WorkerPool::new(3);
        let hits = AtomicUsize::new(0);
        pool.run(3, |_w| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        drop(pool); // must not hang or leak threads
        assert_eq!(hits.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn pool_drop_after_panicked_job_joins_cleanly() {
        let pool = WorkerPool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(2, |_w| panic!("boom"));
        }));
        assert!(result.is_err());
        drop(pool); // must not hang despite the panicked generation
    }

    /// Regression test for the drop-ordering deadlock: a generation
    /// dispatched but not yet picked up by any worker must still be
    /// drained when the pool is dropped. The old worker loop checked
    /// `shutdown` *before* looking for a new generation, so workers
    /// exited with `active` stuck above zero and any caller waiting on
    /// the `done` condvar hung forever.
    #[test]
    fn drop_drains_dispatched_but_unpicked_job() {
        let hits = Arc::new(AtomicUsize::new(0));
        let pool = WorkerPool::new(2);
        // Hand-dispatch a generation exactly as `try_run` would, but
        // without notifying the workers — they are still parked, which
        // is the racy window the deadlock lived in.
        let job: &'static (dyn Fn(usize) + Sync) = {
            let hits = Arc::clone(&hits);
            Box::leak(Box::new(move |_w: usize| {
                hits.fetch_add(1, Ordering::SeqCst);
            }))
        };
        {
            let mut st = lock(&pool.shared.state);
            st.job = Some(Job(job));
            st.limit = 2;
            st.active = 2;
            st.generation += 1;
        }
        // Drop on a helper thread so a regression fails the test instead
        // of hanging the suite.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            drop(pool);
            tx.send(()).expect("watchdog alive");
        });
        rx.recv_timeout(std::time::Duration::from_secs(10))
            .expect("pool drop deadlocked with a dispatched job");
        // Both workers ran the pending job before shutting down.
        assert_eq!(hits.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn concurrent_callers_are_serialized() {
        let pool = Arc::new(WorkerPool::new(2));
        let in_flight = Arc::new(AtomicUsize::new(0));
        let max_seen = Arc::new(AtomicUsize::new(0));
        let mut callers = Vec::new();
        for _ in 0..4 {
            let (pool, in_flight, max_seen) = (
                Arc::clone(&pool),
                Arc::clone(&in_flight),
                Arc::clone(&max_seen),
            );
            callers.push(std::thread::spawn(move || {
                for _ in 0..50 {
                    pool.run(2, |w| {
                        if w == 0 {
                            let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                            max_seen.fetch_max(now, Ordering::SeqCst);
                            in_flight.fetch_sub(1, Ordering::SeqCst);
                        }
                    });
                }
            }));
        }
        for c in callers {
            c.join().expect("caller thread");
        }
        // Jobs never interleave: at most one batch's worker 0 at a time.
        assert_eq!(max_seen.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn stage_queue_rejects_at_capacity_and_counts() {
        let q = StageQueue::new(2);
        assert!(q.try_push(1).is_ok());
        assert!(q.try_push(2).is_ok());
        match q.try_push(3) {
            Err(PushError::Full(item)) => assert_eq!(item, 3),
            other => panic!("expected Full, got {other:?}"),
        }
        assert_eq!(q.rejected(), 1);
        assert_eq!(q.depth(), 2);
        assert_eq!(q.max_depth(), 2);
        assert_eq!(q.pop(), Some(1));
        assert!(q.try_push(3).is_ok());
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
        assert_eq!(q.try_pop(), None);
        assert_eq!(q.max_depth(), 2);
    }

    #[test]
    fn stage_queue_close_drains_then_ends() {
        let q = StageQueue::new(4);
        q.try_push("a").unwrap();
        q.try_push("b").unwrap();
        q.close();
        match q.try_push("c") {
            Err(PushError::Closed(item)) => assert_eq!(item, "c"),
            other => panic!("expected Closed, got {other:?}"),
        }
        assert_eq!(q.push("d"), Err("d"));
        // Queued items still drain in order; only then does pop end.
        assert_eq!(q.pop(), Some("a"));
        assert_eq!(q.pop(), Some("b"));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn stage_queue_blocking_push_waits_for_space() {
        let q = StageQueue::new(1);
        q.try_push(0u32).unwrap();
        let q2 = q.clone();
        let producer = std::thread::spawn(move || q2.push(1).is_ok());
        // Give the producer a moment to park on the full queue.
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(q.pop(), Some(0));
        assert!(producer.join().expect("producer thread"));
        assert_eq!(q.pop(), Some(1));
    }

    #[test]
    fn stage_queue_consumer_blocks_until_item_or_close() {
        let q: StageQueue<u64> = StageQueue::new(4);
        let q2 = q.clone();
        let consumer = std::thread::spawn(move || (q2.pop(), q2.pop()));
        std::thread::sleep(std::time::Duration::from_millis(10));
        q.push(7).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(10));
        q.close();
        assert_eq!(consumer.join().expect("consumer thread"), (Some(7), None));
    }

    #[test]
    fn stage_queue_timed_pop_times_out_wakes_and_ends() {
        let q: StageQueue<u64> = StageQueue::new(4);
        let t0 = std::time::Instant::now();
        assert_eq!(q.pop_timeout(Duration::from_millis(5)), TimedPop::TimedOut);
        assert!(t0.elapsed() >= Duration::from_millis(5));
        // A push wakes a parked consumer long before its timeout.
        let q2 = q.clone();
        let consumer = std::thread::spawn(move || q2.pop_timeout(Duration::from_secs(60)));
        std::thread::sleep(Duration::from_millis(10));
        q.push(7).unwrap();
        assert_eq!(consumer.join().expect("consumer thread"), TimedPop::Item(7));
        // Close drains what is queued before reporting closed.
        q.push(8).unwrap();
        q.close();
        assert_eq!(q.pop_timeout(Duration::ZERO), TimedPop::Item(8));
        assert_eq!(q.pop_timeout(Duration::from_secs(60)), TimedPop::Closed);
    }

    #[test]
    fn stage_queue_mpmc_delivers_every_item_once() {
        let q: StageQueue<usize> = StageQueue::new(8);
        let seen = Arc::new(Mutex::new(Vec::new()));
        let consumers: Vec<_> = (0..3)
            .map(|_| {
                let q = q.clone();
                let seen = Arc::clone(&seen);
                std::thread::spawn(move || {
                    while let Some(item) = q.pop() {
                        lock(&seen).push(item);
                    }
                })
            })
            .collect();
        let producers: Vec<_> = (0..2)
            .map(|p| {
                let q = q.clone();
                std::thread::spawn(move || {
                    for i in 0..100 {
                        q.push(p * 100 + i).expect("queue open");
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().expect("producer");
        }
        q.close();
        for c in consumers {
            c.join().expect("consumer");
        }
        let mut seen = lock(&seen).clone();
        seen.sort_unstable();
        assert_eq!(seen, (0..200).collect::<Vec<_>>());
    }

    #[test]
    fn sequence_window_releases_in_ticket_order() {
        let w: SequenceWindow<u64> = SequenceWindow::new(16);
        let producers: Vec<_> = [3u64, 0, 2, 1]
            .into_iter()
            .map(|t| {
                let w = w.clone();
                std::thread::spawn(move || w.push(t, t * 10).expect("window open"))
            })
            .collect();
        for p in producers {
            p.join().expect("producer");
        }
        let drained: Vec<_> = (0..4).map(|_| w.pop_next().expect("pending")).collect();
        assert_eq!(drained, vec![(0, 0), (1, 10), (2, 20), (3, 30)]);
        w.close();
        assert_eq!(w.pop_next(), None);
        assert!(w.max_held() >= 1);
    }

    #[test]
    fn sequence_window_span_parks_far_ahead_producers() {
        let w: SequenceWindow<&'static str> = SequenceWindow::new(2);
        w.push(0, "a").unwrap();
        w.push(1, "b").unwrap();
        let w2 = w.clone();
        let landed = Arc::new(AtomicUsize::new(0));
        let landed2 = Arc::clone(&landed);
        // Ticket 2 is span-blocked until ticket 0 is consumed.
        let far = std::thread::spawn(move || {
            w2.push(2, "c").unwrap();
            landed2.store(1, Ordering::SeqCst);
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(landed.load(Ordering::SeqCst), 0, "push(2) must park");
        assert_eq!(w.pop_next(), Some((0, "a")));
        far.join().expect("far producer");
        assert_eq!(landed.load(Ordering::SeqCst), 1);
        assert_eq!(w.pop_next(), Some((1, "b")));
        assert_eq!(w.pop_next(), Some((2, "c")));
    }

    #[test]
    fn sequence_window_close_wakes_everyone() {
        let w: SequenceWindow<u8> = SequenceWindow::new(1);
        let w2 = w.clone();
        // Blocked consumer (nothing pending) and blocked far producer.
        let consumer = std::thread::spawn(move || w2.pop_next());
        let w3 = w.clone();
        let producer = std::thread::spawn(move || w3.push(5, 0).is_err());
        std::thread::sleep(std::time::Duration::from_millis(20));
        w.close();
        assert_eq!(consumer.join().expect("consumer"), None);
        assert!(producer.join().expect("producer"), "push after close errs");
        assert!(w.push(0, 9).is_err());
    }

    #[test]
    fn versioned_cell_readers_park_until_published() {
        let cell = Arc::new(VersionedCell::new(10u64));
        assert_eq!(cell.current(), (0, Arc::new(10)));
        assert_eq!(cell.wait_at_least(0).1.as_ref(), &10);
        let c2 = Arc::clone(&cell);
        let reader = std::thread::spawn(move || c2.wait_at_least(2));
        std::thread::sleep(std::time::Duration::from_millis(10));
        cell.publish(1, Arc::new(11));
        std::thread::sleep(std::time::Duration::from_millis(10));
        cell.publish(2, Arc::new(12));
        let (version, value) = reader.join().expect("reader");
        assert_eq!((version, *value), (2, 12));
    }

    /// Regression: the span admission test used `next + span`, which
    /// overflows (and in release wraps to a tiny bound, parking every
    /// producer forever) once `next` is nonzero and the span is huge.
    #[test]
    fn sequence_window_span_arithmetic_saturates() {
        let w: SequenceWindow<u64> = SequenceWindow::new(u64::MAX);
        w.push(0, 0).unwrap();
        assert_eq!(w.pop_next(), Some((0, 0)));
        // next = 1, span = u64::MAX: `1 + u64::MAX` would overflow; the
        // saturating bound admits any ticket without blocking.
        w.push(u64::MAX - 1, 7).unwrap();
        w.push(1, 1).unwrap();
        assert_eq!(w.pop_next(), Some((1, 1)));
    }

    /// A producer dying between taking a ticket and pushing it leaves a
    /// sequence gap; `drain_pending` recovers the items stranded behind
    /// it (in ticket order) instead of dropping them at close.
    #[test]
    fn sequence_window_drain_pending_recovers_gap_items() {
        let w: SequenceWindow<&'static str> = SequenceWindow::new(16);
        w.push(0, "a").unwrap();
        w.push(2, "c").unwrap();
        w.push(3, "d").unwrap();
        assert_eq!(w.pop_next(), Some((0, "a")));
        // Ticket 1 never arrives (its producer died). The consumer
        // cannot advance; the supervisor drains instead.
        assert_eq!(w.drain_pending(), vec![(2, "c"), (3, "d")]);
        // The window advanced past the drained tickets: new pushes
        // continue the sequence rather than re-blocking on the gap.
        w.push(4, "e").unwrap();
        assert_eq!(w.pop_next(), Some((4, "e")));
        w.close();
        assert_eq!(w.pop_next(), None);
    }

    /// Close with a stranded gap: the consumer sees `None` (never a
    /// skipped-ahead item), and the stranded items remain recoverable
    /// through `drain_pending` afterwards.
    #[test]
    fn sequence_window_close_strands_gap_items_for_drain() {
        let w: SequenceWindow<u8> = SequenceWindow::new(8);
        w.push(1, 11).unwrap();
        let w2 = w.clone();
        let consumer = std::thread::spawn(move || w2.pop_next());
        std::thread::sleep(std::time::Duration::from_millis(10));
        w.close();
        assert_eq!(consumer.join().expect("consumer"), None);
        assert_eq!(w.drain_pending(), vec![(1, 11)]);
    }

    /// Many readers waiting for distinct versions while a publisher
    /// races through the whole version sequence: every reader observes a
    /// version at least the one it asked for, and the value always
    /// matches the version it rode in on.
    #[test]
    fn versioned_cell_wait_at_least_races_version_bumps() {
        const VERSIONS: u64 = 64;
        let cell = Arc::new(VersionedCell::new(0u64));
        let readers: Vec<_> = (1..=VERSIONS)
            .map(|v| {
                let cell = Arc::clone(&cell);
                std::thread::spawn(move || {
                    let (version, value) = cell.wait_at_least(v);
                    assert!(version >= v, "asked for {v}, got {version}");
                    assert_eq!(*value, version, "value must match its version");
                })
            })
            .collect();
        for v in 1..=VERSIONS {
            cell.publish(v, Arc::new(v));
            if v % 8 == 0 {
                std::thread::yield_now();
            }
        }
        for r in readers {
            r.join().expect("reader");
        }
        assert_eq!(cell.current().0, VERSIONS);
    }

    /// A reader parked on a version that skips past its target (the
    /// publisher jumps 0 → 3 → 9) still wakes, with the newest value.
    #[test]
    fn versioned_cell_wait_survives_version_skips() {
        let cell = Arc::new(VersionedCell::new(0u64));
        let c2 = Arc::clone(&cell);
        let reader = std::thread::spawn(move || c2.wait_at_least(5));
        std::thread::sleep(std::time::Duration::from_millis(10));
        cell.publish(3, Arc::new(3));
        std::thread::sleep(std::time::Duration::from_millis(10));
        cell.publish(9, Arc::new(9));
        let (version, value) = reader.join().expect("reader");
        assert_eq!((version, *value), (9, 9));
    }

    #[test]
    fn versioned_cell_republish_swaps_value_in_place() {
        let cell = VersionedCell::new(10u64);
        cell.publish(1, Arc::new(11));
        // Recovery path: same version, rebuilt value.
        cell.republish(1, Arc::new(99));
        let (version, value) = cell.current();
        assert_eq!((version, *value), (1, 99));
        // Readers waiting at-or-below the version see the replacement.
        let (version, value) = cell.wait_at_least(1);
        assert_eq!((version, *value), (1, 99));
    }

    #[test]
    #[should_panic(expected = "republish must target the current version")]
    fn versioned_cell_republish_rejects_stale_version() {
        let cell = VersionedCell::new(0u64);
        cell.publish(2, Arc::new(2));
        cell.republish(1, Arc::new(1));
    }
}
