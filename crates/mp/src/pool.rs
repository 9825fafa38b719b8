//! A persistent worker pool for the suite's scoped fork/join parallelism.
//!
//! Every parallel phase in the suite — VALMOD's stage-1 diagonal walk, the
//! stage-2 per-row chunks, the discord classification loops, STOMP's
//! parallel fold, and the streaming engine's per-length appends — has the
//! same shape: split a batch of independent work across `w` logical
//! workers, run `worker(0) .. worker(w − 1)`, and join. The previous
//! implementation spawned fresh OS threads per phase with
//! [`std::thread::scope`]; at ~10–50 µs per spawn that overhead is paid
//! once per *phase per length*, which on wide length ranges with small `ℓ`
//! rivals the work itself. [`WorkerPool`] keeps the threads alive instead:
//! they park on a condition variable between batches, so dispatching a
//! batch costs one lock + wake instead of `w` thread spawns.
//!
//! # Execution model
//!
//! A batch submitted via [`WorkerPool::run`] pushes its jobs onto a shared
//! queue and then the *submitting thread helps drain the queue* until its
//! own batch completes (it may execute jobs of concurrent batches while
//! its own jobs are in flight, but stops helping once its batch is done).
//! Every batch blocks its submitter: `run` returns only once all of its
//! jobs have finished. Two consequences of the helping submitter:
//!
//! * the pool can never deadlock, even when a batch asks for more workers
//!   than there are pool threads (the caller executes the surplus), and
//!   even if jobs from several concurrent batches interleave;
//! * a single-worker batch runs entirely inline — the serial path pays no
//!   synchronization at all, as the pre-pool scoped-spawn helper
//!   guaranteed.
//!
//! # Determinism
//!
//! The pool adds no ordering of its own: a batch's results are collected
//! into a slot per worker index, so [`WorkerPool::run`] returns exactly
//! what `(0..w).map(worker).collect()` would — *which* thread ran a worker
//! index is invisible. Every engine built on the pool therefore keeps its
//! bit-identical-across-thread-counts property; the equality proptests in
//! `valmod-core` and `valmod-stream` exercise precisely this, on reused
//! pools.
//!
//! # Safety
//!
//! Jobs borrow the submitting thread's stack (the worker closure and the
//! result slots). The pool erases those lifetimes to move jobs across
//! threads, which is sound because [`WorkerPool::run`] does not return
//! until every job of its batch has finished (a latch counts them down,
//! and panics count too) — the same argument `std::thread::scope` makes.
//! Completion is published *under the latch mutex* ([`Latch::count_down`]
//! decrements and notifies while holding the guard), so every access a
//! worker makes to the stack-borrowed batch state happens-before the
//! submitter can observe `remaining == 0` and destroy it. The latch
//! itself lives in an [`Arc`] owned by each job — not on the submitter's
//! stack — so the finishing worker's final mutex unlock and condvar wake
//! touch memory that outlives the `run` frame (the same reason
//! `std::thread::scope` arc-allocates its `ScopeData`). All `unsafe` here
//! is confined to the lifetime erasure and to writing disjoint result
//! slots.

#![deny(unsafe_op_in_unsafe_fn)]

use std::any::Any;
use std::cell::{Cell, UnsafeCell};
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

use valmod_obs as obs;

/// Upper bound on OS threads a pool will ever spawn. Batches may request
/// more logical workers than this; the surplus jobs are executed by the
/// pool threads and the helping caller, so results never depend on it.
const MAX_POOL_THREADS: usize = 256;

/// The completion latch of one batch, heap-allocated behind an [`Arc`] so
/// the memory the finishing worker's last unlock/wake touches outlives the
/// submitting `run` frame. Every queued [`Job`] owns a clone; the
/// submitter owns one too.
struct Latch {
    inner: Mutex<LatchInner>,
    /// Wakes the submitter when `remaining` hits zero.
    done: Condvar,
}

struct LatchInner {
    /// Jobs not yet finished (including inline and helped ones).
    remaining: usize,
    /// First worker panic payload; the submitter re-raises it after join.
    panic: Option<Box<dyn Any + Send>>,
}

impl Latch {
    fn new(jobs: usize) -> Arc<Self> {
        Arc::new(Self {
            inner: Mutex::new(LatchInner { remaining: jobs, panic: None }),
            done: Condvar::new(),
        })
    }

    /// Counts one job done, keeping the first panic payload, and wakes the
    /// submitter when the count hits zero. Decrementing and notifying
    /// under the mutex is what makes destroying the batch state sound: the
    /// submitter can only observe `remaining == 0` through this same
    /// mutex, so every prior access the worker made to the stack-borrowed
    /// batch happens-before that observation.
    fn count_down(&self, panic: Option<Box<dyn Any + Send>>) {
        let mut inner = self.inner.lock().expect("batch latch poisoned");
        if inner.panic.is_none() {
            inner.panic = panic;
        }
        inner.remaining -= 1;
        if inner.remaining == 0 {
            self.done.notify_all();
        }
    }

    /// Whether every job of the batch has finished (non-blocking).
    fn is_done(&self) -> bool {
        self.inner.lock().expect("batch latch poisoned").remaining == 0
    }

    /// Blocks until every job of the batch has finished; returns the first
    /// panic payload, if any worker panicked.
    fn join(&self) -> Option<Box<dyn Any + Send>> {
        let mut inner = self.inner.lock().expect("batch latch poisoned");
        while inner.remaining > 0 {
            inner = self.done.wait(inner).expect("batch latch poisoned");
        }
        inner.panic.take()
    }
}

/// One queued unit of work: worker index `index` of the batch at `batch`,
/// plus an owned handle on that batch's completion latch.
///
/// The raw pointer is lifetime-erased; see the module docs for why the
/// batch (and everything it borrows) outlives the job. The latch is
/// `Arc`-owned precisely because it must *not* rely on that argument: it
/// is the thing the worker touches last, after which the batch may die.
struct Job {
    batch: *const BatchState,
    latch: Arc<Latch>,
    index: usize,
}

// SAFETY: a `Job`'s `batch` pointer is only ever dereferenced before its
// latch is counted down, while the submitting `WorkerPool::run` frame is
// blocked waiting on that latch, which keeps the pointed-to `BatchState`
// (and the closure/slots it references) alive; the shared state it
// reaches is `Sync` (`&(dyn Fn + Sync)` and disjoint-by-index result
// slots), and `Arc<Latch>` is `Send` on its own.
unsafe impl Send for Job {}

impl Job {
    /// Runs the job's worker and counts the latch down, recording panics.
    /// After this returns, the job's batch may no longer exist.
    ///
    /// # Safety
    ///
    /// `self.batch` must still point at the batch's live state —
    /// guaranteed while the submitting `run` frame waits on the latch.
    unsafe fn execute(self) {
        // SAFETY: forwarded precondition; the latch has not been counted
        // down yet, so the batch is alive.
        let panic = unsafe { (*self.batch).run_worker(self.index) };
        // Last access: heap memory owned by `self.latch`, not the batch.
        self.latch.count_down(panic);
    }
}

/// Per-batch shared state: the type-erased worker call. Lives on the
/// submitting thread's stack for the batch duration.
struct BatchState {
    /// Runs worker `index`; type-erased so the queue holds one job type.
    /// The `*const ()` is the batch's typed context (closure + slots).
    call: unsafe fn(*const (), usize),
    ctx: *const (),
}

impl BatchState {
    /// Runs worker `index`, returning the panic payload if it panicked.
    ///
    /// # Safety
    ///
    /// `self.ctx` must still point at the batch's live typed context —
    /// guaranteed while the submitting `run` frame waits on the latch.
    unsafe fn run_worker(&self, index: usize) -> Option<Box<dyn Any + Send>> {
        std::panic::catch_unwind(AssertUnwindSafe(|| {
            // SAFETY: forwarded precondition — ctx is the live context
            // `call` was instantiated for.
            unsafe { (self.call)(self.ctx, index) }
        }))
        .err()
    }
}

/// The queue shared by all pool threads of one [`WorkerPool`].
struct Shared {
    queue: Mutex<PoolQueue>,
    /// Signals pool threads that the queue became non-empty (or shutdown).
    work_ready: Condvar,
    /// Monotone id source for [`WorkerPool::lane`] registrations.
    next_lane_id: AtomicU64,
}

/// When both priority classes have queued work, how often the scheduler
/// *must* pick a bulk job: at least one bulk pick in every
/// `BULK_SERVICE_STRIDE` consecutive picks. This is the pool's starvation
/// bound — see [`WorkerPool::lane`].
const BULK_SERVICE_STRIDE: u32 = 4;

/// One registered submission lane: a private FIFO of jobs drained by the
/// fair scheduler in [`PoolQueue::next_job`].
struct LaneQueue {
    id: u64,
    priority: LanePriority,
    jobs: VecDeque<Job>,
}

/// All queued work of one pool: the anonymous default FIFO (batches
/// submitted outside any lane) plus the registered lanes, drained under
/// the fair-scheduling policy documented on [`WorkerPool::lane`].
struct PoolQueue {
    /// The default queue — anonymous submissions; scheduled as one more
    /// bulk-class source so lane-less callers keep their FIFO behavior.
    jobs: VecDeque<Job>,
    lanes: Vec<LaneQueue>,
    /// Round-robin cursors, one per priority class.
    rr: [usize; 2],
    /// Consecutive interactive picks made while bulk work was waiting;
    /// reset on every bulk pick. Bounds starvation to
    /// `BULK_SERVICE_STRIDE − 1` picks.
    contended_interactive_picks: u32,
    shutdown: bool,
}

/// Sentinel lane position for the default queue in the bulk round-robin.
const DEFAULT_SLOT: usize = usize::MAX;

impl PoolQueue {
    fn lane_pos(&self, id: u64) -> Option<usize> {
        self.lanes.iter().position(|l| l.id == id)
    }

    /// Enqueues one job, into the given lane if it is still registered
    /// (else the default queue — a closed lane never loses work).
    fn push_routed(&mut self, lane: Option<u64>, job: Job) {
        match lane.and_then(|id| self.lane_pos(id)) {
            Some(pos) => self.lanes[pos].jobs.push_back(job),
            None => self.jobs.push_back(job),
        }
    }

    fn class_has_work(&self, class: usize) -> bool {
        self.lanes.iter().any(|l| l.priority.class() == class && !l.jobs.is_empty())
            || (class == 1 && !self.jobs.is_empty())
    }

    /// The fair pick (see [`WorkerPool::lane`] for the policy): choose a
    /// priority class — interactive first, but bulk is guaranteed at least
    /// one pick in every `BULK_SERVICE_STRIDE` when both classes wait —
    /// then rotate round-robin over that class's non-empty sources.
    fn next_job(&mut self) -> Option<Job> {
        let interactive = self.class_has_work(0);
        let bulk = self.class_has_work(1);
        let class = match (interactive, bulk) {
            (false, false) => return None,
            (true, false) => 0,
            (false, true) => 1,
            (true, true) => {
                if self.contended_interactive_picks + 1 >= BULK_SERVICE_STRIDE {
                    1
                } else {
                    0
                }
            }
        };
        if class == 0 {
            // Only contended picks count toward the starvation bound.
            self.contended_interactive_picks =
                if bulk { self.contended_interactive_picks + 1 } else { 0 };
        } else {
            self.contended_interactive_picks = 0;
        }
        // Non-empty sources of the class, in registration order; the
        // default queue is one more bulk-class source.
        let mut sources: Vec<usize> = self
            .lanes
            .iter()
            .enumerate()
            .filter(|(_, l)| l.priority.class() == class && !l.jobs.is_empty())
            .map(|(pos, _)| pos)
            .collect();
        if class == 1 && !self.jobs.is_empty() {
            sources.push(DEFAULT_SLOT);
        }
        let pick = sources[self.rr[class] % sources.len()];
        self.rr[class] = self.rr[class].wrapping_add(1);
        let job = match pick {
            DEFAULT_SLOT => self.jobs.pop_front(),
            pos => self.lanes[pos].jobs.pop_front(),
        };
        debug_assert!(job.is_some(), "picked source was non-empty under the lock");
        job
    }
}

/// A persistent pool of parked worker threads (see the module docs).
///
/// The suite shares one [`WorkerPool::global`] instance by default;
/// dedicated pools can be created for tests or embedding scenarios and
/// are shut down (threads joined) on drop.
pub struct WorkerPool {
    shared: Arc<Shared>,
    /// OS threads spawned so far; grows lazily toward the demand, capped.
    spawned: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let threads = self.spawned.lock().map(|v| v.len()).unwrap_or(0);
        f.debug_struct("WorkerPool").field("threads", &threads).finish()
    }
}

impl Default for WorkerPool {
    fn default() -> Self {
        Self::new()
    }
}

impl WorkerPool {
    /// An empty pool; threads are spawned lazily as batches demand them.
    #[must_use]
    pub fn new() -> Self {
        Self {
            shared: Arc::new(Shared {
                queue: Mutex::new(PoolQueue {
                    jobs: VecDeque::new(),
                    lanes: Vec::new(),
                    rr: [0, 0],
                    contended_interactive_picks: 0,
                    shutdown: false,
                }),
                work_ready: Condvar::new(),
                next_lane_id: AtomicU64::new(0),
            }),
            spawned: Mutex::new(Vec::new()),
        }
    }

    /// The process-wide pool every engine uses unless a dedicated pool is
    /// supplied (e.g. via `ValmodConfig::with_pool` in `valmod-core`).
    /// Created on first use and never shut down.
    #[must_use]
    pub fn global() -> &'static WorkerPool {
        static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();
        GLOBAL.get_or_init(WorkerPool::new)
    }

    /// Number of OS threads currently alive in this pool.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.spawned.lock().map(|v| v.len()).unwrap_or(0)
    }

    /// Ensures at least `target` pool threads exist (capped), so a batch
    /// of `target + 1` workers can run fully concurrently (the submitter
    /// is the `+ 1`).
    fn ensure_threads(&self, target: usize) {
        let target = target.min(MAX_POOL_THREADS);
        let mut spawned = self.spawned.lock().expect("pool spawn registry poisoned");
        while spawned.len() < target {
            let shared = Arc::clone(&self.shared);
            let id = spawned.len();
            let handle = std::thread::Builder::new()
                .name(format!("valmod-pool-{id}"))
                .spawn(move || pool_thread(&shared))
                .expect("spawn pool thread");
            spawned.push(handle);
        }
    }

    /// Runs `worker(0) .. worker(num_workers − 1)` and returns the results
    /// in worker-index order — the pool-backed replacement for spawning
    /// `num_workers` scoped threads. A single worker runs inline with no
    /// synchronization; otherwise worker 0 runs on the submitting thread
    /// while the rest are dispatched to (and helped along with) the pool.
    ///
    /// # Panics
    ///
    /// Re-raises the first worker panic's original payload on the
    /// submitting thread if any worker panicked (the pool threads
    /// themselves survive).
    pub fn run<R: Send, F: Fn(usize) -> R + Sync>(&self, num_workers: usize, worker: F) -> Vec<R> {
        if num_workers <= 1 {
            return vec![worker(0)];
        }
        let _run_span = obs::span("pool_run", obs::Layer::Pool);
        self.ensure_threads(num_workers - 1);

        /// Disjoint-by-index result slots shared across workers.
        struct Slots<R>(Vec<UnsafeCell<Option<R>>>);
        // SAFETY: each worker index writes only its own slot; indices are
        // distinct per batch, so access is disjoint.
        unsafe impl<R: Send> Sync for Slots<R> {}

        struct Ctx<'a, R, F> {
            worker: &'a F,
            slots: &'a Slots<R>,
        }

        /// The typed trampoline `BatchState.call` points at.
        ///
        /// # Safety
        ///
        /// `ctx` must point at a live `Ctx<R, F>` whose slots have at
        /// least `index + 1` entries and whose `index` slot is not
        /// accessed concurrently.
        unsafe fn trampoline<R: Send, F: Fn(usize) -> R + Sync>(ctx: *const (), index: usize) {
            // SAFETY: forwarded precondition.
            let ctx = unsafe { &*ctx.cast::<Ctx<'_, R, F>>() };
            let result = (ctx.worker)(index);
            // SAFETY: slot `index` is written by exactly this job.
            unsafe { *ctx.slots.0[index].get() = Some(result) };
        }

        let slots = Slots((0..num_workers).map(|_| UnsafeCell::new(None)).collect());
        let ctx = Ctx { worker: &worker, slots: &slots };
        let latch = Latch::new(num_workers);
        let batch = BatchState { call: trampoline::<R, F>, ctx: std::ptr::addr_of!(ctx).cast() };

        // Enqueue workers 1..n, wake the pool, run worker 0 here. Jobs go
        // to the submitting thread's entered lane, if any (see
        // [`LaneHandle::enter`]), else the default queue.
        let route = self.current_lane();
        {
            let mut queue = self.shared.queue.lock().expect("pool queue poisoned");
            for index in 1..num_workers {
                queue.push_routed(route, Job { batch: &batch, latch: Arc::clone(&latch), index });
            }
        }
        if route.is_some() {
            obs::count!(pool_lane_submits, num_workers as u64 - 1);
        }
        obs::count!(pool_submits, num_workers as u64 - 1);
        obs::metrics().pool_queue_depth.add(num_workers as i64 - 1);
        self.shared.work_ready.notify_all();
        let panic0 = unsafe {
            // SAFETY: `batch` is alive (it is on this stack frame) and we
            // do not return before the latch reaches zero below.
            batch.run_worker(0)
        };
        latch.count_down(panic0);

        // Help drain the queue (our jobs, or concurrent batches' while
        // ours is in flight) until our batch completes, then join. Our own
        // queued jobs can only leave the queue by being executed, so an
        // empty queue means they are all running or done — waiting is
        // then deadlock-free.
        while !latch.is_done() {
            let job = {
                let mut queue = self.shared.queue.lock().expect("pool queue poisoned");
                queue.next_job()
            };
            let Some(job) = job else { break };
            // A job drained by the submitter rather than a pool thread is
            // the helping-submitter steal the module docs describe.
            obs::metrics().pool_queue_depth.add(-1);
            obs::count!(pool_steals, 1);
            // SAFETY: every queued job's batch is kept alive by its own
            // submitter blocking exactly as we do here until the job's
            // latch counts down.
            unsafe { job.execute() }
        }
        if let Some(payload) = latch.join() {
            std::panic::resume_unwind(payload);
        }

        slots
            .0
            .into_iter()
            .map(|slot| slot.into_inner().expect("every worker index ran exactly once"))
            .collect()
    }

    /// Splits `out` into `workers` contiguous chunks and fills every
    /// element via `f(global_index, &mut element)` — the pool-backed
    /// replacement for the per-phase `std::thread::scope` chunking loops.
    /// Results are independent of the chunking by construction: each
    /// element's update depends only on its own index.
    pub fn for_each_mut<T: Send>(
        &self,
        out: &mut [T],
        workers: usize,
        f: impl Fn(usize, &mut T) + Sync,
    ) {
        if workers <= 1 || out.len() <= 1 {
            for (i, v) in out.iter_mut().enumerate() {
                f(i, v);
            }
            return;
        }
        let chunk = out.len().div_ceil(workers);
        // Hand each worker exclusive access to its chunk through a Mutex;
        // the lock is uncontended (each worker index takes its own chunk
        // exactly once) and costs one acquisition per chunk per batch.
        let chunks: Vec<Mutex<(usize, &mut [T])>> = out
            .chunks_mut(chunk)
            .enumerate()
            .map(|(ci, data)| Mutex::new((ci * chunk, data)))
            .collect();
        self.run(chunks.len(), |w| {
            let mut guard = chunks[w].lock().expect("chunk lock poisoned");
            let (base, data) = &mut *guard;
            for (off, v) in data.iter_mut().enumerate() {
                f(*base + off, v);
            }
        });
    }

    /// Registers a submission lane on this pool — the fair-scheduling
    /// unit behind multi-tenant serving, where every tenant owns one lane
    /// and a hot tenant must not starve the rest.
    ///
    /// # Scheduling policy (fairness and starvation guarantees)
    ///
    /// Queued jobs are drained by pool threads and helping submitters
    /// under one policy, [`PoolQueue::next_job`]:
    ///
    /// * **Within a priority class**, non-empty lanes are served
    ///   round-robin in registration order — between any two consecutive
    ///   picks from one lane, every other non-empty lane of the class is
    ///   picked once. A lane queuing `B` jobs therefore delays a peer's
    ///   next job by at most one job execution, never by `B`.
    /// * **Across classes**, [`LanePriority::Interactive`] is preferred,
    ///   but whenever both classes have queued work at least one
    ///   bulk-class job is picked in every `BULK_SERVICE_STRIDE` (= 4)
    ///   consecutive picks — so bulk lanes are delayed by at most 3 job
    ///   executions per pick even under sustained interactive load, and
    ///   interactive jobs wait at most 1 bulk execution. Neither class
    ///   can starve the other.
    /// * The **default queue** (batches submitted outside any lane) is
    ///   scheduled as one more bulk-class source, so existing lane-less
    ///   callers keep their FIFO behavior and the same starvation bound.
    ///
    /// The policy decides only *which* queued job a thread takes next;
    /// per-batch results are still collected by worker index, so lanes
    /// never affect what a batch computes — only when it runs
    /// (byte-identity across lane layouts is proptested in
    /// `valmod-stream`).
    ///
    /// # Backpressure
    ///
    /// `max_pending` bounds the lane's submission-queue depth as counted
    /// by [`LaneHandle::try_admit`] tickets: once `max_pending` tickets
    /// are outstanding, further admissions fail with [`LaneSaturated`] —
    /// the typed signal a serving front-end maps to its protocol error
    /// (never a panic, never a silent drop).
    ///
    /// Dropping every clone of the returned handle unregisters the lane;
    /// jobs still queued in it at that point migrate to the default
    /// queue, so no submitted work is ever lost.
    #[must_use]
    pub fn lane(&self, priority: LanePriority, max_pending: usize) -> LaneHandle {
        let id = self.shared.next_lane_id.fetch_add(1, Ordering::Relaxed);
        {
            let mut queue = self.shared.queue.lock().expect("pool queue poisoned");
            queue.lanes.push(LaneQueue { id, priority, jobs: VecDeque::new() });
            obs::metrics().pool_lanes.set(queue.lanes.len() as i64);
        }
        LaneHandle {
            inner: Arc::new(LaneInner {
                shared: Arc::clone(&self.shared),
                id,
                priority,
                max_pending,
                pending: AtomicUsize::new(0),
            }),
        }
    }

    /// The lane the current thread has entered on *this* pool, if any.
    fn current_lane(&self) -> Option<u64> {
        CURRENT_LANE.with(|cell| {
            cell.get().and_then(|(shared, id)| {
                (shared == Arc::as_ptr(&self.shared) as usize).then_some(id)
            })
        })
    }
}

thread_local! {
    /// The lane new batches on this thread route into: the identity of the
    /// pool's shared state (so a guard never routes jobs into a *different*
    /// pool's lane id) plus the lane id. Set by [`LaneHandle::enter`].
    static CURRENT_LANE: Cell<Option<(usize, u64)>> = const { Cell::new(None) };
}

/// Priority class of a [`WorkerPool`] lane. See [`WorkerPool::lane`] for
/// the exact scheduling and starvation guarantees.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LanePriority {
    /// Latency-sensitive work (live queries): preferred by the scheduler,
    /// subject to the bulk service guarantee.
    Interactive,
    /// Throughput work (ingest, bootstraps): guaranteed at least one pick
    /// in every `BULK_SERVICE_STRIDE` when contended.
    Bulk,
    /// Housekeeping work (compaction, re-checkpointing): scheduled in the
    /// bulk class — same service guarantee as [`LanePriority::Bulk`] —
    /// but a distinct label, so front-ends can expose it as a QoS tier
    /// and meter it per lane.
    Maintenance,
}

impl LanePriority {
    fn class(self) -> usize {
        match self {
            LanePriority::Interactive => 0,
            LanePriority::Bulk | LanePriority::Maintenance => 1,
        }
    }
}

/// Registered-lane state shared by every [`LaneHandle`] clone and every
/// outstanding [`LaneTicket`].
struct LaneInner {
    shared: Arc<Shared>,
    id: u64,
    priority: LanePriority,
    max_pending: usize,
    /// Outstanding admission tickets — the lane's submission-queue depth.
    pending: AtomicUsize,
}

impl Drop for LaneInner {
    fn drop(&mut self) {
        let mut queue = self.shared.queue.lock().expect("pool queue poisoned");
        if let Some(pos) = queue.lane_pos(self.id) {
            let orphaned = queue.lanes.remove(pos);
            // A closed lane never loses work: leftover jobs (possible when
            // a handle is dropped while another thread's batch is still
            // queued) drain through the default queue.
            queue.jobs.extend(orphaned.jobs);
            obs::metrics().pool_lanes.set(queue.lanes.len() as i64);
        }
    }
}

/// A handle on one registered submission lane (cheaply cloneable; the
/// lane lives until the last clone drops). Created by [`WorkerPool::lane`].
#[derive(Clone)]
pub struct LaneHandle {
    inner: Arc<LaneInner>,
}

impl std::fmt::Debug for LaneHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LaneHandle")
            .field("id", &self.inner.id)
            .field("priority", &self.inner.priority)
            .field("pending", &self.pending())
            .finish()
    }
}

impl LaneHandle {
    /// Routes every batch the current thread submits (via
    /// [`WorkerPool::run`] or [`WorkerPool::for_each_mut`]) into this
    /// lane until the guard drops — including batches submitted by
    /// library code that has never heard of lanes, which is the point: a
    /// tenant front-end enters its lane once and the whole engine
    /// underneath inherits the routing.
    ///
    /// Guards nest (the previous lane is restored on drop) and are
    /// per-thread; entering a lane on one thread never affects another.
    #[must_use]
    pub fn enter(&self) -> LaneGuard<'_> {
        let prev = CURRENT_LANE.with(|cell| {
            cell.replace(Some((Arc::as_ptr(&self.inner.shared) as usize, self.inner.id)))
        });
        LaneGuard { prev, _lane: PhantomData }
    }

    /// The lane's priority class.
    #[must_use]
    pub fn priority(&self) -> LanePriority {
        self.inner.priority
    }

    /// Outstanding admission tickets (the queue-depth backpressure input).
    #[must_use]
    pub fn pending(&self) -> usize {
        self.inner.pending.load(Ordering::Relaxed)
    }

    /// Admits one operation into the lane, or reports saturation once
    /// `max_pending` tickets are outstanding — the queue-depth
    /// backpressure signal. The returned ticket releases its slot on
    /// drop.
    ///
    /// # Errors
    ///
    /// [`LaneSaturated`] with the observed depth and the limit; the
    /// caller surfaces it as its typed protocol error.
    pub fn try_admit(&self) -> Result<LaneTicket, LaneSaturated> {
        let mut depth = self.inner.pending.load(Ordering::Relaxed);
        loop {
            if depth >= self.inner.max_pending {
                obs::count!(pool_lane_rejections, 1);
                return Err(LaneSaturated { pending: depth, limit: self.inner.max_pending });
            }
            match self.inner.pending.compare_exchange_weak(
                depth,
                depth + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Ok(LaneTicket { inner: Arc::clone(&self.inner) }),
                Err(actual) => depth = actual,
            }
        }
    }
}

/// Scope guard of [`LaneHandle::enter`]; restores the thread's previous
/// lane on drop.
pub struct LaneGuard<'a> {
    prev: Option<(usize, u64)>,
    _lane: PhantomData<&'a LaneHandle>,
}

impl Drop for LaneGuard<'_> {
    fn drop(&mut self) {
        CURRENT_LANE.with(|cell| cell.set(self.prev));
    }
}

/// One admitted operation's slot in a lane's bounded submission queue;
/// dropping it frees the slot.
pub struct LaneTicket {
    inner: Arc<LaneInner>,
}

impl std::fmt::Debug for LaneTicket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LaneTicket").field("lane", &self.inner.id).finish()
    }
}

impl Drop for LaneTicket {
    fn drop(&mut self) {
        self.inner.pending.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Typed backpressure signal of [`LaneHandle::try_admit`]: the lane's
/// submission queue is at its depth limit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneSaturated {
    /// Outstanding operations observed at admission time.
    pub pending: usize,
    /// The lane's configured depth limit.
    pub limit: usize,
}

impl std::fmt::Display for LaneSaturated {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "lane saturated: {} pending operations at limit {}", self.pending, self.limit)
    }
}

impl std::error::Error for LaneSaturated {}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut queue = self.shared.queue.lock().expect("pool queue poisoned");
            queue.shutdown = true;
        }
        self.shared.work_ready.notify_all();
        let handles = std::mem::take(&mut *self.spawned.lock().expect("pool registry poisoned"));
        for handle in handles {
            let _ = handle.join();
        }
    }
}

/// A pool thread's life: park on the condvar until a job (or shutdown)
/// arrives, execute, repeat. Parking is a real `Condvar::wait` — no
/// spinning — which the idle test below verifies via the OS.
fn pool_thread(shared: &Shared) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().expect("pool queue poisoned");
            loop {
                if let Some(job) = queue.next_job() {
                    obs::metrics().pool_queue_depth.add(-1);
                    break job;
                }
                if queue.shutdown {
                    return;
                }
                // One park/unpark transition per condvar round trip; the
                // counters are relaxed atomics, so the idle-parking test
                // (which watches CPU ticks via /proc) is unaffected.
                obs::count!(pool_parks, 1);
                queue = shared.work_ready.wait(queue).expect("pool queue poisoned");
                obs::count!(pool_unparks, 1);
            }
        };
        // SAFETY: the job's submitting `run` frame is blocked on the batch
        // latch until this (and every) job of the batch completes, keeping
        // the batch state and its borrows alive.
        unsafe { job.execute() };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_worker_order() {
        let pool = WorkerPool::new();
        for workers in [1usize, 2, 3, 8, 17] {
            let got = pool.run(workers, |w| w * 10);
            let want: Vec<usize> = (0..workers).map(|w| w * 10).collect();
            assert_eq!(got, want, "at {workers} workers");
        }
    }

    #[test]
    fn reused_pool_matches_scoped_spawn() {
        // The pool is a drop-in for scoped spawning: same worker function,
        // same results, across many reuses of one pool.
        let pool = WorkerPool::new();
        let work = |w: usize| -> u64 { (0..10_000u64).map(|x| x.wrapping_mul(w as u64 + 1)).sum() };
        for round in 0..20 {
            let workers = 1 + round % 8;
            let scoped: Vec<u64> = {
                let mut results = Vec::new();
                std::thread::scope(|scope| {
                    let handles: Vec<_> =
                        (0..workers).map(|w| scope.spawn(move || work(w))).collect();
                    for h in handles {
                        results.push(h.join().unwrap());
                    }
                });
                results
            };
            assert_eq!(pool.run(workers, work), scoped, "round {round}");
        }
    }

    #[test]
    fn for_each_mut_fills_every_index() {
        let pool = WorkerPool::new();
        for workers in [1usize, 2, 3, 8] {
            let mut data = vec![0usize; 103];
            pool.for_each_mut(&mut data, workers, |i, v| *v = i * i);
            for (i, v) in data.iter().enumerate() {
                assert_eq!(*v, i * i, "index {i} at {workers} workers");
            }
        }
    }

    #[test]
    fn oversubscribed_batches_complete() {
        // More logical workers than pool threads: the caller helps, so the
        // batch completes even though the pool never grows past the cap.
        let pool = WorkerPool::new();
        let results = pool.run(40, |w| w);
        assert_eq!(results.len(), 40);
        assert!(results.iter().enumerate().all(|(i, &w)| i == w));
    }

    #[test]
    fn worker_panics_propagate_and_pool_survives() {
        let pool = WorkerPool::new();
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(4, |w| {
                assert!(w != 2, "worker 2 exploding");
                w
            })
        }));
        // The original payload (not a generic wrapper) reaches the
        // submitter, so assertion messages from deep in a kernel survive.
        let payload = outcome.expect_err("panic must propagate to the submitter");
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("<non-string payload>");
        assert!(msg.contains("worker 2 exploding"), "payload was: {msg}");
        // The pool threads survived and serve the next batch normally.
        assert_eq!(pool.run(4, |w| w + 1), vec![1, 2, 3, 4]);
    }

    #[test]
    fn concurrent_batches_from_many_threads_interleave_safely() {
        let pool = Arc::new(WorkerPool::new());
        std::thread::scope(|scope| {
            for t in 0..6usize {
                let pool = Arc::clone(&pool);
                scope.spawn(move || {
                    for round in 0..10 {
                        let base = t * 1000 + round;
                        let got = pool.run(3, move |w| base + w);
                        assert_eq!(got, vec![base, base + 1, base + 2]);
                    }
                });
            }
        });
    }

    /// A queue-only job for scheduler unit tests: points at a leaked
    /// no-op batch (harmless if a pool thread ever executes it), with the
    /// `index` field used as a provenance tag.
    fn dummy_job(tag: usize) -> Job {
        unsafe fn noop(_ctx: *const (), _index: usize) {}
        let batch: &'static BatchState =
            Box::leak(Box::new(BatchState { call: noop, ctx: std::ptr::null() }));
        Job { batch, latch: Latch::new(1), index: tag }
    }

    #[test]
    fn scheduler_round_robins_within_a_class() {
        let mut queue = PoolQueue {
            jobs: VecDeque::new(),
            lanes: Vec::new(),
            rr: [0, 0],
            contended_interactive_picks: 0,
            shutdown: false,
        };
        queue.lanes.push(LaneQueue { id: 0, priority: LanePriority::Bulk, jobs: VecDeque::new() });
        queue.lanes.push(LaneQueue { id: 1, priority: LanePriority::Bulk, jobs: VecDeque::new() });
        for round in 0..3 {
            queue.lanes[0].jobs.push_back(dummy_job(round));
            queue.lanes[1].jobs.push_back(dummy_job(10 + round));
            queue.jobs.push_back(dummy_job(20 + round));
        }
        let picks: Vec<usize> = (0..9).map(|_| queue.next_job().unwrap().index).collect();
        // Rotation over [lane0, lane1, default], FIFO within each source:
        // a lane holding 3 jobs delays a peer by at most one execution.
        // While every source has work the rotation is exact; once sources
        // drain the cursor re-wraps over the survivors, so only assert
        // the full-rotation prefix plus completeness of the tail.
        assert_eq!(picks[..7], [0, 10, 20, 1, 11, 21, 2]);
        let mut tail: Vec<usize> = picks[7..].to_vec();
        tail.sort_unstable();
        assert_eq!(tail, vec![12, 22]);
        assert!(queue.next_job().is_none());
    }

    #[test]
    fn bulk_gets_one_pick_per_stride_under_interactive_load() {
        let mut queue = PoolQueue {
            jobs: VecDeque::new(),
            lanes: Vec::new(),
            rr: [0, 0],
            contended_interactive_picks: 0,
            shutdown: false,
        };
        queue.lanes.push(LaneQueue {
            id: 0,
            priority: LanePriority::Interactive,
            jobs: VecDeque::new(),
        });
        queue.lanes.push(LaneQueue { id: 1, priority: LanePriority::Bulk, jobs: VecDeque::new() });
        for tag in 0..9 {
            queue.lanes[0].jobs.push_back(dummy_job(tag));
        }
        for tag in 100..103 {
            queue.lanes[1].jobs.push_back(dummy_job(tag));
        }
        let picks: Vec<usize> = (0..12).map(|_| queue.next_job().unwrap().index).collect();
        // Interactive preferred, bulk guaranteed 1 in every 4 while both
        // classes wait; once interactive drains, the rest is pure bulk.
        assert_eq!(picks, vec![0, 1, 2, 100, 3, 4, 5, 101, 6, 7, 8, 102]);
        // Uncontended interactive never pays the stride.
        for tag in 0..6 {
            queue.lanes[0].jobs.push_back(dummy_job(tag));
        }
        let solo: Vec<usize> = (0..6).map(|_| queue.next_job().unwrap().index).collect();
        assert_eq!(solo, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn try_admit_bounds_lane_depth() {
        let pool = WorkerPool::new();
        let lane = pool.lane(LanePriority::Interactive, 2);
        let t1 = lane.try_admit().expect("depth 0 admits");
        let _t2 = lane.try_admit().expect("depth 1 admits");
        let err = lane.try_admit().expect_err("depth 2 is the limit");
        assert_eq!(err, LaneSaturated { pending: 2, limit: 2 });
        assert_eq!(lane.pending(), 2);
        drop(t1);
        assert!(lane.try_admit().is_ok(), "released slot admits again");
    }

    #[test]
    fn lane_guards_nest_and_stay_per_pool() {
        let pool = WorkerPool::new();
        let a = pool.lane(LanePriority::Interactive, 4);
        let b = pool.lane(LanePriority::Bulk, 4);
        assert_eq!(pool.current_lane(), None);
        let ga = a.enter();
        assert_eq!(pool.current_lane(), Some(a.inner.id));
        {
            let _gb = b.enter();
            assert_eq!(pool.current_lane(), Some(b.inner.id));
        }
        assert_eq!(pool.current_lane(), Some(a.inner.id), "inner guard restores the outer lane");
        // A different pool never routes into this pool's lane.
        let other = WorkerPool::new();
        assert_eq!(other.current_lane(), None);
        drop(ga);
        assert_eq!(pool.current_lane(), None);
    }

    #[test]
    fn dropping_a_lane_spills_queued_jobs_to_the_default_queue() {
        let pool = WorkerPool::new();
        let lane = pool.lane(LanePriority::Bulk, 8);
        {
            let mut queue = pool.shared.queue.lock().unwrap();
            let pos = queue.lane_pos(lane.inner.id).unwrap();
            for tag in 0..3 {
                queue.lanes[pos].jobs.push_back(dummy_job(tag));
            }
        }
        drop(lane);
        let queue = pool.shared.queue.lock().unwrap();
        assert!(queue.lanes.is_empty(), "dropped lane unregisters");
        assert_eq!(queue.jobs.len(), 3, "orphaned jobs migrate, never vanish");
    }

    #[test]
    fn lane_routed_batches_return_identical_results() {
        // Lanes decide scheduling order only: a batch routed through any
        // lane (or none) returns exactly what the serial map would.
        let pool = Arc::new(WorkerPool::new());
        let interactive = pool.lane(LanePriority::Interactive, 1024);
        let bulk = pool.lane(LanePriority::Bulk, 1024);
        std::thread::scope(|scope| {
            for (t, lane) in [Some(&interactive), Some(&bulk), None].into_iter().enumerate() {
                let pool = Arc::clone(&pool);
                scope.spawn(move || {
                    let _guard = lane.map(LaneHandle::enter);
                    for round in 0..15 {
                        let base = t * 1000 + round;
                        let got = pool.run(4, move |w| base * 10 + w);
                        let want: Vec<usize> = (0..4).map(|w| base * 10 + w).collect();
                        assert_eq!(got, want, "thread {t} round {round}");
                    }
                });
            }
        });
    }

    /// Reads `(state, utime + stime ticks)` of every thread of this
    /// process whose name starts with `valmod-pool`.
    #[cfg(target_os = "linux")]
    fn pool_thread_stats() -> Vec<(char, u64)> {
        let mut stats = Vec::new();
        let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
            return stats;
        };
        for task in tasks.flatten() {
            let Ok(stat) = std::fs::read_to_string(task.path().join("stat")) else {
                continue;
            };
            // Format: pid (comm) state utime=14th stime=15th ...; comm may
            // contain spaces, so split at the closing paren.
            let Some(close) = stat.rfind(')') else { continue };
            let Some(open) = stat.find('(') else { continue };
            if !stat[open + 1..close].starts_with("valmod-pool") {
                continue;
            }
            let rest: Vec<&str> = stat[close + 2..].split_whitespace().collect();
            let state = rest.first().and_then(|s| s.chars().next()).unwrap_or('?');
            let utime: u64 = rest.get(11).and_then(|s| s.parse().ok()).unwrap_or(0);
            let stime: u64 = rest.get(12).and_then(|s| s.parse().ok()).unwrap_or(0);
            stats.push((state, utime + stime));
        }
        stats
    }

    /// The satellite requirement: idle pool threads must truly park (block
    /// in `Condvar::wait`), not busy-spin. Verified against the OS: after
    /// a bounded settling window, every pool thread is in state `S`
    /// (interruptible sleep) and its CPU-tick counters stop advancing.
    #[test]
    #[cfg(target_os = "linux")]
    fn idle_pool_threads_park_without_spinning() {
        let pool = WorkerPool::new();
        // Force threads into existence, then go idle.
        assert_eq!(pool.run(4, |w| w).len(), 4);
        assert!(pool.threads() >= 3);

        // Time-bounded: wait up to 2 s for all pool threads to reach S.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
        let mut settled = pool_thread_stats();
        while settled.iter().any(|&(state, _)| state != 'S') {
            assert!(std::time::Instant::now() < deadline, "pool threads never parked: {settled:?}");
            std::thread::sleep(std::time::Duration::from_millis(20));
            settled = pool_thread_stats();
        }
        let before: u64 = settled.iter().map(|&(_, ticks)| ticks).sum();

        // A spinning thread burns ~1 tick / 10 ms; over 300 ms of enforced
        // idleness, 3+ spinners would rack up ~90 ticks. Parked threads
        // accrue none.
        std::thread::sleep(std::time::Duration::from_millis(300));
        let after_stats = pool_thread_stats();
        let after: u64 = after_stats.iter().map(|&(_, ticks)| ticks).sum();
        assert!(after_stats.iter().all(|&(state, _)| state == 'S'), "woke up: {after_stats:?}");
        assert!(
            after - before <= 2,
            "idle pool threads consumed CPU: {before} -> {after} ticks ({after_stats:?})"
        );
    }
}
