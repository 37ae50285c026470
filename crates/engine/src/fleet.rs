//! The execution substrate behind both facades: a small pool of worker
//! threads serving every registered tenant's shard cores, with optional
//! work stealing between the workers' queues.
//!
//! ## Shape
//!
//! A [`Fleet`] owns `W` worker threads, each with its own FIFO of
//! `Task`s. A tenant registered via [`Fleet::register`] gets an
//! [`AsyncEngine`] handle whose shard cores are plain `ShardWorker`
//! state machines parked inside `CoreCell`s; each core is *homed* on one
//! worker queue. Thousands of tenants therefore cost thousands of
//! heap-allocated cores, not thousands of threads. The sync
//! [`Engine`](crate::Engine) is one tenant on a private fleet of its
//! own: stealing off, one worker per shard, core `i` homed on worker `i`.
//!
//! ## Faults
//!
//! A panic inside a core's state machine (a broken reallocator) retires
//! that core, not the pool thread: the worker catches the unwind and
//! drops the core's state. Later commands for it are dropped unserved —
//! their reply channels close, so barriers report
//! [`EngineError::ShardDown`] — but their completion slots still fire.
//! Every other core on the worker keeps serving.
//!
//! ## The steal protocol (queues, not objects)
//!
//! When stealing is on, an idle worker takes the *front task* of the
//! most backlogged other queue and tries to run it on the owning core.
//! Whole queued batches move, never individual objects, so shard
//! affinity is untouched and per-object request order survives — order
//! is enforced by a per-core apply sequence: every task carries the
//! `seq` it was enqueued with, and a core only applies task `n` after
//! task `n-1`. The thief *peeks before it takes*: it wins the core's
//! lock first and only then removes the batch from the owner's queue,
//! so on either conflict edge the batch simply stays queued at its
//! owner — a failed attempt costs two lock probes and disturbs neither
//! the queue nor the order:
//!
//! 1. **lock conflict** — the core is mid-batch on another worker
//!    (`try_lock` fails; thieves never block on a core), and
//! 2. **seq conflict** — an *earlier* batch of the same core is in
//!    another worker's hands (popped but not yet locked), so applying
//!    this one would reorder.
//!
//! Successful steals bump `batches_stolen` (and observe how long the
//! batch waited queued); both conflict edges bump `steal_conflicts`.
//! Counters accumulate per tenant (so each tenant's
//! [`MetricsSnapshot`](crate::MetricsSnapshot) scrape carries its own
//! [`StealStats`]) and fleet-wide
//! ([`Fleet::steal_totals`]); per-tenant scrapes sum to the totals.
//!
//! ## Why this cannot deadlock or reorder
//!
//! A worker holds at most one core-side lock at a time (one core's
//! state lock, *or* one core's inflight counter), and thieves only ever
//! `try_lock` a core — the one nested hold (a thief probing a core
//! while holding the victim's queue lock) can therefore never wait.
//! Removal is what makes order trivial: a task leaves a queue only on
//! its home worker (which applies tasks one at a time, in pop order) or
//! under its core's lock with the sequence check already passed, so at
//! most one same-core task is ever un-applied outside the queue and the
//! apply sequence admits tasks in enqueue order exactly. The home
//! worker never blocks on its own core either: if a thief holds the
//! lock, the home re-enqueues the task (before its core's next task, so
//! core order is preserved) and serves its other tenants first. The
//! seq-gap arm of that home path survives only as a defensive check —
//! with peek-before-take it is unreachable.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, TryLockError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use realloc_common::oneshot;
use realloc_common::{BoxedReallocator, Router};
use realloc_telemetry::Histogram;

use crate::async_facade::AsyncEngine;
use crate::engine::{EngineConfig, EngineError};
use crate::metrics::StealStats;
use crate::shard::{clear_stale_wal, Command, ShardWorker};

/// How a [`Fleet`] is shaped: worker-thread count and whether idle
/// workers steal queued batches from backlogged peers.
#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    /// Worker threads (and steal-able task queues). Every registered
    /// tenant's cores are multiplexed over these.
    pub workers: usize,
    /// Whether idle workers steal whole queued batches from the most
    /// backlogged other queue. Off, the fleet is a plain multiplexer.
    pub steal: bool,
}

impl FleetConfig {
    /// `workers` threads, stealing off.
    pub fn with_workers(workers: usize) -> FleetConfig {
        FleetConfig {
            workers,
            steal: false,
        }
    }

    /// Enables (or disables) batch stealing.
    pub fn stealing(mut self, steal: bool) -> FleetConfig {
        self.steal = steal;
        self
    }
}

impl Default for FleetConfig {
    /// Four workers, stealing off.
    fn default() -> FleetConfig {
        FleetConfig::with_workers(4)
    }
}

/// Per-tenant work-stealing accumulators, shared by the tenant's cores
/// and every thief that serves them. Scraped into
/// [`StealStats`](crate::metrics::StealStats) by the tenant's metrics
/// barrier.
pub(crate) struct StealTelemetry {
    batches_stolen: AtomicU64,
    steal_conflicts: AtomicU64,
    steal_wait_ns: Histogram,
}

impl StealTelemetry {
    pub(crate) fn new() -> StealTelemetry {
        StealTelemetry {
            batches_stolen: AtomicU64::new(0),
            steal_conflicts: AtomicU64::new(0),
            steal_wait_ns: Histogram::new(),
        }
    }

    pub(crate) fn snapshot(&self) -> StealStats {
        StealStats {
            batches_stolen: self.batches_stolen.load(Ordering::Relaxed),
            steal_conflicts: self.steal_conflicts.load(Ordering::Relaxed),
            steal_wait_ns: self.steal_wait_ns.snapshot(),
        }
    }
}

/// What fleet workers execute. `Apply` drives the core's state machine;
/// `Fence` is a pure ordering barrier — it touches no core state, it just
/// occupies a slot in the apply sequence so its completion slots resolve
/// only after everything enqueued before it.
pub(crate) enum TaskCmd {
    Apply(Command),
    Fence,
}

/// One unit of queued work: a command against one core, its position in
/// that core's apply sequence, and the completion slots to fulfil once
/// it has been applied.
pub(crate) struct Task {
    pub(crate) core: Arc<CoreCell>,
    pub(crate) seq: u64,
    pub(crate) cmd: TaskCmd,
    pub(crate) enqueued: Instant,
    pub(crate) slots: Vec<oneshot::Sender<()>>,
}

/// The part of a core only its current executor may touch.
pub(crate) struct CoreState {
    /// The shard state machine; `None` after its `Finish` barrier or a
    /// panic inside it.
    pub(crate) worker: Option<ShardWorker>,
    /// Seq of the next task this core may apply — the order guard that
    /// makes stealing invisible to per-object request order.
    pub(crate) next_apply: u64,
}

/// One tenant shard parked in the fleet: the worker state machine, its
/// apply-sequence guard, and the admission counter that bounds how many
/// of its tasks may be queued or running (`queue_depth`) — the intake's
/// backpressure.
pub(crate) struct CoreCell {
    /// Index of the worker queue this core's tasks are enqueued on.
    pub(crate) home: usize,
    /// Admission bound: tasks admitted but not yet applied.
    depth: usize,
    pub(crate) state: Mutex<CoreState>,
    inflight: Mutex<usize>,
    freed: Condvar,
    /// The owning tenant's steal accumulators.
    pub(crate) steal: Arc<StealTelemetry>,
}

impl CoreCell {
    pub(crate) fn new(
        worker: Option<ShardWorker>,
        home: usize,
        depth: usize,
        steal: Arc<StealTelemetry>,
    ) -> CoreCell {
        CoreCell {
            home,
            depth,
            state: Mutex::new(CoreState {
                worker,
                next_apply: 0,
            }),
            inflight: Mutex::new(0),
            freed: Condvar::new(),
            steal,
        }
    }

    /// Blocks until the core has an admission slot free, then takes it.
    /// Only an admit that actually found the core full pays a clock read
    /// and records a stall observation.
    pub(crate) fn admit(&self, stall: Option<&Histogram>) {
        let mut inflight = self.inflight.lock().expect("core inflight poisoned");
        if *inflight >= self.depth {
            let started = stall.map(|_| Instant::now());
            while *inflight >= self.depth {
                inflight = self.freed.wait(inflight).expect("core inflight poisoned");
            }
            if let (Some(stall), Some(started)) = (stall, started) {
                stall.record(started.elapsed().as_nanos() as u64);
            }
        }
        *inflight += 1;
    }

    /// Returns an admission slot after a task has been applied.
    fn release(&self) {
        let mut inflight = self.inflight.lock().expect("core inflight poisoned");
        *inflight -= 1;
        drop(inflight);
        self.freed.notify_all();
    }
}

/// One worker's FIFO plus its wakeup signal.
pub(crate) struct WorkerQueue {
    pub(crate) tasks: Mutex<VecDeque<Task>>,
    pub(crate) ready: Condvar,
}

impl WorkerQueue {
    fn new() -> WorkerQueue {
        WorkerQueue {
            tasks: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
        }
    }
}

/// Everything worker threads and tenant handles share.
pub(crate) struct FleetShared {
    pub(crate) queues: Vec<WorkerQueue>,
    pub(crate) steal: bool,
    pub(crate) shutdown: AtomicBool,
    paused: Vec<AtomicBool>,
    totals: StealTelemetry,
}

/// The tenant registry and worker pool. Register tenants with
/// [`register`](Fleet::register) (or the WAL'd/pinned variants), drive
/// them through their [`AsyncEngine`] handles, shut
/// the tenants down, then drop (or [`shutdown`](Fleet::shutdown)) the
/// fleet. Tenant handles must not outlive the fleet: once it is gone,
/// their futures resolve immediately and new work is silently dropped.
pub struct Fleet {
    pub(crate) shared: Arc<FleetShared>,
    threads: Vec<JoinHandle<()>>,
    next_home: AtomicUsize,
    next_tenant: AtomicUsize,
}

impl Fleet {
    /// Spawns the worker pool.
    ///
    /// # Panics
    /// Panics if `config.workers` is zero.
    pub fn new(config: FleetConfig) -> Fleet {
        assert!(config.workers > 0, "a fleet needs at least one worker");
        let shared = Arc::new(FleetShared {
            queues: (0..config.workers).map(|_| WorkerQueue::new()).collect(),
            steal: config.steal,
            shutdown: AtomicBool::new(false),
            paused: (0..config.workers)
                .map(|_| AtomicBool::new(false))
                .collect(),
            totals: StealTelemetry::new(),
        });
        let threads = (0..config.workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("realloc-fleet-{w}"))
                    .spawn(move || worker_loop(&shared, w))
                    .expect("spawn fleet worker")
            })
            .collect();
        Fleet {
            shared,
            threads,
            next_home: AtomicUsize::new(0),
            next_tenant: AtomicUsize::new(0),
        }
    }

    /// Registers a tenant: builds its shard cores (any `Reallocator +
    /// Send` per shard, like [`Engine::with_router`](crate::Engine)),
    /// homes them round-robin over the worker queues, and returns the
    /// async handle.
    ///
    /// # Panics
    /// Panics like the sync constructors on a zero shard/batch count or
    /// a router/config shard-count mismatch.
    pub fn register<F>(
        &self,
        config: EngineConfig,
        router: Box<dyn Router>,
        factory: F,
    ) -> AsyncEngine
    where
        F: FnMut(usize) -> BoxedReallocator,
    {
        self.build_tenant(config, router, factory, None, None)
            .expect("spawning cores without a WAL cannot fail")
    }

    /// [`register`](Fleet::register), but every core homed on one
    /// specific worker queue. Deterministic placement for tests and the
    /// tail-latency bench (e.g. co-locating a hot tenant with its
    /// victims so only stealing can spread the load).
    ///
    /// # Panics
    /// Panics if `worker` is out of range, plus the
    /// [`register`](Fleet::register) panics.
    pub fn register_pinned<F>(
        &self,
        config: EngineConfig,
        router: Box<dyn Router>,
        factory: F,
        worker: usize,
    ) -> AsyncEngine
    where
        F: FnMut(usize) -> BoxedReallocator,
    {
        assert!(
            worker < self.shared.queues.len(),
            "pinned worker {worker} out of range ({} workers)",
            self.shared.queues.len()
        );
        self.build_tenant(config, router, factory, None, Some(worker))
            .expect("spawning cores without a WAL cannot fail")
    }

    /// [`register`](Fleet::register) with durability: each core journals
    /// into `wal_dir` exactly like [`Engine::with_wal`](crate::Engine),
    /// so a crashed tenant is rebuilt with the ordinary sync
    /// [`Engine::recover`](crate::Engine) on the same directory. Give
    /// every tenant its own directory.
    ///
    /// # Errors
    /// [`EngineError::Wal`] if the directory or a shard's log cannot be
    /// created.
    pub fn register_with_wal<F>(
        &self,
        config: EngineConfig,
        router: Box<dyn Router>,
        factory: F,
        wal_dir: impl AsRef<Path>,
    ) -> Result<AsyncEngine, EngineError>
    where
        F: FnMut(usize) -> BoxedReallocator,
    {
        let dir = wal_dir.as_ref().to_path_buf();
        clear_stale_wal(&dir)?;
        self.build_tenant(config, router, factory, Some(dir), None)
    }

    fn build_tenant<F>(
        &self,
        config: EngineConfig,
        router: Box<dyn Router>,
        mut factory: F,
        wal_dir: Option<std::path::PathBuf>,
        pinned: Option<usize>,
    ) -> Result<AsyncEngine, EngineError>
    where
        F: FnMut(usize) -> BoxedReallocator,
    {
        let tenant = self.next_tenant.fetch_add(1, Ordering::Relaxed);
        let mut engine =
            AsyncEngine::new(Arc::clone(&self.shared), tenant, config, router, wal_dir);
        for shard in 0..config.shards {
            let home = pinned
                .unwrap_or_else(|| self.next_home.fetch_add(1, Ordering::Relaxed) % self.workers());
            engine.spawn_core(factory(shard), home, 0)?;
        }
        Ok(engine)
    }

    /// Worker-thread count.
    pub fn workers(&self) -> usize {
        self.shared.queues.len()
    }

    /// Whether batch stealing is on.
    pub fn stealing(&self) -> bool {
        self.shared.steal
    }

    /// Fleet-wide steal counters (every tenant's observations summed —
    /// per-tenant scrapes reconcile against this).
    pub fn steal_totals(&self) -> StealStats {
        self.shared.totals.snapshot()
    }

    /// Testing/bench hook: parks worker `w` — it applies nothing (own
    /// tasks *or* steals) until [`resume_worker`](Fleet::resume_worker).
    /// With stealing on, a paused home worker makes every one of its
    /// queued batches a forced steal; with stealing off it simulates a
    /// flush-bound shard. Shutdown resumes all workers.
    pub fn pause_worker(&self, w: usize) {
        self.shared.paused[w].store(true, Ordering::Release);
    }

    /// Un-parks a worker paused by [`pause_worker`](Fleet::pause_worker).
    pub fn resume_worker(&self, w: usize) {
        self.shared.paused[w].store(false, Ordering::Release);
        self.shared.queues[w].ready.notify_all();
    }

    /// Stops the worker pool: each worker drains its own queue, then
    /// exits. Call after the tenants have been shut down (dropping the
    /// fleet does the same).
    pub fn shutdown(self) {}
}

impl Drop for Fleet {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        for paused in &self.shared.paused {
            paused.store(false, Ordering::Release);
        }
        for queue in &self.shared.queues {
            queue.ready.notify_all();
        }
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

/// One worker: drain own queue, steal if idle, park briefly otherwise.
fn worker_loop(shared: &FleetShared, me: usize) {
    loop {
        if shared.paused[me].load(Ordering::Acquire) {
            std::thread::sleep(Duration::from_micros(200));
            continue;
        }
        let task = {
            let mut tasks = shared.queues[me]
                .tasks
                .lock()
                .expect("fleet queue poisoned");
            tasks.pop_front()
        };
        if let Some(task) = task {
            run_own(shared, task);
            continue;
        }
        if shared.steal {
            match steal_once(shared, me) {
                Steal::Applied => continue,
                Steal::Conflict => {
                    // The contended core is mid-apply on another thread —
                    // probably deep in the very spike the steal patience
                    // waited out. Retrying hot only taxes the thread doing
                    // the work (it may share this CPU); nap a real interval.
                    std::thread::sleep(Duration::from_micros(250));
                    continue;
                }
                Steal::Empty => {}
            }
        }
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        let tasks = shared.queues[me]
            .tasks
            .lock()
            .expect("fleet queue poisoned");
        if tasks.is_empty() {
            // Timed wait: steal candidates and the pause flag live outside
            // this queue's condvar, so re-scan a few thousand times a second.
            let _ = shared.queues[me]
                .ready
                .wait_timeout(tasks, Duration::from_micros(500))
                .expect("fleet queue poisoned");
        }
    }
}

/// Runs a task popped from its home queue. A locked core means a thief
/// is mid-apply on it — don't stand blocked while other cores' work
/// queues behind; put the task back in core order and serve someone
/// else. A seq gap likewise means a thief holds an *earlier* batch.
fn run_own(shared: &FleetShared, task: Task) {
    let core = Arc::clone(&task.core);
    let state = match core.state.try_lock() {
        Ok(state) => state,
        Err(TryLockError::WouldBlock) => {
            // Not a steal conflict — nothing was attempted, the home
            // just declines to idle against a thief's lock.
            requeue(shared, task);
            std::thread::yield_now();
            return;
        }
        Err(TryLockError::Poisoned(e)) => panic!("core state poisoned: {e}"),
    };
    if state.next_apply != task.seq {
        // Defensive: unreachable by construction (see the module docs),
        // kept so a future protocol change fails soft instead of
        // reordering — count it and hand the batch back in core order.
        drop(state);
        mark_conflict(shared, &task.core);
        requeue(shared, task);
        std::thread::yield_now();
        return;
    }
    apply(&core, state, task);
}

/// How one steal attempt ended.
enum Steal {
    /// A batch was stolen and applied.
    Applied,
    /// A conflict edge fired; the batch stayed at its owner. Worth
    /// retrying soon — the contended core frees within one batch.
    Conflict,
    /// Nothing to steal anywhere.
    Empty,
}

/// One steal attempt: peek the front of the most backlogged other
/// queue, win its core's lock *first*, and only then take the batch.
/// Never blocks on a core, and never removes a batch it cannot apply —
/// a conflict leaves the owner's queue byte-untouched.
fn steal_once(shared: &FleetShared, me: usize) -> Steal {
    let Some(victim) = best_victim(shared, me) else {
        return Steal::Empty;
    };
    let mut tasks = shared.queues[victim]
        .tasks
        .lock()
        .expect("fleet queue poisoned");
    let Some(front) = tasks.front() else {
        return Steal::Empty; // drained between the length probe and here
    };
    if !shared.paused[victim].load(Ordering::Acquire) && front.enqueued.elapsed() < STEAL_PATIENCE {
        // The home is live and the wait is still short — let it keep
        // its cache-hot core. Not a conflict: nothing contended, the
        // batch just is not worth taking yet.
        return Steal::Empty;
    }
    let core = Arc::clone(&front.core);
    let seq = front.seq;
    let state = match core.state.try_lock() {
        Ok(state) => state,
        Err(TryLockError::WouldBlock) => {
            // Conflict edge 1: the core is busy on another worker.
            drop(tasks);
            mark_conflict(shared, &core);
            return Steal::Conflict;
        }
        Err(TryLockError::Poisoned(e)) => panic!("core state poisoned: {e}"),
    };
    if state.next_apply != seq {
        // Conflict edge 2: an earlier batch of this core is in another
        // worker's hands (popped, not yet locked); applying now would
        // reorder.
        drop(state);
        drop(tasks);
        mark_conflict(shared, &core);
        return Steal::Conflict;
    }
    let task = tasks
        .pop_front()
        .expect("peeked front vanished under the queue lock");
    drop(tasks);
    let waited = task.enqueued.elapsed().as_nanos() as u64;
    core.steal.batches_stolen.fetch_add(1, Ordering::Relaxed);
    core.steal.steal_wait_ns.record(waited);
    shared.totals.batches_stolen.fetch_add(1, Ordering::Relaxed);
    shared.totals.steal_wait_ns.record(waited);
    apply(&core, state, task);
    Steal::Applied
}

/// How long a live home's front task must have waited before thieves
/// move in.
///
/// Stealing is not free: a stolen apply drags the core's cache-hot
/// reallocator state to another thread (on another CPU when there is
/// one), and the home declines into requeue churn whenever it meets the
/// thief's lock. A home that is merely mid-apply frees its front task
/// within tens of microseconds — cheaper to let it. A front task older
/// than this has its home genuinely stuck — most likely inside one
/// core's monolithic rebuild spike, which runs milliseconds at the
/// ≈10⁵-byte volumes a loaded core carries — and the queue wait already
/// dwarfs anything a steal can waste. Paused homes are exempt:
/// everything they hold is stranded until a thief takes it.
pub(crate) const STEAL_PATIENCE: Duration = Duration::from_millis(2);

/// The most backlogged queue other than `me`, if any has work.
fn best_victim(shared: &FleetShared, me: usize) -> Option<usize> {
    let mut best: Option<(usize, usize)> = None;
    for (w, queue) in shared.queues.iter().enumerate() {
        if w == me {
            continue;
        }
        let len = queue.tasks.lock().expect("fleet queue poisoned").len();
        if len > 0 && best.is_none_or(|(_, blen)| len > blen) {
            best = Some((w, len));
        }
    }
    best.map(|(w, _)| w)
}

/// Applies a task whose turn has come on a locked core, then — with the
/// core lock released — returns the admission slot and fulfils the
/// completion slots, so an awaiting client observes an unlocked core
/// with capacity free. A panicking state machine retires its core (see
/// the module docs); the command it was serving is dropped with it.
fn apply<'a>(core: &'a Arc<CoreCell>, mut state: std::sync::MutexGuard<'a, CoreState>, task: Task) {
    if let (TaskCmd::Apply(cmd), Some(worker)) = (task.cmd, state.worker.as_mut()) {
        if catch_unwind(AssertUnwindSafe(|| worker.handle(cmd))).unwrap_or(true) {
            state.worker = None;
        }
    }
    state.next_apply += 1;
    drop(state);
    core.release();
    for slot in task.slots {
        slot.send(());
    }
}

/// Counts a conflict against the core's tenant and the fleet totals.
/// The batch itself is untouched — with peek-before-take it never left
/// its owner's queue.
fn mark_conflict(shared: &FleetShared, core: &CoreCell) {
    core.steal.steal_conflicts.fetch_add(1, Ordering::Relaxed);
    shared
        .totals
        .steal_conflicts
        .fetch_add(1, Ordering::Relaxed);
}

/// Re-enqueues a task on its home queue, directly in front of the first
/// queued task of the same core: anything queued for this core was
/// enqueued later (higher seq), so this restores seq order among
/// same-core tasks. Cross-core order carries no semantics, so with no
/// same-core task queued it goes to the back — the home works through
/// other cores before coming back to the contended one.
fn requeue(shared: &FleetShared, task: Task) {
    let queue = &shared.queues[task.core.home];
    let mut tasks = queue.tasks.lock().expect("fleet queue poisoned");
    match tasks.iter().position(|t| Arc::ptr_eq(&t.core, &task.core)) {
        Some(pos) => tasks.insert(pos, task),
        None => tasks.push_back(task),
    }
    drop(tasks);
    queue.ready.notify_one();
}
