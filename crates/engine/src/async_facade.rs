//! The async tenant handle [`AsyncEngine`] — and the one intake both
//! facades share.
//!
//! [`insert`](AsyncEngine::insert) / [`delete`](AsyncEngine::delete) /
//! [`flush`](AsyncEngine::flush) return an [`Ack`] and
//! [`quiesce`](AsyncEngine::quiesce) a [`QuiesceFuture`] — lightweight
//! futures backed by [`realloc_common::oneshot`] completion slots that a
//! fleet worker fulfils when the *batch* carrying the request finishes.
//! No executor is assumed: await them in any runtime, drive them with
//! [`realloc_common::block_on`], or drop them (a dropped future turns
//! its fulfilment into a no-op; the request is still served).
//!
//! ## One intake, two facades
//!
//! `AsyncEngine` is the whole client side of serving: the router, the
//! per-shard pending buffers and the batching law that ships them, the
//! admission-bounded hand-off onto fleet queues, fences, the barrier
//! fan-out and its aggregation, checkpoint router pins, and the metrics
//! merge. The sync [`Engine`](crate::Engine) is one `AsyncEngine` tenant on a private
//! [`Fleet`](crate::Fleet) and adds only what async tenants lack (online
//! rebalancing, resizing, transfer sequencing, retired finals, the event
//! journal). A given call sequence therefore produces byte-identical
//! per-core command streams on either facade, and the per-core apply
//! sequence (see [`fleet`](crate::fleet)) serves them in that order
//! whichever worker runs them. Extents, substrate bytes, stats (including
//! batch counts), cost summaries, and the deterministic metrics projection match
//! exactly; `tests/async_facade.rs` pins this for all four registry
//! variants. What does *not* match is scheduling: wall-clock histograms,
//! intake stalls, and the [`StealStats`](crate::metrics::StealStats)
//! block are excluded from metric equality for exactly that reason.

use std::future::Future;
use std::path::{Path, PathBuf};
use std::pin::Pin;
use std::sync::{mpsc, Arc};
use std::task::{ready, Context, Poll};
use std::time::Instant;

use realloc_common::oneshot;
use realloc_common::{block_on, BoxedReallocator, Extent, ObjectId, Router};
use realloc_telemetry::{EventJournal, Histogram};
use workload_gen::Request;

use crate::engine::{EngineConfig, EngineError};
use crate::fleet::{CoreCell, FleetShared, StealTelemetry, Task, TaskCmd};
use crate::metrics::MetricsSnapshot;
use crate::shard::{Command, ShardError, ShardFinal, ShardReply, ShardWorker};
use crate::stats::EngineStats;
use crate::substrate::{ShardBytes, SubstrateReport};

/// A batch-completion future: resolves once every request it covers has
/// been applied by its core (and, on a WAL'd tenant, group-committed).
///
/// Dropping an `Ack` is always safe — the work still happens, only the
/// notification is discarded. If the fleet is torn down while tasks are
/// still queued, orphaned acks resolve instead of hanging.
pub struct Ack {
    /// A request's own slot, kept out of `many` so a per-request ack
    /// allocates nothing beyond the slot. `None` once resolved.
    one: Option<oneshot::Receiver<()>>,
    /// The unresolved slots of a multi-core ack (a fence per core).
    many: Vec<oneshot::Receiver<()>>,
}

impl Ack {
    /// Blocks the current thread until the ack resolves (a
    /// [`block_on`] convenience).
    pub fn wait(self) {
        block_on(self)
    }
}

impl Future for Ack {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        // A resolved slot is done whether it carries `Ok` or `Err(Dropped)`
        // (the fleet died with the task still queued — resolve rather than
        // hang forever).
        let this = self.get_mut();
        let mut pending = |rx: &mut oneshot::Receiver<()>| Pin::new(rx).poll(cx).is_pending();
        if this.one.as_mut().is_some_and(|rx| !pending(rx)) {
            this.one = None;
        }
        this.many.retain_mut(|rx| pending(rx));
        if this.one.is_none() && this.many.is_empty() {
            Poll::Ready(())
        } else {
            Poll::Pending
        }
    }
}

/// A barrier's replies in shard order, once its acks have resolved. A core
/// sends its reply inside `handle`, before its completion slot fires, so a
/// missing reply means the core is gone.
fn collect<T>(rxs: Vec<mpsc::Receiver<T>>) -> Result<Vec<T>, EngineError> {
    rxs.into_iter()
        .enumerate()
        .map(|(shard, rx)| rx.try_recv().map_err(|_| EngineError::ShardDown { shard }))
        .collect()
}

/// The future returned by [`AsyncEngine::quiesce`]: resolves to the same
/// aggregated [`EngineStats`] (with the same error surfacing) the sync
/// [`Engine::quiesce`](crate::Engine) barrier returns.
pub struct QuiesceFuture {
    acks: Ack,
    /// One reply channel per core; taken on completion.
    replies: Vec<mpsc::Receiver<ShardReply>>,
}

impl QuiesceFuture {
    /// Blocks the current thread until the quiesce completes.
    pub fn wait(self) -> Result<EngineStats, EngineError> {
        block_on(self)
    }
}

impl Future for QuiesceFuture {
    type Output = Result<EngineStats, EngineError>;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        assert!(
            !self.replies.is_empty(),
            "quiesce future polled after completion"
        );
        ready!(Pin::new(&mut self.acks).poll(cx));
        Poll::Ready(collect(std::mem::take(&mut self.replies)).and_then(aggregate))
    }
}

/// The error-surfacing rule every barrier shares, over rows of `(shard,
/// first rejected request, first substrate failure)`: both are sticky, a
/// rejected request outranks a substrate failure, and within each kind
/// the lowest-numbered shard wins.
pub(crate) fn surface<'a>(
    rows: impl Iterator<Item = (usize, &'a Option<ShardError>, &'a Option<String>)>,
) -> Result<(), EngineError> {
    let mut substrate = None;
    for (shard, request, detail) in rows {
        if let Some(err) = request {
            return Err(EngineError::Request {
                shard,
                index: err.index,
                error: err.error,
            });
        }
        if let Some(detail) = detail {
            substrate.get_or_insert_with(|| EngineError::Substrate {
                shard,
                detail: detail.clone(),
            });
        }
    }
    substrate.map_or(Ok(()), Err)
}

/// Aggregates a stats barrier's replies, surfacing sticky errors first.
fn aggregate(replies: Vec<ShardReply>) -> Result<EngineStats, EngineError> {
    surface(
        replies
            .iter()
            .map(|r| (r.stats.shard, &r.first_error, &r.first_substrate_error)),
    )?;
    Ok(EngineStats {
        per_shard: replies.into_iter().map(|r| r.stats).collect(),
    })
}

/// How much of an `n`-request buffer a planned flush ships: nothing
/// below half a batch (let it keep filling), at most one batch, and
/// everything in between ships whole.
fn planned_take(n: usize, batch: usize) -> Option<usize> {
    if n < batch / 2 {
        None
    } else {
        Some(n.min(batch))
    }
}

/// A held core lock (testing): while alive, no worker — home or thief —
/// can apply this core's tasks, so a steal attempt deterministically
/// takes the lock-conflict edge.
#[doc(hidden)]
pub struct CoreHold<'a> {
    _guard: std::sync::MutexGuard<'a, crate::fleet::CoreState>,
}

/// One tenant's handle onto a [`Fleet`](crate::Fleet): the async
/// counterpart of the sync [`Engine`](crate::Engine), sharing its shard state machine,
/// batching law, WAL format, and barrier semantics — they are this
/// type's. Build one with [`Fleet::register`](crate::Fleet) (or the
/// WAL'd / pinned variants).
pub struct AsyncEngine {
    shared: Arc<FleetShared>,
    tenant: usize,
    /// `shards` tracks the number of cores as they are spawned and retired.
    pub(crate) config: EngineConfig,
    pub(crate) router: Box<dyn Router>,
    cores: Vec<Arc<CoreCell>>,
    /// Next apply-sequence number per core (one enqueuing handle per
    /// tenant, so a plain counter is the whole ordering story).
    next_seq: Vec<u64>,
    /// Per-shard batch under construction, plus the completion slots of
    /// the requests in it (index-aligned).
    pending: Vec<Vec<Request>>,
    pending_slots: Vec<Vec<oneshot::Sender<()>>>,
    /// Client-side intake-stall observations, one histogram per core
    /// (empty without telemetry): how long a ship blocked on a full core.
    stalls: Vec<Histogram>,
    steal: Arc<StealTelemetry>,
    wal_dir: Option<PathBuf>,
    scrapes: u64,
    last_metrics: Option<MetricsSnapshot>,
}

impl AsyncEngine {
    /// A tenant with no cores yet ([`spawn_core`](Self::spawn_core) adds
    /// them). Panics on a zero shard/batch count or a router/config
    /// shard-count mismatch.
    pub(crate) fn new(
        shared: Arc<FleetShared>,
        tenant: usize,
        config: EngineConfig,
        router: Box<dyn Router>,
        wal_dir: Option<PathBuf>,
    ) -> AsyncEngine {
        assert!(config.shards > 0, "engine needs at least one shard");
        assert!(config.batch > 0, "batch size must be positive");
        assert_eq!(
            router.shards(),
            config.shards,
            "router and config disagree on the shard count"
        );
        AsyncEngine {
            shared,
            tenant,
            config,
            router,
            cores: Vec::new(),
            next_seq: Vec::new(),
            pending: Vec::new(),
            pending_slots: Vec::new(),
            stalls: Vec::new(),
            steal: Arc::new(StealTelemetry::new()),
            wal_dir,
            scrapes: 0,
            last_metrics: None,
        }
    }

    /// Builds the next shard's state machine (substrate, journal, and
    /// telemetry as configured; `recoveries` seeds its recovery counter)
    /// and parks it in a core homed on fleet worker `home`.
    pub(crate) fn spawn_core(
        &mut self,
        realloc: BoxedReallocator,
        home: usize,
        recoveries: u64,
    ) -> Result<(), EngineError> {
        let shard = self.cores.len();
        let worker = ShardWorker::build(
            &self.config,
            shard,
            realloc,
            self.wal_dir.as_deref(),
            recoveries,
        )?;
        self.cores.push(self.core(Some(worker), home));
        self.next_seq.push(0);
        self.pending.push(Vec::with_capacity(self.config.batch));
        self.pending_slots.push(Vec::new());
        if self.config.telemetry {
            self.stalls.push(Histogram::new());
        }
        self.config.shards = self.cores.len();
        Ok(())
    }

    /// Retires the highest-numbered core through a final `Finish` barrier
    /// (its closing checkpoint pins nothing: the caller has drained it).
    pub(crate) fn retire_core(&mut self) -> Result<ShardFinal, EngineError> {
        let shard = self.cores.len() - 1;
        let fin = self
            .request(shard, |reply| Command::Finish {
                reply,
                pins: Vec::new(),
            })
            .recv()
            .map_err(|_| EngineError::ShardDown { shard })?;
        self.cores.pop();
        self.next_seq.pop();
        self.pending.pop();
        self.pending_slots.pop();
        self.stalls.truncate(self.cores.len());
        self.config.shards = self.cores.len();
        Ok(fin)
    }

    /// Moves every core onto `shared`'s worker queues, core `i` homed on
    /// worker `i`. Everything already enqueued is applied first, so no
    /// task is left behind on the old queues.
    pub(crate) fn rehost(&mut self, shared: Arc<FleetShared>) {
        block_on(self.fence_all());
        for (home, old) in std::mem::take(&mut self.cores).iter().enumerate() {
            let worker = old.state.lock().expect("core state poisoned").worker.take();
            self.cores.push(self.core(worker, home));
        }
        self.next_seq.fill(0);
        self.shared = shared;
    }

    /// A core cell for `worker` on fleet worker `home`, apply sequence at 0.
    fn core(&self, worker: Option<ShardWorker>, home: usize) -> Arc<CoreCell> {
        let depth = self.config.queue_depth.max(1);
        Arc::new(CoreCell::new(worker, home, depth, Arc::clone(&self.steal)))
    }

    /// The fleet-assigned tenant ordinal (registration order).
    pub fn tenant(&self) -> usize {
        self.tenant
    }

    /// Number of shards (cores).
    pub fn shards(&self) -> usize {
        self.config.shards
    }

    /// The tenant's configuration.
    pub fn config(&self) -> EngineConfig {
        self.config
    }

    /// The routing layer, for inspection.
    pub fn router(&self) -> &dyn Router {
        self.router.as_ref()
    }

    /// The shard that owns `id` right now.
    pub fn shard_of(&self, id: ObjectId) -> usize {
        self.router.route(id)
    }

    /// The write-ahead-log directory, when durability is on.
    pub fn wal_dir(&self) -> Option<&Path> {
        self.wal_dir.as_deref()
    }

    /// Enqueues `〈INSERTOBJECT, id, size〉` on the owning core. The
    /// returned [`Ack`] resolves when the batch carrying the request has
    /// been applied — which means a request still sitting in a *partial*
    /// client-side buffer resolves only once a full batch, a
    /// [`flush`](AsyncEngine::flush), or a barrier ships it; awaiting an
    /// `Ack` without a flush point in between can therefore block
    /// forever. A rejection by the reallocator (e.g. a duplicate id)
    /// surfaces at the next barrier, not here.
    pub fn insert(&mut self, id: ObjectId, size: u64) -> Ack {
        self.enqueue(Request::Insert { id, size }).0
    }

    /// Enqueues `〈DELETEOBJECT, id〉` on the owning core. Same contract
    /// as [`insert`](AsyncEngine::insert).
    pub fn delete(&mut self, id: ObjectId) -> Ack {
        self.enqueue(Request::Delete { id }).0
    }

    /// The batching law: a full buffer ships whole; otherwise the planned
    /// flush decides. Returns the request's ack and whether a batch
    /// shipped (the sync engine paces online rebalancing by it).
    pub(crate) fn enqueue(&mut self, req: Request) -> (Ack, bool) {
        let shard = self.router.route(req.id());
        let (tx, rx) = oneshot::channel();
        self.pending[shard].push(req);
        self.pending_slots[shard].push(tx);
        let shipped = if self.pending[shard].len() >= self.config.batch {
            // Fast path: a full buffer ships whole, no planning needed.
            let batch = std::mem::replace(
                &mut self.pending[shard],
                Vec::with_capacity(self.config.batch),
            );
            let slots = std::mem::take(&mut self.pending_slots[shard]);
            self.ship(shard, TaskCmd::Apply(Command::Batch(batch)), slots);
            true
        } else {
            self.plan_flush()
        };
        (
            Ack {
                one: Some(rx),
                many: Vec::new(),
            },
            shipped,
        )
    }

    /// Planned flush scheduling across the whole pending set — the
    /// Bε-tree `plan_flush` idiom applied to shard buffers: nothing ships
    /// while total buffered work is below the watermark (half the
    /// tenant's batch capacity); past it, the *fullest* buffer flushes,
    /// and never below half a batch ([`planned_take`]). Skewed traffic
    /// thus stops hoarding its backlog until the full-batch fast path
    /// triggers, while uniform trickles still build usefully sized
    /// batches instead of degenerating to per-request ships. Returns
    /// whether a batch shipped.
    fn plan_flush(&mut self) -> bool {
        let watermark = (self.cores.len() * self.config.batch / 2).max(1);
        let total: usize = self.pending.iter().map(Vec::len).sum();
        if total < watermark {
            return false;
        }
        let Some(shard) = (0..self.pending.len()).max_by_key(|&s| self.pending[s].len()) else {
            return false;
        };
        let Some(take) = planned_take(self.pending[shard].len(), self.config.batch) else {
            return false;
        };
        let batch: Vec<Request> = self.pending[shard].drain(..take).collect();
        let slots: Vec<_> = self.pending_slots[shard].drain(..take).collect();
        self.ship(shard, TaskCmd::Apply(Command::Batch(batch)), slots);
        true
    }

    /// Admits one task onto a core — blocking while `queue_depth` of its
    /// tasks are queued or running, and recording that stall — and
    /// enqueues it on the core's home queue.
    fn ship(&mut self, shard: usize, cmd: TaskCmd, slots: Vec<oneshot::Sender<()>>) {
        if self
            .shared
            .shutdown
            .load(std::sync::atomic::Ordering::Acquire)
        {
            // Fleet already torn down: drop the slots so acks resolve
            // instead of hanging. (Tenants should be shut down first.)
            return;
        }
        let core = &self.cores[shard];
        core.admit(self.stalls.get(shard));
        let seq = self.next_seq[shard];
        self.next_seq[shard] += 1;
        let task = Task {
            core: Arc::clone(core),
            seq,
            cmd,
            enqueued: Instant::now(),
            slots,
        };
        let queue = &self.shared.queues[core.home];
        queue
            .tasks
            .lock()
            .expect("fleet queue poisoned")
            .push_back(task);
        queue.ready.notify_one();
    }

    /// Ships one command to core `shard` behind everything already
    /// shipped to it, and returns the command's reply channel.
    pub(crate) fn request<T>(
        &mut self,
        shard: usize,
        make: impl FnOnce(mpsc::Sender<T>) -> Command,
    ) -> mpsc::Receiver<T> {
        let (reply, rx) = mpsc::channel();
        self.send(shard, make(reply));
        rx
    }

    /// Ships one command to core `shard` with no completion slot.
    pub(crate) fn send(&mut self, shard: usize, cmd: Command) {
        self.ship(shard, TaskCmd::Apply(cmd), Vec::new());
    }

    /// Ships core `shard`'s partially filled batch, if any.
    pub(crate) fn flush_shard(&mut self, shard: usize) {
        if !self.pending[shard].is_empty() {
            let batch = std::mem::take(&mut self.pending[shard]);
            let slots = std::mem::take(&mut self.pending_slots[shard]);
            self.ship(shard, TaskCmd::Apply(Command::Batch(batch)), slots);
        }
    }

    /// Ships every partially filled batch.
    pub(crate) fn flush_batches(&mut self) {
        for shard in 0..self.cores.len() {
            self.flush_shard(shard);
        }
    }

    /// One fence per core: the returned [`Ack`] resolves when everything
    /// enqueued before it has been applied.
    fn fence_all(&mut self) -> Ack {
        let mut rxs = Vec::with_capacity(self.cores.len());
        for shard in 0..self.cores.len() {
            let (tx, rx) = oneshot::channel();
            self.ship(shard, TaskCmd::Fence, vec![tx]);
            rxs.push(rx);
        }
        Ack {
            one: None,
            many: rxs,
        }
    }

    /// Ships every partially filled batch and returns an [`Ack`] that
    /// resolves once *everything* enqueued so far — on every core — has
    /// been applied.
    pub fn flush(&mut self) -> Ack {
        self.flush_batches();
        self.fence_all()
    }

    /// Per-core lists of the ids the routing table explicitly assigns
    /// (empty everywhere without a WAL — nothing would persist them).
    /// Sent with checkpoint barriers so each core's checkpoint records
    /// which of its objects sit off the router's rendezvous fallback;
    /// recovery can then rebuild the assignment table from the shard
    /// files alone.
    fn router_pins(&self) -> Vec<Vec<ObjectId>> {
        let mut pins = vec![Vec::new(); self.cores.len()];
        if self.wal_dir.is_some() {
            for (id, shard) in self.router.assigned_ids() {
                if shard < pins.len() {
                    pins[shard].push(id);
                }
            }
        }
        pins
    }

    /// The barrier fan-out: ships every partially filled batch, then one
    /// `make(shard, reply)` command per core (the closure sees the shard
    /// index, for per-shard payloads like checkpoint pins).
    fn fan_out<T>(
        &mut self,
        make: impl Fn(usize, mpsc::Sender<T>) -> Command,
    ) -> (Ack, Vec<mpsc::Receiver<T>>) {
        self.flush_batches();
        let mut acks = Vec::with_capacity(self.cores.len());
        let mut rxs = Vec::with_capacity(self.cores.len());
        for shard in 0..self.cores.len() {
            let (reply_tx, reply_rx) = mpsc::channel();
            let (tx, rx) = oneshot::channel();
            self.ship(shard, TaskCmd::Apply(make(shard, reply_tx)), vec![tx]);
            acks.push(rx);
            rxs.push(reply_rx);
        }
        let acks = Ack {
            one: None,
            many: acks,
        };
        (acks, rxs)
    }

    /// Blocking barrier: [`fan_out`](Self::fan_out), then every reply.
    pub(crate) fn barrier<T>(
        &mut self,
        make: impl Fn(usize, mpsc::Sender<T>) -> Command,
    ) -> Result<Vec<T>, EngineError> {
        let (acks, rxs) = self.fan_out(make);
        block_on(acks);
        collect(rxs)
    }

    /// Drains every core (each runs `Reallocator::quiesce`; a WAL'd core
    /// checkpoints and truncates its log) and resolves to the aggregated
    /// stats, surfacing the first sticky error.
    pub fn quiesce(&mut self) -> QuiesceFuture {
        let pins = self.router_pins();
        let (acks, replies) = self.fan_out(|shard, reply| Command::Quiesce {
            reply,
            pins: pins[shard].clone(),
        });
        QuiesceFuture { acks, replies }
    }

    /// Blocking stats barrier without forcing deferred work, surfacing the
    /// first sticky error.
    pub fn snapshot(&mut self) -> Result<EngineStats, EngineError> {
        aggregate(self.barrier(|_, reply| Command::Snapshot(reply))?)
    }

    /// Current placements of all live objects, per shard, sorted by id
    /// (blocking barrier).
    pub fn extents(&mut self) -> Result<Vec<Vec<(ObjectId, Extent)>>, EngineError> {
        self.barrier(|_, reply| Command::Extents(reply))
    }

    /// Runs the full substrate verification scan on every core now
    /// (blocking barrier); `None` per shard without a substrate.
    pub fn verify_substrate(&mut self) -> Result<Vec<Option<SubstrateReport>>, EngineError> {
        self.barrier(|_, reply| Command::VerifySubstrate(reply))
    }

    /// Every live object's physical bytes from each core's substrate,
    /// sorted by id (blocking debugging barrier; empty lists without a
    /// substrate).
    pub fn substrate_contents(&mut self) -> Result<Vec<ShardBytes>, EngineError> {
        self.barrier(|_, reply| Command::DumpSubstrate(reply))
    }

    /// Scrapes the tenant's observability surface (blocking barrier): the
    /// deterministic stats projection, every core's histograms and
    /// sim-time lanes, this tenant's intake stalls and
    /// [`StealStats`](crate::metrics::StealStats). Sticky errors do not
    /// surface here — a scrape must be able to observe a degraded tenant.
    pub fn metrics(&mut self) -> Result<MetricsSnapshot, EngineError> {
        self.scrape(None)
    }

    /// [`metrics`](AsyncEngine::metrics) as the change since the
    /// previous scrape (full values on the first).
    pub fn metrics_delta(&mut self) -> Result<MetricsSnapshot, EngineError> {
        self.scrape_delta(None)
    }

    /// The metrics merge behind both facades' scrapes; `events` is the
    /// sync engine's structural journal (async tenants have none).
    pub(crate) fn scrape(
        &mut self,
        events: Option<&EventJournal>,
    ) -> Result<MetricsSnapshot, EngineError> {
        let replies = self.barrier(|_, reply| Command::Metrics(reply))?;
        let mut per_shard = Vec::with_capacity(replies.len());
        let mut stats = Vec::with_capacity(replies.len());
        for (reply, mut metrics) in replies {
            if let Some(stall) = self.stalls.get(metrics.shard) {
                metrics.intake_stall_ns = stall.snapshot();
            }
            stats.push(reply.stats);
            per_shard.push(metrics);
        }
        self.scrapes += 1;
        let snapshot = MetricsSnapshot {
            scrape: self.scrapes,
            device: self.config.device.filter(|_| self.config.telemetry),
            stats: EngineStats { per_shard: stats },
            per_shard,
            events: events.map(EventJournal::snapshot).unwrap_or_default(),
            events_dropped: events.map_or(0, EventJournal::dropped),
            steal: self.steal.snapshot(),
        };
        self.last_metrics = Some(snapshot.clone());
        Ok(snapshot)
    }

    /// [`scrape`](Self::scrape) as the change since the previous scrape:
    /// counters, histograms, and sim time subtract; gauges keep their
    /// current values (see [`MetricsSnapshot::delta_since`]). Shards with
    /// no prior reading report full values.
    pub(crate) fn scrape_delta(
        &mut self,
        events: Option<&EventJournal>,
    ) -> Result<MetricsSnapshot, EngineError> {
        let prev = self.last_metrics.take();
        let current = self.scrape(events)?;
        Ok(match prev {
            Some(prev) => current.delta_since(&prev),
            None => current,
        })
    }

    /// Final barrier: serves everything still queued, retires every core
    /// (a WAL'd core checkpoints first), and returns each core's stats
    /// and cost summary, surfacing the first sticky error instead if any
    /// core saw one.
    pub fn shutdown(mut self) -> Result<Vec<ShardFinal>, EngineError> {
        let finals = self.finish()?;
        surface(
            finals
                .iter()
                .map(|f| (f.stats.shard, &f.first_error, &f.first_substrate_error)),
        )?;
        Ok(finals)
    }

    /// The final barrier without error surfacing.
    pub(crate) fn finish(&mut self) -> Result<Vec<ShardFinal>, EngineError> {
        let pins = self.router_pins();
        self.barrier(|shard, reply| Command::Finish {
            reply,
            pins: pins[shard].clone(),
        })
    }

    /// Simulated `kill -9` (testing): drops the partially filled batches
    /// unsent, but waits for everything already queued to be applied, so
    /// the WAL'd crash point is exact. No quiesce, no checkpoint, no
    /// truncation; pair with [`Engine::recover`](crate::Engine) on the
    /// tenant's directory.
    pub fn crash(mut self) {
        for shard in 0..self.cores.len() {
            self.pending[shard].clear();
            self.pending_slots[shard].clear();
        }
        block_on(self.fence_all());
    }

    /// Testing hook: locks core `shard` until the returned guard drops,
    /// forcing any steal attempt on it down the lock-conflict edge.
    #[doc(hidden)]
    pub fn hold_core(&self, shard: usize) -> CoreHold<'_> {
        CoreHold {
            _guard: self.cores[shard].state.lock().expect("core state poisoned"),
        }
    }
}
