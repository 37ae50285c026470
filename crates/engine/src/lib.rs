#![warn(missing_docs)]
//! # realloc-engine — a sharded, multi-threaded reallocation service
//!
//! The algorithm crates serve one request at a time on the caller's thread.
//! This crate turns any of them into a *service*: an [`Engine`] routes
//! requests through a pluggable [`Router`] across `N` *shards*, each a
//! state machine owning one boxed
//! [`Reallocator`](realloc_common::Reallocator) and its own bounded
//! [`CostSummary`](realloc_common::CostSummary) (size→count tables that
//! price the shard's whole history under any cost function), served by
//! its own worker thread and fed in *batches* through an
//! admission-bounded queue (amortizing the hand-off the way buffer
//! flushes amortize moves).
//!
//! ## The routing layer
//!
//! Routing is a first-class layer, not a hard-wired hash:
//!
//! * [`HashRouter`] (default, [`Engine::new`]) — the stateless SplitMix64
//!   hash [`shard_of`]. Byte-identical behavior to the pre-router engine.
//! * [`TableRouter`] ([`Engine::with_router`]) — an explicit id → shard
//!   assignment table over a rendezvous-hash fallback. This is what makes
//!   objects *re-homeable*: [`Engine::rebalance`] migrates objects between
//!   shards (delete-on-source / insert-on-target at a quiesce barrier,
//!   routing table updated atomically once all transfers land) to equalize
//!   per-shard volumes `V_i`, optionally followed by the per-shard
//!   Theorem 2.7 defrag pass; [`Engine::resize_shards`] reuses the same
//!   migration machinery to split or merge live shards (the rendezvous
//!   fallback keeps a grow from re-homing more than `~1/n` of the ids).
//!
//! ## Rebalancing: barrier or online
//!
//! The same greedy largest-first migration plan executes two ways:
//!
//! * [`Engine::rebalance`] — **barrier**: quiesce the fleet, execute the
//!   whole plan, return. Simple and immediately converged, but the caller
//!   stalls for the entire migration.
//! * [`Engine::rebalance_online`] — **online**: plan once, then migrate in
//!   bounded batches *interleaved with serving* (each object: freeze →
//!   copy → flip route → resume, so no id is ever live on two shards).
//!   Serving traffic paces the session — one batch per dispatched serving
//!   batch — or [`Engine::rebalance_step`] drains it explicitly; the
//!   completion [`RebalanceReport`] is claimed with
//!   [`Engine::take_rebalance_report`].
//!
//! Watch the [`EngineStats::imbalance_ratio`] observable
//! (`max V_i / mean V_i`) to decide when to rebalance — or install a
//! [`RebalancePolicy`] with [`Engine::set_auto_rebalance`] and let the
//! engine trigger online sessions itself when the ratio has exceeded `τ`
//! for `k` consecutive barrier observations (with hysteresis after each
//! run). Migrations are counted on both halves
//! ([`ShardStats::migrations_in`] / [`ShardStats::migrations_out`]) and
//! each arrival is priced as a reallocation, so rebalancing is as
//! cost-accountable as serving.
//!
//! ## Why sharding preserves the paper's guarantees
//!
//! Theorem 2.1's bounds are *per instance*: each shard keeps its footprint
//! within `(1+ε)·V_i` and its reallocation cost within
//! `O((1/ε) log(1/ε))` of its allocation cost. Requests for one object
//! always hash to the same shard, so shards never interact, and the
//! aggregate footprint obeys `Σ footprint_i ≤ (1+ε)·Σ V_i` — the same
//! competitive ratio as one instance. (The memory-reallocation follow-up
//! line of work treats instances in isolation for exactly this reason.)
//! Sharding also helps *throughput* twice over: shards serve in parallel,
//! and each flush rebuilds a suffix of a structure `N×` smaller.
//!
//! ## Shape of the API
//!
//! ```
//! use realloc_engine::{Engine, EngineConfig};
//! use realloc_common::ObjectId;
//! # use realloc_common::{Extent, Outcome, ReallocError, Reallocator};
//! # #[derive(Default)] struct Toy(std::collections::HashMap<ObjectId, u64>, u64);
//! # impl Reallocator for Toy {
//! #     fn insert(&mut self, id: ObjectId, size: u64) -> Result<Outcome, ReallocError> {
//! #         self.0.insert(id, size); self.1 += size; Ok(Outcome::empty())
//! #     }
//! #     fn delete(&mut self, id: ObjectId) -> Result<Outcome, ReallocError> {
//! #         self.1 -= self.0.remove(&id).unwrap_or(0); Ok(Outcome::empty())
//! #     }
//! #     fn extent_of(&self, _: ObjectId) -> Option<Extent> { None }
//! #     fn live_volume(&self) -> u64 { self.1 }
//! #     fn structure_size(&self) -> u64 { self.1 }
//! #     fn footprint(&self) -> u64 { self.1 }
//! #     fn max_object_size(&self) -> u64 { 0 }
//! #     fn name(&self) -> &'static str { "toy" }
//! #     fn live_count(&self) -> usize { self.0.len() }
//! # }
//!
//! let mut engine = Engine::new(EngineConfig::with_shards(2), |_shard| {
//!     Box::new(Toy::default())
//! });
//! engine.insert(ObjectId(1), 64).unwrap();
//! engine.insert(ObjectId(2), 32).unwrap();
//! engine.delete(ObjectId(1)).unwrap();
//! let stats = engine.quiesce().unwrap();
//! assert_eq!(stats.live_volume(), 32);
//! assert_eq!(stats.live_count(), 1);
//! ```
//!
//! ## The async front-end
//!
//! [`AsyncEngine`] is the future-returning counterpart of the sync
//! handle: `insert`/`delete`/`flush`/`quiesce` return lightweight
//! completion futures (hand-rolled one-shot slots from
//! `realloc-common` — no tokio anywhere), and tenants are hosted by a
//! [`Fleet`] — a small worker pool multiplexing thousands of
//! lightweight engines, optionally stealing whole queued batches from
//! backlogged peers (see the [`fleet`] module docs for the steal
//! protocol and its order guarantees). There is one intake behind both
//! facades: an [`Engine`] is an `AsyncEngine` tenant on a private fleet
//! with one worker per shard, plus the rebalancing, resizing, and
//! journaling only the sync handle offers.
//!
//! [`Engine::drive`] replays a whole [`Workload`](workload_gen::Workload)
//! by splitting it into per-shard streams (preserving per-object request
//! order) and feeding all shards round-robin so every queue stays busy.
//!
//! Request-level errors ([`ReallocError`](realloc_common::ReallocError))
//! surface at the next barrier ([`Engine::quiesce`], [`Engine::snapshot`],
//! [`Engine::shutdown`]) rather than at the enqueueing call — the price of
//! pipelining. Shards never panic on bad requests; they count the error
//! and keep serving. A shard whose reallocator *does* panic is retired
//! without taking its worker thread down, and every later barrier reports
//! it as [`EngineError::ShardDown`].

pub mod async_facade;
pub mod engine;
pub mod fleet;
pub mod metrics;
pub mod plan;
pub mod rebalance;
pub mod recover;
pub mod shard;
pub mod stats;
pub mod substrate;

pub use async_facade::{Ack, AsyncEngine, QuiesceFuture};
pub use engine::{Engine, EngineConfig, EngineError};
pub use fleet::{Fleet, FleetConfig};
pub use metrics::{DeviceProfile, MetricsSnapshot, ShardMetrics, StealStats};
pub use realloc_common::router::{self, shard_of, HashRouter, Router, TableRouter};
pub use realloc_telemetry::{
    EventJournal, Histogram, HistogramSnapshot, Json, SpanPhase, TraceEvent,
};
pub use rebalance::{
    DefragSummary, OnlinePlan, RebalanceMode, RebalanceOptions, RebalancePolicy, RebalanceReport,
    ResizeReport,
};
pub use recover::RecoveryReport;
pub use shard::ShardFinal;
pub use stats::{EngineStats, ShardStats};
pub use storage_sim::{AddressWindow, Mode as SubstrateRules};
pub use substrate::{ShardBytes, SubstrateConfig, SubstrateReport, VerifyCadence};
