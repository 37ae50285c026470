//! # storage-realloc
//!
//! A complete implementation of **Cost-Oblivious Storage Reallocation**
//! (Bender, Farach-Colton, Fekete, Fineman, Gilbert — PODS 2014), plus the
//! substrates and baselines needed to reproduce the paper end to end.
//!
//! A *storage reallocator* serves an online sequence of object inserts and
//! deletes and may **move** previously allocated objects, paying an unknown
//! monotone subadditive cost `f(w)` per moved `w`-cell object. The paper's
//! algorithms keep the footprint within `(1+ε)` of the live volume while
//! paying at most `O((1/ε) log(1/ε))` times the mandatory allocation cost —
//! simultaneously for *every* such `f`, without ever looking at it.
//!
//! ## Crate map
//!
//! | Re-export | Crate | Contents |
//! |-----------|-------|----------|
//! | [`core`] | `realloc-core` | the paper's algorithms (§2, §3.2, §3.3, Thm 2.7) |
//! | [`common`] | `realloc-common` | shared types: ids, extents, ops, the [`Reallocator`](common::Reallocator) trait, cost ledger and bounded cost summary |
//! | [`cost`] | `cost-model` | the `Fsa` cost-function suite + membership checks |
//! | [`sim`] | `storage-sim` | block translation layer, checkpoint rules, crash recovery |
//! | [`workloads`] | `workload-gen` | churn/trace/adversarial request generators + the shard splitter |
//! | [`baselines`] | `alloc-baselines` | first/best/next-fit, buddy, log-compact, size-class-gaps |
//! | [`engine`] | `realloc-engine` | sharded, multi-threaded serving layer over any of the above |
//!
//! ## Quickstart
//!
//! ```
//! use storage_realloc::prelude::*;
//!
//! let mut r = CostObliviousReallocator::new(0.5); // footprint ≤ 1.5·V
//! r.insert(ObjectId(1), 4096).unwrap();
//! r.insert(ObjectId(2), 128).unwrap();
//! r.delete(ObjectId(1)).unwrap();
//! assert!(r.structure_size() as f64 <= 1.5 * r.live_volume() as f64);
//! ```
//!
//! See `examples/` for a database block store with crash recovery, a
//! defragmentation tool, and the scheduling interpretation.

pub use alloc_baselines as baselines;
pub use cost_model as cost;
pub use realloc_common as common;
pub use realloc_core as core;
pub use realloc_engine as engine;
pub use storage_sim as sim;
pub use workload_gen as workloads;

pub mod harness;

/// One-stop imports for examples and experiments.
pub mod prelude {
    pub use crate::baselines::{
        BuddyAllocator, FitStrategy, FreeListAllocator, LogCompactAllocator, SizeClassGapsAllocator,
    };
    pub use crate::common::{
        BoxedReallocator, CostSummary, Extent, HashRouter, Ledger, ObjectId, OpKind, Outcome,
        ReallocError, Reallocator, Router, StorageOp, TableRouter,
    };
    pub use crate::core::{
        defragment, CheckpointedReallocator, CostObliviousReallocator, DeamortizedReallocator,
        NearlyQuadraticReallocator,
    };
    pub use crate::cost::{standard_suite, CostFn};
    pub use crate::engine::{
        Ack, AsyncEngine, DefragSummary, DeviceProfile, Engine, EngineConfig, EngineError,
        EngineStats, Fleet, FleetConfig, HistogramSnapshot, Json, MetricsSnapshot, OnlinePlan,
        QuiesceFuture, RebalanceMode, RebalanceOptions, RebalancePolicy, RebalanceReport,
        RecoveryReport, ResizeReport, ShardMetrics, ShardStats, StealStats, SubstrateConfig,
        SubstrateReport, TraceEvent, VerifyCadence,
    };
    pub use crate::harness::{
        build_variant, run_workload, variant_is_strict_safe, RunConfig, RunResult, VARIANTS,
    };
    pub use crate::sim::{checksum, pattern_for, AddressWindow, DataStore, Mode, SimStore};
    pub use crate::workloads::{Request, Workload};
}
