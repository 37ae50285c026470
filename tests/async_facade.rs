//! Observational equivalence of the async facade.
//!
//! `AsyncEngine` replicates the sync handle's client-side batching law
//! and runs the *same* shard state machines on fleet workers, so for any
//! request sequence the two must agree on everything deterministic:
//! extents, physical substrate bytes, aggregated stats (batch counts
//! included), per-shard cost summaries, and the metrics projection that
//! participates in `MetricsSnapshot`'s `==`. These tests pin that for
//! all four registry variants — with stealing both off and on (a steal
//! moves *where* a batch runs, never *what* it computes), with futures
//! dropped before they resolve, and with futures awaited out of order.

use proptest::prelude::*;
use storage_realloc::common::block_on;
use storage_realloc::prelude::*;

fn build(variant: &str, eps: f64) -> Box<dyn Reallocator + Send> {
    build_variant(variant, eps).unwrap_or_else(|| panic!("unknown variant {variant}"))
}

/// Compact request-sequence encoding shared with `engine_equivalence`:
/// positive numbers insert an object of that size, zero deletes the
/// oldest live object.
fn op_sequence() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(
        prop_oneof![
            3 => 1u64..=600,
            1 => Just(0u64),
        ],
        1..150,
    )
}

fn materialize(ops: &[u64]) -> Vec<Request> {
    let mut requests = Vec::new();
    let mut live = std::collections::VecDeque::new();
    let mut next = 0u64;
    for &op in ops {
        if op == 0 {
            if let Some(id) = live.pop_front() {
                requests.push(Request::Delete { id });
            }
        } else {
            let id = ObjectId(next);
            next += 1;
            live.push_back(id);
            requests.push(Request::Insert { id, size: op });
        }
    }
    requests
}

/// Everything deterministic a run exposes, for side-by-side comparison.
struct Observed {
    stats: EngineStats,
    extents: Vec<Vec<(ObjectId, Extent)>>,
    bytes: Vec<Vec<(ObjectId, Vec<u8>)>>,
    metrics: MetricsSnapshot,
    costs: Vec<storage_realloc::common::CostSummary>,
}

fn config(shards: usize) -> EngineConfig {
    EngineConfig {
        batch: 32,
        queue_depth: 2,
        ..EngineConfig::with_shards(shards)
    }
    .with_substrate(SubstrateConfig::default())
}

fn run_sync(variant: &str, eps: f64, shards: usize, requests: &[Request]) -> Observed {
    let mut engine = Engine::new(config(shards), |_| build(variant, eps));
    for req in requests {
        match *req {
            Request::Insert { id, size } => engine.insert(id, size).expect("insert"),
            Request::Delete { id } => engine.delete(id).expect("delete"),
        }
    }
    let stats = engine.quiesce().expect("quiesce");
    let extents = engine.extents().expect("extents");
    let bytes = engine.substrate_contents().expect("contents");
    let metrics = engine.metrics().expect("metrics");
    let finals = engine.shutdown().expect("shutdown");
    Observed {
        stats,
        extents,
        bytes,
        metrics,
        costs: finals.into_iter().map(|f| f.costs).collect(),
    }
}

/// Drives the same sequence through an async tenant. Two thirds of the
/// returned futures are dropped on the spot (dropped-before-resolved
/// must be a no-op); the rest are awaited *in reverse enqueue order*
/// after a `flush` has shipped the tail batch (an [`Ack`] resolves at
/// batch completion, and a partial batch only ships at a flush point).
fn run_async(
    fleet: &Fleet,
    variant: &str,
    eps: f64,
    shards: usize,
    requests: &[Request],
) -> Observed {
    let mut tenant = fleet.register(config(shards), Box::new(HashRouter::new(shards)), |_| {
        build(variant, eps)
    });
    let mut kept = Vec::new();
    for (i, req) in requests.iter().enumerate() {
        let ack = match *req {
            Request::Insert { id, size } => tenant.insert(id, size),
            Request::Delete { id } => tenant.delete(id),
        };
        if i % 3 == 0 {
            kept.push(ack);
        }
    }
    let flushed = tenant.flush();
    kept.reverse();
    for ack in kept {
        ack.wait();
    }
    flushed.wait();
    let stats = block_on(tenant.quiesce()).expect("quiesce");
    let extents = tenant.extents().expect("extents");
    let bytes = tenant.substrate_contents().expect("contents");
    let metrics = tenant.metrics().expect("metrics");
    let finals = tenant.shutdown().expect("shutdown");
    Observed {
        stats,
        extents,
        bytes,
        metrics,
        costs: finals.into_iter().map(|f| f.costs).collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Async facade ≡ sync handle for every registry variant: same
    /// extents, same bytes, same stats (including batch counts), same
    /// cost summaries, same deterministic metrics projection — stealing on or
    /// off, futures dropped or awaited out of order.
    #[test]
    fn async_facade_equals_sync_handle(
        ops in op_sequence(),
        eps in 0.1f64..=0.5,
        shards in 1usize..=4,
        steal in prop_oneof![1 => Just(false), 1 => Just(true)],
    ) {
        let requests = materialize(&ops);
        let fleet = Fleet::new(FleetConfig::with_workers(2).stealing(steal));
        for variant in VARIANTS {
            let sync = run_sync(variant, eps, shards, &requests);
            let asynced = run_async(&fleet, variant, eps, shards, &requests);

            prop_assert_eq!(&sync.stats, &asynced.stats, "{}: stats diverge", variant);
            prop_assert_eq!(
                &sync.extents, &asynced.extents,
                "{}: placements diverge", variant
            );
            prop_assert_eq!(&sync.bytes, &asynced.bytes, "{}: bytes diverge", variant);
            prop_assert_eq!(
                &sync.costs, &asynced.costs,
                "{}: cost summaries diverge", variant
            );
            // MetricsSnapshot's == is exactly the deterministic
            // projection (stats + sim time + deterministic histograms);
            // wall-clock and steal blocks are excluded by design.
            prop_assert_eq!(
                &sync.metrics, &asynced.metrics,
                "{}: metrics projection diverges", variant
            );
        }
        fleet.shutdown();
    }
}

/// A dropped `QuiesceFuture` must not wedge its cores: the quiesce still
/// runs (its reply send becomes a no-op), and the next barrier sees the
/// drained state.
#[test]
fn dropped_quiesce_future_is_harmless() {
    let fleet = Fleet::new(FleetConfig::with_workers(2).stealing(true));
    let mut tenant = fleet.register(config(2), Box::new(HashRouter::new(2)), |_| {
        build("cost-oblivious", 0.25)
    });
    for i in 0..100u64 {
        drop(tenant.insert(ObjectId(i), 64));
    }
    drop(tenant.quiesce());
    let stats = tenant.snapshot().expect("snapshot after dropped quiesce");
    assert_eq!(stats.live_count(), 100);
    assert_eq!(stats.live_volume(), 6400);
    tenant.shutdown().expect("shutdown");
    fleet.shutdown();
}

/// Request-level errors surface at the async barriers exactly like the
/// sync ones: a duplicate insert is counted, reported by `quiesce`, and
/// the error is the lowest-shard first rejection.
#[test]
fn async_barriers_surface_request_errors() {
    let fleet = Fleet::new(FleetConfig::default());
    let mut tenant = fleet.register(config(1), Box::new(HashRouter::new(1)), |_| {
        build("cost-oblivious", 0.25)
    });
    let first = tenant.insert(ObjectId(7), 32);
    tenant.flush().wait(); // ships the partial batch so the ack can resolve
    first.wait();
    drop(tenant.insert(ObjectId(7), 32)); // duplicate: rejected at serve time
    let err = block_on(tenant.quiesce()).expect_err("duplicate must surface");
    match err {
        EngineError::Request { shard, .. } => assert_eq!(shard, 0),
        other => panic!("unexpected error {other:?}"),
    }
    fleet.shutdown();
}

/// Many tenants on one fleet stay isolated: interleaved traffic against
/// ten tenants gives each exactly its own objects, stats, and volumes.
#[test]
fn tenants_are_isolated() {
    let fleet = Fleet::new(FleetConfig::with_workers(3).stealing(true));
    let mut tenants: Vec<AsyncEngine> = (0..10)
        .map(|_| {
            fleet.register(config(2), Box::new(HashRouter::new(2)), |_| {
                build("cost-oblivious", 0.3)
            })
        })
        .collect();
    for round in 0..50u64 {
        for (t, tenant) in tenants.iter_mut().enumerate() {
            drop(tenant.insert(ObjectId(round), 10 + t as u64));
        }
    }
    let mut waits = Vec::new();
    for tenant in &mut tenants {
        waits.push(tenant.quiesce());
    }
    for (t, wait) in waits.into_iter().enumerate() {
        let stats = block_on(wait).expect("quiesce");
        assert_eq!(stats.live_count(), 50, "tenant {t}");
        assert_eq!(stats.live_volume(), 50 * (10 + t as u64), "tenant {t}");
    }
    for tenant in tenants {
        tenant.shutdown().expect("shutdown");
    }
    fleet.shutdown();
}
