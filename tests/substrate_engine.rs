//! Byte integrity of the substrate-backed sharded engine.
//!
//! Since this PR each shard can own a real byte-carrying `DataStore` over
//! its own disjoint address window, so the strongest checks in the repo —
//! checksummed object bytes, non-overlapping placements, no lost writes —
//! run on the production-shaped path, not only in `run_workload`. Three
//! levels of assurance:
//!
//! * Property test: a substrate-backed table-routed engine under
//!   interleaved churn *while an online rebalance session drains* holds
//!   exactly the bytes an unsharded byte-carrying replay of the same
//!   request stream holds — object bytes (not just extents) compared at
//!   every quiesce, for all three paper variants.
//! * Fault injection: one flipped byte in one in-flight transfer payload
//!   must fail the receiving shard's ack
//!   (`ReallocError::CorruptTransfer`), abort the online session after
//!   pinning completed transfers, and leave every surviving object routed
//!   to the shard that physically owns it, bytes intact.
//! * The acceptance scenario: a skewed-churn storm repaired by an online
//!   rebalance under live traffic passes per-shard byte verification at
//!   every quiesce, and the counted migrate-out volume equals the cells
//!   the substrates actually copied across address spaces.

use proptest::prelude::*;
use storage_realloc::prelude::*;
use storage_realloc::workloads::churn::{skewed_churn_release, ChurnConfig};
use storage_realloc::workloads::dist::SizeDist;

const VARIANTS: [&str; 3] = ["cost-oblivious", "checkpointed", "deamortized"];

fn build(variant: &str, eps: f64) -> Box<dyn Reallocator + Send> {
    match variant {
        "cost-oblivious" => Box::new(CostObliviousReallocator::new(eps)),
        "checkpointed" => Box::new(CheckpointedReallocator::new(eps)),
        "deamortized" => Box::new(DeamortizedReallocator::new(eps)),
        other => panic!("unknown variant {other}"),
    }
}

/// Compact request-sequence encoding shared with the other proptest
/// suites: positive numbers insert an object of that size, zero deletes
/// the oldest live object.
fn op_sequence() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(
        prop_oneof![
            3 => 1u64..=600,
            1 => Just(0u64),
        ],
        1..200,
    )
}

fn materialize(ops: &[u64]) -> Workload {
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
    Workload::new("prop sequence", requests)
}

/// The unsharded truth, carried forward segment by segment: one
/// reallocator, one byte-carrying store, every outcome replayed.
struct Reference {
    realloc: Box<dyn Reallocator + Send>,
    data: DataStore,
}

impl Reference {
    fn new(variant: &str, eps: f64) -> Self {
        Reference {
            realloc: build(variant, eps),
            data: DataStore::new(Mode::Relaxed),
        }
    }

    fn serve(&mut self, requests: &[Request]) {
        for req in requests {
            let outcome = match *req {
                Request::Insert { id, size } => {
                    self.realloc.insert(id, size).expect("reference insert")
                }
                Request::Delete { id } => self.realloc.delete(id).expect("reference delete"),
            };
            self.data
                .apply_all(&outcome.ops)
                .expect("reference byte replay");
        }
    }

    fn quiesce(&mut self) {
        let outcome = self.realloc.quiesce();
        self.data
            .apply_all(&outcome.ops)
            .expect("reference drain replay");
    }
}

/// Compares the engine's full substrate contents against the unsharded
/// reference, byte for byte.
fn assert_same_bytes(
    engine: &mut Engine,
    reference: &Reference,
    context: &str,
) -> Result<(), TestCaseError> {
    let contents = engine.substrate_contents().expect("contents");
    let mut seen = 0usize;
    for list in &contents {
        for (id, bytes) in list {
            prop_assert_eq!(
                Some(&bytes[..]),
                reference.data.bytes_of(*id),
                "{}: {} bytes diverge from the unsharded replay",
                context,
                id
            );
            seen += 1;
        }
    }
    prop_assert_eq!(
        seen,
        reference.data.rules().live_count(),
        "{}: byte population diverges",
        context
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Churn interleaved with an online rebalance on a substrate-backed
    /// fleet keeps the engine byte-identical to an unsharded replay — the
    /// bytes are compared at *every* quiesce, each of which also runs the
    /// per-shard extent + checksum scan (the `Quiesce` cadence).
    #[test]
    fn substrate_engine_bytes_equal_unsharded_replay(
        ops in op_sequence(),
        eps in 0.1f64..=0.5,
        shards in 2usize..=4,
        batch_objects in 1usize..=8,
    ) {
        let start_segment = batch_objects % 3;
        let workload = materialize(&ops);

        for variant in VARIANTS {
            let mut engine = Engine::with_router(
                EngineConfig {
                    batch: 16,
                    queue_depth: 2,
                    ..EngineConfig::with_shards(shards)
                }
                .with_substrate(SubstrateConfig::default()),
                Box::new(TableRouter::new(shards)),
                |_| build(variant, eps),
            );
            let mut reference = Reference::new(variant, eps);

            let segments = 4;
            let chunk = workload.len().div_ceil(segments).max(1);
            for (i, seg) in workload.requests.chunks(chunk).enumerate() {
                engine.drive(&Workload::new("seg", seg.to_vec())).expect("drive");
                reference.serve(seg);
                if i == start_segment {
                    engine
                        .rebalance_online(RebalanceOptions::default().batched(batch_objects))
                        .expect("plan");
                }
                engine.rebalance_step().expect("step");
                // Every quiesce: per-shard extent + byte verification
                // (surfacing any substrate failure), then the cross-check
                // against the unsharded byte store.
                engine.quiesce().expect("quiesce");
                reference.quiesce();
                assert_same_bytes(&mut engine, &reference, variant)?;
            }
            while engine.rebalance_step().expect("step") {
                engine.quiesce().expect("quiesce");
                assert_same_bytes(&mut engine, &reference, variant)?;
            }
            engine.quiesce().expect("final quiesce");
            assert_same_bytes(&mut engine, &reference, variant)?;

            // Migration byte conservation: whatever left a window arrived
            // in another, verified.
            let stats = engine.snapshot().expect("snapshot");
            prop_assert_eq!(stats.bytes_migrated_out(), stats.bytes_migrated_in());
        }
    }
}

/// A single damaged transfer byte aborts the session with routing still
/// matching physical ownership — the fault-injection case.
#[test]
fn corrupted_transfer_byte_aborts_online_session_with_routing_consistent() {
    const SHARDS: usize = 4;
    for variant in VARIANTS {
        let mut engine = Engine::with_router(
            EngineConfig::with_shards(SHARDS).with_substrate(SubstrateConfig::default()),
            Box::new(TableRouter::new(SHARDS)),
            |_| build(variant, 0.25),
        );
        // Skew everything onto shard 0 so the plan has real transfers.
        for i in 0..400u64 {
            engine.insert(ObjectId(i), 8).unwrap();
        }
        let doomed: Vec<ObjectId> = (0..400)
            .map(ObjectId)
            .filter(|&id| engine.shard_of(id) != 0)
            .collect();
        for id in doomed {
            engine.delete(id).unwrap();
        }
        let before = engine.quiesce().unwrap();
        assert!(before.imbalance_ratio() > 2.0, "{variant}: skew too weak");

        let plan = engine
            .rebalance_online(RebalanceOptions::default().batched(4))
            .unwrap();
        assert!(plan.batches > 2, "{variant}: trivial plan");

        // Let one batch land clean, then damage the next transfer.
        assert!(engine.rebalance_step().unwrap());
        engine.inject_transfer_corruption();
        let err = loop {
            match engine.rebalance_step() {
                Ok(true) => {}
                Ok(false) => panic!("{variant}: session survived a damaged transfer"),
                Err(err) => break err,
            }
        };
        assert!(
            matches!(
                err,
                EngineError::Request {
                    error: ReallocError::CorruptTransfer(_),
                    ..
                }
            ),
            "{variant}: expected a refused transfer, got {err:?}"
        );
        assert!(!engine.rebalance_active(), "{variant}: session must abort");
        assert!(engine.take_rebalance_report().is_none());

        // Exactly the damaged object is lost; everything else routes to
        // its physical owner with its bytes intact.
        let extents = engine.extents().unwrap();
        let mut survivors = 0usize;
        for (shard, list) in extents.iter().enumerate() {
            for &(id, _) in list {
                assert_eq!(
                    engine.shard_of(id),
                    shard,
                    "{variant}: {id} routed to a stale shard"
                );
                survivors += 1;
            }
        }
        assert_eq!(survivors, before.live_count() - 1, "{variant}");
        for r in engine.verify_substrate().unwrap() {
            assert!(r.error.is_none(), "{variant}: {:?}", r.error);
        }
        // The refused transfer is a sticky request error, like any
        // rejection — and shutdown still reports it.
        assert!(matches!(
            engine.quiesce().unwrap_err(),
            EngineError::Request {
                error: ReallocError::CorruptTransfer(_),
                ..
            }
        ));
    }
}

/// The acceptance scenario: a skewed-churn storm + online rebalance on a
/// substrate-backed fleet passes per-shard byte verification at every
/// quiesce, and the counted migrate-out volume equals the cells the
/// substrates actually copied across address spaces.
#[test]
fn skewed_storm_online_rebalance_is_byte_verified_end_to_end() {
    const SHARDS: usize = 4;
    const EPS: f64 = 0.25;
    let config = ChurnConfig {
        dist: SizeDist::Uniform { lo: 1, hi: 64 },
        target_volume: 6_000,
        churn_ops: 6_000,
        seed: 20_140_623,
    };
    let probe = TableRouter::new(SHARDS);
    let workload = skewed_churn_release(&config, |id| probe.route(id) == 0, 3_000);
    let skew_requests = workload.len() - 3_000;

    for variant in VARIANTS {
        let mut engine = Engine::with_router(
            EngineConfig::with_shards(SHARDS).with_substrate(SubstrateConfig::default()),
            Box::new(TableRouter::new(SHARDS)),
            |_| build(variant, EPS),
        );
        engine
            .drive(&Workload::new(
                "skew",
                workload.requests[..skew_requests].to_vec(),
            ))
            .expect("drive skew phase");
        let before = engine.quiesce().expect("quiesce"); // byte-verified barrier
        assert!(before.imbalance_ratio() > 2.0, "{variant}: skew too weak");

        engine
            .rebalance_online(RebalanceOptions::default().batched(16))
            .expect("plan");
        // Serve the whole neutral phase while the session drains, with a
        // byte-verifying quiesce between chunks.
        for chunk in workload.requests[skew_requests..].chunks(1_024) {
            engine
                .drive(&Workload::new("neutral", chunk.to_vec()))
                .expect("drive neutral");
            engine.quiesce().expect("byte-verified quiesce");
        }
        while engine.rebalance_step().expect("step") {}
        let report = engine.take_rebalance_report().expect("report");
        assert!(
            report.after.imbalance_ratio() < 1.25,
            "{variant}: imbalance {} after online rebalance",
            report.after.imbalance_ratio()
        );

        let stats = engine.quiesce().expect("quiesce");
        assert_eq!(stats.errors(), 0, "{variant}");

        // The migration counters and the physical byte counters agree:
        // every counted migrate-out cell was actually copied out of its
        // source window, and every copy arrived (checksummed) in another
        // window.
        let finals = engine.shutdown().expect("shutdown");
        let counted_out: u64 = finals.iter().map(|f| f.stats.migrated_volume_out).sum();
        let counted_in: u64 = finals.iter().map(|f| f.stats.migrated_volume_in).sum();
        assert_eq!(
            counted_out,
            stats.bytes_migrated_out(),
            "{variant}: counted migrate-out volume != cells physically copied out"
        );
        assert_eq!(
            counted_in,
            stats.bytes_migrated_in(),
            "{variant}: counted migrate-in volume != cells physically adopted"
        );
        assert_eq!(
            counted_out, counted_in,
            "{variant}: a transfer went missing"
        );
        assert!(counted_out > 0, "{variant}: nothing migrated");
    }
}
