//! Crash recovery of a WAL'd, substrate-backed fleet.
//!
//! The durability contract under test (see ARCHITECTURE.md §Durability):
//! every command a shard acked was group-committed to its write-ahead log
//! first, so a simulated `kill -9` ([`Engine::crash`]) followed by
//! [`Engine::recover`] rebuilds exactly the acked logical state — every
//! id live on exactly one shard, bytes regenerated and proven against the
//! journaled digests, and the routing table re-derived to match physical
//! ownership. Also covered: recovery from checkpoints alone after a clean
//! shutdown, the sticky substrate-error flag being legitimately cleared
//! by recovery (the bytes are rebuilt from scratch), and resurrection of
//! a transfer whose arrival never became durable.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use storage_realloc::prelude::*;
use storage_realloc::sim::wal::{wal_path, WalRecord};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("realloc-wal-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn walled_engine(shards: usize, dir: &Path) -> Engine {
    Engine::with_wal(
        EngineConfig::with_shards(shards).with_substrate(SubstrateConfig::default()),
        Box::new(TableRouter::new(shards)),
        |_| Box::new(CostObliviousReallocator::new(0.25)) as _,
        dir,
    )
    .unwrap()
}

fn recover(shards: usize, dir: &Path) -> (Engine, RecoveryReport) {
    Engine::recover(
        EngineConfig::with_shards(shards).with_substrate(SubstrateConfig::default()),
        dir,
        |_| Box::new(CostObliviousReallocator::new(0.25)) as _,
    )
    .unwrap()
}

/// Size for test object `i` — varied so per-shard volumes are imbalanced
/// enough that rebalance plans are never empty.
fn size_of(i: u64) -> u64 {
    1 + (i * 7) % 48
}

/// Every live object appears on exactly one shard, routed to that shard,
/// and the fleet's live set is exactly `expected`.
fn assert_consistent(engine: &mut Engine, expected: &BTreeMap<ObjectId, u64>) {
    let extents = engine.extents().unwrap();
    let mut seen = BTreeMap::new();
    for (shard, list) in extents.iter().enumerate() {
        for &(id, e) in list {
            assert!(seen.insert(id, e.len).is_none(), "{id} live on two shards");
            assert_eq!(
                engine.shard_of(id),
                shard,
                "{id} routed away from its owner"
            );
        }
    }
    assert_eq!(&seen, expected, "recovered live set diverged");
}

#[test]
fn crash_mid_online_rebalance_recovers_byte_identical_state() {
    let dir = temp_dir("online");
    let mut engine = walled_engine(3, &dir);
    let mut expected = BTreeMap::new();
    for i in 0..48u64 {
        engine.insert(ObjectId(i), size_of(i)).unwrap();
        expected.insert(ObjectId(i), size_of(i));
    }
    engine.quiesce().unwrap();

    // Drain an online rebalance (its migrations journal but — unlike the
    // barrier mode — nothing checkpoints afterwards), then keep serving
    // so the logs carry a post-migration tail too.
    let plan = engine
        .rebalance_online(RebalanceOptions::default().batched(4))
        .unwrap();
    assert!(plan.objects > 0, "scenario must actually migrate");
    while engine.rebalance_step().unwrap() {}
    for i in 48..60u64 {
        engine.insert(ObjectId(i), size_of(i)).unwrap();
        expected.insert(ObjectId(i), size_of(i));
    }
    for i in 0..6u64 {
        engine.delete(ObjectId(i)).unwrap();
        expected.remove(&ObjectId(i));
    }
    engine.flush().unwrap();
    engine.crash();

    let (mut recovered, report) = recover(3, &dir);
    assert_eq!(report.shards, 3);
    assert_eq!(report.objects as usize, expected.len());
    assert_eq!(report.volume, expected.values().sum::<u64>());
    assert!(report.replayed_records > 0, "the log tail must replay");
    assert_eq!(report.substrate.len(), 3, "byte verification must run");
    assert_consistent(&mut recovered, &expected);
    let stats = recovered.quiesce().unwrap();
    assert_eq!(stats.recoveries(), 1);

    // The recovered fleet serves: more churn, then a clean shutdown.
    for i in 100..110u64 {
        recovered.insert(ObjectId(i), size_of(i)).unwrap();
    }
    let finals = recovered.shutdown().unwrap();
    let live: usize = finals.iter().map(|f| f.stats.live_count).sum();
    assert_eq!(live, expected.len() + 10);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn clean_shutdown_recovers_from_checkpoints_alone() {
    let dir = temp_dir("clean");
    let mut engine = walled_engine(2, &dir);
    let mut expected = BTreeMap::new();
    for i in 0..30u64 {
        engine.insert(ObjectId(i), size_of(i)).unwrap();
        expected.insert(ObjectId(i), size_of(i));
    }
    engine.shutdown().unwrap();

    let (mut recovered, report) = recover(2, &dir);
    // The final checkpoint subsumed (and truncated) the whole log.
    assert_eq!(report.replayed_groups, 0);
    assert_eq!(report.checkpoint_objects as usize, expected.len());
    assert!(report.resurrected.is_empty());
    assert!(report.dropped_duplicates.is_empty());
    assert_consistent(&mut recovered, &expected);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Satellite regression: a sticky `EngineError::Substrate` must not
/// outlive the state that caused it. Corrupted substrate bytes keep every
/// barrier failing until shutdown — but recovery rebuilds the bytes from
/// scratch (and proves them against the journaled digests), so the
/// recovered fleet is clean.
#[test]
fn recovery_clears_the_sticky_substrate_error() {
    let dir = temp_dir("sticky");
    let mut engine = walled_engine(2, &dir);
    for i in 0..20u64 {
        engine.insert(ObjectId(i), size_of(i)).unwrap();
    }
    engine.quiesce().unwrap();
    let damaged = engine.inject_substrate_corruption(0).unwrap();
    assert!(damaged.is_some(), "shard 0 must have had a live object");
    let err = engine.verify_substrate().unwrap_err();
    assert!(matches!(err, EngineError::Substrate { shard: 0, .. }));
    // Sticky: the *next* barrier still fails.
    assert!(engine.quiesce().is_err());
    engine.crash();

    let (mut recovered, _) = recover(2, &dir);
    recovered.verify_substrate().unwrap();
    recovered.quiesce().unwrap();
    assert_eq!(recovered.quiesce().unwrap().recoveries(), 1);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Satellite regression (abort-after-pin window): a crash after the
/// source durably gave an object up but before the target's arrival
/// became durable must replay to the id live on exactly one shard — the
/// unmatched `MigrateOut` resurrects it on its source. Simulated by
/// tearing the target's log below its `MigrateIn` frames after a real
/// crash.
#[test]
fn lost_arrival_resurrects_the_object_on_its_source() {
    let dir = temp_dir("resurrect");
    let mut engine = walled_engine(2, &dir);
    let mut expected = BTreeMap::new();
    for i in 0..24u64 {
        engine.insert(ObjectId(i), size_of(i)).unwrap();
        expected.insert(ObjectId(i), size_of(i));
    }
    engine.quiesce().unwrap();
    let plan = engine
        .rebalance_online(RebalanceOptions::default().batched(4))
        .unwrap();
    assert!(plan.objects > 0, "scenario must actually migrate");
    while engine.rebalance_step().unwrap() {}
    engine.crash();

    // Tear one shard's log at the start of its first group holding a
    // MigrateIn: every arrival from that group on never happened, as if
    // the target crashed before its ordered commit.
    let mut torn = None;
    for shard in 0..2 {
        let path = wal_path(&dir, shard);
        let groups = storage_realloc::sim::read_wal(&path).unwrap();
        let hit = groups.iter().position(|g| {
            g.records
                .iter()
                .any(|r| matches!(r, WalRecord::MigrateIn { .. }))
        });
        if let Some(idx) = hit {
            let cut = if idx == 0 {
                0
            } else {
                groups[idx - 1].end_offset
            };
            let lost: Vec<ObjectId> = groups[idx..]
                .iter()
                .flat_map(|g| &g.records)
                .filter_map(|r| match *r {
                    WalRecord::MigrateIn { id, .. } => Some(id),
                    _ => None,
                })
                .collect();
            let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
            file.set_len(cut).unwrap();
            torn = Some(lost);
            break;
        }
    }
    let lost = torn.expect("some shard must have adopted transfers");
    assert!(!lost.is_empty());

    let (mut recovered, report) = recover(2, &dir);
    for id in &lost {
        assert!(
            report.resurrected.contains(id),
            "{id} lost its arrival and must resurrect"
        );
    }
    // Nothing is missing and nothing is doubled — the full pre-crash live
    // set survives, bytes proven.
    assert_consistent(&mut recovered, &expected);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Recovery is variant-agnostic: one boundary-kill scenario — a durable
/// checkpoint, churn with same-id touches (the nearly-quadratic variant's
/// hole recycling and the deamortized log both see their characteristic
/// traffic), a group-committed flush, `kill -9` — runs for every variant
/// in the [`VARIANTS`] registry, twice: recovery of the full log must land
/// the exact acked state, and recovery after cutting shard 0's log back to
/// its previous group boundary must land a consistent prefix (every id on
/// exactly one shard at an acked size, the checkpointed set intact).
#[test]
fn boundary_kill_recovers_for_every_variant() {
    for variant in VARIANTS {
        let factory = move |_: usize| build_variant(variant, 0.25).expect("registry name");
        let config = || EngineConfig::with_shards(2).with_substrate(SubstrateConfig::default());
        let dir = temp_dir(&format!("boundary-{variant}"));
        let mut engine =
            Engine::with_wal(config(), Box::new(TableRouter::new(2)), factory, &dir).unwrap();

        // Acceptable sizes per id: any size this id was acked at since the
        // checkpoint (a boundary cut legitimately rolls a touch back).
        let mut acceptable: BTreeMap<ObjectId, Vec<u64>> = BTreeMap::new();
        let mut expected = BTreeMap::new();
        for i in 0..40u64 {
            engine.insert(ObjectId(i), size_of(i)).unwrap();
            expected.insert(ObjectId(i), size_of(i));
            acceptable.insert(ObjectId(i), vec![size_of(i)]);
        }
        engine.quiesce().unwrap();
        for i in 0..12u64 {
            engine.delete(ObjectId(i)).unwrap();
            engine.insert(ObjectId(i), size_of(i) + 8).unwrap();
            expected.insert(ObjectId(i), size_of(i) + 8);
            acceptable
                .get_mut(&ObjectId(i))
                .unwrap()
                .push(size_of(i) + 8);
        }
        for i in 40..52u64 {
            engine.insert(ObjectId(i), size_of(i)).unwrap();
            expected.insert(ObjectId(i), size_of(i));
            acceptable.insert(ObjectId(i), vec![size_of(i)]);
        }
        engine.flush().unwrap();
        engine.crash();

        // Work on a copy for the boundary cut: recovery may rewrite logs.
        let work = temp_dir(&format!("boundary-cut-{variant}"));
        std::fs::create_dir_all(&work).unwrap();
        for entry in std::fs::read_dir(&dir).unwrap() {
            let entry = entry.unwrap();
            std::fs::copy(entry.path(), work.join(entry.file_name())).unwrap();
        }

        let (mut recovered, report) =
            Engine::recover(config(), &dir, factory).unwrap_or_else(|e| panic!("{variant}: {e}"));
        assert!(report.replayed_records > 0, "{variant}: tail must replay");
        assert_consistent(&mut recovered, &expected);
        // The recovered fleet still serves under the same variant.
        recovered.insert(ObjectId(1000), 17).unwrap();
        recovered.quiesce().unwrap();
        recovered.shutdown().unwrap();

        // Boundary cut: the last group on shard 0 vanishes wholesale.
        let path = wal_path(&work, 0);
        let groups = storage_realloc::sim::read_wal(&path).unwrap();
        assert!(!groups.is_empty(), "{variant}: shard 0 logged nothing");
        let cut = if groups.len() >= 2 {
            groups[groups.len() - 2].end_offset
        } else {
            0
        };
        let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(cut).unwrap();
        drop(file);

        let (mut reduced, _) = Engine::recover(config(), &work, factory)
            .unwrap_or_else(|e| panic!("{variant} boundary cut: {e}"));
        let extents = reduced.extents().unwrap();
        let mut seen = BTreeMap::new();
        for (shard, list) in extents.iter().enumerate() {
            for &(id, e) in list {
                assert!(
                    seen.insert(id, e.len).is_none(),
                    "{variant}: {id} live on two shards after the cut"
                );
                assert_eq!(reduced.shard_of(id), shard, "{variant}: {id} misrouted");
                assert!(
                    acceptable.get(&id).is_some_and(|s| s.contains(&e.len)),
                    "{variant}: {id} recovered at unacked size {}",
                    e.len
                );
            }
        }
        // The checkpoint survives any log cut: every untouched checkpointed
        // id must still be live. (Touched ids 0..12 may legitimately be
        // absent — the boundary can fall between a durable delete and its
        // lost reinsert.)
        for i in 12..40u64 {
            assert!(
                seen.contains_key(&ObjectId(i)),
                "{variant}: checkpointed {} lost",
                ObjectId(i)
            );
        }
        reduced.shutdown().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&work).unwrap();
    }
}

/// Recovery is itself crash-safe: recover, crash the recovered fleet
/// without any further checkpoint, recover again — same state.
#[test]
fn recovery_is_idempotent_under_a_second_crash() {
    let dir = temp_dir("twice");
    let mut engine = walled_engine(2, &dir);
    let mut expected = BTreeMap::new();
    for i in 0..16u64 {
        engine.insert(ObjectId(i), size_of(i)).unwrap();
        expected.insert(ObjectId(i), size_of(i));
    }
    engine.flush().unwrap();
    engine.crash(); // no checkpoint at all: replay is log-only

    let (first, report) = recover(2, &dir);
    assert_eq!(report.checkpoint_objects, 0);
    assert_eq!(report.objects as usize, expected.len());
    first.crash();

    let (mut second, report) = recover(2, &dir);
    assert_eq!(report.objects as usize, expected.len());
    assert_consistent(&mut second, &expected);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Mid-log corruption is not a torn tail: with the first group-committed
/// frame of a log damaged and later frames intact, recovery must fail
/// loudly instead of silently dropping every acked group in that log.
#[test]
fn corrupted_first_frame_fails_recovery() {
    let dir = temp_dir("corrupt-first");
    let mut engine = walled_engine(1, &dir);
    for i in 0..8u64 {
        engine.insert(ObjectId(i), size_of(i)).unwrap();
        engine.flush().unwrap(); // one group commit per insert
    }
    engine.crash();

    let path = wal_path(&dir, 0);
    let groups = storage_realloc::sim::read_wal(&path).unwrap();
    assert!(groups.len() >= 2, "need a frame after the damaged one");
    let mut bytes = std::fs::read(&path).unwrap();
    let header = 4 + 4 + 4 + 8; // magic, epoch, payload length, CRC
    bytes[header] ^= 0xff; // a payload byte of frame 0
    std::fs::write(&path, &bytes).unwrap();

    let err = Engine::recover(
        EngineConfig::with_shards(1).with_substrate(SubstrateConfig::default()),
        &dir,
        |_| Box::new(CostObliviousReallocator::new(0.25)) as _,
    )
    .err()
    .expect("recovery over a corrupted first frame must fail");
    assert!(matches!(err, EngineError::Wal { .. }), "{err}");
    std::fs::remove_dir_all(&dir).unwrap();
}
