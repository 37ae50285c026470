//! The kill-point matrix: crash a WAL'd fleet at *every* record boundary
//! of an online-rebalance run and prove recovery holds its invariants at
//! each one.
//!
//! One scenario — churn, checkpoint, a batched online rebalance, more
//! churn, crash — produces a pristine set of per-shard logs. The matrix
//! then truncates each shard's log at every group-commit boundary (and at
//! torn mid-frame points just past each boundary) in its own copy of the
//! directory and recovers. Whatever the cut:
//!
//! * recovery succeeds, and its built-in byte verification passes (every
//!   recovered object's bytes prove against the journaled digest);
//! * every live id is on exactly one shard, and the routing table sends
//!   it there — including the two migration failure edges: a lost arrival
//!   (source's `MigrateOut` unmatched → resurrected at the source) and a
//!   lost departure (id doubled → the later claim wins, the stale copy is
//!   dropped);
//! * the live set is a subset of what was ever inserted, at the exact
//!   sizes inserted, and the physical extents agree with the stats.
//!
//! The matrix must hit both failure edges at least once, or the scenario
//! is not exercising the window it exists for.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use storage_realloc::prelude::*;
use storage_realloc::sim::read_wal;
use storage_realloc::sim::wal::{checkpoint_path, read_checkpoint, wal_path};

const SHARDS: usize = 3;

fn factory(_: usize) -> BoxedReallocator {
    Box::new(CostObliviousReallocator::new(0.25))
}

fn config() -> EngineConfig {
    let mut config = EngineConfig::with_shards(SHARDS).with_substrate(SubstrateConfig::default());
    // Small serving batches → many group commits → a dense kill-point
    // grid.
    config.batch = 8;
    config
}

fn size_of(i: u64) -> u64 {
    1 + (i * 11) % 40
}

/// Builds the pristine crash scenario under `dir`: checkpointed churn, a
/// fully drained online rebalance (journaled, never checkpointed), a
/// post-migration tail, then a hard crash. Returns every id ever
/// inserted, with its size.
fn build_scenario(dir: &Path) -> BTreeMap<ObjectId, u64> {
    let mut engine =
        Engine::with_wal(config(), Box::new(TableRouter::new(SHARDS)), factory, dir).unwrap();
    let mut inserted = BTreeMap::new();
    for i in 0..48u64 {
        engine.insert(ObjectId(i), size_of(i)).unwrap();
        inserted.insert(ObjectId(i), size_of(i));
    }
    engine.quiesce().unwrap();
    let plan = engine
        .rebalance_online(RebalanceOptions::default().batched(2))
        .unwrap();
    assert!(plan.objects > 0, "scenario must migrate to test the window");
    // Interleave serving with the draining session, like production
    // traffic would, so migration frames and serving frames alternate in
    // the logs.
    let mut next = 48u64;
    while engine.rebalance_step().unwrap() {
        engine.insert(ObjectId(next), size_of(next)).unwrap();
        inserted.insert(ObjectId(next), size_of(next));
        next += 1;
        engine.flush().unwrap();
    }
    for i in next..next + 12 {
        engine.insert(ObjectId(i), size_of(i)).unwrap();
        inserted.insert(ObjectId(i), size_of(i));
    }
    for i in [1u64, 4, 9, 16, 25] {
        engine.delete(ObjectId(i)).unwrap();
    }
    engine.flush().unwrap();
    engine.crash();
    inserted
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("realloc-matrix-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn every_kill_point_recovers_to_one_owner_per_object() {
    let pristine = temp_dir("pristine");
    let inserted = build_scenario(&pristine);

    // Every cut length for every shard: each group boundary, plus torn
    // points one byte and half a frame header into the next frame (the
    // reader must discard the torn tail silently).
    let mut cuts: Vec<(usize, u64)> = Vec::new();
    for shard in 0..SHARDS {
        let groups = read_wal(&wal_path(&pristine, shard)).unwrap();
        let mut prev = 0u64;
        for group in &groups {
            for cut in [prev, prev + 1, prev + 10] {
                if cut <= group.end_offset {
                    cuts.push((shard, cut));
                }
            }
            prev = group.end_offset;
        }
    }
    assert!(cuts.len() > 20, "scenario produced too few kill points");

    let work = temp_dir("cut");
    let mut resurrections = 0u64;
    let mut duplicates_dropped = 0u64;
    for (shard, cut) in cuts {
        let _ = std::fs::remove_dir_all(&work);
        copy_dir(&pristine, &work);
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(wal_path(&work, shard))
            .unwrap();
        file.set_len(cut).unwrap();
        drop(file);

        // Recovery runs byte verification itself — an Ok here already
        // proves every recovered object's bytes.
        let (mut engine, report) = Engine::recover(config(), &work, factory)
            .unwrap_or_else(|e| panic!("shard {shard} cut at {cut}: {e}"));
        resurrections += report.resurrected.len() as u64;
        duplicates_dropped += report.dropped_duplicates.len() as u64;

        // One owner per id, routing pointing at it, sizes as inserted.
        let extents = engine.extents().unwrap();
        let mut seen = BTreeMap::new();
        for (owner, list) in extents.iter().enumerate() {
            for &(id, e) in list {
                assert!(
                    seen.insert(id, e.len).is_none(),
                    "shard {shard} cut {cut}: {id} live twice"
                );
                assert_eq!(
                    engine.shard_of(id),
                    owner,
                    "shard {shard} cut {cut}: {id} routed off its owner"
                );
                assert_eq!(
                    inserted.get(&id),
                    Some(&e.len),
                    "shard {shard} cut {cut}: {id} at a never-inserted size"
                );
            }
        }
        // Stats/physical agreement: the stats the barrier reports count
        // exactly the extents that exist.
        let stats = engine.quiesce().unwrap();
        assert_eq!(stats.live_count(), seen.len());
        assert_eq!(stats.live_volume(), seen.values().sum::<u64>());
        assert_eq!(stats.recoveries(), 1);
    }

    // The matrix must have exercised both failure edges of the migration
    // window: lost arrivals (resurrection at the source) and lost
    // departures (duplicate dropped by claim).
    assert!(resurrections > 0, "no cut lost an arrival");
    assert!(duplicates_dropped > 0, "no cut lost a departure");

    let _ = std::fs::remove_dir_all(&work);
    std::fs::remove_dir_all(&pristine).unwrap();
}

/// Pins the parallel Phase-1 fold (one thread per shard, merged in
/// shard index order): recovering the same pristine directory is
/// deterministic run to run — same owner map, same placements, same
/// report down to the duplicate/resurrection lists — and the replay
/// counters account for exactly the records the logs hold past each
/// shard's checkpoint epoch. Nothing dropped, nothing double-counted,
/// whatever order the fold threads finish in.
#[test]
fn parallel_suffix_fold_is_deterministic_and_complete() {
    let pristine = temp_dir("fold");
    build_scenario(&pristine);

    // The completeness target, computed straight from the files the way
    // a sequential reader would.
    let mut want_groups = 0u64;
    let mut want_records = 0u64;
    let mut want_ckpt_objects = 0u64;
    for shard in 0..SHARDS {
        let ckpt = read_checkpoint(&checkpoint_path(&pristine, shard)).unwrap();
        let epoch = ckpt.as_ref().map_or(0, |c| c.epoch);
        want_ckpt_objects += ckpt.map_or(0, |c| c.entries.len() as u64);
        for group in read_wal(&wal_path(&pristine, shard)).unwrap() {
            if group.epoch >= epoch {
                want_groups += 1;
                want_records += group.records.len() as u64;
            }
        }
    }
    assert!(want_records > 0, "scenario must leave a replayable suffix");

    let mut baseline = None;
    for run in 0..3 {
        let work = temp_dir("fold-run");
        copy_dir(&pristine, &work);
        let (mut engine, report) = Engine::recover(config(), &work, factory).unwrap();
        assert_eq!(report.replayed_groups, want_groups, "run {run}");
        assert_eq!(report.replayed_records, want_records, "run {run}");
        assert_eq!(report.checkpoint_objects, want_ckpt_objects, "run {run}");

        let fingerprint = (
            engine.extents().unwrap(),
            report.objects,
            report.volume,
            report.resurrected.clone(),
            report.dropped_duplicates.clone(),
            report.route_assignments,
        );
        match &baseline {
            None => baseline = Some(fingerprint),
            Some(first) => assert_eq!(first, &fingerprint, "run {run} diverged"),
        }
        engine.shutdown().unwrap();
        std::fs::remove_dir_all(&work).unwrap();
    }
    std::fs::remove_dir_all(&pristine).unwrap();
}
