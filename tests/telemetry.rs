//! The observability layer's contracts.
//!
//! Telemetry must be a pure *observer*: turning it on (or pricing against
//! a device) must not change what the engine computes, and the parts of a
//! scrape that join the determinism surface must be bitwise-identical
//! across repeat runs, while wall-clock observations are excluded from
//! every `==`. These tests pin all of that down, plus the delta-scrape
//! semantics and the agreement between sim-time and cost-summary pricing.

use proptest::prelude::*;
use storage_realloc::engine::SpanPhase;
use storage_realloc::prelude::*;

const VARIANTS: [&str; 3] = ["cost-oblivious", "checkpointed", "deamortized"];

fn build(variant: &str, eps: f64) -> Box<dyn Reallocator + Send> {
    match variant {
        "cost-oblivious" => Box::new(CostObliviousReallocator::new(eps)),
        "checkpointed" => Box::new(CheckpointedReallocator::new(eps)),
        "deamortized" => Box::new(DeamortizedReallocator::new(eps)),
        other => panic!("unknown variant {other}"),
    }
}

fn churn(volume: u64, ops: usize, seed: u64) -> Workload {
    storage_realloc::workloads::churn::churn(&storage_realloc::workloads::churn::ChurnConfig {
        dist: storage_realloc::workloads::dist::SizeDist::ClassPowerLaw {
            classes: 8,
            decay: 0.7,
        },
        target_volume: volume,
        churn_ops: ops,
        seed,
    })
}

fn run_with(config: EngineConfig, workload: &Workload) -> (MetricsSnapshot, Vec<ShardFinal>) {
    let mut engine = Engine::new(config, |_| build("cost-oblivious", 0.25));
    engine.drive(workload).unwrap();
    engine.quiesce().unwrap();
    let metrics = engine.metrics().unwrap();
    let finals = engine.shutdown().unwrap();
    (metrics, finals)
}

use storage_realloc::engine::ShardFinal;

/// The tentpole determinism regression: the same workload run twice must
/// produce equal `EngineStats` *and* equal `MetricsSnapshot`s under the
/// deterministic projection — even though the wall-clock histograms in
/// the two snapshots inevitably differ.
#[test]
fn repeat_runs_scrape_identically() {
    let workload = churn(30_000, 6_000, 7);
    for device in [None, Some(DeviceProfile::Disk)] {
        let mut config = EngineConfig::with_shards(3);
        config.device = device;
        let (a, fa) = run_with(config, &workload);
        let (b, fb) = run_with(config, &workload);
        assert_eq!(a, b, "metrics snapshots diverged (device {device:?})");
        assert_eq!(a.stats, b.stats);
        // The wall-clock side really did record something — the equality
        // above is a projection, not emptiness.
        assert!(a.per_shard.iter().any(|m| m.batch_service_ns.count > 0));
        let stats = |f: &[ShardFinal]| EngineStats {
            per_shard: f.iter().map(|s| s.stats.clone()).collect(),
        };
        assert_eq!(stats(&fa), stats(&fb));
    }
}

/// Telemetry off ≡ telemetry on, for every paper variant: identical
/// extents, identical stats (the sim-time fields are zero in both runs
/// without a device), identical cost summaries.
#[test]
fn telemetry_is_a_pure_observer() {
    let workload = churn(20_000, 4_000, 11);
    for variant in VARIANTS {
        let run = |telemetry: bool| {
            let mut config = EngineConfig::with_shards(2);
            config.telemetry = telemetry;
            let mut engine = Engine::new(config, |_| build(variant, 0.25));
            engine.drive(&workload).unwrap();
            engine.quiesce().unwrap();
            let extents = engine.extents().unwrap();
            let finals = engine.shutdown().unwrap();
            (extents, finals)
        };
        let (ext_on, fin_on) = run(true);
        let (ext_off, fin_off) = run(false);
        assert_eq!(ext_on, ext_off, "{variant}: extents diverged");
        for (a, b) in fin_on.iter().zip(&fin_off) {
            assert_eq!(a.stats, b.stats, "{variant}: stats diverged");
            assert_eq!(a.costs, b.costs, "{variant}: cost summaries diverged");
        }
    }
}

/// A device profile prices — it must not perturb the computation either.
#[test]
fn device_pricing_is_a_pure_observer() {
    let workload = churn(15_000, 3_000, 13);
    let run = |device: Option<DeviceProfile>| {
        let mut config = EngineConfig::with_shards(2);
        config.device = device;
        let mut engine = Engine::new(config, |_| build("deamortized", 0.25));
        engine.drive(&workload).unwrap();
        engine.quiesce().unwrap();
        let extents = engine.extents().unwrap();
        let stats = engine.snapshot().unwrap();
        (extents, stats)
    };
    let (ext_none, stats_none) = run(None);
    for profile in DeviceProfile::ALL {
        let (ext, stats) = run(Some(profile));
        assert_eq!(ext, ext_none, "{}: extents diverged", profile.name());
        // Sim-time fields differ by construction; everything else is equal.
        for (a, b) in stats.per_shard.iter().zip(&stats_none.per_shard) {
            let mut b = b.clone();
            b.serve_sim_time = a.serve_sim_time;
            b.migrate_sim_time = a.migrate_sim_time;
            b.wal_commit_sim_time = a.wal_commit_sim_time;
            assert_eq!(*a, b, "{}: stats diverged", profile.name());
        }
        assert!(stats.sim_time() > 0.0, "{}: nothing priced", profile.name());
    }
    assert_eq!(stats_none.sim_time(), 0.0);
}

/// Prices the shards' cost summaries through `profile`'s device model:
/// alloc cost + realloc cost + checkpoint barriers × checkpoint latency.
fn priced_time(profile: DeviceProfile, finals: &[ShardFinal]) -> f64 {
    let device = profile.build();
    let price = |w: u64| {
        device.time_of(&StorageOp::Allocate {
            id: ObjectId(0),
            to: Extent::new(0, w),
        })
    };
    let checkpoint_latency = device.time_of(&StorageOp::CheckpointBarrier);
    finals
        .iter()
        .map(|f| {
            f.costs.total_alloc_cost(&price)
                + f.costs.total_realloc_cost(&price)
                + f.costs.total_checkpoints() as f64 * checkpoint_latency
        })
        .sum()
}

/// Asserts that serve+migrate sim time equals the post-hoc price of the
/// shards' cost summaries, and that the summaries count exactly the moves
/// the stats report (serving, drains and transfers, plus defrag moves).
fn assert_sim_time_is_priced(
    label: &str,
    profile: DeviceProfile,
    stats: &EngineStats,
    finals: &[ShardFinal],
) {
    let priced = priced_time(profile, finals);
    let sim = stats.serve_sim_time() + stats.migrate_sim_time();
    let rel = (sim - priced).abs() / priced.max(1.0);
    assert!(
        rel < 1e-9,
        "{label}/{}: sim {sim} vs priced {priced} (rel {rel})",
        profile.name()
    );
    let counted: u64 = finals.iter().map(|f| f.costs.total_moves()).sum();
    assert_eq!(
        counted,
        stats.total_moves() + stats.defrag_moves(),
        "{label}: the cost summaries and the stats disagree on moves"
    );
}

/// Sim time must agree with pricing the shard cost summaries through the
/// same cost function, for every paper variant: every outcome a shard
/// absorbs — quiesce drains included — is both priced on the sim clock
/// and recorded in the summary, so the agreement is exact up to float
/// association order.
#[test]
fn sim_time_agrees_with_ledger_pricing() {
    let workload = churn(25_000, 5_000, 17);
    for variant in VARIANTS {
        for profile in [DeviceProfile::Unit, DeviceProfile::Disk, DeviceProfile::Ssd] {
            let mut config = EngineConfig::with_shards(2);
            config.device = Some(profile);
            let mut engine = Engine::new(config, |_| build(variant, 0.25));
            engine.drive(&workload).unwrap();
            let stats = engine.quiesce().unwrap();
            let finals = engine.shutdown().unwrap();
            assert_sim_time_is_priced(variant, profile, &stats, &finals);
        }
    }

    // The deamortized structure defers its flushes, so the final quiesce
    // drains one still in flight: its moves must be priced too.
    let mut rng = 9_u64; // a seed whose final quiesce drains ~3k moves
    let mut next = move |bound: u64| {
        // SplitMix64: a fixed, dependency-free stream.
        rng = rng.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % bound
    };
    let mut config = EngineConfig::with_shards(1);
    config.device = Some(DeviceProfile::Unit);
    let mut engine = Engine::new(config, |_| build("deamortized", 0.25));
    for i in 0..3_000u64 {
        engine.insert(ObjectId(i), 1 + next(200)).unwrap();
    }
    for i in 0..3_000u64 {
        if next(2) == 0 {
            engine.delete(ObjectId(i)).unwrap();
        }
    }
    let before = engine.snapshot().unwrap();
    let stats = engine.quiesce().unwrap();
    assert!(
        before.total_moves() < stats.total_moves(),
        "the final quiesce drained nothing ({} moves before and after)",
        stats.total_moves()
    );
    let finals = engine.shutdown().unwrap();
    assert_sim_time_is_priced("deamortized drain", DeviceProfile::Unit, &stats, &finals);
}

/// Delta scrapes: counters and histograms subtract, gauges stay current.
#[test]
fn delta_scrape_subtracts_counters_and_keeps_gauges() {
    let mut config = EngineConfig::with_shards(2);
    config.device = Some(DeviceProfile::Unit);
    let mut engine = Engine::new(config, |_| build("cost-oblivious", 0.25));

    engine.drive(&churn(10_000, 2_000, 23)).unwrap();
    engine.quiesce().unwrap();
    let first = engine.metrics_delta().unwrap();
    // First scrape: no baseline, full values.
    assert_eq!(first.scrape, 1);
    assert!(first.stats.requests() > 0);

    // No traffic between scrapes: every counter delta must be zero, while
    // gauges keep reporting the current level.
    let idle = engine.metrics_delta().unwrap();
    assert_eq!(idle.scrape, 2);
    assert_eq!(idle.stats.requests(), 0);
    assert_eq!(idle.stats.wal_records(), 0);
    assert_eq!(idle.sim_time_us(), 0.0);
    assert_eq!(idle.stats.live_volume(), first.stats.live_volume());
    assert!(idle.per_shard.iter().all(|m| m.batch_sim_us.count == 0));

    // More traffic (fresh ids, disjoint from the churn run): the delta
    // counts only the new work, the cumulative scrape keeps growing.
    let more: Vec<Request> = (0..500)
        .map(|i| Request::Insert {
            id: ObjectId(1_000_000 + i),
            size: 64,
        })
        .collect();
    engine.drive(&Workload::new("more", more)).unwrap();
    engine.quiesce().unwrap();
    let delta = engine.metrics_delta().unwrap();
    let total = engine.metrics().unwrap();
    assert!(delta.stats.requests() > 0);
    assert!(total.stats.requests() > delta.stats.requests());
    engine.shutdown().unwrap();
}

/// The wall-clock exclusion holds end-to-end: a real scrape compared with
/// a doctored copy whose observation histograms are wiped is still equal.
#[test]
fn scrape_equality_ignores_wall_clock_observations() {
    let mut config = EngineConfig::with_shards(2);
    config.device = Some(DeviceProfile::Ssd);
    let mut engine = Engine::new(config, |_| build("cost-oblivious", 0.25));
    engine.drive(&churn(10_000, 2_000, 31)).unwrap();
    engine.quiesce().unwrap();
    let real = engine.metrics().unwrap();
    engine.shutdown().unwrap();

    let mut doctored = real.clone();
    for m in &mut doctored.per_shard {
        m.batch_service_ns = HistogramSnapshot::empty();
        m.commit_latency_ns = HistogramSnapshot::empty();
        m.intake_stall_ns = HistogramSnapshot::empty();
    }
    doctored.events.clear();
    assert_eq!(real, doctored);

    // Deterministic fields do participate.
    let mut perturbed = real.clone();
    perturbed.per_shard[0].serve_sim_us += 1.0;
    assert_ne!(real, perturbed);
}

/// Rebalance sessions journal one span per migration batch, and the JSON
/// export carries them.
#[test]
fn rebalance_batches_emit_spans() {
    let mut config = EngineConfig::with_shards(2);
    config.device = Some(DeviceProfile::Unit);
    let mut engine = Engine::with_router(config, Box::new(TableRouter::new(2)), |_| {
        build("cost-oblivious", 0.25)
    });
    // Skewed population: everything hashes wherever it lands, then a
    // rebalance moves some of it.
    for i in 0..200u64 {
        engine.insert(ObjectId(i), 64 + i % 32).unwrap();
    }
    engine.quiesce().unwrap();
    engine
        .rebalance_online(RebalanceOptions {
            batch_objects: 8,
            ..Default::default()
        })
        .unwrap();
    while engine.rebalance_step().unwrap() {}
    engine.take_rebalance_report().unwrap();

    let metrics = engine.metrics().unwrap();
    let begins = metrics
        .events
        .iter()
        .filter(|e| e.label == "rebalance.batch" && matches!(e.phase, SpanPhase::Begin))
        .count();
    let ends = metrics
        .events
        .iter()
        .filter(|e| e.label == "rebalance.batch" && matches!(e.phase, SpanPhase::End))
        .count();
    assert!(begins > 0, "no batch spans journaled");
    assert_eq!(begins, ends, "unmatched batch spans");
    assert!(metrics
        .events
        .iter()
        .any(|e| e.label == "rebalance.session"));

    let json = metrics.to_json().to_string();
    let parsed = Json::parse(&json).expect("export must round-trip");
    let events = parsed.get("events").and_then(Json::as_arr).unwrap();
    assert_eq!(events.len(), metrics.events.len());
    engine.shutdown().unwrap();
}

/// Recovery installs one span per stage into the rebuilt engine.
#[test]
fn recovery_emits_stage_spans() {
    let dir = std::env::temp_dir().join(format!("realloc-telemetry-rec-{}", std::process::id()));
    let config = EngineConfig::with_shards(2);
    let mut engine = Engine::with_wal(
        config,
        Box::new(TableRouter::new(2)),
        |_| build("cost-oblivious", 0.25),
        &dir,
    )
    .unwrap();
    for i in 0..100u64 {
        engine.insert(ObjectId(i), 32 + i % 16).unwrap();
    }
    engine.quiesce().unwrap();
    engine.crash();

    let (mut rebuilt, report) =
        Engine::recover(config, &dir, |_| build("cost-oblivious", 0.25)).unwrap();
    assert_eq!(report.objects, 100);
    let metrics = rebuilt.metrics().unwrap();
    for stage in [
        "recover.fold",
        "recover.reconcile",
        "recover.routing",
        "recover.reseed",
    ] {
        let begin = metrics
            .events
            .iter()
            .any(|e| e.label == stage && matches!(e.phase, SpanPhase::Begin));
        let end = metrics
            .events
            .iter()
            .any(|e| e.label == stage && matches!(e.phase, SpanPhase::End));
        assert!(begin && end, "missing span pair for {stage}");
    }
    rebuilt.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// WAL commit sim time only exists with both a WAL and a device, and the
/// commit histograms record the group-commit coalescing.
#[test]
fn wal_commit_pricing_requires_wal_and_device() {
    let dir = std::env::temp_dir().join(format!("realloc-telemetry-wal-{}", std::process::id()));
    let mut config = EngineConfig::with_shards(2);
    config.device = Some(DeviceProfile::Disk);
    let mut engine = Engine::with_wal(
        config,
        Box::new(TableRouter::new(2)),
        |_| build("cost-oblivious", 0.25),
        &dir,
    )
    .unwrap();
    engine.drive(&churn(10_000, 2_000, 37)).unwrap();
    let stats = engine.quiesce().unwrap();
    let metrics = engine.metrics().unwrap();
    assert!(stats.wal_commit_sim_time() > 0.0);
    assert!(metrics.per_shard.iter().any(|m| m.commit_records.count > 0));
    // Coalescing: a group commit carries more than one record on average.
    let recs = metrics
        .per_shard
        .iter()
        .map(|m| m.commit_records.clone())
        .fold(HistogramSnapshot::empty(), |mut acc, h| {
            acc.merge(&h);
            acc
        });
    assert!(recs.mean() > 1.0, "group commits are not coalescing");
    engine.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();

    // Without a WAL the lane stays zero even with a device.
    let mut config = EngineConfig::with_shards(2);
    config.device = Some(DeviceProfile::Disk);
    let mut engine = Engine::new(config, |_| build("cost-oblivious", 0.25));
    engine.drive(&churn(5_000, 1_000, 41)).unwrap();
    let stats = engine.quiesce().unwrap();
    assert_eq!(stats.wal_commit_sim_time(), 0.0);
    assert!(stats.serve_sim_time() > 0.0);
    engine.shutdown().unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Property: for random small workloads, metrics-on and metrics-off
    /// runs agree on extents, stats, and cost summaries for all three
    /// paper variants.
    #[test]
    fn prop_metrics_do_not_perturb(seed in 0u64..1_000, ops in 200usize..800) {
        let workload = churn(8_000, ops, seed);
        for variant in VARIANTS {
            let run = |telemetry: bool| {
                let mut config = EngineConfig::with_shards(2);
                config.telemetry = telemetry;
                config.device = telemetry.then_some(DeviceProfile::Unit);
                let mut engine = Engine::new(config, |_| build(variant, 0.25));
                engine.drive(&workload).unwrap();
                engine.quiesce().unwrap();
                let extents = engine.extents().unwrap();
                let finals = engine.shutdown().unwrap();
                (extents, finals)
            };
            let (ext_on, fin_on) = run(true);
            let (ext_off, fin_off) = run(false);
            prop_assert_eq!(ext_on, ext_off, "{}: extents diverged", variant);
            for (a, b) in fin_on.iter().zip(&fin_off) {
                prop_assert_eq!(a.stats.requests, b.stats.requests);
                prop_assert_eq!(a.stats.live_volume, b.stats.live_volume);
                prop_assert_eq!(a.stats.footprint, b.stats.footprint);
                prop_assert_eq!(a.stats.total_moves, b.stats.total_moves);
                prop_assert_eq!(&a.costs, &b.costs);
            }
        }
    }
}
