//! A guided tour of the observability layer.
//!
//! Runs one churn workload through the sharded engine twice — once priced
//! as a seek-dominated rotating disk, once as erase-block flash — and
//! checks the two contracts the telemetry layer makes:
//!
//! 1. **Histogram invariants.** Every exported histogram is internally
//!    consistent: bucket counts account for every observation
//!    (`count = Σ buckets`), the extremes bracket the data
//!    (`min ≤ mean ≤ max`), and percentiles are monotone in `q` and
//!    clamped to `[min, max]`.
//! 2. **Sim time is cost pricing.** The per-shard simulated device time
//!    the scrape reports must equal pricing the shard's own cost summary
//!    through the same [`DeviceModel`](storage_realloc::sim::DeviceModel)
//!    — the cost-oblivious algorithm never saw the device, so the
//!    agreement (to float round-off) *is* cost obliviousness, observed.
//!
//! Run with `cargo run --release --example telemetry_tour`.

use storage_realloc::prelude::*;
use storage_realloc::workloads::churn::{churn, ChurnConfig};
use storage_realloc::workloads::dist::SizeDist;

const SHARDS: usize = 3;
const EPS: f64 = 0.25;

fn main() {
    let workload = churn(&ChurnConfig {
        dist: SizeDist::ClassPowerLaw {
            classes: 8,
            decay: 0.7,
        },
        target_volume: 40_000,
        churn_ops: 8_000,
        seed: 11,
    });
    println!(
        "workload: {} ({} requests); engine: cost-oblivious × {SHARDS}, ε = {EPS}\n",
        workload.name,
        workload.len()
    );

    for profile in [DeviceProfile::Disk, DeviceProfile::Ssd] {
        tour(profile, &workload);
    }
    println!("\nall histogram and sim-time invariants hold");
}

fn tour(profile: DeviceProfile, workload: &Workload) {
    let mut config = EngineConfig::with_shards(SHARDS);
    config.device = Some(profile);
    let mut engine = Engine::new(config, |_| Box::new(CostObliviousReallocator::new(EPS)));
    engine.drive(workload).expect("shards healthy");
    engine.quiesce().expect("quiesce");
    let scrape = engine.metrics().expect("scrape");
    let finals = engine.shutdown().expect("shutdown");

    println!("── device profile: {} ──", profile.name());
    println!(
        "{:>5} {:>12} {:>12} {:>12} {:>10} {:>10}",
        "shard", "serve sim µs", "migr sim µs", "priced µs", "batch p50", "batch p99"
    );

    // 1. Every exported histogram satisfies the structural invariants.
    for m in &scrape.per_shard {
        for (name, h) in [
            ("batch_sim_us", &m.batch_sim_us),
            ("commit_records", &m.commit_records),
            ("batch_service_ns", &m.batch_service_ns),
            ("commit_latency_ns", &m.commit_latency_ns),
            ("intake_stall_ns", &m.intake_stall_ns),
        ] {
            check_histogram(m.shard, name, h);
        }
    }

    // 2. Sim time ≈ pricing the cost summary through the same device model.
    let device = profile.build();
    let price = |w: u64| {
        device.time_of(&StorageOp::Allocate {
            id: ObjectId(0),
            to: Extent::new(0, w),
        })
    };
    let checkpoint = device.time_of(&StorageOp::CheckpointBarrier);
    for (m, f) in scrape.per_shard.iter().zip(&finals) {
        let priced_us = f.costs.total_alloc_cost(&price)
            + f.costs.total_realloc_cost(&price)
            + f.costs.total_checkpoints() as f64 * checkpoint;
        let sim_us = m.serve_sim_us + m.migrate_sim_us;
        let rel = (sim_us - priced_us).abs() / priced_us.max(1.0);
        assert!(
            rel < 1e-9,
            "shard {}: sim {sim_us} µs disagrees with priced {priced_us} µs (rel {rel})",
            m.shard
        );
        println!(
            "{:>5} {:>12.0} {:>12.0} {:>12.0} {:>10.0} {:>10.0}",
            m.shard,
            m.serve_sim_us,
            m.migrate_sim_us,
            priced_us,
            m.batch_sim_us.p50(),
            m.batch_sim_us.p99(),
        );
    }
    println!(
        "{:>5} {:>12.0} µs total simulated device time\n",
        "Σ",
        scrape.sim_time_us()
    );
}

fn check_histogram(shard: usize, name: &str, h: &HistogramSnapshot) {
    assert!(
        h.is_consistent(),
        "shard {shard} {name}: count {} ≠ Σ buckets",
        h.count
    );
    if h.count == 0 {
        return;
    }
    let mean = h.mean();
    assert!(
        h.min as f64 <= mean && mean <= h.max as f64,
        "shard {shard} {name}: mean {mean} outside [{}, {}]",
        h.min,
        h.max
    );
    let mut prev = h.min as f64;
    for q in [0.0, 0.5, 0.9, 0.99, 0.999, 1.0] {
        let p = h.percentile(q);
        assert!(
            p >= prev && p <= h.max as f64,
            "shard {shard} {name}: percentile({q}) = {p} not monotone in [{}, {}]",
            h.min,
            h.max
        );
        prev = p;
    }
}
