//! E17 — what does always-on telemetry cost? (our addition; the paper
//! has no serving layer, let alone a metrics one.)
//!
//! The engine records per-batch service latency, prices op streams
//! against an optional device model, and times WAL group commits — all
//! on by default. The claim that justifies "on by default" is that the
//! observer is nearly free: the fast path adds two `Instant::now()`
//! reads and a handful of relaxed atomic increments per *batch* (not per
//! request), so serving throughput with telemetry on must stay within a
//! few percent of telemetry off.
//!
//! Three configurations over the standard churn workload: telemetry off,
//! telemetry on (wall-clock histograms only), and telemetry on with the
//! `disk` device profile (adds op-stream pricing — a float multiply-add
//! per priced op). The head-to-head interleaves off/on rounds so slow
//! machine-load drift cancels out of the reported ratio, and prints a
//! PASS/FAIL verdict at the 3% budget.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use realloc_common::Reallocator;
use realloc_core::CostObliviousReallocator;
use realloc_engine::{DeviceProfile, Engine, EngineConfig};
use workload_gen::Workload;

const EPS: f64 = 0.25;
const SHARDS: usize = 4;

fn run(w: &Workload, telemetry: bool, device: Option<DeviceProfile>) -> u64 {
    let mut config = EngineConfig::with_shards(SHARDS);
    if !telemetry {
        config = config.without_telemetry();
    }
    config.device = device;
    let mut engine = Engine::new(config, |_| {
        Box::new(CostObliviousReallocator::new(EPS)) as Box<dyn Reallocator + Send>
    });
    engine.drive(w).expect("drive");
    engine.quiesce().expect("quiesce").live_volume()
}

fn metrics_overhead(c: &mut Criterion) {
    let workload = realloc_bench::standard_churn(150_000, 30_000, 4242);
    let n = workload.len() as u64;

    let mut group = c.benchmark_group("metrics_overhead");
    group.throughput(Throughput::Elements(n));
    group.sample_size(10);
    group.bench_function(BenchmarkId::new("telemetry", "off"), |b| {
        b.iter(|| run(&workload, false, None))
    });
    group.bench_function(BenchmarkId::new("telemetry", "on"), |b| {
        b.iter(|| run(&workload, true, None))
    });
    group.bench_function(BenchmarkId::new("telemetry", "on+disk"), |b| {
        b.iter(|| run(&workload, true, Some(DeviceProfile::Disk)))
    });
    group.finish();

    // Head-to-head: alternate off and on so background-load drift hits
    // both equally, and compare the *best* round of each — the minimum is
    // the standard noise-robust estimator (external load only ever adds
    // time, so the fastest round is the least-perturbed measurement). The
    // gated configuration is the *default* one (telemetry on, no device);
    // device pricing is opt-in extra work, reported but not gated.
    run(&workload, false, None); // warm-up
    run(&workload, true, None);
    const ROUNDS: usize = 9;
    let (mut t_off, mut t_on, mut t_disk) = (f64::MAX, f64::MAX, f64::MAX);
    for _ in 0..ROUNDS {
        let t = Instant::now();
        run(&workload, false, None);
        t_off = t_off.min(t.elapsed().as_secs_f64());
        let t = Instant::now();
        run(&workload, true, None);
        t_on = t_on.min(t.elapsed().as_secs_f64());
        let t = Instant::now();
        run(&workload, true, Some(DeviceProfile::Disk));
        t_disk = t_disk.min(t.elapsed().as_secs_f64());
    }
    let overhead = t_on / t_off - 1.0;
    println!(
        "  metrics_overhead summary: default telemetry costs {:+.2}% \
         ({:.0} vs {:.0} requests/sec, best of {ROUNDS} interleaved rounds) \
         [budget < 3%: {}]; opt-in disk pricing on top: {:+.2}%",
        100.0 * overhead,
        n as f64 / t_on,
        n as f64 / t_off,
        realloc_bench::verdict(overhead < 0.03),
        100.0 * (t_disk / t_off - 1.0),
    );
}

criterion_group!(benches, metrics_overhead);
criterion_main!(benches);
