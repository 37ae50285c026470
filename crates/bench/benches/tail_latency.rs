//! E17 — tail latency of intake under a skewed multi-tenant storm:
//! what does the async front-end's work stealing buy at p99?
//!
//! Twenty-four tenants share four workers, pinned `t % W` — which
//! co-locates the six hot tenants {0, 4, …, 20} (~90% of ΣV≈1M between
//! them) on worker 0 while eighteen victims trickle elsewhere. That is
//! the adversarial placement for a static assignment: every hot batch
//! waits behind the other five hot tenants' applies on one thread. The
//! storm is driven three ways over identical request streams:
//!
//! * **sync** — one sync `Engine` with one shard per worker and a
//!   `TableRouter` landing tenant `t` on shard `t % W`: the classic
//!   consolidation — one intake thread, all six hot tenants funnelling
//!   into a single shard worker, intake stalling at that shard's
//!   admission bound.
//! * **async** — a `Fleet` hosting each tenant as its own `AsyncEngine`
//!   core, pinned `t % W` (same co-location), stealing off: same
//!   head-of-line blocking, now spread over six cores' admission bounds.
//! * **async+steal** — stealing on: when the hot home is genuinely
//!   stuck (a front task older than the steal patience — in practice,
//!   behind one core's rebuild spike), idle workers pull its queued
//!   batches, so the other hot tenants drain instead of waiting out
//!   the spike.
//!
//! The observable is the *intake stall* histogram — nanoseconds the
//! producer spent blocked because a core's admission bound was full
//! (both facades ship through the same bound) — which is exactly the
//! latency a caller feels at `insert`. The acceptance bar (ISSUE 10):
//! **async+steal p99 intake stall ≤ 50% of the sync p99**, PASS/FAIL
//! printed, the run exported as `BENCH_tail_latency.json` (re-parsed
//! with the strict codec before exit).
//!
//! `TAIL_LATENCY_SMOKE=1` shrinks the storm and skips the wall-clock
//! gate (CI machines are noisy); the export and the equivalence checks
//! still run.

use std::process::ExitCode;
use std::time::Instant;

use realloc_bench::{fmt2, fmt_u64, Table};
use realloc_common::{HashRouter, ObjectId, Reallocator, Router, TableRouter};
use realloc_core::CostObliviousReallocator;
use realloc_engine::{
    AsyncEngine, Engine, EngineConfig, Fleet, FleetConfig, HistogramSnapshot, Json, StealStats,
    SubstrateConfig,
};

const EPS: f64 = 0.25;
const WORKERS: usize = 4;
const TENANTS: usize = 24;
const BATCH: usize = 32;
const DEPTH: usize = 2;
/// Requests each hot tenant gets per round-robin round (victims get 1).
const HOT_WEIGHT: usize = 10;
const OBJ_SIZE: u64 = 32;

/// The hot tenants: every tenant whose pin `t % WORKERS` lands on
/// worker 0, so the skew and the co-location compound.
fn hot(t: usize) -> bool {
    t.is_multiple_of(WORKERS)
}

struct Scale {
    /// Inserts per hot tenant; victims each get a 27th of this.
    hot_objects: u64,
    gate: bool,
}

fn scale() -> Scale {
    if std::env::var_os("TAIL_LATENCY_SMOKE").is_some() {
        Scale {
            hot_objects: 500,
            gate: false,
        }
    } else {
        // 6·4_687·32 ≈ 900k hot + 18·173·32 ≈ 100k victims: ΣV ≈ 1M.
        Scale {
            hot_objects: 4_687,
            gate: true,
        }
    }
}

fn factory(_shard: usize) -> Box<dyn Reallocator + Send> {
    Box::new(CostObliviousReallocator::new(EPS))
}

/// Tenant `t`'s `i`-th object — id spaces are disjoint so the sync
/// consolidation and the per-tenant fleets serve identical streams.
fn object(t: usize, i: u64) -> ObjectId {
    ObjectId(((t as u64) << 32) | i)
}

/// The storm, as one interleaved schedule of (tenant, object) inserts:
/// round-robin with each hot tenant taking [`HOT_WEIGHT`] slots per
/// round, so their queue pressure is sustained rather than front-loaded.
fn schedule(scale: &Scale) -> Vec<(usize, ObjectId)> {
    let mut remaining: Vec<u64> = (0..TENANTS)
        .map(|t| {
            if hot(t) {
                scale.hot_objects
            } else {
                scale.hot_objects / 27
            }
        })
        .collect();
    let mut next: Vec<u64> = vec![0; TENANTS];
    let mut plan = Vec::new();
    while remaining.iter().any(|&r| r > 0) {
        for t in 0..TENANTS {
            let want = if hot(t) { HOT_WEIGHT } else { 1 };
            for _ in 0..want.min(remaining[t] as usize) {
                plan.push((t, object(t, next[t])));
                next[t] += 1;
                remaining[t] -= 1;
            }
        }
    }
    plan
}

struct ModeResult {
    elapsed_s: f64,
    stall: HistogramSnapshot,
    live_count: usize,
    live_volume: u64,
    steal: StealStats,
}

fn sync_config() -> EngineConfig {
    EngineConfig {
        batch: BATCH,
        queue_depth: DEPTH,
        ..EngineConfig::with_shards(WORKERS)
    }
    .with_substrate(SubstrateConfig::default())
}

fn tenant_config() -> EngineConfig {
    EngineConfig {
        batch: BATCH,
        queue_depth: DEPTH,
        ..EngineConfig::with_shards(1)
    }
    .with_substrate(SubstrateConfig::default())
}

fn run_sync(plan: &[(usize, ObjectId)]) -> ModeResult {
    let mut router = TableRouter::new(WORKERS);
    for &(t, id) in plan {
        if Router::route(&router, id) != t % WORKERS {
            Router::assign(&mut router, id, t % WORKERS);
        }
    }
    let mut engine = Engine::with_router(sync_config(), Box::new(router), factory);
    let start = Instant::now();
    for &(_, id) in plan {
        engine.insert(id, OBJ_SIZE).expect("insert");
    }
    let stats = engine.quiesce().expect("quiesce");
    let elapsed_s = start.elapsed().as_secs_f64();
    let metrics = engine.metrics().expect("metrics");
    let mut stall = HistogramSnapshot::empty();
    for shard in &metrics.per_shard {
        stall.merge(&shard.intake_stall_ns);
    }
    engine.shutdown().expect("shutdown");
    ModeResult {
        elapsed_s,
        stall,
        live_count: stats.live_count(),
        live_volume: stats.live_volume(),
        steal: StealStats::default(),
    }
}

fn run_async(plan: &[(usize, ObjectId)], stealing: bool) -> ModeResult {
    let fleet = Fleet::new(FleetConfig::with_workers(WORKERS).stealing(stealing));
    let mut tenants: Vec<AsyncEngine> = (0..TENANTS)
        .map(|t| {
            fleet.register_pinned(
                tenant_config(),
                Box::new(HashRouter::new(1)),
                factory,
                t % WORKERS,
            )
        })
        .collect();
    let start = Instant::now();
    for &(t, id) in plan {
        drop(tenants[t].insert(id, OBJ_SIZE));
    }
    let waits: Vec<_> = tenants.iter_mut().map(|t| t.quiesce()).collect();
    let mut live_count = 0;
    let mut live_volume = 0;
    for wait in waits {
        let stats = wait.wait().expect("quiesce");
        live_count += stats.live_count();
        live_volume += stats.live_volume();
    }
    let elapsed_s = start.elapsed().as_secs_f64();
    let mut stall = HistogramSnapshot::empty();
    for tenant in tenants.iter_mut() {
        let metrics = tenant.metrics().expect("metrics");
        for shard in &metrics.per_shard {
            stall.merge(&shard.intake_stall_ns);
        }
    }
    let steal = fleet.steal_totals();
    for tenant in tenants {
        tenant.shutdown().expect("shutdown");
    }
    fleet.shutdown();
    ModeResult {
        elapsed_s,
        stall,
        live_count,
        live_volume,
        steal,
    }
}

fn side(r: &ModeResult, ops: f64) -> Json {
    let mut side = Json::obj();
    side.set("elapsed_s", r.elapsed_s)
        .set("ops_per_sec", ops / r.elapsed_s.max(1e-9))
        .set("stalls", r.stall.count)
        .set("stall_p50_ns", r.stall.p50())
        .set("stall_p99_ns", r.stall.p99())
        .set("batches_stolen", r.steal.batches_stolen)
        .set("steal_conflicts", r.steal.steal_conflicts);
    side
}

fn export(path: &str, doc: &Json) -> Result<(), String> {
    let text = doc.to_string();
    let parsed = Json::parse(&text)?;
    if &parsed != doc {
        return Err("export did not round-trip".into());
    }
    std::fs::write(path, text).map_err(|e| format!("write {path}: {e}"))
}

fn main() -> ExitCode {
    let scale = scale();
    let plan = schedule(&scale);
    let volume = plan.len() as u64 * OBJ_SIZE;
    // A p99 over ~10³ stall samples is the ~10th-largest value — one
    // unlucky scheduler preemption moves it. The gate therefore runs the
    // whole storm several times and judges the *median* per-repetition
    // ratio; the table and export show the median repetition.
    let reps = if scale.gate { 5 } else { 1 };
    println!(
        "storm: {} inserts across {TENANTS} tenants (hot share {:.0}%), ΣV = {}",
        fmt_u64(plan.len() as u64),
        100.0 * 6.0 * scale.hot_objects as f64 / plan.len() as f64,
        fmt_u64(volume),
    );
    println!(
        "pool:  {WORKERS} workers, batch = {BATCH}, depth = {DEPTH}, ε = {EPS}, reps = {reps}{}\n",
        if scale.gate {
            ""
        } else {
            " (smoke: latency gate off)"
        }
    );

    let mut runs: Vec<(ModeResult, ModeResult, ModeResult)> = Vec::new();
    for _ in 0..reps {
        let sync = run_sync(&plan);
        let plain = run_async(&plan, false);
        let steal = run_async(&plan, true);
        // All three modes must land the same logical state, or the
        // latency comparison is comparing different work.
        for (name, r) in [("async", &plain), ("async+steal", &steal)] {
            assert_eq!(r.live_count, sync.live_count, "{name}: live set diverged");
            assert_eq!(r.live_volume, sync.live_volume, "{name}: volume diverged");
        }
        runs.push((sync, plain, steal));
    }

    let ratio_of = |sync: &ModeResult, steal: &ModeResult| {
        if sync.stall.p99() > 0.0 {
            steal.stall.p99() / sync.stall.p99()
        } else {
            f64::INFINITY
        }
    };
    let mut order: Vec<usize> = (0..runs.len()).collect();
    order.sort_by(|&a, &b| {
        let (ra, rb) = (
            ratio_of(&runs[a].0, &runs[a].2),
            ratio_of(&runs[b].0, &runs[b].2),
        );
        ra.partial_cmp(&rb).expect("ratio is never NaN")
    });
    let median = order[order.len() / 2];
    let ratios: Vec<f64> = (0..runs.len())
        .map(|i| ratio_of(&runs[i].0, &runs[i].2))
        .collect();
    let (sync, plain, steal) = &runs[median];
    let ratio = ratios[median];

    let ops = plan.len() as f64;
    let mut table = Table::new(
        "intake stall under the skewed storm (median repetition)".to_string(),
        &["mode", "stalls", "p50 µs", "p99 µs", "elapsed s", "stolen"],
    );
    for (name, r) in [("sync", sync), ("async", plain), ("async+steal", steal)] {
        table.row(vec![
            name.to_string(),
            fmt_u64(r.stall.count),
            fmt2(r.stall.p50() / 1e3),
            fmt2(r.stall.p99() / 1e3),
            fmt2(r.elapsed_s),
            fmt_u64(r.steal.batches_stolen),
        ]);
    }
    table.print();

    println!(
        "\n  per-rep p99 ratios: [{}]",
        ratios
            .iter()
            .map(|r| format!("{:.1}%", 100.0 * r))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let storm_stalls = sync.stall.count > 0;
    let pass = !scale.gate || (storm_stalls && ratio <= 0.50);
    println!(
        "  async+steal p99 = {:.1}% of sync p99 (median rep, target ≤ 50%{}); \
         {} batches stolen, {} conflicts {}",
        100.0 * ratio,
        if scale.gate {
            ""
        } else {
            ", not gated in smoke"
        },
        fmt_u64(steal.steal.batches_stolen),
        fmt_u64(steal.steal.steal_conflicts),
        realloc_bench::verdict(pass),
    );

    let mut doc = Json::obj();
    doc.set("bench", "tail_latency")
        .set("smoke", !scale.gate)
        .set("requests", plan.len())
        .set("reps", reps as u64)
        .set("sync", side(sync, ops))
        .set("async", side(plain, ops))
        .set("async_steal", side(steal, ops))
        .set(
            "p99_ratios",
            Json::Arr(ratios.iter().map(|&r| Json::Num(r)).collect()),
        )
        .set("p99_ratio", ratio)
        .set("pass", pass);
    let path = "BENCH_tail_latency.json";
    match export(path, &doc) {
        Ok(()) => println!("  exported {path} (re-parsed OK)"),
        Err(e) => {
            eprintln!("  export failed: {e}");
            return ExitCode::FAILURE;
        }
    }
    if pass {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
