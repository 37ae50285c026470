//! The `durable` workload: one generator thread driving a 2-shard sync
//! [`Engine`] through `insert`/`delete`, with bounded shard channels for
//! backpressure. §3.2 checkpointed behind a table router, on a strict byte
//! substrate with a write-ahead log; `quiesce()` at a fixed request cadence
//! checkpoints and truncates the logs, and the first phase ends with
//! `crash()`, `Engine::recover` and `verify_substrate`.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use realloc_common::{BoxedReallocator, Router, TableRouter};
use realloc_engine::{
    Engine, EngineConfig, EngineError, MetricsSnapshot, SpanPhase, SubstrateConfig,
};
use workload_gen::churn::{churn, ChurnConfig};
use workload_gen::Request;

use crate::layers;
use crate::reference::{Cpu, HostSpeed, Meter, TABLE_MB};
use crate::replay::{engine_counts, Replay, ReplaySpec};
use crate::stats::{median, ratio, Spans};
use crate::{
    alloc_cost, build_variant, check_live_set, fill_len, live_model, peak_rss_mb, size_dist,
    unscaled_metrics, wall_metrics, Args, Metric, Report, Scratch, TRACE_ROUNDS,
};

const VARIANT: &str = "checkpointed";
/// Target live volume, in cells: V = 6M cells (≈190k objects), so the two
/// byte stores together (≈6.4 MB) exceed a 4 MiB per-core L2.
const VOLUME: u64 = 6_000_000;
/// Timed requests per phase per `--seconds`.
const RATE: u64 = 7_500;
/// Cadence `quiesce()` calls per timed phase; the phases' samples together
/// leave ten beyond the p90.
const CHECKPOINTS: usize = 28;
/// Kernel runs per gauge around a set-up (a phase gauges one run after
/// each of its many cadence barriers).
const SETUP_GAUGE_RUNS: usize = 3;
/// Timed phases per untraced run, each after its own set-up;
/// `cpu_us_per_req` is their median.
const PHASES: usize = 6;

fn err(context: &str) -> impl Fn(EngineError) -> String + '_ {
    move |e| format!("{context}: {e}")
}

fn config() -> EngineConfig {
    EngineConfig::with_shards(2).with_substrate(SubstrateConfig::strict())
}

fn router() -> Box<dyn Router> {
    Box::new(TableRouter::new(2))
}

fn factory(_shard: usize) -> BoxedReallocator {
    build_variant(VARIANT)
}

fn send(engine: &mut Engine, req: Request) -> Result<(), String> {
    match req {
        Request::Insert { id, size } => engine.insert(id, size),
        Request::Delete { id } => engine.delete(id),
    }
    .map_err(err("enqueue"))
}

/// A generated workload, an engine filled to its target volume, and what
/// that cost.
struct Setup {
    engine: Engine,
    requests: Vec<Request>,
    fill: usize,
    wal_dir: PathBuf,
    gen_s: f64,
    setup_s: f64,
    /// The barrier that closed the fill.
    fill_quiesce: Duration,
}

fn setup(args: &Args, scratch: &Scratch) -> Result<Setup, String> {
    let started = Instant::now();
    let requests = churn(&ChurnConfig {
        dist: size_dist(),
        target_volume: VOLUME,
        churn_ops: args.budget(RATE),
        seed: args.seed,
    })
    .requests;
    let gen_s = started.elapsed().as_secs_f64();
    let fill = fill_len(&requests, VOLUME);
    let wal_dir = scratch.fresh_dir();
    let mut engine =
        Engine::with_wal(config(), router(), factory, &wal_dir).map_err(err("open WAL"))?;
    for &req in &requests[..fill] {
        send(&mut engine, req)?;
    }
    let barrier = Instant::now();
    engine.quiesce().map_err(err("fill barrier"))?;
    let fill_quiesce = barrier.elapsed();
    Ok(Setup {
        engine,
        requests,
        fill,
        wal_dir,
        gen_s,
        setup_s: started.elapsed().as_secs_f64(),
        fill_quiesce,
    })
}

/// One timed phase and everything checked and measured after it.
struct Phase {
    requests: Vec<Request>,
    fill: usize,
    sent: usize,
    secs: f64,
    /// CPU time of the timed requests, over all threads.
    cpu: Cpu,
    gen_s: f64,
    /// The barrier that closed the fill.
    fill_quiesce: Duration,
    /// Cadence `quiesce()` wall times: each is a checkpoint.
    checkpoints: Spans,
    /// `insert`/`delete` wall times (traced phases only).
    enqueue: Spans,
    barrier_failures: u64,
    /// The closing scrape (a barrier: every request acknowledged).
    metrics: MetricsSnapshot,
    checks: Vec<(String, Result<(), String>)>,
    recover_s: f64,
    /// Recovery stage spans from the rebuilt engine's journal, ms.
    recover_stages: HashMap<&'static str, f64>,
}

impl Phase {
    fn ops_per_s(&self) -> f64 {
        ratio(self.sent as f64, self.secs)
    }

    fn cpu_us_per_req(&self) -> f64 {
        ratio(self.cpu.raw_s * 1e6, self.sent as f64)
    }

    /// CPU µs per request at the nominal host speed (`reference`).
    fn scaled_cpu_us_per_req(&self) -> f64 {
        ratio(self.cpu.scaled_s * 1e6, self.sent as f64)
    }

    fn served(&self) -> &[Request] {
        &self.requests[..self.fill + self.sent]
    }

    /// Raw requests attempted and failed, checks included.
    fn tally(&self, report: &mut Report) {
        report.attempted += self.served().len() as u64;
        report.failed += self.metrics.stats.errors() + self.barrier_failures;
        for (name, result) in &self.checks {
            report.check(name.clone(), result.clone());
        }
    }
}

/// Serves the timed requests on a set-up engine, then checks its live set
/// — with `recover`, after a crash and recovery. The host is gauged after
/// every cadence `quiesce()`, while the shards are idle.
fn phase(
    args: &Args,
    s: Setup,
    host: &mut HostSpeed,
    traced: bool,
    recover: bool,
) -> Result<Phase, String> {
    let Setup {
        mut engine,
        requests,
        fill,
        wal_dir,
        gen_s,
        fill_quiesce,
        ..
    } = s;
    let timed = &requests[fill..];
    let every = (timed.len() / CHECKPOINTS).max(1);
    let mut checkpoints = Spans::default();
    let mut enqueue = Spans::default();
    let mut barrier_failures = 0;
    let deadline = args.deadline();

    let mut meter = Meter::start(host, 1)?;
    let started = Instant::now();
    let mut sent = 0;
    for &req in timed {
        if sent % 1024 == 0 && started.elapsed() > deadline {
            break;
        }
        if traced {
            let t = Instant::now();
            send(&mut engine, req)?;
            enqueue.push(t.elapsed());
        } else {
            send(&mut engine, req)?;
        }
        sent += 1;
        if sent % every == 0 {
            let t = Instant::now();
            if engine.quiesce().is_err() {
                barrier_failures += 1;
            }
            checkpoints.push(t.elapsed());
            meter.split()?;
        }
    }
    // The closing barrier; unlike `metrics()` it surfaces sticky request
    // and substrate errors.
    if engine.snapshot().is_err() {
        barrier_failures += 1;
    }
    let cpu = meter.finish()?;
    let secs = started.elapsed().as_secs_f64() - cpu.gauge_wall_s;
    let metrics = engine.metrics().map_err(err("closing scrape"))?;
    if sent < timed.len() {
        eprintln!(
            "note: phase stopped at the deadline after {sent} of {} requests",
            timed.len()
        );
    }

    let model = live_model(&requests[..fill + sent]);
    let mut checks = Vec::new();
    let mut recover_s = 0.0;
    let mut recover_stages = HashMap::new();
    if recover {
        engine.crash();
        let t = Instant::now();
        let (mut rebuilt, _) =
            Engine::recover(config(), &wal_dir, factory).map_err(err("recover"))?;
        let verified = rebuilt
            .verify_substrate()
            .map(|_| ())
            .map_err(|e| e.to_string());
        recover_s = t.elapsed().as_secs_f64();
        checks.push(("verify_substrate after recovery is clean".into(), verified));
        let live = rebuilt.extents().map_err(err("extents"))?;
        let acked = check_live_set(&model, &live);
        checks.push(("recovered live set equals the acked set".into(), acked));
        recover_stages = stage_ms(&rebuilt.metrics().map_err(err("recovered scrape"))?);
        rebuilt.shutdown().map_err(err("shutdown"))?;
    } else {
        let live = engine.extents().map_err(err("extents"))?;
        let replayed = check_live_set(&model, &live);
        checks.push(("live set equals the stream's replay".into(), replayed));
        // Torn down without a final barrier.
        engine.crash();
    }
    remove(&wal_dir)?;
    Ok(Phase {
        requests,
        fill,
        sent,
        secs,
        cpu,
        gen_s,
        fill_quiesce,
        checkpoints,
        enqueue,
        barrier_failures,
        metrics,
        checks,
        recover_s,
        recover_stages,
    })
}

/// Begin/end pairs of the journal's spans, in milliseconds, by label.
fn stage_ms(metrics: &MetricsSnapshot) -> HashMap<&'static str, f64> {
    let mut open = HashMap::new();
    let mut done = HashMap::new();
    for event in &metrics.events {
        match event.phase {
            SpanPhase::Begin => {
                open.insert(event.label, event.at_us);
            }
            SpanPhase::End => {
                if let Some(begin) = open.remove(event.label) {
                    *done.entry(event.label).or_insert(0.0) += (event.at_us - begin) as f64 / 1e3;
                }
            }
            SpanPhase::Instant => {}
        }
    }
    done
}

fn remove(dir: &Path) -> Result<(), String> {
    std::fs::remove_dir_all(dir).map_err(|e| format!("remove {}: {e}", dir.display()))
}

pub fn run(args: &Args, scratch: &Scratch) -> Result<Report, String> {
    if args.trace {
        return run_traced(args, scratch);
    }
    let mut report = Report::default();
    let (mut setup_s, mut setup_wall_s) = (Vec::new(), Vec::new());
    let (mut cpu_us_per_req, mut ops_per_s) = (Vec::new(), Vec::new());
    let mut checkpoints = Spans::default();
    let mut first = None;
    let mut peak_rss = 0.0;
    let mut host = HostSpeed::new();
    let (mut raw_setup_s, mut raw_cpu_us_per_req) = (Vec::new(), Vec::new());
    for i in 0..PHASES {
        let meter = Meter::start(&mut host, SETUP_GAUGE_RUNS)?;
        let s = setup(args, scratch)?;
        let cpu = meter.finish()?;
        setup_s.push(cpu.scaled_s);
        raw_setup_s.push(cpu.raw_s);
        setup_wall_s.push(s.setup_s);
        let p = phase(args, s, &mut host, false, i == 0)?;
        cpu_us_per_req.push(p.scaled_cpu_us_per_req());
        raw_cpu_us_per_req.push(p.cpu_us_per_req());
        eprintln!(
            "phase {i}: {:.4} us/req at the nominal host, {:.4} measured",
            p.scaled_cpu_us_per_req(),
            p.cpu_us_per_req()
        );
        ops_per_s.push(p.ops_per_s());
        checkpoints.extend(&p.checkpoints);
        p.tally(&mut report);
        if i == 0 {
            // The fresh process's first set-up and phase alone, less
            // the reference kernel's table.
            peak_rss = peak_rss_mb() - TABLE_MB;
            first = Some(p);
        }
    }
    let p = first.expect("PHASES > 0");
    let stats = &p.metrics.stats;
    let (inserts, inserted_cells) = alloc_cost(p.served());
    report.timing("setup_s", median(&setup_s), "s", setup_s.len());
    let n = cpu_us_per_req.len();
    report.timing("cpu_us_per_req", median(&cpu_us_per_req), "us", n);
    report.metric("space_ratio_max", stats.worst_settled_ratio(), "ratio");
    report.metric(
        "realloc_cost_unit",
        ratio(stats.total_moves() as f64, inserts as f64),
        "ratio",
    );
    report.metric(
        "realloc_cost_linear",
        ratio(stats.total_moved_volume() as f64, inserted_cells as f64),
        "ratio",
    );
    report.metric("peak_rss_mb", peak_rss, "MB");
    report.extra.extend(wall_metrics(&ops_per_s, &setup_wall_s));
    report
        .extra
        .extend(unscaled_metrics(&raw_cpu_us_per_req, &raw_setup_s, &host));
    report.extra.extend(durable_metrics(&p, &mut checkpoints));
    Ok(report)
}

/// The end-to-end figures only `durable` has: checkpoint stalls,
/// recovery time, and bytes written per user byte and per request.
fn durable_metrics(p: &Phase, checkpoints: &mut Spans) -> Vec<Metric> {
    let (_, inserted_cells) = alloc_cost(p.served());
    let stats = &p.metrics.stats;
    let n = checkpoints.len();
    let write_amp = ratio(stats.bytes_written() as f64, inserted_cells as f64);
    let wal_per_req = ratio(stats.wal_bytes() as f64, p.served().len() as f64);
    vec![
        Metric::timing(
            "checkpoint_p50_ms",
            checkpoints.quantile_ns(0.5) / 1e6,
            "ms",
            n,
        ),
        Metric::timing(
            "checkpoint_p90_ms",
            checkpoints.quantile_ns(0.9) / 1e6,
            "ms",
            n,
        ),
        Metric::timing("recover_s", p.recover_s, "s", 1),
        Metric::count("write_amp", write_amp, "ratio"),
        Metric::count("wal_bytes_per_req", wal_per_req, "B"),
    ]
}

/// `--trace 1`: an untraced phase, a traced phase, then the layer replay
/// of the traced phase's stream, cross-checked against its engine.
fn run_traced(args: &Args, scratch: &Scratch) -> Result<Report, String> {
    let mut report = Report::default();
    let (mut plain_cpu, mut traced_cpu, mut plain_ops) = (Vec::new(), Vec::new(), Vec::new());
    let mut first = None;
    let mut host = HostSpeed::new();
    for round in 0..TRACE_ROUNDS {
        let plain = phase(args, setup(args, scratch)?, &mut host, false, round == 0)?;
        let traced = phase(args, setup(args, scratch)?, &mut host, true, round == 0)?;
        plain_cpu.push(plain.scaled_cpu_us_per_req());
        traced_cpu.push(traced.scaled_cpu_us_per_req());
        plain_ops.push(plain.ops_per_s());
        plain.tally(&mut report);
        traced.tally(&mut report);
        first.get_or_insert((plain, traced));
    }
    let (plain, mut traced) = first.expect("TRACE_ROUNDS > 0");
    let (replay, route) = replay(&traced, scratch)?;

    report.timing("workload.gen_s", traced.gen_s, "s", 1);
    let routed = traced.served().len() as f64;
    report.metric(
        "router.table_ns_per_req",
        ratio(route.total_ns() as f64, routed),
        "ns",
    );
    let (n, enqueue) = (traced.enqueue.len(), &mut traced.enqueue);
    report.timing("engine.enqueue_ns_p50", enqueue.quantile_ns(0.5), "ns", n);
    report.timing("engine.enqueue_ns_p99", enqueue.quantile_ns(0.99), "ns", n);
    let mut quiesce = traced.checkpoints.clone();
    quiesce.push(traced.fill_quiesce);
    let p50 = quiesce.quantile_ns(0.5) / 1e6;
    report.timing("engine.quiesce_ms_p50", p50, "ms", quiesce.len());
    layers::scrape(&mut report, std::slice::from_ref(&traced.metrics));
    layers::replayed(&mut report, &replay);
    for (name, label) in [
        ("recover.fold_ms", "recover.fold"),
        ("recover.reconcile_ms", "recover.reconcile"),
        ("recover.reseed_ms", "recover.reseed"),
    ] {
        if let Some(&ms) = traced.recover_stages.get(label) {
            report.metric(name, ms, "ms");
        }
    }
    let overhead = ratio(median(&traced_cpu), median(&plain_cpu)) - 1.0;
    report.metric("trace.overhead_pct", 100.0 * overhead, "%");
    let n = plain_ops.len();
    report.timing("ops_per_s", median(&plain_ops), "req/s", n);
    let mut checkpoints = plain.checkpoints.clone();
    report
        .metrics
        .extend(durable_metrics(&plain, &mut checkpoints));
    let engine = engine_counts(&traced.metrics.stats);
    report.check(
        "layer replay counts equal the engine's",
        replay.cross_check(&engine),
    );
    layers::engine_wal(&mut report, &traced.metrics.stats);
    layers::complete(&mut report);
    Ok(report)
}

/// Replays the traced phase's stream — fill, fill barrier, cadence
/// barriers, closing barrier — through the layers, routing with the same
/// router.
fn replay(p: &Phase, scratch: &Scratch) -> Result<(Replay, Spans), String> {
    let dir = scratch.fresh_dir();
    let mut replay = Replay::new(&ReplaySpec {
        variant: VARIANT,
        engines: 1,
        shards: 2,
        substrate: true,
        wal_dirs: vec![dir.clone()],
        coalesce: false,
    })?;
    let requests = p.served();
    let router = router();
    let mut route = Spans::default();
    let mut shards = Vec::with_capacity(requests.len());
    for chunk in requests.chunks(4096) {
        route.time(|| shards.extend(chunk.iter().map(|r| router.route(r.id()))));
    }
    let timed = p.requests.len() - p.fill;
    let every = (timed / CHECKPOINTS).max(1);
    for (i, (&req, &shard)) in requests.iter().zip(&shards).enumerate() {
        replay.send(0, shard, req);
        // The fill barrier, then the cadence barriers.
        if (i + 1).checked_sub(p.fill).is_some_and(|s| s % every == 0) {
            replay.quiesce(0);
        }
    }
    replay.flush(0);
    replay.finish();
    remove(&dir)?;
    Ok((replay, route))
}
