//! The `tenants` workload: one generator thread drives 64 single-shard
//! coalescing `AsyncEngine` tenants on a 2-worker stealing `Fleet` with
//! transactions of `TXN` requests to one tenant followed by that tenant's
//! `flush()`, at most `IN_FLIGHT` transactions outstanding. A transaction
//! commits when its last `Ack` resolves; the acks' waker timestamps the
//! resolution and unparks the generator, which never spins.

use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::task::{Context, Wake, Waker};
use std::thread::Thread;
use std::time::{Duration, Instant};

use realloc_common::{HashRouter, ObjectId, Router};
use realloc_engine::{Ack, AsyncEngine, EngineConfig, EngineStats, Fleet, FleetConfig};
use workload_gen::churn::{coalescible_churn, ChurnConfig};
use workload_gen::Request;

use crate::layers;
use crate::reference::{Cpu, HostSpeed, Meter, TABLE_MB};
use crate::replay::{engine_counts, Counts, Replay, ReplaySpec};
use crate::stats::{median, ratio, Spans};
use crate::{
    alloc_cost, build_variant, check_live_set, fill_len, live_model, peak_rss_mb, size_dist,
    unscaled_metrics, wall_metrics, Args, Metric, Report, TRACE_ROUNDS,
};

const VARIANT: &str = "nearly-quadratic";
const TENANTS: usize = 64;
const WORKERS: usize = 2;
/// The hottest tenants all live on worker 0, so only stealing spreads them.
const HOT: usize = 4;
const IN_FLIGHT: usize = 16;
/// Requests per transaction.
const TXN: usize = 8;
/// Target live volume over all tenants, in cells (the hottest tenant holds
/// about a fifth: small, cache-resident structures).
const VOLUME: u64 = 1_000_000;
/// Timed raw requests per phase per `--seconds`.
const RATE: u64 = 50_000;
/// Raw requests per coalescible churn op, ×10 (touches and transients are
/// two requests, plain churn one).
const REQUESTS_PER_OP_X10: u64 = 17;
/// A transaction whose acks are still pending this long after the last
/// submission counts as unresolved.
const ACK_TIMEOUT: Duration = Duration::from_secs(30);
/// Host gauges per timed phase, each after the in-flight transactions
/// drain.
const SPLITS: usize = 8;
/// Kernel runs per gauge around a set-up.
const SETUP_GAUGE_RUNS: usize = 3;
/// Timed phases per untraced run, each after its own set-up;
/// `cpu_us_per_req` is their median.
const PHASES: usize = 20;

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Zipf(1) over the tenants: tenant `t` is chosen with weight `1/(t+1)`.
/// An object's tenant is a hash of its id, so all its requests agree.
struct Popularity {
    cdf: Vec<f64>,
    salt: u64,
}

impl Popularity {
    fn new(seed: u64) -> Popularity {
        let total: f64 = (1..=TENANTS).map(|r| 1.0 / r as f64).sum();
        let mut acc = 0.0;
        let cdf = (1..=TENANTS)
            .map(|r| {
                acc += 1.0 / r as f64 / total;
                acc
            })
            .collect();
        Popularity {
            cdf,
            salt: splitmix(seed),
        }
    }

    fn tenant_of(&self, id: ObjectId) -> usize {
        let u = (splitmix(id.0 ^ self.salt) >> 11) as f64 / (1u64 << 53) as f64;
        self.cdf.partition_point(|&c| c < u).min(TENANTS - 1)
    }
}

/// One transaction: `len` requests of `flat` starting at `start`.
#[derive(Clone, Copy)]
struct Txn {
    tenant: usize,
    start: usize,
    len: usize,
}

/// The generated stream, split into the fill and per-tenant transactions.
struct Plan {
    requests: Vec<Request>,
    owner: Vec<u8>,
    fill: usize,
    flat: Vec<Request>,
    txns: Vec<Txn>,
}

fn plan(args: &Args) -> Plan {
    let ops = args.budget(RATE) * 10 / REQUESTS_PER_OP_X10 as usize;
    let requests = coalescible_churn(&ChurnConfig {
        dist: size_dist(),
        target_volume: VOLUME,
        churn_ops: ops,
        seed: args.seed,
    })
    .requests;
    let popularity = Popularity::new(args.seed);
    let owner: Vec<u8> = requests
        .iter()
        .map(|r| popularity.tenant_of(r.id()) as u8)
        .collect();
    let fill = fill_len(&requests, VOLUME);
    let mut open: Vec<Vec<Request>> = vec![Vec::new(); TENANTS];
    let mut flat = Vec::with_capacity(requests.len() - fill);
    let mut txns = Vec::new();
    let mut close = |tenant: usize, reqs: &mut Vec<Request>| {
        txns.push(Txn {
            tenant,
            start: flat.len(),
            len: reqs.len(),
        });
        flat.append(reqs);
    };
    for (&req, &t) in requests[fill..].iter().zip(&owner[fill..]) {
        let t = usize::from(t);
        open[t].push(req);
        if open[t].len() == TXN {
            close(t, &mut open[t]);
        }
    }
    for (t, reqs) in open.iter_mut().enumerate() {
        if !reqs.is_empty() {
            close(t, reqs);
        }
    }
    Plan {
        requests,
        owner,
        fill,
        flat,
        txns,
    }
}

fn send(tenant: &mut AsyncEngine, req: Request) -> Ack {
    match req {
        Request::Insert { id, size } => tenant.insert(id, size),
        Request::Delete { id } => tenant.delete(id),
    }
}

/// Quiesces every tenant at once and waits for all of them.
fn quiesce_all(tenants: &mut [AsyncEngine]) -> Vec<Result<EngineStats, String>> {
    let waits: Vec<_> = tenants.iter_mut().map(AsyncEngine::quiesce).collect();
    waits
        .into_iter()
        .map(|w| w.wait().map_err(|e| e.to_string()))
        .collect()
}

struct Setup {
    fleet: Fleet,
    tenants: Vec<AsyncEngine>,
    plan: Plan,
    gen_s: f64,
    setup_s: f64,
}

fn setup(args: &Args) -> Result<Setup, String> {
    let started = Instant::now();
    let plan = plan(args);
    let gen_s = started.elapsed().as_secs_f64();
    let fleet = Fleet::new(FleetConfig::with_workers(WORKERS).stealing(true));
    let config = EngineConfig::with_shards(1).coalescing();
    let mut tenants: Vec<AsyncEngine> = (0..TENANTS)
        .map(|t| {
            let home = if t < HOT { 0 } else { t % WORKERS };
            fleet.register_pinned(
                config,
                Box::new(HashRouter::new(1)),
                |_| build_variant(VARIANT),
                home,
            )
        })
        .collect();
    for (&req, &t) in plan.requests[..plan.fill].iter().zip(&plan.owner) {
        drop(send(&mut tenants[usize::from(t)], req));
    }
    for result in quiesce_all(&mut tenants) {
        result.map_err(|e| format!("fill barrier: {e}"))?;
    }
    Ok(Setup {
        fleet,
        tenants,
        plan,
        gen_s,
        setup_s: started.elapsed().as_secs_f64(),
    })
}

/// Wakes the generator when an ack of one transaction resolves, stamping
/// when that happened.
struct TxnWake {
    epoch: Instant,
    last_ns: AtomicU64,
    woken: AtomicBool,
    generator: Thread,
}

impl Wake for TxnWake {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.last_ns.fetch_max(now, Ordering::Relaxed);
        // Release: the stamp above is visible to whoever sees the flag.
        self.woken.store(true, Ordering::Release);
        self.generator.unpark();
    }
}

struct InFlight {
    submitted_ns: u64,
    flushed_ns: u64,
    acks: Vec<Ack>,
    wake: Arc<TxnWake>,
    waker: Waker,
}

impl InFlight {
    /// Polls the pending acks; `true` once all have resolved.
    fn poll(&mut self) -> bool {
        let mut cx = Context::from_waker(&self.waker);
        self.acks
            .retain_mut(|ack| Pin::new(ack).poll(&mut cx).is_pending());
        self.acks.is_empty()
    }
}

/// One timed phase and everything checked and measured after it.
struct Phase {
    plan: Plan,
    /// Transactions submitted (a prefix of `plan.txns`).
    submitted: usize,
    sent: usize,
    secs: f64,
    /// CPU time of the timed transactions, over all threads.
    cpu: Cpu,
    gen_s: f64,
    commit: Spans,
    enqueue: Spans,
    flush: Spans,
    flush_to_ack: Spans,
    unresolved: u64,
    stats: Vec<Result<EngineStats, String>>,
    scrapes: Vec<realloc_engine::MetricsSnapshot>,
    steal: realloc_engine::StealStats,
    checks: Vec<(String, Result<(), String>)>,
}

/// Serves the timed transactions on a set-up fleet, then checks every
/// tenant's live set. Every `1/SPLITS` of the transactions the generator
/// lets the in-flight ones drain and gauges the host while the fleet idles.
fn phase(args: &Args, s: Setup, host: &mut HostSpeed, traced: bool) -> Result<Phase, String> {
    let Setup {
        fleet,
        mut tenants,
        plan,
        gen_s,
        ..
    } = s;
    let deadline = args.deadline();
    let generator = std::thread::current();
    let mut commit = Spans::default();
    let mut enqueue = Spans::default();
    let mut flush = Spans::default();
    let mut flush_to_ack = Spans::default();
    let mut in_flight: Vec<InFlight> = Vec::with_capacity(IN_FLIGHT);
    let (mut next, mut sent, mut unresolved) = (0usize, 0usize, 0u64);
    let every = plan.txns.len().div_ceil(SPLITS).max(1);
    let mut split_at = every;
    let mut meter = Meter::start(host, 1)?;
    let epoch = Instant::now();
    let mut stalled_since: Option<Instant> = None;
    loop {
        while in_flight.len() < IN_FLIGHT
            && next < plan.txns.len().min(split_at)
            && epoch.elapsed() < deadline
        {
            let txn = plan.txns[next];
            next += 1;
            let tenant = &mut tenants[txn.tenant];
            let submitted_ns = epoch.elapsed().as_nanos() as u64;
            let mut acks = Vec::with_capacity(txn.len + 1);
            for &req in &plan.flat[txn.start..txn.start + txn.len] {
                acks.push(if traced {
                    enqueue.time(|| send(tenant, req))
                } else {
                    send(tenant, req)
                });
            }
            sent += txn.len;
            acks.push(if traced {
                flush.time(|| tenant.flush())
            } else {
                tenant.flush()
            });
            let wake = Arc::new(TxnWake {
                epoch,
                last_ns: AtomicU64::new(0),
                woken: AtomicBool::new(false),
                generator: generator.clone(),
            });
            in_flight.push(InFlight {
                submitted_ns,
                flushed_ns: epoch.elapsed().as_nanos() as u64,
                acks,
                waker: Waker::from(Arc::clone(&wake)),
                wake,
            });
            // First poll: registers the waker on every pending ack.
            let last = in_flight.len() - 1;
            if in_flight[last].poll() {
                let f = in_flight.pop().expect("just pushed");
                let now = epoch.elapsed().as_nanos() as u64;
                commit.push(Duration::from_nanos(now - f.submitted_ns));
                flush_to_ack.push(Duration::from_nanos(now - f.flushed_ns));
            }
        }
        if in_flight.is_empty() {
            if next == split_at && next < plan.txns.len() && epoch.elapsed() < deadline {
                meter.split()?;
                split_at += every;
                continue;
            }
            break;
        }
        let before = in_flight.len();
        in_flight.retain_mut(|f| {
            // Acquire pairs with the waker's Release: `last_ns` is current.
            if !f.wake.woken.swap(false, Ordering::Acquire) || !f.poll() {
                return true;
            }
            let done = f.wake.last_ns.load(Ordering::Relaxed).max(f.flushed_ns);
            commit.push(Duration::from_nanos(done - f.submitted_ns));
            flush_to_ack.push(Duration::from_nanos(done - f.flushed_ns));
            false
        });
        if in_flight.len() < before {
            stalled_since = None;
            continue;
        }
        let since = *stalled_since.get_or_insert_with(Instant::now);
        if since.elapsed() > ACK_TIMEOUT {
            unresolved = in_flight.iter().map(|f| f.acks.len() as u64).sum();
            break;
        }
        std::thread::park_timeout(Duration::from_millis(50));
    }
    let cpu = meter.finish()?;
    let secs = epoch.elapsed().as_secs_f64() - cpu.gauge_wall_s;
    drop(in_flight);
    if next < plan.txns.len() {
        eprintln!(
            "note: phase stopped at the deadline after {next} of {} transactions",
            plan.txns.len()
        );
    }

    let stats = quiesce_all(&mut tenants);
    let mut checks = Vec::new();
    let mut models = vec![Vec::new(); TENANTS];
    for (&req, &t) in plan.requests[..plan.fill].iter().zip(&plan.owner) {
        models[usize::from(t)].push(req);
    }
    for txn in &plan.txns[..next] {
        models[txn.tenant].extend_from_slice(&plan.flat[txn.start..txn.start + txn.len]);
    }
    let mut mismatch = Ok(());
    for (t, tenant) in tenants.iter_mut().enumerate() {
        let live = tenant
            .extents()
            .map_err(|e| format!("tenant {t} extents: {e}"))?;
        if let Err(e) = check_live_set(&live_model(&models[t]), &live) {
            mismatch = Err(format!("tenant {t}: {e}"));
            break;
        }
    }
    checks.push((
        "every tenant's live set equals its stream's replay".into(),
        mismatch,
    ));
    let scrapes = if traced {
        tenants
            .iter_mut()
            .map(|t| t.metrics().map_err(|e| e.to_string()))
            .collect::<Result<Vec<_>, _>>()?
    } else {
        Vec::new()
    };
    let steal = fleet.steal_totals();
    for (t, tenant) in tenants.into_iter().enumerate() {
        tenant
            .shutdown()
            .map_err(|e| format!("tenant {t} shutdown: {e}"))?;
    }
    fleet.shutdown();
    Ok(Phase {
        plan,
        submitted: next,
        sent,
        secs,
        cpu,
        gen_s,
        commit,
        enqueue,
        flush,
        flush_to_ack,
        unresolved,
        stats,
        scrapes,
        steal,
        checks,
    })
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

    /// Every raw request the tenants were sent: the fill, then the
    /// submitted transactions.
    fn served(&self) -> Vec<Request> {
        let mut served = self.plan.requests[..self.plan.fill].to_vec();
        for txn in &self.plan.txns[..self.submitted] {
            served.extend_from_slice(&self.plan.flat[txn.start..txn.start + txn.len]);
        }
        served
    }

    fn ok_stats(&self) -> impl Iterator<Item = &EngineStats> {
        self.stats.iter().filter_map(|s| s.as_ref().ok())
    }

    fn tally(&self, report: &mut Report) {
        report.attempted += (self.plan.fill + self.sent) as u64;
        report.failed += self.unresolved + self.ok_stats().map(EngineStats::errors).sum::<u64>();
        for (t, s) in self.stats.iter().enumerate() {
            if let Err(e) = s {
                report.check(format!("tenant {t} closing barrier"), Err(e.clone()));
            }
        }
        for (name, result) in &self.checks {
            report.check(name.clone(), result.clone());
        }
    }

    fn commit_metrics(&mut self) -> [Metric; 2] {
        let n = self.commit.len();
        [
            Metric::timing("commit_p50_us", self.commit.quantile_ns(0.5) / 1e3, "us", n),
            Metric::timing(
                "commit_p99_us",
                self.commit.quantile_ns(0.99) / 1e3,
                "us",
                n,
            ),
        ]
    }
}

pub fn run(args: &Args) -> Result<Report, String> {
    if args.trace {
        return run_traced(args);
    }
    let mut report = Report::default();
    let (mut setup_s, mut setup_wall_s) = (Vec::new(), Vec::new());
    let (mut cpu_us_per_req, mut ops_per_s) = (Vec::new(), Vec::new());
    let mut first = None;
    let mut peak_rss = 0.0;
    let mut host = HostSpeed::new();
    let (mut raw_setup_s, mut raw_cpu_us_per_req) = (Vec::new(), Vec::new());
    for i in 0..PHASES {
        let meter = Meter::start(&mut host, SETUP_GAUGE_RUNS)?;
        let s = setup(args)?;
        let cpu = meter.finish()?;
        setup_s.push(cpu.scaled_s);
        raw_setup_s.push(cpu.raw_s);
        setup_wall_s.push(s.setup_s);
        let p = phase(args, s, &mut host, false)?;
        cpu_us_per_req.push(p.scaled_cpu_us_per_req());
        raw_cpu_us_per_req.push(p.cpu_us_per_req());
        eprintln!(
            "phase {i}: {:.4} us/req at the nominal host, {:.4} measured",
            p.scaled_cpu_us_per_req(),
            p.cpu_us_per_req()
        );
        ops_per_s.push(p.ops_per_s());
        p.tally(&mut report);
        if i == 0 {
            // The fresh process's first set-up and phase alone, less
            // the reference kernel's table.
            peak_rss = peak_rss_mb() - TABLE_MB;
            first = Some(p);
        }
    }
    let mut p = first.expect("PHASES > 0");
    let (inserts, inserted_cells) = alloc_cost(&p.served());
    let (moves, moved, worst) = p.ok_stats().fold((0, 0, 0.0f64), |(m, v, w), s| {
        (
            m + s.total_moves(),
            v + s.total_moved_volume(),
            w.max(s.worst_settled_ratio()),
        )
    });
    report.timing("setup_s", median(&setup_s), "s", setup_s.len());
    let n = cpu_us_per_req.len();
    report.timing("cpu_us_per_req", median(&cpu_us_per_req), "us", n);
    report.metric("space_ratio_max", worst, "ratio");
    report.metric(
        "realloc_cost_unit",
        ratio(moves as f64, inserts as f64),
        "ratio",
    );
    report.metric(
        "realloc_cost_linear",
        ratio(moved as f64, inserted_cells as f64),
        "ratio",
    );
    report.metric("peak_rss_mb", peak_rss, "MB");
    report.extra.extend(wall_metrics(&ops_per_s, &setup_wall_s));
    report
        .extra
        .extend(unscaled_metrics(&raw_cpu_us_per_req, &raw_setup_s, &host));
    report.extra.extend(p.commit_metrics());
    Ok(report)
}

fn run_traced(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let (mut plain_cpu, mut traced_cpu, mut plain_ops) = (Vec::new(), Vec::new(), Vec::new());
    let mut first = None;
    let mut host = HostSpeed::new();
    for _ in 0..TRACE_ROUNDS {
        let plain = phase(args, setup(args)?, &mut host, false)?;
        let traced = phase(args, setup(args)?, &mut host, true)?;
        plain_cpu.push(plain.scaled_cpu_us_per_req());
        traced_cpu.push(traced.scaled_cpu_us_per_req());
        plain_ops.push(plain.ops_per_s());
        plain.tally(&mut report);
        traced.tally(&mut report);
        first.get_or_insert((plain, traced));
    }
    let (mut plain, mut traced) = first.expect("TRACE_ROUNDS > 0");
    let served = traced.served();

    let mut replay = Replay::new(&ReplaySpec {
        variant: VARIANT,
        engines: TENANTS,
        shards: 1,
        substrate: false,
        wal_dirs: Vec::new(),
        coalesce: true,
    })?;
    let router = HashRouter::new(1);
    let mut route = Spans::default();
    let mut shards = Vec::with_capacity(served.len());
    for chunk in served.chunks(4096) {
        route.time(|| shards.extend(chunk.iter().map(|r| router.route(r.id()))));
    }
    let plan = &traced.plan;
    for ((&req, &t), &shard) in plan.requests[..plan.fill]
        .iter()
        .zip(&plan.owner)
        .zip(&shards)
    {
        replay.send(usize::from(t), shard, req);
    }
    for t in 0..TENANTS {
        replay.quiesce(t);
    }
    let mut routed = shards[plan.fill..].iter();
    for txn in &plan.txns[..traced.submitted] {
        for &req in &plan.flat[txn.start..txn.start + txn.len] {
            replay.send(
                txn.tenant,
                *routed.next().expect("one route per request"),
                req,
            );
        }
        replay.flush(txn.tenant);
    }
    for t in 0..TENANTS {
        replay.quiesce(t);
    }
    replay.finish();
    let mut engine = Counts::default();
    for stats in traced.ok_stats() {
        engine += engine_counts(stats);
    }

    report.timing("workload.gen_s", traced.gen_s, "s", 1);
    let routed = served.len() as f64;
    report.metric(
        "router.hash_ns_per_req",
        ratio(route.total_ns() as f64, routed),
        "ns",
    );
    layers::scrape(&mut report, &traced.scrapes);
    let (n, enqueue) = (traced.enqueue.len(), &mut traced.enqueue);
    report.timing("fleet.enqueue_ns_p50", enqueue.quantile_ns(0.5), "ns", n);
    report.timing("fleet.enqueue_ns_p99", enqueue.quantile_ns(0.99), "ns", n);
    let (n, flush) = (traced.flush.len(), &mut traced.flush);
    report.timing("fleet.flush_ns_p50", flush.quantile_ns(0.5), "ns", n);
    let (n, f2a) = (traced.flush_to_ack.len(), &mut traced.flush_to_ack);
    report.timing(
        "fleet.flush_to_ack_us_p50",
        f2a.quantile_ns(0.5) / 1e3,
        "us",
        n,
    );
    report.timing(
        "fleet.flush_to_ack_us_p99",
        f2a.quantile_ns(0.99) / 1e3,
        "us",
        n,
    );
    let steal = &traced.steal;
    report.metric("fleet.batches_stolen", steal.batches_stolen as f64, "count");
    report.metric(
        "fleet.steal_conflicts",
        steal.steal_conflicts as f64,
        "count",
    );
    let waits = &steal.steal_wait_ns;
    let p99 = waits.p99() / 1e3;
    report.timing("fleet.steal_wait_us_p99", p99, "us", waits.count as usize);
    layers::replayed(&mut report, &replay);
    let overhead = ratio(median(&traced_cpu), median(&plain_cpu)) - 1.0;
    report.metric("trace.overhead_pct", 100.0 * overhead, "%");
    let n = plain_ops.len();
    report.timing("ops_per_s", median(&plain_ops), "req/s", n);
    report.metrics.extend(plain.commit_metrics());
    report.check(
        "layer replay counts equal the engine's",
        replay.cross_check(&engine),
    );
    layers::complete(&mut report);
    Ok(report)
}
