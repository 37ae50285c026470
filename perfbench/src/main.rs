//! # perfbench — the repository benchmark
//!
//! One command runs one named workload against the library crates and
//! prints every metric by name with its unit, then — as the last line of
//! standard output — one JSON object:
//!
//! ```text
//! {"correct": true, "attempted": N, "failed": 0, "metrics": {"cpu_us_per_req": {"value": …, "unit": "us"}, …}}
//! ```
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload durable --seed 1 --seconds 10 --trace 0
//! ```
//!
//! ## Workloads
//!
//! Every workload is a closed loop driven by one generator thread. The
//! seed feeds the repository's own generators (`workload_gen`); the engine
//! sees only the generated requests. A run sets up several times (each
//! set-up generates the workload, builds the engine or fleet and fills it
//! to its target volume; `setup_s` is their median) and times several
//! phases, each on a fresh set-up and each serving the same requests.
//! `--seconds` scales the work: a timed phase serves `seconds ×` the
//! workload's per-second request budget, and stops early once it has run
//! for `--seconds`. On a 2-core host a run's timed phases add up to two to
//! four times `--seconds`.
//!
//! * `durable` — sync `Engine`, 2 shards, table router, §3.2 checkpointed
//!   on a strict byte substrate with a write-ahead log, `quiesce()` at a
//!   fixed request cadence; the first phase ends with `crash()`,
//!   `Engine::recover` and `verify_substrate`. Substrate, WAL, checkpoints
//!   and recovery dominate.
//! * `tenants` — a `Fleet` of 2 stealing workers hosting 64 single-shard
//!   coalescing `AsyncEngine` tenants running nearly-quadratic, fed
//!   Zipf-skewed transactions (k requests + `flush()`), at most 16 in
//!   flight. Fleet queues, stealing and batch planning are exercised.
//!
//! The deamortized variant and the baseline allocators are deliberately
//! left unmeasured: one variant per serving path keeps every run within the
//! benchmark's time budget. So is the §2 cost-oblivious variant on a bare
//! engine: on a shared 2-vCPU host its CPU time per request moved by up to
//! a third between runs minutes apart, too much to gate.
//!
//! ## Metrics
//!
//! `--trace 0` measures the end-to-end metrics with no benchmark-side
//! timing on the request path; they go into the JSON line. Times are CPU
//! times of all the process's threads (`stats::cpu_ns`): on a shared
//! virtual machine the hypervisor can steal half the wall clock and more,
//! and the kernel keeps that out of a thread's CPU time. CPU time still
//! drifts with how hard other guests load the core and its caches, so the
//! gated times are scaled to a nominal host speed: a fixed reference
//! kernel of the benchmark's own (`reference`) is timed at every barrier
//! of a phase (after each cadence `quiesce()` on `durable`, after the
//! in-flight transactions drain eight times a phase on `tenants`) and
//! around every set-up, and each stretch of CPU time between two gauges is
//! multiplied by the kernel's nominal time over the gauges' mean. The
//! gauges' own time is left out of every figure.
//!
//! * `setup_s` — median CPU seconds of a set-up at the nominal host speed;
//! * `cpu_us_per_req` — CPU microseconds per raw request acknowledged at
//!   the nominal host speed, the median over the timed phases;
//! * `space_ratio_max` — worst settled footprint / V over the run
//!   (`EngineStats::worst_settled_ratio`, paper objective 1);
//! * `realloc_cost_unit`, `realloc_cost_linear` — moves / inserts and moved
//!   cells / inserted cells: Σ reallocation cost over Σ cost of the
//!   requested allocations under the unit and linear cost functions
//!   (paper objective 2);
//! * `peak_rss_mb` — `VmHWM` after the process's first set-up and phase,
//!   less the reference kernel's table (resident all along).
//!
//! Wall-clock figures swing with the host's load and are printed but kept
//! out of the JSON line: `ops_per_s` (raw requests acknowledged per second)
//! and `setup_wall_s`, medians over the phases and set-ups. So are the
//! measured CPU figures before scaling (`unscaled_cpu_us_per_req`,
//! `unscaled_setup_s`) and the kernel's median time
//! (`reference_kernel_ms`). So are the
//! figures only one workload has (every JSON metric must exist on every
//! workload): `commit_p50_us` and `commit_p99_us` (`tenants`, first
//! submit to last ack of a transaction), and `checkpoint_p50_ms`,
//! `checkpoint_p90_ms`, `recover_s`, `write_amp` and `wal_bytes_per_req`
//! (`durable`). A traced run reports them with the per-layer metrics
//! (`ops_per_s` too), as 0 where a workload has none.
//!
//! `--trace 1` runs the workload `TRACE_ROUNDS` times untraced and as
//! often with spans around every call into the engine or fleet,
//! alternating, and then replays the first traced phase's request stream
//! single-threaded through the router, reallocator, substrate, WAL and
//! ledger public APIs in the order a shard worker applies them (`replay`).
//! It reports per-layer metrics (0 for a layer the workload bypasses) and
//! `trace.overhead_pct`, how much more scaled CPU time per request the
//! traced phases take than the untraced ones (medians). Spans are kept in memory
//! and aggregated only after the run. The replay's raw request count and
//! work counts (moves, moved cells, substrate bytes written, WAL records)
//! must equal the engine's exactly, or the run is not correct. Group
//! commits, WAL bytes and the planner's counts depend on the engine's
//! batching policy, which the replay only models; they are reported from
//! the engine.
//!
//! Every run checks the engine's final live set (ids and sizes) against
//! the stream's own replay; `durable`'s first phase checks it after
//! recovery, together with a clean `verify_substrate`. A failed check, a rejected request, a
//! failed barrier or an unresolved ack counts in `failed`.

mod durable;
mod layers;
mod reference;
mod replay;
mod stats;
mod tenants;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use realloc_common::BoxedReallocator;
use realloc_core::{CheckpointedReallocator, NearlyQuadraticReallocator};
use workload_gen::dist::SizeDist;
use workload_gen::Request;

use crate::stats::median;

/// The size distribution every workload draws from: the CLI's default
/// class power law (sizes 1..1023, small classes favoured).
pub fn size_dist() -> SizeDist {
    SizeDist::ClassPowerLaw {
        classes: 10,
        decay: 0.7,
    }
}

/// Untraced and traced phase pairs per traced run; `trace.overhead_pct`
/// compares the medians of each kind.
pub const TRACE_ROUNDS: usize = 2;

/// The paper's footprint slack `ε` for every variant (the CLI default).
pub const EPS: f64 = 0.25;

/// The paper variant `name` at the benchmark's `ε`.
pub fn build_variant(name: &str) -> BoxedReallocator {
    match name {
        "checkpointed" => Box::new(CheckpointedReallocator::new(EPS)),
        "nearly-quadratic" => Box::new(NearlyQuadraticReallocator::new(EPS)),
        other => unreachable!("the benchmark builds no {other:?} reallocator"),
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WorkloadName {
    Durable,
    Tenants,
}

/// Parsed command line.
pub struct Args {
    workload: WorkloadName,
    pub seed: u64,
    pub seconds: u32,
    pub trace: bool,
}

impl Args {
    /// A timed phase's request budget at `rate` requests per `--seconds`.
    pub fn budget(&self, rate: u64) -> usize {
        (rate * u64::from(self.seconds)) as usize
    }

    /// When a timed phase stops early (only a much slower build gets
    /// there; the phase then reports what it served).
    pub fn deadline(&self) -> Duration {
        Duration::from_secs(u64::from(self.seconds))
    }
}

const USAGE: &str =
    "usage: perfbench --workload durable|tenants --seed <n> --seconds <1-60> --trace 0|1";

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "durable" => WorkloadName::Durable,
                    "tenants" => WorkloadName::Tenants,
                    other => return Err(format!("unknown workload {other:?}")),
                })
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: u32 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&s) {
                    return Err("--seconds must be 1..=60".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// How many observations the value summarises, when it is a timing.
    pub samples: Option<usize>,
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Report {
    /// The metrics of the JSON line for this mode, in output order.
    pub metrics: Vec<Metric>,
    /// Metrics printed for people but kept out of the JSON line: the
    /// workload-specific end-to-end figures of an untraced run.
    pub extra: Vec<Metric>,
    /// Raw requests attempted.
    pub attempted: u64,
    /// Failed requests: rejected by a reallocator, failed barriers,
    /// unresolved acks, and one per failed output check.
    pub failed: u64,
    /// Output checks, by name, with a failure detail.
    pub checks: Vec<(String, Result<(), String>)>,
}

impl Metric {
    pub fn count(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name,
            value,
            unit,
            samples: None,
        }
    }

    pub fn timing(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
        Metric {
            name,
            value,
            unit,
            samples: Some(samples),
        }
    }
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric::count(name, value, unit));
    }

    pub fn timing(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.metrics
            .push(Metric::timing(name, value, unit, samples));
    }

    /// Records an output check; a failed one counts as a failure.
    pub fn check(&mut self, name: impl Into<String>, result: Result<(), String>) {
        if result.is_err() {
            self.failed += 1;
        }
        self.checks.push((name.into(), result));
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|(_, r)| r.is_ok())
    }

    fn print(&self) {
        for (name, result) in &self.checks {
            match result {
                Ok(()) => println!("check {name}: ok"),
                Err(e) => println!("check {name}: FAILED: {e}"),
            }
        }
        for m in self.metrics.iter().chain(&self.extra) {
            match m.samples {
                Some(n) => println!("{:<34} {:>16.4} {:<6} (n = {n})", m.name, m.value, m.unit),
                None => println!("{:<34} {:>16.4} {}", m.name, m.value, m.unit),
            }
        }
        println!(
            "fail_frac {:.6} ratio ({} failed / {} attempted)",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted
        );
        let mut json = String::new();
        for m in &self.metrics {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            if !json.is_empty() {
                json.push_str(", ");
            }
            write!(
                json,
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
            .expect("writing to a String cannot fail");
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
    }
}

/// Wall-clock throughput and set-up time, medians over the phases and
/// set-ups. They swing with the host's load, so they are printed but not
/// gated.
pub fn wall_metrics(ops_per_s: &[f64], setup_wall_s: &[f64]) -> [Metric; 2] {
    [
        Metric::timing("ops_per_s", median(ops_per_s), "req/s", ops_per_s.len()),
        Metric::timing(
            "setup_wall_s",
            median(setup_wall_s),
            "s",
            setup_wall_s.len(),
        ),
    ]
}

/// The gated CPU figures before host-speed scaling, medians over the
/// phases, and the reference kernel's median time (`reference`).
pub fn unscaled_metrics(
    cpu_us_per_req: &[f64],
    setup_s: &[f64],
    host: &reference::HostSpeed,
) -> [Metric; 3] {
    [
        Metric::timing(
            "unscaled_cpu_us_per_req",
            median(cpu_us_per_req),
            "us",
            cpu_us_per_req.len(),
        ),
        Metric::timing("unscaled_setup_s", median(setup_s), "s", setup_s.len()),
        Metric::count("reference_kernel_ms", host.median_ms(), "ms"),
    ]
}

/// Compares a live set read back from an engine (per-shard `(id, extent)`
/// lists) against the model replayed from the requests it acknowledged.
pub fn check_live_set(
    model: &std::collections::HashMap<realloc_common::ObjectId, u64>,
    extents: &[Vec<(realloc_common::ObjectId, realloc_common::Extent)>],
) -> Result<(), String> {
    let mut seen = 0usize;
    for (id, extent) in extents.iter().flatten() {
        seen += 1;
        match model.get(id) {
            Some(&size) if size == extent.len => {}
            Some(&size) => return Err(format!("{id} holds {} cells, expected {size}", extent.len)),
            None => return Err(format!("{id} is live but was never acknowledged live")),
        }
    }
    if seen != model.len() {
        return Err(format!("{seen} objects live, expected {}", model.len()));
    }
    Ok(())
}

/// Replays `requests` into an id → size map: the live set they leave.
pub fn live_model(
    requests: &[Request],
) -> std::collections::HashMap<realloc_common::ObjectId, u64> {
    let mut live = std::collections::HashMap::new();
    for req in requests {
        match *req {
            Request::Insert { id, size } => {
                live.insert(id, size);
            }
            Request::Delete { id } => {
                live.remove(&id);
            }
        }
    }
    live
}

/// How many leading requests fill the workload to its target volume —
/// the generators insert until the live volume reaches the target, then
/// start churning.
pub fn fill_len(requests: &[Request], target: u64) -> usize {
    let mut volume = 0u64;
    for (i, req) in requests.iter().enumerate() {
        if volume >= target {
            return i;
        }
        if let Request::Insert { size, .. } = req {
            volume += size;
        }
    }
    requests.len()
}

/// The count of inserts and their total size: the allocation cost of a
/// request stream under the unit and linear cost functions.
pub fn alloc_cost(requests: &[Request]) -> (u64, u64) {
    requests.iter().fold((0, 0), |(n, cells), req| match req {
        Request::Insert { size, .. } => (n + 1, cells + size),
        Request::Delete { .. } => (n, cells),
    })
}

/// Peak resident set of this process so far, in MB (`VmHWM`). Each run is
/// its own process, so no earlier workload's peak is inherited.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A scratch directory under the working directory (the checkout), removed
/// when dropped — every WAL directory lives under it.
pub struct Scratch {
    root: PathBuf,
    next: std::cell::Cell<u32>,
}

impl Scratch {
    fn create() -> std::io::Result<Scratch> {
        let root = Path::new(".perfbench_tmp").join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&root)?;
        Ok(Scratch {
            root,
            next: std::cell::Cell::new(0),
        })
    }

    /// A fresh, not yet existing directory path.
    pub fn fresh_dir(&self) -> PathBuf {
        let n = self.next.get();
        self.next.set(n + 1);
        self.root.join(format!("wal-{n}"))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        // Leaves the shared parent only when no other run is using it.
        let _ = std::fs::remove_dir(".perfbench_tmp");
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let scratch = match Scratch::create() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot create the scratch directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    let report = match args.workload {
        WorkloadName::Durable => durable::run(&args, &scratch),
        WorkloadName::Tenants => tenants::run(&args),
    };
    drop(scratch);
    match report {
        Ok(report) => {
            report.print();
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
