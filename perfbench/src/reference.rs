//! A fixed reference kernel that gauges how fast the host runs right now.
//!
//! On a shared virtual machine the same code takes more CPU time when
//! other guests crowd the physical core and its caches, and that drifts
//! over minutes: CPU time per request of one seed moved by 10–25% between
//! runs. The benchmark times this kernel next to every timed stretch of
//! work ([`Meter`]) and scales its CPU time by `NOMINAL_NS` over the kernel's time, so
//! the gated figures read as CPU time on a host where the kernel takes
//! `NOMINAL_NS`. The kernel is the benchmark's own code: no change to the
//! repository's crates moves it, so a faster program still reads faster.

use std::hint::black_box;
use std::time::Instant;

use crate::stats::{cpu_ns, median, thread_cpu_ns};

/// Table slots: 32 MiB, well beyond a per-core L2, like the workloads'
/// stores and structures.
const SLOTS: usize = 1 << 22;
/// Hash rounds per kernel run (the compute half).
const ROUNDS: usize = 1_000_000;
/// Random read-modify-writes of the table per kernel run (the memory half).
const TOUCHES: usize = 100_000;
/// The kernel's CPU time that the scaled figures are expressed at: about
/// its median on a 2-vCPU KVM guest of an Intel Xeon (Sapphire Rapids).
const NOMINAL_NS: f64 = 20e6;

fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

struct Kernel {
    table: Vec<u64>,
    state: u64,
}

impl Kernel {
    fn new() -> Kernel {
        Kernel {
            table: (0..SLOTS as u64).map(mix).collect(),
            state: 1,
        }
    }

    /// One run's thread CPU time, in nanoseconds.
    fn run(&mut self) -> Result<f64, String> {
        let started = thread_cpu_ns()?;
        let mut x = self.state;
        for _ in 0..ROUNDS {
            x = mix(x);
        }
        for _ in 0..TOUCHES {
            x = mix(x);
            let slot = &mut self.table[x as usize & (SLOTS - 1)];
            *slot = slot.wrapping_add(x);
            x ^= *slot;
        }
        self.state = black_box(x);
        Ok((thread_cpu_ns()? - started) as f64)
    }
}

/// The kernel's table, in MB: resident for the whole run, so the peak
/// resident set reported for the program leaves it out.
pub const TABLE_MB: f64 = (SLOTS * 8) as f64 / (1 << 20) as f64;

/// The reference kernel and every gauge taken in a run.
pub struct HostSpeed {
    kernel: Kernel,
    /// Every kernel run of the run, in nanoseconds.
    runs: Vec<f64>,
}

impl HostSpeed {
    pub fn new() -> HostSpeed {
        HostSpeed {
            kernel: Kernel::new(),
            runs: Vec::new(),
        }
    }

    /// The median of `runs` kernel runs, in nanoseconds.
    fn gauge(&mut self, runs: usize) -> Result<f64, String> {
        let times = (0..runs)
            .map(|_| self.kernel.run())
            .collect::<Result<Vec<_>, _>>()?;
        self.runs.extend_from_slice(&times);
        Ok(median(&times))
    }

    /// The median kernel run of the whole run, in milliseconds.
    pub fn median_ms(&self) -> f64 {
        median(&self.runs) / 1e6
    }
}

/// CPU seconds of a stretch of work, over all the process's threads, as
/// measured and as scaled to the nominal host.
#[derive(Clone, Copy, Default)]
pub struct Cpu {
    pub raw_s: f64,
    pub scaled_s: f64,
    /// Wall seconds the gauges took, to leave out of wall-clock figures.
    pub gauge_wall_s: f64,
}

/// Meters the process's CPU time over a stretch of work split into
/// segments, gauging the host at every segment boundary. Each segment is
/// scaled by the mean of the gauges at its two ends; the gauges' own CPU
/// time is left out. Split only where the program is idle (after a
/// barrier), so the kernel does not compete with it.
pub struct Meter<'h> {
    host: &'h mut HostSpeed,
    runs: usize,
    gauge: f64,
    since: u64,
    cpu: Cpu,
}

impl<'h> Meter<'h> {
    /// Gauges the host with the median of `runs` kernel runs, then starts
    /// the clock.
    pub fn start(host: &'h mut HostSpeed, runs: usize) -> Result<Meter<'h>, String> {
        let gauge = host.gauge(runs)?;
        Ok(Meter {
            host,
            runs,
            gauge,
            since: cpu_ns()?,
            cpu: Cpu::default(),
        })
    }

    /// Ends a segment and gauges the host off the clock.
    pub fn split(&mut self) -> Result<(), String> {
        let used = cpu_ns()?.saturating_sub(self.since) as f64 / 1e9;
        let started = Instant::now();
        let gauge = self.host.gauge(self.runs)?;
        self.cpu.gauge_wall_s += started.elapsed().as_secs_f64();
        self.cpu.raw_s += used;
        self.cpu.scaled_s += used * NOMINAL_NS / ((self.gauge + gauge) / 2.0);
        self.gauge = gauge;
        self.since = cpu_ns()?;
        Ok(())
    }

    /// Ends the last segment.
    pub fn finish(mut self) -> Result<Cpu, String> {
        self.split()?;
        Ok(self.cpu)
    }
}
