//! In-memory span durations and the summaries taken from them after a run.

use std::time::{Duration, Instant};

/// The durations of one kind of span, kept in memory until the run ends.
#[derive(Default, Clone)]
pub struct Spans {
    ns: Vec<u64>,
    sorted: bool,
}

impl Spans {
    pub fn push(&mut self, d: Duration) {
        self.ns.push(d.as_nanos() as u64);
        self.sorted = false;
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = f();
        self.push(started.elapsed());
        out
    }

    pub fn extend(&mut self, other: &Spans) {
        self.ns.extend_from_slice(&other.ns);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.ns.len()
    }

    pub fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    pub fn max_ns(&self) -> u64 {
        self.ns.iter().copied().max().unwrap_or(0)
    }

    /// Nearest-rank quantile in nanoseconds (0 when empty).
    pub fn quantile_ns(&mut self, q: f64) -> f64 {
        if self.ns.is_empty() {
            return 0.0;
        }
        if !self.sorted {
            self.ns.sort_unstable();
            self.sorted = true;
        }
        let rank = ((q * self.ns.len() as f64).ceil() as usize).clamp(1, self.ns.len());
        self.ns[rank - 1] as f64
    }
}

/// Median of a list of measurements (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `num / den`, 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// CPU time this process has used so far, over all its threads, in
/// nanoseconds: `clock_gettime(CLOCK_PROCESS_CPUTIME_ID)`. The kernel
/// leaves out time the hypervisor steals, so on a shared host this tracks
/// the work the program did far more closely than wall time does. The
/// standard library has no binding for this clock and the benchmark
/// depends on no crate that has one, so it makes the system call itself.
pub fn cpu_ns() -> Result<u64, String> {
    clock_ns(2, "CLOCK_PROCESS_CPUTIME_ID")
}

/// CPU time the calling thread has used so far, in nanoseconds:
/// `clock_gettime(CLOCK_THREAD_CPUTIME_ID)`.
pub fn thread_cpu_ns() -> Result<u64, String> {
    clock_ns(3, "CLOCK_THREAD_CPUTIME_ID")
}

/// `clock_gettime(clock)` in nanoseconds.
fn clock_ns(clock: usize, name: &str) -> Result<u64, String> {
    // `struct timespec` on 64-bit Linux: seconds, then nanoseconds.
    let mut ts = [0i64; 2];
    let ret: isize;
    // SAFETY: `clock_gettime` writes one `timespec` through the pointer,
    // which points at `ts`, 16 writable bytes that outlive the call.
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") 228isize => ret,
            in("rdi") clock,
            in("rsi") ts.as_mut_ptr(),
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    // SAFETY: as above.
    #[cfg(all(target_os = "linux", target_arch = "aarch64"))]
    unsafe {
        std::arch::asm!(
            "svc 0",
            in("x8") 113usize,
            inlateout("x0") clock => ret,
            in("x1") ts.as_mut_ptr(),
            options(nostack),
        );
    }
    #[cfg(not(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    )))]
    compile_error!("the benchmark reads CPU time on x86_64 and aarch64 Linux only");
    if ret != 0 {
        return Err(format!("clock_gettime({name}) failed: {ret}"));
    }
    Ok(ts[0] as u64 * 1_000_000_000 + ts[1] as u64)
}
