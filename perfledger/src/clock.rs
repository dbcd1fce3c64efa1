//! The benchmark's host-clock reads and the statistics over them.
//!
//! Every `Instant` read of the benchmark lives in this module, under
//! `#[dlsr::wall]`: the benchmark's product is host wall time, and none of
//! it ever feeds rank-visible state.

use std::time::{Duration, Instant};

use dlsr_attr as dlsr;

/// Run `f` once and return its result with the seconds it took.
#[dlsr::wall]
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

/// A measurement window: `--seconds` of wall time from its creation.
pub struct Window {
    end: Instant,
}

impl Window {
    #[dlsr::wall]
    pub fn new(seconds: f64) -> Window {
        Window {
            end: Instant::now() + Duration::from_secs_f64(seconds),
        }
    }

    #[dlsr::wall]
    pub fn open(&self) -> bool {
        Instant::now() < self.end
    }
}

/// Median per-call seconds of `f`, called in batches until `budget_s` of
/// wall time is spent (at least `min_calls` calls, after one untimed
/// warm-up call).
#[dlsr::wall]
pub fn per_call_s(budget_s: f64, min_calls: usize, mut f: impl FnMut()) -> f64 {
    f();
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min_calls || start.elapsed().as_secs_f64() < budget_s {
        let t0 = Instant::now();
        f();
        samples.push(t0.elapsed().as_secs_f64());
    }
    median(&samples)
}

/// Median of `xs` (mean of the middle two for even lengths); NaN when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The machine's CPU time so far, seconds: `(delivered, stolen)`, where
/// delivered is user + nice + system + irq + softirq over all CPUs and
/// stolen is the time the hypervisor ran something else while a CPU
/// wanted to run (`/proc/stat`, clock ticks of 1/100 s).
pub fn machine_cpu_s() -> (f64, f64) {
    let ticks = std::fs::read_to_string("/proc/stat").ok().and_then(|s| {
        let f: Vec<f64> = s
            .lines()
            .next()?
            .split_whitespace()
            .skip(1)
            .map(|t| t.parse().unwrap_or(0.0))
            .collect();
        Some((f[0] + f[1] + f[2] + f[5] + f[6], *f.get(7)?))
    });
    ticks.map_or((f64::NAN, f64::NAN), |(d, s)| (d / 100.0, s / 100.0))
}
