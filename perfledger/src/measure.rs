//! The measurement loop: checked attempts until the window closes, every
//! one counted in `attempted` and, if it panicked or failed its check, in
//! `failed`.

use std::collections::BTreeMap;
use std::panic::AssertUnwindSafe;

use crate::clock::{machine_cpu_s, median, timed, Window};
use crate::workloads::{peak_rss_mb, Repro, Subject};

/// Fewest measured attempts per run, whatever `--seconds` says.
const MIN_ATTEMPTS: usize = 3;

/// Attempts made and failed, with the first few failure messages.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Tally {
    /// Run `f` as one attempt, checking its output with `check`; `None`
    /// when it panicked (a `CommError` surfaces as one) or failed.
    pub fn run<R, T>(
        &mut self,
        f: impl FnOnce() -> R,
        check: impl FnOnce(&R) -> Result<T, String>,
    ) -> Option<(R, T)> {
        let out = std::panic::catch_unwind(AssertUnwindSafe(f)).map_err(|e| {
            e.downcast_ref::<String>()
                .cloned()
                .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "panic".into())
        });
        let verdict = out.as_ref().map_err(Clone::clone).and_then(check);
        self.attempted += 1;
        if let Err(e) = &verdict {
            self.failed += 1;
            if self.problems.len() < 8 {
                self.problems.push(e.clone());
            }
        }
        Some((out.ok()?, verdict.ok()?))
    }
}

/// Counters and the trace-epoch wall window of one traced attempt.
pub struct Capture {
    pub counters: BTreeMap<String, f64>,
    pub window: (f64, f64),
}

/// One attempt that passed its check.
pub struct Attempt<O> {
    pub wall_s: f64,
    pub out: O,
    pub capture: Option<Capture>,
}

/// One checked attempt of `s`, with the trace collector on if `trace`.
/// The first passing attempt sets `reference`; later ones must match it.
fn checked<S: Subject>(
    s: &S,
    trace: bool,
    reference: &mut Option<Repro>,
    tally: &mut Tally,
) -> Option<Attempt<S::Out>> {
    if trace {
        dlsr_trace::set_enabled(true);
        dlsr_trace::reset();
    }
    let t0 = dlsr_trace::now_wall_s();
    let out = tally.run(
        || timed(|| s.attempt()),
        |(o, _)| {
            let repro = s.check(o)?;
            match reference {
                Some(r) if *r != repro => {
                    Err(format!("same-seed attempt changed: {repro:?} vs {r:?}"))
                }
                _ => Ok(repro),
            }
        },
    );
    let window = (t0, dlsr_trace::now_wall_s());
    let capture = trace.then(|| {
        dlsr_trace::set_enabled(false);
        Capture {
            counters: dlsr_trace::counters_snapshot(),
            window,
        }
    });
    let ((out, wall_s), repro) = out?;
    reference.get_or_insert(repro);
    Some(Attempt {
        wall_s,
        out,
        capture,
    })
}

/// Attempts are grouped into blocks of at least this much wall time: long
/// enough that the machine's CPU-time counters (1/100 s ticks) resolve
/// the share the hypervisor stole during the block to about 1 %.
const BLOCK_S: f64 = 1.0;

/// An untraced run: per-attempt wall times, per-block step times,
/// set-up times (one set-up before each attempt, so they sample the same
/// host conditions), and the peak RSS after the first attempt.
pub struct Measured {
    pub setups: Vec<f64>,
    pub walls: Vec<f64>,
    /// Wall seconds per step of each block, with the CPU time stolen
    /// during the block taken out.
    pub blocks: Vec<f64>,
    pub rss_mb: f64,
    pub reference: Option<Repro>,
}

impl Measured {
    /// The fastest block's seconds per step. This host is a VM whose
    /// hypervisor steals CPU in phases seconds to minutes long, from none
    /// to nearly half of both CPUs: scaling each block by the share of the
    /// CPU time it wanted that it got removes the steal, and the best
    /// block sheds what bursts remain.
    pub fn best_step_s(&self) -> f64 {
        self.blocks.iter().copied().fold(f64::NAN, f64::min)
    }
}

/// One block of attempts: wall seconds, steps, and the machine's CPU
/// seconds delivered and stolen while they ran.
#[derive(Default)]
struct Block {
    wall_s: f64,
    steps: usize,
    delivered_s: f64,
    stolen_s: f64,
}

impl Block {
    fn step_s(&self) -> f64 {
        let wanted = self.delivered_s + self.stolen_s;
        let got = if wanted > 0.0 {
            self.delivered_s / wanted
        } else {
            1.0
        };
        self.wall_s * got / self.steps as f64
    }
}

pub fn measure<S: Subject>(s: &S, seconds: f64, tally: &mut Tally) -> Measured {
    let mut m = Measured {
        setups: Vec::new(),
        walls: Vec::new(),
        blocks: Vec::new(),
        rss_mb: f64::NAN,
        reference: None,
    };
    let mut block = Block::default();
    let window = Window::new(seconds);
    let mut attempts = 0;
    while attempts < MIN_ATTEMPTS || window.open() {
        attempts += 1;
        m.setups.push(s.setup_once());
        let (d0, st0) = machine_cpu_s();
        let attempt = checked(s, false, &mut m.reference, tally);
        let (d1, st1) = machine_cpu_s();
        if let Some(a) = attempt {
            m.walls.push(a.wall_s);
            block.wall_s += a.wall_s;
            block.steps += s.steps();
            block.delivered_s += d1 - d0;
            block.stolen_s += st1 - st0;
            if block.wall_s >= BLOCK_S {
                m.blocks.push(std::mem::take(&mut block).step_s());
            }
        }
        if attempts == 1 {
            // Read at the same point of every run's work: the allocator's
            // footprint creeps with each further attempt.
            m.rss_mb = peak_rss_mb();
        }
    }
    if m.blocks.is_empty() && block.steps > 0 {
        m.blocks.push(block.step_s());
    }
    print_ms("attempt wall per step", &m.walls, s.steps());
    print_ms("steal-free block per step", &m.blocks, 1);
    m
}

/// Best, median and tail of per-step times, with the sample count.
fn print_ms(what: &str, secs: &[f64], steps: usize) {
    let mut ms: Vec<f64> = secs.iter().map(|w| w / steps as f64 * 1e3).collect();
    ms.sort_by(f64::total_cmp);
    // The highest percentile with at least ten samples beyond it.
    let tail = (ms.len() >= 20).then(|| {
        let p = 1.0 - 10.0 / ms.len() as f64;
        (p * 100.0, ms[((ms.len() - 1) as f64 * p) as usize])
    });
    println!(
        "{what} over {} samples: best {:.3} ms, median {:.3} ms{}",
        ms.len(),
        ms.first().copied().unwrap_or(f64::NAN),
        median(&ms),
        tail.map_or(String::new(), |(p, v)| format!(", p{p:.0} {v:.3} ms")),
    );
}

/// A traced run: untraced and traced attempts interleaved, so both sample
/// the same host conditions.
pub struct Traced<O> {
    /// Best traced attempt over best untraced attempt, minus one.
    pub overhead_frac: f64,
    /// The last traced attempt, with its trace capture.
    pub last: Option<Attempt<O>>,
}

pub fn measure_traced<S: Subject>(s: &S, seconds: f64, tally: &mut Tally) -> Traced<S::Out> {
    let mut reference = None;
    let (mut plain, mut traced, mut last) = (Vec::new(), Vec::new(), None);
    let window = Window::new(seconds);
    let mut pairs = 0;
    while pairs < MIN_ATTEMPTS || window.open() {
        pairs += 1;
        plain.extend(checked(s, false, &mut reference, tally).map(|a| a.wall_s));
        if let Some(a) = checked(s, true, &mut reference, tally) {
            traced.push(a.wall_s);
            last = Some(a);
        }
    }
    let best = |w: &[f64]| w.iter().copied().fold(f64::NAN, f64::min);
    Traced {
        overhead_frac: best(&traced) / best(&plain) - 1.0,
        last,
    }
}
