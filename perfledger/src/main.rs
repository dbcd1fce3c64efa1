//! The dlsr benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfledger/Cargo.toml -- \
//!     --workload edsr-compute|edsr-comm|sim-512 --seed N --seconds S --trace 0|1
//!     [--force-scalar]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with the trace collector
//! off; `--trace 1` makes the separate traced run that yields the
//! per-layer metrics. The last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. See README.md.

#![forbid(unsafe_code)]

mod clock;
mod host;
mod measure;
mod probes;
mod spans;
mod workloads;

use dlsr_cluster::RealTrainResult;
use dlsr_trace::report::StepReport;
use dlsr_trace::TraceEvent;

use clock::median;
use measure::{measure, measure_traced, Measured, Tally};
use spans::{BenchSpans, LAYERS};
use workloads::{
    check_finite, sim_virtual_step_s, RealSpec, SimSpec, Subject, Workload, SIM_STEPS,
};

/// One reported number.
pub struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            // `+ 0.0` turns a -0.0 (an empty difference) into 0.0
            value: value + 0.0,
            unit,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    force_scalar: bool,
}

const USAGE: &str = "usage: perfledger --workload edsr-compute|edsr-comm|sim-512 --seed N \
                     --seconds S --trace 0|1 [--force-scalar]";

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut force_scalar = false;
    while let Some(flag) = args.next() {
        if flag == "--force-scalar" {
            force_scalar = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {flag} value `{value}`: {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e.to_string()))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e.to_string()))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("expected 0 < seconds <= 600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        force_scalar,
    })
}

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let host = host::prepare(args.force_scalar);
    println!(
        "perfledger: workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
    );
    host.print();
    let mut tally = Tally::default();
    let (seed, secs, nproc) = (args.seed, args.seconds, host.nproc);
    let metrics = match (args.workload, args.trace) {
        (Workload::Sim512, false) => sim_untraced(seed, secs, nproc, &mut tally),
        (Workload::Sim512, true) => sim_traced(seed, secs, nproc, &mut tally),
        (w, trace) => {
            let spec = match w {
                Workload::EdsrCompute => RealSpec::edsr_compute(seed, nproc),
                _ => RealSpec::edsr_comm(seed, nproc),
            };
            if trace {
                real_traced(&spec, secs, nproc, &mut tally)
            } else {
                real_untraced(&spec, secs, &mut tally)
            }
        }
    };
    for m in &metrics {
        println!("  {:<36} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "  {:<36} {:>16.6} (of {} attempts)",
        "fail_frac",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.attempted
    );
    for p in &tally.problems {
        println!("FAILED: {p}");
    }
    let finite = metrics.iter().all(|m| m.value.is_finite());
    if !finite {
        println!("FAILED: a metric is not finite");
    }
    println!(
        "{}",
        result_line(tally.failed == 0 && finite, &tally, &metrics)
    );
}

/// The JSON result line. Non-finite values print as 0 (the run is then
/// already marked incorrect).
fn result_line(correct: bool, tally: &Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

/// The single-rank baseline's virtual seconds per step.
fn single_rank_baseline(spec: &RealSpec, tally: &mut Tally) -> f64 {
    let base = spec.single_rank();
    tally
        .run(|| base.train(), check_finite)
        .map_or(f64::NAN, |(res, ())| res.makespan / base.steps() as f64)
}

/// `train.psnr_db`: held-out PSNR after `spec`'s quality training.
fn quality_psnr(spec: &RealSpec, tally: &mut Tally) -> f64 {
    let quality = spec.quality();
    tally
        .run(|| quality.train(), |res| quality.check(res))
        .map_or(f64::NAN, |(res, _)| quality.held_out_psnr(&res))
}

/// The end-to-end metrics of an untraced run. Wall metrics come from the
/// run's best block of attempts; `setup_s` is the median set-up.
fn end_to_end<S: Subject>(s: &S, m: &Measured, psnr: f64, efficiency: f64) -> Vec<Metric> {
    let step = m.best_step_s();
    let images_per_step = s.images() as f64 / s.steps() as f64;
    vec![
        Metric::new("setup_s", median(&m.setups), "s"),
        Metric::new("train.img_per_s", images_per_step / step, "img/s"),
        Metric::new("train.step_ms", step * 1e3, "ms"),
        Metric::new("train.psnr_db", psnr, "dB"),
        Metric::new("virt.efficiency", efficiency, "ratio"),
        Metric::new("sim.rank_steps_per_s", s.world() as f64 / step, "1/s"),
        Metric::new("peak_rss_mb", m.rss_mb, "MiB"),
    ]
}

fn real_untraced(spec: &RealSpec, seconds: f64, tally: &mut Tally) -> Vec<Metric> {
    // Measured first, so that the peak RSS it reads after its first
    // attempt covers that attempt and nothing before it.
    let m = measure(spec, seconds, tally);
    let t1 = single_rank_baseline(spec, tally);
    let psnr = quality_psnr(spec, tally);
    let tn = m.reference.map_or(f64::NAN, |r| r.virt_step_s);
    if let Some(d) = m.reference.and_then(|r| r.digest) {
        println!("digest: {d:016x}");
    }
    println!(
        "virtual step {:.6} ms at {} ranks, {:.6} ms at 1 rank",
        tn * 1e3,
        spec.world(),
        t1 * 1e3
    );
    // Strong scaling at a fixed global batch.
    end_to_end(spec, &m, psnr, t1 / (spec.world() as f64 * tn))
}

fn sim_untraced(seed: u64, seconds: f64, nproc: usize, tally: &mut Tally) -> Vec<Metric> {
    let spec = SimSpec::new(seed, nproc);
    let m = measure(&spec, seconds, tally);
    // sim-512 runs no real math: its quality reference is edsr-compute's.
    let psnr = quality_psnr(&RealSpec::edsr_compute(seed, nproc), tally);
    let t1 = spec.single_rank_step_s();
    let tn = m.reference.map_or(f64::NAN, |r| r.virt_step_s);
    println!(
        "virtual step {:.6} ms at {} ranks, {:.6} ms at 1 rank",
        tn * 1e3,
        spec.world(),
        t1 * 1e3
    );
    // Weak scaling at batch 4 per GPU.
    end_to_end(&spec, &m, psnr, t1 / tn)
}

/// Self times of every layer and the trace coverage of one traced
/// attempt, per step. Wall layers are in host ms per rank-step, virtual
/// layers in virtual ms per rank-step over `virt_steps` (the steps their
/// spans cover); `executor` is the wall time no in-program span covers.
fn layer_metrics(
    events: &[TraceEvent],
    window: (f64, f64),
    world: usize,
    steps: usize,
    virt_steps: usize,
) -> Vec<Metric> {
    let mut out: Vec<Metric> = LAYERS
        .iter()
        .map(|l| {
            let (n, unit) = if l.is_wall() {
                (steps, "ms")
            } else {
                (virt_steps, "virt_ms")
            };
            let per_step = spans::self_seconds(events, l) / (world * n) as f64 * 1e3;
            Metric::new(format!("trace.self_ms.{}", l.name), per_step, unit)
        })
        .collect();
    let span = window.1 - window.0;
    let covered = spans::covered_wall_s(events, window);
    out.push(Metric::new(
        "trace.self_ms.executor",
        (span - covered) / steps as f64 * 1e3,
        "ms",
    ));
    out.push(Metric::new("trace.covered_frac", covered / span, "ratio"));
    out
}

fn exposed_comm_s(report: &StepReport) -> f64 {
    let n = report.ranks.len().max(1) as f64;
    report.ranks.iter().map(|r| r.exposed_comm_s).sum::<f64>() / n
}

/// Transfers per step by path, all ranks.
fn transfer_metrics(report: &StepReport, steps: f64) -> Vec<Metric> {
    let t = report.transfers;
    [
        ("ipc", t.ipc),
        ("staged", t.staged),
        ("rdma", t.rdma),
        ("eager", t.eager),
    ]
    .into_iter()
    .map(|(path, n)| Metric::new(format!("net.transfers.{path}"), n as f64 / steps, "count"))
    .collect()
}

fn print_report(report: &StepReport, spans: &BenchSpans) {
    println!("step report categories (sum of span seconds):");
    for (cat, stat) in &report.categories {
        println!(
            "  {cat:<28} {:>8} spans {:>12.6} s",
            stat.calls, stat.seconds
        );
    }
    spans.print();
}

fn real_traced(spec: &RealSpec, seconds: f64, nproc: usize, tally: &mut Tally) -> Vec<Metric> {
    let t = measure_traced(spec, seconds, tally);
    let mut out = vec![Metric::new("trace.overhead_frac", t.overhead_frac, "ratio")];
    let Some((res, capture)) = t.last.and_then(|a| Some((a.out, a.capture?))) else {
        return out;
    };
    let steps = spec.steps();
    let k = steps as f64;
    let report = StepReport::build(&res.trace, &capture.counters);
    out.extend(layer_metrics(
        &res.trace,
        capture.window,
        spec.world(),
        steps,
        steps,
    ));
    out.extend(real_counts(&res, &report, k));
    let seed = spec.cfg.seed;
    let mut spans = BenchSpans::default();
    let (comm, sim) = (RealSpec::edsr_comm(seed, nproc), SimSpec::new(seed, nproc));
    out.extend(probes::run_all(spec, &comm, &sim, &mut spans));
    print_report(&report, &spans);
    out
}

/// Virtual step and exposed comm, transfer mix, registration cache and
/// message counts of a traced real-training attempt (counts from rank 0's
/// `comm_stats` and `regcache`).
fn real_counts(res: &RealTrainResult, report: &StepReport, k: f64) -> Vec<Metric> {
    let mut out = vec![
        Metric::new("virt.step_ms", res.makespan / k * 1e3, "virt_ms"),
        Metric::new(
            "virt.exposed_comm_ms",
            exposed_comm_s(report) / k * 1e3,
            "virt_ms",
        ),
    ];
    out.extend(transfer_metrics(report, k));
    let cs = &res.comm_stats;
    out.extend([
        Metric::new("net.regcache_hit_ratio", res.regcache.hit_rate(), "ratio"),
        Metric::new("mpi.msgs_per_step", cs.sends as f64 / k, "count"),
        Metric::new(
            "mpi.wire_bytes_per_step",
            (cs.nvlink_bytes + cs.staged_bytes + cs.ib_bytes) as f64 / k,
            "bytes",
        ),
    ]);
    out
}

fn sim_traced(seed: u64, seconds: f64, nproc: usize, tally: &mut Tally) -> Vec<Metric> {
    let spec = SimSpec::new(seed, nproc);
    let t = measure_traced(&spec, seconds, tally);
    let mut out = vec![Metric::new("trace.overhead_frac", t.overhead_frac, "ratio")];
    let Some((res, capture)) = t.last.and_then(|a| Some((a.out, a.capture?))) else {
        return out;
    };
    let (world, steps) = (spec.world(), spec.steps());
    let events: Vec<TraceEvent> = res
        .ranks
        .iter()
        .flat_map(|r| r.trace.iter().cloned())
        .collect();
    let report = StepReport::build(&events, &capture.counters);
    // Virtual spans cover the measured steps only (warm-up is discarded);
    // counters cover the whole attempt.
    let mut layers = layer_metrics(&events, capture.window, world, steps, SIM_STEPS);
    // No real math runs here, so the wall layers' self times come from
    // traced micro-batches at edsr-compute's shapes: the same quantity,
    // forward + backward self time per rank-step.
    let real = RealSpec::edsr_compute(seed, nproc);
    const MICRO_BATCHES: usize = 4;
    let micro = probes::traced_micro_batches(&real, MICRO_BATCHES);
    for l in LAYERS.iter().filter(|l| l.is_wall()) {
        let name = format!("trace.self_ms.{}", l.name);
        if let Some(m) = layers.iter_mut().find(|m| m.name == name) {
            m.value = spans::self_seconds(&micro, l) / MICRO_BATCHES as f64 * 1e3;
        }
    }
    out.extend(layers);
    out.push(Metric::new(
        "virt.step_ms",
        sim_virtual_step_s(&res) * 1e3,
        "virt_ms",
    ));
    out.push(Metric::new(
        "virt.exposed_comm_ms",
        exposed_comm_s(&report) / SIM_STEPS as f64 * 1e3,
        "virt_ms",
    ));
    out.extend(transfer_metrics(&report, steps as f64));
    // The costs-only ranks keep no `comm_stats`: count their sends from
    // the wire spans (`"<path> <bytes>B -> r<dst>"`), per rank-step.
    let sends: Vec<f64> = events
        .iter()
        .filter(|e| e.cat == dlsr_trace::cat::NET)
        .filter_map(|e| {
            e.name
                .split_whitespace()
                .nth(1)?
                .strip_suffix('B')?
                .parse()
                .ok()
        })
        .collect();
    let rank_steps = (world * SIM_STEPS) as f64;
    out.extend([
        Metric::new(
            "net.regcache_hit_ratio",
            res.ranks[0].reg.hit_rate(),
            "ratio",
        ),
        Metric::new(
            "mpi.msgs_per_step",
            sends.len() as f64 / rank_steps,
            "count",
        ),
        Metric::new(
            "mpi.wire_bytes_per_step",
            sends.iter().sum::<f64>() / rank_steps,
            "bytes",
        ),
    ]);
    let mut spans = BenchSpans::default();
    let comm = RealSpec::edsr_comm(seed, nproc);
    out.extend(probes::run_all(&real, &comm, &spec, &mut spans));
    print_report(&report, &spans);
    out
}
