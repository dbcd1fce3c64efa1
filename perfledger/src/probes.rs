//! Per-layer probes: timed calls into each layer's public functions on the
//! workload's own shapes and sizes. Every probe runs inside one of the
//! benchmark's own spans.

use std::hint::black_box;

use dlsr_cluster::{edsr_measured_workload, Scenario, SimTrainer};
use dlsr_horovod::DistributedOptimizer;
use dlsr_models::Edsr;
use dlsr_mpi::collectives::{barrier, Allreduce};
use dlsr_mpi::{MpiWorld, WireFormat};
use dlsr_nn::loss::l1_loss;
use dlsr_nn::module::{Module, ModuleExt as _};
use dlsr_nn::optim::{Adam, Optimizer as _};
use dlsr_tensor::matmul::{self, BSrc, Epilogue, Im2colView};
use dlsr_tensor::{init, tune};
use dlsr_trace::TraceEvent;

use crate::clock::{median, per_call_s, timed, Window};
use crate::spans::BenchSpans;
use crate::workloads::{edsr_model, CollectiveOnly, RealSpec, SimSpec, Subject as _};
use crate::Metric;

/// Wall budget of one probe's timing loop, seconds.
const BUDGET_S: f64 = 0.25;
/// Fewest timed calls per probe.
const MIN_CALLS: usize = 5;
/// Wire formats of the collective probe, with their metric suffixes.
pub const WIRES: [(&str, &str); 4] = [
    ("f32", "f32"),
    ("bf16", "bf16"),
    ("fp16", "fp16"),
    ("topk50", "topk:50"),
];

/// Run every probe. `real` gives the tensor, nn, data and horovod shapes
/// (sim-512 passes edsr-compute's: it runs no real math of its own);
/// `comm` is the edsr-comm world the collective probe runs in; `sim` is
/// the 512-rank world of the executor and planning probes.
pub fn run_all(
    real: &RealSpec,
    comm: &RealSpec,
    sim: &SimSpec,
    spans: &mut BenchSpans,
) -> Vec<Metric> {
    let mut out = Vec::new();
    tensor(real, spans, &mut out);
    nn_data_horovod(real, spans, &mut out);
    collectives(comm, spans, &mut out);
    executor(sim, spans, &mut out);
    out
}

/// GEMM GFLOP/s of one conv's three GEMMs (forward, weight gradient,
/// input gradient) on one image of `hw` output pixels, as the conv path
/// drives them: A packed once, B streamed, sequential per image.
fn conv_gemms(c_in: usize, c_out: usize, hw: usize) -> [(&'static str, f64); 3] {
    let k = c_in * 9;
    [
        ("fwd", gemm_gflops(c_out, k, hw)),
        ("wgrad", gemm_gflops(c_out, hw, k)),
        ("igrad", gemm_gflops(k, c_out, hw)),
    ]
}

fn gemm_gflops(m: usize, k: usize, n: usize) -> f64 {
    let a = init::uniform([m, k], -1.0, 1.0, 11);
    let b = init::uniform([k, n], -1.0, 1.0, 12);
    let bp = tune::select(m, k, n);
    let mut apack = vec![0.0f32; matmul::packed_a_len(&bp, m, k)];
    matmul::pack_a(&bp, a.data(), m, k, &mut apack);
    let mut c = vec![0.0f32; m * n];
    let s = per_call_s(BUDGET_S, MIN_CALLS, || {
        matmul::gemm(
            &bp,
            &apack,
            BSrc::Rows(b.data()),
            &mut c,
            m,
            k,
            n,
            Epilogue::None,
            true,
        );
        black_box(&c);
    });
    2.0 * (m * k * n) as f64 / s / 1e9
}

/// Implicit im2col: the body forward GEMM reading B through the virtual
/// column matrix, against the same GEMM on a materialized one. The
/// difference is the gather; its rate is column bytes over that time.
fn im2col_gbps(patch: usize) -> f64 {
    let (c, m, k, n) = (64, 64, 64 * 9, patch * patch);
    let img = init::uniform([c, patch, patch], -1.0, 1.0, 21);
    let w = init::uniform([m, k], -1.0, 1.0, 22);
    let col = init::uniform([k, n], -1.0, 1.0, 23);
    let bp = tune::select(m, k, n);
    let mut apack = vec![0.0f32; matmul::packed_a_len(&bp, m, k)];
    matmul::pack_a(&bp, w.data(), m, k, &mut apack);
    let mut out = vec![0.0f32; m * n];
    let mut time = |src: BSrc<'_>| {
        per_call_s(BUDGET_S, MIN_CALLS, || {
            matmul::gemm(&bp, &apack, src, &mut out, m, k, n, Epilogue::None, true);
            black_box(&out);
        })
    };
    let view = Im2colView::new(img.data(), (c, patch, patch), (3, 3), 1, 1);
    let implicit = time(BSrc::Im2col(view));
    let materialized = time(BSrc::Rows(col.data()));
    (k * n * 4) as f64 / (implicit - materialized).max(1e-9) / 1e9
}

fn tensor(real: &RealSpec, spans: &mut BenchSpans, out: &mut Vec<Metric>) {
    let p = real.cfg.lr_patch;
    let hr = p * real.cfg.model.scale;
    for (conv, c_out, hw) in [("body", 64, p * p), ("out", 3, hr * hr)] {
        let rates = spans.around(&format!("tensor.gemm.{conv}"), || conv_gemms(64, c_out, hw));
        for (pass, gflops) in rates {
            out.push(Metric::new(
                format!("tensor.gemm.gflops.{pass}.{conv}"),
                gflops,
                "GFLOP/s",
            ));
        }
    }
    let gbps = spans.around("tensor.im2col", || im2col_gbps(p));
    out.push(Metric::new("tensor.im2col.gbps", gbps, "GB/s"));
}

fn nn_data_horovod(real: &RealSpec, spans: &mut BenchSpans, out: &mut Vec<Metric>) {
    let seed = real.cfg.seed;
    let world = real.world();
    let mut loader = real.rank0_loader();
    let mut step = 0u64;
    let batch_s = spans.around("data.batch", || {
        per_call_s(BUDGET_S, MIN_CALLS, || {
            step += 1;
            black_box(loader.batch(0, step));
        })
    });
    out.push(Metric::new("data.batch_ms", batch_s * 1e3, "ms"));

    let mut model = Edsr::new(edsr_model(), seed);
    let (lr, hr) = loader.batch(0, 0);
    let (fwd_s, bwd_s) = spans.around("nn.forward_backward", || {
        let (mut fwd, mut bwd) = (Vec::new(), Vec::new());
        let window = Window::new(2.0 * BUDGET_S);
        while fwd.len() < MIN_CALLS || window.open() {
            let (pred, f) = timed(|| model.forward(&lr).expect("forward"));
            let (_, grad) = l1_loss(&pred, &hr).expect("loss");
            let (_, b) = timed(|| model.backward(&grad).expect("backward"));
            fwd.push(f);
            bwd.push(b);
        }
        (median(&fwd), median(&bwd))
    });
    out.push(Metric::new("nn.forward_ms", fwd_s * 1e3, "ms"));
    out.push(Metric::new("nn.backward_ms", bwd_s * 1e3, "ms"));

    let mut adam = Adam::new(real.cfg.lr);
    let adam_s = spans.around("nn.adam", || {
        per_call_s(BUDGET_S, MIN_CALLS, || adam.step(&mut model))
    });
    out.push(Metric::new("nn.adam_ms", adam_s * 1e3, "ms"));

    // Fusion pack/unpack. The horovod layer keeps its pack loop private,
    // so the probe drives the public pieces it is built from: the model's
    // flat gradient view and the optimizer's fusion plan, packed and
    // unpacked in the plan's tensor order.
    let opt = DistributedOptimizer::new(Adam::new(real.cfg.lr), &mut model, real.horovod(), world);
    let groups = opt.fusion_groups().to_vec();
    let tensors = opt.tensors().to_vec();
    let mut sizes = Vec::new();
    model.visit_params(&mut |p| sizes.push(p.numel()));
    let mut offsets: Vec<usize> = sizes
        .iter()
        .scan(0, |off, &n| {
            let o = *off;
            *off += n;
            Some(o)
        })
        .collect();
    offsets.reverse();
    let mut fused: Vec<Vec<f32>> = groups.iter().map(|g| Vec::with_capacity(g.elems)).collect();
    let pack_s = spans.around("horovod.pack", || {
        per_call_s(BUDGET_S, MIN_CALLS, || {
            let flat = model.flatten_grads();
            for (g, buf) in groups.iter().zip(fused.iter_mut()) {
                buf.clear();
                for &ti in &g.indices {
                    buf.extend_from_slice(&flat[offsets[ti]..offsets[ti] + tensors[ti].elems]);
                }
            }
            black_box(&fused);
        })
    });
    let mut flat = vec![0.0f32; sizes.iter().sum()];
    let unpack_s = spans.around("horovod.unpack", || {
        per_call_s(BUDGET_S, MIN_CALLS, || {
            for (g, buf) in groups.iter().zip(&fused) {
                let mut cursor = 0;
                for &ti in &g.indices {
                    let n = tensors[ti].elems;
                    for (dst, src) in flat[offsets[ti]..offsets[ti] + n]
                        .iter_mut()
                        .zip(&buf[cursor..cursor + n])
                    {
                        *dst = *src / world as f32;
                    }
                    cursor += n;
                }
            }
            model.load_flat_grads(&flat);
        })
    });
    out.push(Metric::new("horovod.pack_ms", pack_s * 1e3, "ms"));
    out.push(Metric::new("horovod.unpack_ms", unpack_s * 1e3, "ms"));
    out.push(Metric::new(
        "horovod.groups_per_step",
        groups.len() as f64,
        "count",
    ));
}

/// Wall spans of `n` traced forward + backward passes of one rank's
/// micro-batch at `real`'s shapes, run on this thread (rank 0).
pub fn traced_micro_batches(real: &RealSpec, n: usize) -> Vec<TraceEvent> {
    let seed = real.cfg.seed;
    let mut loader = real.rank0_loader();
    let (lr, hr) = loader.batch(0, 0);
    let mut model = Edsr::new(edsr_model(), seed);
    dlsr_trace::set_enabled(true);
    dlsr_trace::reset();
    for _ in 0..n {
        let pred = model.forward(&lr).expect("forward");
        let (_, grad) = l1_loss(&pred, &hr).expect("loss");
        model.backward(&grad).expect("backward");
    }
    dlsr_trace::set_enabled(false);
    dlsr_trace::take_events()
}

/// The fused gradient sizes of `spec`'s fusion plan, bytes.
fn fused_sizes(spec: &RealSpec) -> Vec<u64> {
    let mut model = Edsr::new(spec.cfg.model, spec.cfg.seed);
    let opt = DistributedOptimizer::new(
        Adam::new(spec.cfg.lr),
        &mut model,
        spec.horovod(),
        spec.world(),
    );
    let mut sizes: Vec<u64> = opt.fusion_groups().iter().map(|g| g.bytes).collect();
    sizes.sort_unstable();
    sizes.dedup();
    sizes
}

/// Host wall time of one allreduce of `bytes` under `wire`, in `spec`'s
/// world: rank 0's clock over `reps` back-to-back reductions after a
/// warm-up reduction and a barrier.
fn allreduce_s(spec: &RealSpec, bytes: u64, wire: WireFormat, reps: usize) -> f64 {
    let elems = (bytes / 4) as usize;
    let res = MpiWorld::run(&spec.topo, spec.mpi.clone(), |comm| {
        let mut buf: Vec<f32> = (0..elems)
            .map(|i| ((i * 7 + comm.rank()) % 13) as f32 * 1e-3)
            .collect();
        let mut reduce = |comm: &mut dlsr_mpi::Comm| {
            let _ = Allreduce::new(&mut buf).buf_id(0x4241).wire(wire).run(comm);
        };
        reduce(comm);
        barrier(comm);
        let (_, s) = timed(|| {
            for _ in 0..reps {
                reduce(comm);
            }
        });
        s / reps as f64
    });
    res.ranks[0]
}

fn collectives(comm: &RealSpec, spans: &mut BenchSpans, out: &mut Vec<Metric>) {
    for bytes in fused_sizes(comm) {
        for (suffix, wire) in WIRES {
            let wf: WireFormat = wire.parse().expect("known wire format");
            let reps = if matches!(wf, WireFormat::TopK { .. }) {
                2
            } else {
                6
            };
            let name = format!("mpi.allreduce_ms.{bytes}.{suffix}");
            let s = spans.around(&name, || allreduce_s(comm, bytes, wf, reps));
            out.push(Metric::new(name, s * 1e3, "ms"));
        }
    }
}

fn executor(sim: &SimSpec, spans: &mut BenchSpans, out: &mut Vec<Metric>) {
    const ROUNDS: usize = 2;
    let world = sim.world();
    let s = spans.around("executor.collective_only", || {
        per_call_s(BUDGET_S, 3, || {
            let res = MpiWorld::run_driven(&sim.topo, sim.mpi.clone(), |_| {
                CollectiveOnly::new(sim, ROUNDS)
            });
            black_box(res.makespan());
        })
    });
    out.push(Metric::new(
        "executor.rank_steps_per_s",
        (world * ROUNDS) as f64 / s,
        "1/s",
    ));
    let (w, tensors) = edsr_measured_workload();
    let plan_s = spans.around("sim.plan", || {
        per_call_s(BUDGET_S, MIN_CALLS, || {
            let t = SimTrainer::new(
                w.clone(),
                tensors.clone(),
                crate::workloads::SIM_BATCH,
                Scenario::MpiOpt,
                &sim.topo,
                sim.seed,
            )
            .expect("batch 4 fits a V100");
            black_box(t.plan().len());
        })
    });
    out.push(Metric::new("sim.plan_ms", plan_s * 1e3, "ms"));
}
