//! The three workloads: their set-up, one measured attempt, and the
//! output check every attempt must pass.
//!
//! All three run the paper's MPI-Opt scenario. Two train a real
//! EDSR(B=4, F=64, ×2) through `train_real`; one simulates paper-scale
//! EDSR at 512 ranks on the driven engine, costs only.

use std::hint::black_box;

use dlsr_cluster::experiment::run_world;
use dlsr_cluster::sim::RankRun;
use dlsr_cluster::{
    edsr_measured_workload, train_real, RealTrainConfig, RealTrainResult, Scenario, SimTrainer,
};
use dlsr_data::{DataLoader, Div2kSynthetic, ShardSpec, SyntheticImageSpec};
use dlsr_horovod::{DistributedOptimizer, HorovodConfig};
use dlsr_models::{Edsr, EdsrConfig};
use dlsr_mpi::collectives::tasks::AllreduceElemsTask;
use dlsr_mpi::{Comm, MpiConfig, MpiWorld, RankProgram, Step, WireFormat, WorldResult};
use dlsr_net::ClusterTopology;
use dlsr_nn::metrics::psnr;
use dlsr_nn::module::{Module as _, ModuleExt as _};
use dlsr_nn::optim::Adam;
use dlsr_trace::TraceEvent;

use crate::clock::timed;

/// LR patch and steps of the training `train.psnr_db` is taken from: after
/// 48 steps the held-out PSNR is steady across seeds; after 16 it is not.
const QUALITY_PATCH: usize = 16;
const QUALITY_STEPS: usize = 48;
const HELD_OUT_IMAGES: usize = 8;
const HELD_OUT_SALT: u64 = 0x4845_4C44;
/// Steps of the single-rank baseline (its virtual step is exact after any
/// number of steps).
const BASELINE_STEPS: usize = 3;
/// Horovod's default fusion threshold: EDSR(B=4, F=64)'s 1.9 MB gradient
/// fuses into a single allreduce per step.
const FUSION_THRESHOLD: u64 = 64 << 20;

pub const SIM_BATCH: usize = 4;
const SIM_NODES: usize = 128;
const SIM_WARMUP: usize = 1;
pub const SIM_STEPS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    EdsrCompute,
    EdsrComm,
    Sim512,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::EdsrCompute, Workload::EdsrComm, Workload::Sim512];

    pub fn name(self) -> &'static str {
        match self {
            Workload::EdsrCompute => "edsr-compute",
            Workload::EdsrComm => "edsr-comm",
            Workload::Sim512 => "sim-512",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// What every same-seed attempt of a run must reproduce bit for bit.
#[derive(Debug, Clone, Copy)]
pub struct Repro {
    /// `train --digest`-style digest (real training only).
    pub digest: Option<u64>,
    /// Virtual seconds per step.
    pub virt_step_s: f64,
}

impl PartialEq for Repro {
    fn eq(&self, other: &Repro) -> bool {
        self.digest == other.digest && self.virt_step_s.to_bits() == other.virt_step_s.to_bits()
    }
}

/// What the measurement loop needs from a workload.
pub trait Subject {
    type Out;
    /// One set-up: world, model, data and plan construction. Seconds.
    fn setup_once(&self) -> f64;
    /// One measured attempt.
    fn attempt(&self) -> Self::Out;
    /// The output check of one attempt; on success, what the run's other
    /// attempts must reproduce.
    fn check(&self, out: &Self::Out) -> Result<Repro, String>;
    /// Ranks and steps of one attempt.
    fn world(&self) -> usize;
    fn steps(&self) -> usize;
    /// Images one attempt trains on, over all ranks.
    fn images(&self) -> usize;
}

/// EDSR(B=4, F=64, ×2): 483,587 parameters.
pub fn edsr_model() -> EdsrConfig {
    EdsrConfig {
        n_resblocks: 4,
        n_feats: 64,
        ..EdsrConfig::paper()
    }
}

fn topology(nodes: usize, gpus_per_node: usize) -> ClusterTopology {
    ClusterTopology {
        name: format!("bench-{nodes}x{gpus_per_node}"),
        nodes,
        gpus_per_node,
    }
}

/// MPI-Opt with the event core's worker pool capped at the host's cores.
fn mpi_opt(world: usize, nproc: usize) -> MpiConfig {
    Scenario::MpiOpt
        .mpi_config()
        .to_builder()
        .sim_workers(nproc.min(world).max(1))
        .build()
}

fn train_config(lr_patch: usize, steps: usize, seed: u64) -> RealTrainConfig {
    RealTrainConfig::builder()
        .model(edsr_model())
        .lr_patch(lr_patch)
        .global_batch(4)
        .steps(steps)
        .seed(seed)
        .overlap(true)
        .fusion_threshold(FUSION_THRESHOLD)
        .build()
}

/// A real-training workload: `train_real` on a small simulated cluster.
pub struct RealSpec {
    pub topo: ClusterTopology,
    pub mpi: MpiConfig,
    pub cfg: RealTrainConfig,
}

impl RealSpec {
    /// `edsr-compute`: 1 node × 2 ranks, LR patch 16, f32 wire. GEMM,
    /// im2col and nn do most of the work.
    pub fn edsr_compute(seed: u64, nproc: usize) -> RealSpec {
        let topo = topology(1, 2);
        let mpi = mpi_opt(topo.total_gpus(), nproc)
            .to_builder()
            .wire(WireFormat::F32)
            .build();
        RealSpec {
            topo,
            mpi,
            cfg: train_config(16, 16, seed),
        }
    }

    /// `edsr-comm`: 2 nodes × 2 ranks, LR patch 2, bf16 wire on every
    /// size, hierarchical allreduce. Per-parameter work (Adam, fusion,
    /// reduction, wire encode/decode, executor hand-offs) bounds the step.
    pub fn edsr_comm(seed: u64, nproc: usize) -> RealSpec {
        let topo = topology(2, 2);
        let mpi = mpi_opt(topo.total_gpus(), nproc)
            .to_builder()
            .wire(WireFormat::Bf16)
            .wire_threshold(0)
            .hierarchical(true)
            .build();
        RealSpec {
            topo,
            mpi,
            cfg: train_config(2, 24, seed),
        }
    }

    /// The same training on one rank for a few steps: the scaling
    /// baseline.
    pub fn single_rank(&self) -> RealSpec {
        RealSpec {
            topo: topology(1, 1),
            mpi: self.mpi.clone().to_builder().sim_workers(1).build(),
            cfg: self.cfg.clone().to_builder().steps(BASELINE_STEPS).build(),
        }
    }

    /// Training at LR patch 16 for 48 steps through this workload's world
    /// and wire: the run `train.psnr_db` is taken from.
    pub fn quality(&self) -> RealSpec {
        RealSpec {
            topo: self.topo.clone(),
            mpi: self.mpi.clone(),
            cfg: train_config(QUALITY_PATCH, QUALITY_STEPS, self.cfg.seed),
        }
    }

    pub fn train(&self) -> RealTrainResult {
        train_real(&self.topo, self.mpi.clone(), &self.cfg)
    }

    /// The image geometry `train_real` generates for this patch.
    pub fn image_spec(&self) -> SyntheticImageSpec {
        let extent = (self.cfg.lr_patch * self.cfg.model.scale * 2).max(32);
        SyntheticImageSpec {
            height: extent,
            width: extent,
            ..Default::default()
        }
    }

    /// Rank 0's data loader over this workload's synthetic images.
    pub fn rank0_loader(&self) -> DataLoader {
        let scale = self.cfg.model.scale;
        let data = Div2kSynthetic::new(self.image_spec(), self.cfg.n_images, scale, self.cfg.seed);
        DataLoader::new(
            data,
            self.cfg.lr_patch,
            self.cfg.global_batch,
            ShardSpec {
                rank: 0,
                world: self.world(),
            },
        )
    }

    pub fn horovod(&self) -> HorovodConfig {
        HorovodConfig::builder()
            .fusion_threshold(self.cfg.fusion_threshold)
            .cycle_time(self.cfg.cycle_time)
            .build()
    }

    /// Mean PSNR of the trained parameters over `HELD_OUT_IMAGES` held-out
    /// images generated from the seed (none of them trained on). One image
    /// alone spreads too much across seeds to gate on.
    pub fn held_out_psnr(&self, res: &RealTrainResult) -> f64 {
        let scale = self.cfg.model.scale;
        let mut model = Edsr::new(self.cfg.model, 0);
        model.load_flat_params(&res.final_params);
        let mut images = Div2kSynthetic::new(
            self.image_spec(),
            HELD_OUT_IMAGES,
            scale,
            self.cfg.seed ^ HELD_OUT_SALT,
        );
        let total: f64 = (0..HELD_OUT_IMAGES)
            .map(|i| {
                let (hr, lr) = images.image(i);
                let sr = model.predict(lr).expect("predict");
                f64::from(psnr(&sr, hr, 1.0).expect("psnr"))
            })
            .sum();
        total / HELD_OUT_IMAGES as f64
    }
}

impl Subject for RealSpec {
    type Out = RealTrainResult;

    /// The world, rank 0's model, data (through the first batch) and
    /// fusion plan.
    fn setup_once(&self) -> f64 {
        let world = self.world();
        let (_, secs) = timed(|| {
            let ranks = MpiWorld::run(&self.topo, self.mpi.clone(), |c| c.rank());
            let mut model = Edsr::new(self.cfg.model, self.cfg.seed);
            let mut loader = self.rank0_loader();
            let batch = loader.batch(0, 0);
            let opt = DistributedOptimizer::new(
                Adam::new(self.cfg.lr / world as f32),
                &mut model,
                self.horovod(),
                world,
            );
            black_box((ranks.ranks.len(), batch, opt.fusion_groups().len()));
        });
        secs
    }

    fn attempt(&self) -> RealTrainResult {
        self.train()
    }

    /// Finite losses whose last quarter averages below their first.
    fn check(&self, res: &RealTrainResult) -> Result<Repro, String> {
        check_finite(res)?;
        let quarter = (res.losses.len() / 4).max(1);
        let mean = |l: &[f32]| l.iter().sum::<f32>() / l.len() as f32;
        let first = mean(&res.losses[..quarter]);
        let last = mean(&res.losses[res.losses.len() - quarter..]);
        if last >= first {
            return Err(format!("loss did not fall: {first} -> {last}"));
        }
        Ok(Repro {
            digest: Some(digest(res)),
            virt_step_s: res.makespan / self.cfg.steps as f64,
        })
    }

    fn world(&self) -> usize {
        self.topo.total_gpus()
    }

    fn steps(&self) -> usize {
        self.cfg.steps
    }

    fn images(&self) -> usize {
        self.cfg.global_batch * self.cfg.steps
    }
}

/// The check of a run too short to require learning (the single-rank
/// baseline): losses recorded and finite.
pub fn check_finite(res: &RealTrainResult) -> Result<(), String> {
    if res.losses.is_empty() || !res.losses.iter().all(|l| l.is_finite()) {
        return Err(format!("missing or non-finite losses: {:?}", res.losses));
    }
    Ok(())
}

/// `train --digest`-style FNV-1a over the exact bits of the per-step
/// losses and final parameters.
pub fn digest(res: &RealTrainResult) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bits: u32| {
        for b in bits.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    for l in &res.losses {
        eat(l.to_bits());
    }
    for p in &res.final_params {
        eat(p.to_bits());
    }
    h
}

/// `sim-512`: costs-only paper-scale EDSR (batch 4 per GPU) on Lassen
/// 128 nodes × 4 GPUs, on the driven engine.
pub struct SimSpec {
    pub topo: ClusterTopology,
    pub mpi: MpiConfig,
    pub trainer: SimTrainer,
    pub seed: u64,
    nproc: usize,
}

impl SimSpec {
    /// Describe the world and plan the run.
    pub fn new(seed: u64, nproc: usize) -> SimSpec {
        let topo = ClusterTopology::lassen(SIM_NODES);
        let (w, tensors) = edsr_measured_workload();
        let trainer = SimTrainer::new(w, tensors, SIM_BATCH, Scenario::MpiOpt, &topo, seed)
            .expect("batch 4 fits a V100")
            .with_artifacts(false);
        SimSpec {
            mpi: mpi_opt(topo.total_gpus(), nproc),
            topo,
            trainer,
            seed,
            nproc,
        }
    }

    /// The single-rank (comm-free) virtual step: the efficiency baseline.
    pub fn single_rank_step_s(&self) -> f64 {
        dlsr_cluster::simscale::single_rank_step_s(
            Scenario::MpiOpt,
            SIM_BATCH,
            SIM_WARMUP,
            SIM_STEPS,
            self.seed,
        )
    }
}

impl Subject for SimSpec {
    type Out = WorldResult<RankRun>;

    /// Plan the run and construct the 512-rank world.
    fn setup_once(&self) -> f64 {
        let (_, secs) = timed(|| {
            let spec = SimSpec::new(self.seed, self.nproc);
            let world = MpiWorld::run_driven(&spec.topo, spec.mpi.clone(), |_| Idle);
            black_box((spec.trainer.plan().len(), world.ranks.len()));
        });
        secs
    }

    fn attempt(&self) -> WorldResult<RankRun> {
        run_world(
            &self.topo,
            self.mpi.clone(),
            &self.trainer,
            SIM_WARMUP,
            SIM_STEPS,
        )
    }

    /// A positive finite virtual step.
    fn check(&self, res: &Self::Out) -> Result<Repro, String> {
        let step = sim_virtual_step_s(res);
        if !step.is_finite() || step <= 0.0 {
            return Err(format!("bad virtual step {step}"));
        }
        Ok(Repro {
            digest: None,
            virt_step_s: step,
        })
    }

    fn world(&self) -> usize {
        self.topo.total_gpus()
    }

    /// Steps one attempt executes, warm-up included.
    fn steps(&self) -> usize {
        SIM_WARMUP + SIM_STEPS
    }

    fn images(&self) -> usize {
        self.world() * SIM_BATCH * self.steps()
    }
}

/// Virtual seconds per measured step of a simulated run.
pub fn sim_virtual_step_s(res: &WorldResult<RankRun>) -> f64 {
    let warm_end = res.ranks.iter().map(|r| r.warm_end).fold(0.0, f64::max);
    let end = res.ranks.iter().map(|r| r.end).fold(0.0, f64::max);
    (end - warm_end) / SIM_STEPS as f64
}

/// A rank program that finishes at once: constructing and tearing down
/// a world with it isolates the world's own set-up cost.
struct Idle;

impl RankProgram for Idle {
    type Out = ();

    fn next(&mut self, _comm: &mut Comm) -> Step {
        Step::Done
    }

    fn finish(&mut self, _comm: &mut Comm, _trace: Vec<TraceEvent>) {}
}

/// A collective-only rank program: every round reduces each fusion group
/// of `sim-512`'s plan through the size-only task machines, with the
/// algorithm the simulator uses. It exercises the executor without
/// compute or negotiation.
pub struct CollectiveOnly {
    groups: Vec<usize>,
    rounds: usize,
    next: usize,
}

impl CollectiveOnly {
    pub fn new(spec: &SimSpec, rounds: usize) -> CollectiveOnly {
        CollectiveOnly {
            groups: spec.trainer.plan().iter().map(|g| g.group.elems).collect(),
            rounds,
            next: 0,
        }
    }
}

impl RankProgram for CollectiveOnly {
    type Out = ();

    fn next(&mut self, comm: &mut Comm) -> Step {
        if self.next == self.groups.len() * self.rounds {
            return Step::Done;
        }
        let gi = self.next % self.groups.len();
        let algo = comm.config().allreduce;
        self.next += 1;
        Step::Task(AllreduceElemsTask::new(self.groups[gi], 0x4245_0000 + gi as u64, algo).into())
    }

    fn finish(&mut self, _comm: &mut Comm, _trace: Vec<TraceEvent>) {}
}

/// Peak resident set size of this process so far, MiB (Linux `VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
