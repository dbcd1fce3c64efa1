//! Simulator-scaling benchmark: how fast (host wall-clock) the driven
//! engine pushes the paper-scale costs-only workload through 64–4096
//! virtual ranks, behind `dlsr simscale`.
//!
//! Two families of numbers live in a [`SimScaleReport`], with different
//! portability:
//!
//! - **virtual** quantities (`virtual_step_s`, `efficiency`) are on the
//!   simulated clock. They are bitwise machine-independent, so a committed
//!   report is a CI regression baseline for them ([`gate`]).
//! - **wall** quantities (`wall_s`, `rank_steps_per_s`) measure the
//!   simulator itself on the host that ran it. They are never gated
//!   against a committed file; `dlsr simscale --check` asserts the
//!   absolute criterion (512-rank step under a wall bound) on the machine
//!   at hand.

use std::time::Instant;

use dlsr_attr as dlsr;
use dlsr_net::ClusterTopology;
use serde::{Deserialize, Serialize};

use crate::experiment::run_world;
use crate::scenario::Scenario;
use crate::sim::SimTrainer;
use crate::workload::edsr_measured_workload;

/// Default node sweep: 64 → 512 ranks on 4-GPU Lassen nodes (Figs 12/13).
pub const DEFAULT_NODES: [usize; 4] = [16, 32, 64, 128];

/// One measured world size.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimScalePoint {
    /// Total ranks (nodes × 4).
    pub world: usize,
    pub nodes: usize,
    /// Mean virtual step time over the measured window, seconds
    /// (machine-independent; identical on both cores by the equivalence
    /// suite).
    pub virtual_step_s: f64,
    /// Weak-scaling efficiency vs. the single-rank virtual step time.
    pub efficiency: f64,
    /// Host wall-clock of the whole run, seconds (machine-dependent).
    pub wall_s: f64,
    /// Simulator throughput: `world × (warmup + steps) / wall_s`.
    pub rank_steps_per_s: f64,
}

/// Everything `dlsr simscale` writes to `results/BENCH_simscale.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimScaleReport {
    pub scenario: String,
    pub batch: usize,
    pub warmup: usize,
    pub steps: usize,
    /// The driven engine across the node sweep.
    pub event: Vec<SimScalePoint>,
    /// Large-world smoke point (4096 ranks), when requested.
    #[serde(default)]
    pub smoke: Option<SimScalePoint>,
}

impl SimScaleReport {
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("SimScaleReport serializes")
    }

    pub fn from_json(s: &str) -> Result<Self, String> {
        serde_json::from_str(s).map_err(|e| format!("bad simscale JSON: {e:?}"))
    }
}

/// Run the paper-scale EDSR workload on `nodes` Lassen nodes and measure
/// it. `t1_step` is the single-rank virtual step time
/// (from [`single_rank_step_s`]) the efficiency is normalized against.
/// The wall measurement is best-of-`repeats` (virtual quantities are
/// bitwise identical across repeats, so only the wall numbers differ):
/// single-shot walls on a busy host are dominated by scheduler noise.
#[allow(clippy::too_many_arguments)]
pub fn measure_point(
    nodes: usize,
    sc: Scenario,
    batch: usize,
    warmup: usize,
    steps: usize,
    seed: u64,
    t1_step: f64,
    repeats: usize,
) -> SimScalePoint {
    let (topo, trainer) = setup(nodes, sc, batch, seed);
    let (wall_s, res) = time_world(&topo, &trainer, sc, warmup, steps, repeats);
    point_from(&topo, nodes, &res, wall_s, warmup, steps, t1_step)
}

/// Build the Lassen-shaped world and the artifacts-off trainer every
/// simscale measurement runs.
fn setup(nodes: usize, sc: Scenario, batch: usize, seed: u64) -> (ClusterTopology, SimTrainer) {
    let (w, tensors) = edsr_measured_workload();
    // Lassen-shaped nodes (4 V100s, NVLink + IB EDR); worlds beyond the
    // real machine's 792 nodes (the 4096-rank smoke) keep the same shape.
    let topo = if nodes <= 792 {
        ClusterTopology::lassen(nodes)
    } else {
        ClusterTopology {
            name: format!("lassen-xl-{nodes}"),
            nodes,
            gpus_per_node: 4,
        }
    };
    // Artifacts off: per-step profile/timeline strings are O(world × steps)
    // allocator traffic that would distort — and at 4096 ranks dominate —
    // what this benchmark measures. Virtual clocks are unaffected.
    let trainer = SimTrainer::new(w, tensors, batch, sc, &topo, seed)
        .expect("per-GPU batch must fit")
        .with_artifacts(false);
    (topo, trainer)
}

/// Best-of-`repeats` wall (virtual quantities are bitwise identical
/// across repeats, so only the wall differs). Wall-domain
/// boundary: simscale's product IS host wall time — it benchmarks the
/// simulator itself and never feeds rank-visible state.
#[dlsr::wall]
fn time_world(
    topo: &ClusterTopology,
    trainer: &SimTrainer,
    sc: Scenario,
    warmup: usize,
    steps: usize,
    repeats: usize,
) -> (f64, dlsr_mpi::WorldResult<crate::sim::RankRun>) {
    let cfg = sc.mpi_config();
    let mut wall_s = f64::INFINITY;
    let mut res = None;
    for _ in 0..repeats.max(1) {
        let start = Instant::now();
        let r = run_world(topo, cfg.clone(), trainer, warmup, steps);
        wall_s = wall_s.min(start.elapsed().as_secs_f64());
        res = Some(r);
    }
    (wall_s, res.expect("at least one repeat ran"))
}

fn point_from(
    topo: &ClusterTopology,
    nodes: usize,
    res: &dlsr_mpi::WorldResult<crate::sim::RankRun>,
    wall_s: f64,
    warmup: usize,
    steps: usize,
    t1_step: f64,
) -> SimScalePoint {
    let warm_end = res.ranks.iter().map(|r| r.warm_end).fold(0.0, f64::max);
    let end = res.ranks.iter().map(|r| r.end).fold(0.0, f64::max);
    let virtual_step_s = (end - warm_end) / steps.max(1) as f64;
    let world = topo.total_gpus();
    SimScalePoint {
        world,
        nodes,
        virtual_step_s,
        efficiency: if virtual_step_s > 0.0 {
            t1_step / virtual_step_s
        } else {
            0.0
        },
        wall_s,
        rank_steps_per_s: (world * (warmup + steps)) as f64 / wall_s.max(1e-9),
    }
}

/// The single-rank (comm-free) virtual step time: the weak-scaling
/// efficiency denominator.
pub fn single_rank_step_s(
    sc: Scenario,
    batch: usize,
    warmup: usize,
    steps: usize,
    seed: u64,
) -> f64 {
    let (w, tensors) = edsr_measured_workload();
    let topo = ClusterTopology {
        name: "simscale-1x1".into(),
        nodes: 1,
        gpus_per_node: 1,
    };
    let trainer =
        SimTrainer::new(w, tensors, batch, sc, &topo, seed).expect("single-GPU batch must fit");
    let res = run_world(&topo, sc.mpi_config(), &trainer, warmup, steps);
    let r = &res.ranks[0];
    (r.end - r.warm_end) / steps.max(1) as f64
}

/// Compare a fresh report against a committed baseline. Only the
/// machine-independent virtual quantities are gated, and only in the
/// *worse* direction: slower virtual steps or lower efficiency beyond
/// `tol_pct` percent trip; wall-clock never does.
pub fn gate(current: &SimScaleReport, baseline: &SimScaleReport, tol_pct: f64) -> Vec<String> {
    let tol = tol_pct / 100.0;
    let mut violations = Vec::new();
    for base in &baseline.event {
        let Some(cur) = current.event.iter().find(|p| p.world == base.world) else {
            violations.push(format!(
                "world {} present in the baseline but missing from the sweep",
                base.world
            ));
            continue;
        };
        if base.virtual_step_s > 0.0 && cur.virtual_step_s > base.virtual_step_s * (1.0 + tol) {
            violations.push(format!(
                "virtual step at {} ranks regressed: {:.3} ms vs baseline {:.3} ms (tol {tol_pct}%)",
                base.world,
                cur.virtual_step_s * 1e3,
                base.virtual_step_s * 1e3,
            ));
        }
        if base.efficiency > 0.0 && cur.efficiency < base.efficiency * (1.0 - tol) {
            violations.push(format!(
                "efficiency at {} ranks regressed: {:.1}% vs baseline {:.1}% (tol {tol_pct}%)",
                base.world,
                cur.efficiency * 100.0,
                base.efficiency * 100.0,
            ));
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_point(nodes: usize) -> SimScalePoint {
        let t1 = single_rank_step_s(Scenario::MpiOpt, 4, 1, 3, 7);
        measure_point(nodes, Scenario::MpiOpt, 4, 1, 3, 7, t1, 1)
    }

    #[test]
    fn cores_agree_on_virtual_time_bitwise() {
        // The headline simscale quantity must not depend on which core
        // produced it — same worlds, same virtual clocks, to the bit: the
        // driven engine (what `measure_point` runs) against the event
        // context core running the same trainer as rank closures.
        for nodes in [1, 2] {
            let driven = quick_point(nodes);
            let (topo, trainer) = setup(nodes, Scenario::MpiOpt, 4, 7);
            let res = dlsr_mpi::MpiWorld::run(&topo, Scenario::MpiOpt.mpi_config(), |c| {
                trainer.run(c, 1, 3)
            });
            let event = point_from(&topo, nodes, &res, 1.0, 1, 3, 1.0);
            assert_eq!(
                driven.virtual_step_s.to_bits(),
                event.virtual_step_s.to_bits(),
                "cores disagree at {nodes} nodes: {} vs {}",
                driven.virtual_step_s,
                event.virtual_step_s
            );
            assert!(
                driven.efficiency > 0.3 && driven.efficiency <= 1.001,
                "{driven:?}"
            );
        }
    }

    #[test]
    fn gate_trips_on_virtual_regressions_only() {
        let p = quick_point(1);
        let report = SimScaleReport {
            scenario: "MPI-Opt".into(),
            batch: 4,
            warmup: 1,
            steps: 3,
            event: vec![p.clone()],
            smoke: None,
        };
        assert!(gate(&report, &report, 10.0).is_empty());
        // Wall-clock differences never trip.
        let mut slow_wall = report.clone();
        slow_wall.event[0].wall_s *= 100.0;
        slow_wall.event[0].rank_steps_per_s /= 100.0;
        assert!(gate(&slow_wall, &report, 10.0).is_empty());
        // A slower virtual step does.
        let mut regressed = report.clone();
        regressed.event[0].virtual_step_s *= 1.5;
        let v = gate(&regressed, &report, 10.0);
        assert!(
            v.iter().any(|m| m.contains("virtual step")),
            "expected a virtual-step violation, got {v:?}"
        );
        // A missing world does.
        let empty = SimScaleReport {
            event: Vec::new(),
            ..report.clone()
        };
        assert!(!gate(&empty, &report, 10.0).is_empty());
        // JSON round-trip (the committed-baseline format).
        let back = SimScaleReport::from_json(&report.to_json()).unwrap();
        assert_eq!(back, report);
    }
}
