//! The cross-schedule contract of the event context core
//! (`docs/SIMCORE.md`): run tokens are a wall-time throttle, never a
//! correctness device, so a training run must be bitwise identical at any
//! worker count — same per-step losses, same final parameters, same
//! virtual makespan — at every world size, with and without communication
//! overlap, and under an injected fault plan. One worker serializes every
//! rank through a single token; eight let them all run at once. Any
//! divergence means scheduling order leaked into the simulated
//! quantities. (The driven engine has no real-training form; its
//! equivalence to this core is pinned by the dlsr-mpi task suite and the
//! simscale tests.)

use dlsr_cluster::{train_real, RealTrainConfig, RealTrainResult};
use dlsr_mpi::MpiConfig;
use dlsr_net::ClusterTopology;
use parking_lot::Mutex;

/// Serializes the tests in this binary: the trace collector is a process
/// global, so a traced run must not interleave with other runs.
static LOCK: Mutex<()> = Mutex::new(());

fn topo(gpus: usize) -> ClusterTopology {
    ClusterTopology {
        name: format!("eq{gpus}"),
        nodes: 1,
        gpus_per_node: gpus,
    }
}

fn with_workers(workers: usize) -> MpiConfig {
    MpiConfig::mpi_opt()
        .to_builder()
        .sim_workers(workers)
        .build()
}

/// Everything the schedules must agree on, as exact bit patterns.
fn bits(r: &RealTrainResult) -> (Vec<u32>, Vec<u32>, u64) {
    (
        r.losses.iter().map(|l| l.to_bits()).collect(),
        r.final_params.iter().map(|p| p.to_bits()).collect(),
        r.makespan.to_bits(),
    )
}

#[test]
fn worker_counts_agree_bitwise_across_world_sizes_and_overlap_modes() {
    let _g = LOCK.lock();
    for gpus in [1usize, 2, 4, 8] {
        let t = topo(gpus);
        for overlap in [true, false] {
            // global batch 8 divides every world size under test
            let cfg = RealTrainConfig::builder()
                .steps(6)
                .global_batch(8)
                .overlap(overlap)
                .build();
            let one = train_real(&t, with_workers(1), &cfg);
            let eight = train_real(&t, with_workers(8), &cfg);
            let mode = if overlap { "overlapped" } else { "sequential" };
            assert_eq!(
                bits(&one),
                bits(&eight),
                "{gpus} ranks, {mode}: 1 and 8 event-core workers diverged"
            );
        }
    }
}

/// Fault injection must not open a gap between schedules either: the
/// plan is applied by the shared communicator layer, beneath the executor.
#[cfg(feature = "faults")]
#[test]
fn worker_counts_agree_bitwise_under_an_injected_fault_plan() {
    use std::sync::Arc;

    use dlsr_faults::ChaosScenario;

    let _g = LOCK.lock();
    let t = topo(4);
    let cfg = RealTrainConfig::builder().steps(6).build();
    for scenario in [ChaosScenario::Lossy, ChaosScenario::DegradedLink] {
        let run = |workers: usize| {
            let mpi = with_workers(workers)
                .to_builder()
                .fault_plan(Some(Arc::new(scenario.plan(7, 4, 6))))
                .build();
            train_real(&t, mpi, &cfg)
        };
        assert_eq!(
            bits(&run(1)),
            bits(&run(8)),
            "{scenario:?}: 1 and 8 event-core workers diverged under faults"
        );
    }
}
