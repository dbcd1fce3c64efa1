//! Property-based tests for the MPI layer: collective correctness over
//! random worlds, buffer sizes and configurations.

use proptest::prelude::*;

use dlsr_mpi::collectives::{
    allgather, barrier, bcast, Allreduce, AllreduceAlgorithm, ReduceOp, WireFormat,
};
use dlsr_mpi::{MpiConfig, MpiWorld, Payload};
use dlsr_net::ClusterTopology;

/// Hierarchical `mpi_opt` that pipelines from 1 MiB in 1 MiB sub-chunks,
/// so buffers of a few MB already take the pipelined leader ring in
/// several sub-chunks.
fn hier_1mib() -> MpiConfig {
    MpiConfig::mpi_opt()
        .to_builder()
        .hierarchical(true)
        .pipeline_chunk(1 << 20)
        .pipeline_threshold(1 << 20)
        .build()
}

/// Per-rank end clocks (as bits) of one real allreduce and of its
/// size-only instance under the same world and config.
fn real_and_size_only_clock_bits(
    t: &ClusterTopology,
    cfg: MpiConfig,
    elems: usize,
    algo: AllreduceAlgorithm,
    wf: WireFormat,
) -> (Vec<u64>, Vec<u64>) {
    let real = MpiWorld::run(t, cfg.clone(), move |c| {
        let mut buf: Vec<f32> = (0..elems).map(|i| (i % 97) as f32 * 0.3 - 11.0).collect();
        Allreduce::new(&mut buf)
            .buf_id(1)
            .algo(algo)
            .wire(wf)
            .run(c);
        c.now()
    });
    let synth = MpiWorld::run(t, cfg, move |c| {
        dlsr_mpi::collectives::synthetic::allreduce_elems_wire(c, elems, 1, algo, wf);
        c.now()
    });
    let bits = |clocks: &[f64]| clocks.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
    (bits(&real.clocks), bits(&synth.clocks))
}

/// Size-only collectives cost exactly what the real ones cost, to the
/// bit, for every algorithm × wire format × {`default_mpi`, `mpi_opt`,
/// hierarchical 1 MiB pipelining} on two Lassen nodes, at 1.2 MB (above
/// the hierarchical config's pipelining threshold). The 20 MB cells
/// sit above the transport's 16 MB IPC threshold while every pipelined
/// sub-chunk sits below it, so they check that sub-chunks take the path
/// of the parent buffer (NVLink under `mpi_opt`, host staging under
/// `default_mpi`) on both instances.
#[test]
fn synthetic_equals_real_time_matrix() {
    let t = ClusterTopology::lassen(2);
    let configs = [
        ("default_mpi", MpiConfig::default_mpi()),
        ("mpi_opt", MpiConfig::mpi_opt()),
        ("hier_1mib", hier_1mib()),
    ];
    let mut cells = Vec::new();
    for algo in AllreduceAlgorithm::ALL {
        for wf in WireFormat::ALL {
            for (name, cfg) in &configs {
                cells.push((algo, wf, *name, cfg.clone(), 300_000));
            }
        }
    }
    for algo in [
        AllreduceAlgorithm::PipelinedRing,
        AllreduceAlgorithm::TwoLevel,
    ] {
        for (name, cfg) in &configs {
            let chunked = cfg.clone().to_builder().pipeline_chunk(1 << 20).build();
            cells.push((algo, WireFormat::F32, *name, chunked, 5_000_000));
        }
    }
    for (algo, wf, name, cfg, elems) in cells {
        let (real, synth) = real_and_size_only_clock_bits(&t, cfg, elems, algo, wf);
        assert_eq!(real, synth, "{algo:?} {wf} {name} elems={elems}");
    }
}

fn topo(nodes: usize, gpn: usize) -> ClusterTopology {
    ClusterTopology {
        name: format!("t{nodes}x{gpn}"),
        nodes,
        gpus_per_node: gpn,
    }
}

proptest! {
    // world launches are threads; keep case counts moderate
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Allreduce equals the sequential sum for every algorithm, any world
    /// shape and any (small) buffer length — including lengths smaller
    /// than, equal to, and larger than the world.
    #[test]
    fn allreduce_equals_sequential_sum(
        nodes in 1usize..4,
        gpn in 1usize..5,
        len in 0usize..70,
        algo_idx in 0usize..3,
        opt in proptest::bool::ANY,
    ) {
        let algo = [
            AllreduceAlgorithm::Ring,
            AllreduceAlgorithm::RecursiveDoubling,
            AllreduceAlgorithm::TwoLevel,
        ][algo_idx];
        let t = topo(nodes, gpn);
        let p = t.total_gpus();
        let cfg = if opt { MpiConfig::mpi_opt() } else { MpiConfig::default_mpi() };
        let res = MpiWorld::run(&t, cfg, move |c| {
            let mut buf: Vec<f32> =
                (0..len).map(|i| ((c.rank() * 13 + i * 7) % 23) as f32).collect();
            Allreduce::new(&mut buf).buf_id(1).algo(algo).run(c);
            buf
        });
        let want: Vec<f32> = (0..len)
            .map(|i| (0..p).map(|r| ((r * 13 + i * 7) % 23) as f32).sum())
            .collect();
        for (rank, got) in res.ranks.iter().enumerate() {
            prop_assert_eq!(got, &want, "algo {:?} rank {} world {}x{}", algo, rank, nodes, gpn);
        }
    }

    /// Bcast delivers the root's exact buffer to every rank, for any root.
    #[test]
    fn bcast_delivers_everywhere(
        nodes in 1usize..3,
        gpn in 1usize..5,
        len in 1usize..40,
        root_pick in 0usize..64,
    ) {
        let t = topo(nodes, gpn);
        let root = root_pick % t.total_gpus();
        let res = MpiWorld::run(&t, MpiConfig::mpi_opt(), move |c| {
            let mut buf = if c.rank() == root {
                (0..len).map(|i| (i * i) as f32).collect()
            } else {
                vec![-1.0; len]
            };
            bcast(c, &mut buf, root, 1);
            buf
        });
        let want: Vec<f32> = (0..len).map(|i| (i * i) as f32).collect();
        for got in &res.ranks {
            prop_assert_eq!(got, &want);
        }
    }

    /// Allgather returns every rank's contribution, in rank order, even
    /// with heterogeneous lengths.
    #[test]
    fn allgather_collects_in_order(nodes in 1usize..3, gpn in 1usize..4) {
        let t = topo(nodes, gpn);
        let res = MpiWorld::run(&t, MpiConfig::default_mpi(), |c| {
            let mine = vec![c.rank() as f32; (c.rank() % 3) + 1];
            allgather(c, mine, 1)
        });
        for gathered in &res.ranks {
            for (src, block) in gathered.iter().enumerate() {
                prop_assert_eq!(block.len(), (src % 3) + 1);
                prop_assert!(block.iter().all(|&v| v == src as f32));
            }
        }
    }

    /// Clocks never decrease across a sequence of collectives, and a
    /// barrier bounds every rank's clock from below by every other rank's
    /// pre-barrier time.
    #[test]
    fn clocks_are_monotone_and_barrier_synchronizes(
        gpn in 2usize..5,
        work_rank_pick in 0usize..8,
        work_ms in 1u32..50,
    ) {
        let t = topo(1, gpn);
        let slow = work_rank_pick % gpn;
        let work = work_ms as f64 * 1e-3;
        let res = MpiWorld::run(&t, MpiConfig::default_mpi(), move |c| {
            let t0 = c.now();
            if c.rank() == slow {
                c.advance(work);
            }
            barrier(c);
            let t1 = c.now();
            let mut buf = vec![1.0f32; 64];
            Allreduce::new(&mut buf).buf_id(1).algo(AllreduceAlgorithm::Ring).run(c);
            let t2 = c.now();
            (t0, t1, t2)
        });
        for &(t0, t1, t2) in &res.ranks {
            prop_assert!(t0 <= t1 && t1 <= t2);
            prop_assert!(t1 >= work, "barrier must wait for the slow rank");
        }
    }

    /// Size-only collectives cost exactly what the real ones cost, to the
    /// bit, over random buffer sizes and world shapes (the fixed
    /// algorithm × wire × config matrix is `synthetic_equals_real_time_matrix`).
    #[test]
    fn synthetic_equals_real_time(
        nodes in 1usize..3,
        elems in 1usize..1_500_000,
        algo_idx in 0usize..4,
        wire_idx in 0usize..4,
        hier in proptest::bool::ANY,
    ) {
        let algo = AllreduceAlgorithm::ALL[algo_idx];
        let wf = WireFormat::ALL[wire_idx];
        let cfg = if hier { hier_1mib() } else { MpiConfig::mpi_opt() };
        let (real, synth) = real_and_size_only_clock_bits(&topo(nodes, 4), cfg, elems, algo, wf);
        prop_assert_eq!(real, synth, "{:?} {} hier={} elems={}", algo, wf, hier, elems);
    }

    /// Max/Min allreduce compute the true elementwise extremum across
    /// ranks for every algorithm.
    #[test]
    fn allreduce_extrema_ops(
        nodes in 1usize..3,
        len in 1usize..40,
        algo_idx in 0usize..3,
        use_max in proptest::bool::ANY,
    ) {
        let algo = [
            AllreduceAlgorithm::Ring,
            AllreduceAlgorithm::RecursiveDoubling,
            AllreduceAlgorithm::TwoLevel,
        ][algo_idx];
        let op = if use_max { ReduceOp::Max } else { ReduceOp::Min };
        let t = topo(nodes, 4);
        let p = t.total_gpus();
        let res = MpiWorld::run(&t, MpiConfig::mpi_opt(), move |c| {
            let mut buf: Vec<f32> =
                (0..len).map(|i| ((c.rank() * 31 + i * 11) % 29) as f32 - 14.0).collect();
            Allreduce::new(&mut buf).buf_id(1).algo(algo).op(op).run(c);
            buf
        });
        let want: Vec<f32> = (0..len)
            .map(|i| {
                let vals = (0..p).map(|r| ((r * 31 + i * 11) % 29) as f32 - 14.0);
                if use_max {
                    vals.fold(f32::NEG_INFINITY, f32::max)
                } else {
                    vals.fold(f32::INFINITY, f32::min)
                }
            })
            .collect();
        for got in &res.ranks {
            prop_assert_eq!(got, &want);
        }
    }

    /// Point-to-point messages preserve payloads exactly.
    #[test]
    fn p2p_payload_integrity(data in proptest::collection::vec(-1e6f32..1e6, 0..64)) {
        let t = topo(1, 2);
        let expected = data.clone();
        let res = MpiWorld::run(&t, MpiConfig::default_mpi(), move |c| {
            if c.rank() == 0 {
                c.send(1, 5, Payload::F32(data.clone()), 1);
                Vec::new()
            } else {
                c.recv(0, 5, 2).into_f32()
            }
        });
        prop_assert_eq!(&res.ranks[1], &expected);
    }
}
