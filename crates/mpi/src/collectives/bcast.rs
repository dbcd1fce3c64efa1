//! Binomial-tree broadcast — `MPI_Bcast`, which Horovod uses to distribute
//! the initial model parameters (§III-A step 2).

use crate::comm::Comm;
use crate::executor::drive_task;

use super::tasks::BcastTask;

/// Broadcast `buf` from `root` to every rank (binomial tree, the MPICH
/// algorithm). Non-root buffers are replaced wholesale by the root's. The
/// schedule is the binomial state machine in [`super::tasks`], driven in
/// place.
pub fn bcast(comm: &mut Comm, buf: &mut Vec<f32>, root: usize, buf_id: u64) {
    drive_task(comm, &mut BcastTask::new(buf, root, buf_id));
}

#[cfg(test)]
mod tests {
    use crate::config::MpiConfig;
    use crate::world::MpiWorld;
    use dlsr_net::ClusterTopology;

    use super::*;

    #[test]
    fn all_ranks_receive_roots_buffer() {
        for nodes in [1usize, 2] {
            for root in [0usize, 2] {
                let topo = ClusterTopology::lassen(nodes);
                let res = MpiWorld::run(&topo, MpiConfig::mpi_opt(), move |c| {
                    let mut buf = if c.rank() == root {
                        vec![3.0, 1.0, 4.0, 1.0, 5.0]
                    } else {
                        vec![0.0; 5]
                    };
                    bcast(c, &mut buf, root, 1);
                    buf
                });
                for (r, buf) in res.ranks.iter().enumerate() {
                    assert_eq!(buf, &[3.0, 1.0, 4.0, 1.0, 5.0], "rank {r} root {root}");
                }
            }
        }
    }

    #[test]
    fn bcast_time_grows_logarithmically() {
        // Binomial tree: quadrupling the world should add ~2 more hops, not
        // 4× the time. Measure the *second* bcast so one-time registration
        // (pinning) costs don't pollute the comparison.
        let steady_time = |nodes: usize| {
            let topo = ClusterTopology::lassen(nodes);
            let res = MpiWorld::run(&topo, MpiConfig::mpi_opt(), |c| {
                let mut buf = vec![1.0f32; 1 << 20];
                bcast(c, &mut buf, 0, 1);
                let warm = c.now();
                bcast(c, &mut buf, 0, 1);
                c.now() - warm
            });
            res.ranks.iter().copied().fold(0.0, f64::max)
        };
        let t4 = steady_time(1);
        let t16 = steady_time(4);
        assert!(t16 > t4, "more hops must cost more: t4={t4} t16={t16}");
        assert!(t16 < t4 * 4.0, "t4={t4} t16={t16}");
    }
}
