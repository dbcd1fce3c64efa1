//! Size-only (costs-only) collectives for the scaling harnesses.
//!
//! There is no separate schedule here: these entry points drive the
//! size-only instance of the one payload-generic state machine per
//! algorithm in [`super::tasks`], the same machines the real collectives
//! run. Payloads carry only a byte count — the encoded size
//! the real payload would have — so the scaling harnesses (512 simulated
//! ranks × tens of MB of gradients) get the real collectives' virtual
//! times without moving buffers through host memory.

use crate::comm::Comm;
use crate::executor::drive_task;
use crate::message::Payload;

use super::tasks::AllreduceElemsTask;
use super::wire::WireFormat;
use super::AllreduceAlgorithm;

/// A size-only payload sized as `elems` f32 values would be after wire
/// encoding — encode/decode cost nothing on the virtual clock, so the
/// encoded byte count is all a size-only schedule needs to time exactly
/// like the real one.
pub(crate) fn synth_wire(elems: usize, wf: WireFormat) -> Payload {
    Payload::Synthetic {
        bytes: wf.wire_bytes(elems),
    }
}

/// Size-only sum-allreduce of `elems` f32 elements.
pub fn allreduce_elems(comm: &mut Comm, elems: usize, buf_id: u64, algo: AllreduceAlgorithm) {
    allreduce_elems_wire(comm, elems, buf_id, algo, WireFormat::F32);
}

/// [`allreduce_elems`] with an explicit wire format: same schedule and
/// reduce charges as the real compressed collective, encoded payload
/// sizes on the wire.
pub fn allreduce_elems_wire(
    comm: &mut Comm,
    elems: usize,
    buf_id: u64,
    algo: AllreduceAlgorithm,
    wf: WireFormat,
) {
    drive_task(
        comm,
        &mut AllreduceElemsTask::new_wire(elems, buf_id, algo, wf),
    );
}

#[cfg(test)]
mod tests {
    use crate::config::MpiConfig;
    use crate::world::MpiWorld;
    use dlsr_net::ClusterTopology;

    use super::*;

    #[test]
    fn scales_to_512_synthetic_ranks() {
        // The reason this module exists: a 512-rank allreduce of a 10 MB
        // gradient runs in milliseconds of wall time and bytes of memory.
        let topo = ClusterTopology::lassen(128);
        let res = MpiWorld::run(&topo, MpiConfig::mpi_opt(), |c| {
            allreduce_elems(c, 2_500_000, 1, AllreduceAlgorithm::TwoLevel);
            c.now()
        });
        assert_eq!(res.ranks.len(), 512);
        assert!(res.makespan() > 0.0);
    }
}
