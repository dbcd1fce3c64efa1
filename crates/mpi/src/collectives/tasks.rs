//! The collective schedules, each written once as a resumable
//! [`EventTask`] state machine that is generic over its payload.
//!
//! A schedule — peers, tags, message sizes, reduce-kernel charges, trace
//! spans and counters — does not depend on whether real numbers travel.
//! What does is abstracted by the `Data` trait, with two impls:
//!
//! - `RealData`: a `&mut Vec<f32>` whose blocks are wire-encoded,
//!   decoded, combined with a [`ReduceOp`] and re-quantized. This is what
//!   [`super::Allreduce::run`] and [`super::bcast`] run, via
//!   [`drive_task`].
//! - `SizeOnly`: an element count. Payloads are
//!   [`Payload::Synthetic`] sized as the encoded data would be, so the
//!   scaling harnesses (512 ranks × tens of MB of gradients) get the same
//!   virtual times without holding any buffers. [`AllreduceElemsTask`] is
//!   this instance.
//!
//! The machines are monomorphized per payload, so the size-only `poll`
//! carries no branch on payload kind. Because sizes come from
//! [`WireFormat::wire_bytes`], which equals the encoded payload's
//! `size_bytes()` for every format, both instances charge identical
//! virtual time (asserted bitwise in `tests/properties.rs`).
//!
//! On the driven engine a blocked receive returns [`Poll::Pending`]
//! instead of parking an OS thread; on the event context core
//! [`drive_task`] blocks in place. The re-poll contract: every `poll`
//! records all side effects (sends posted, reduce charges, data updates)
//! in task state *before* returning `Pending`, so resuming retries only
//! the blocked [`Comm::try_recv_buffered`] and never replays a send.

use std::ops::Range;

use crate::comm::Comm;
use crate::executor::{drive_task, EventTask, Poll};
use crate::message::Payload;

use super::synthetic::synth_wire;
use super::wire::{self, WireFormat};
use super::{chunk_range, coll_tag, AllreduceAlgorithm, ReduceOp};

/// What a schedule carries. Each method is the payload side of one
/// schedule step; implementations never touch the communicator.
pub(crate) trait Data {
    /// Dense element count.
    fn elems(&self) -> usize;
    /// The wire payload for elements `r`, encoded as `wf`.
    fn encode(&self, r: Range<usize>, wf: WireFormat) -> Payload;
    /// Decode `incoming` and combine it into elements `r` with `op`.
    fn reduce(&mut self, r: Range<usize>, incoming: Payload, op: ReduceOp);
    /// Decode `incoming` over elements `r`.
    fn store(&mut self, r: Range<usize>, incoming: Payload);
    /// Replace the whole buffer with `incoming` (a bcast receiver's
    /// pre-call length may differ from the root's).
    fn replace(&mut self, incoming: Payload);
    /// Round elements `r` to `wf`'s precision (a re-quantization point).
    fn quantize(&mut self, r: Range<usize>, wf: WireFormat);
    /// Top-k: keep the sparse set that originated at rank `src`, and hand
    /// it back for forwarding.
    fn keep_set(&mut self, src: usize, set: Payload) -> Payload;
    /// Top-k: overwrite the buffer with every kept set applied densely in
    /// rank order.
    fn apply_sets(&mut self);
}

/// Real `f32` data: the payload of [`super::Allreduce::run`] and
/// [`super::bcast`].
pub(crate) struct RealData<'a> {
    buf: &'a mut Vec<f32>,
    /// Top-k sets by originating rank (empty for dense schedules).
    sets: Vec<Option<(Vec<u32>, Vec<f32>)>>,
}

impl<'a> RealData<'a> {
    pub(crate) fn new(buf: &'a mut Vec<f32>) -> RealData<'a> {
        RealData {
            buf,
            sets: Vec::new(),
        }
    }
}

impl Data for RealData<'_> {
    fn elems(&self) -> usize {
        self.buf.len()
    }

    fn encode(&self, r: Range<usize>, wf: WireFormat) -> Payload {
        wf.encode(&self.buf[r])
    }

    fn reduce(&mut self, r: Range<usize>, incoming: Payload, op: ReduceOp) {
        op.combine(&mut self.buf[r], &wire::decode(incoming));
    }

    fn store(&mut self, r: Range<usize>, incoming: Payload) {
        self.buf[r].copy_from_slice(&wire::decode(incoming));
    }

    fn replace(&mut self, incoming: Payload) {
        *self.buf = wire::decode(incoming);
    }

    fn quantize(&mut self, r: Range<usize>, wf: WireFormat) {
        wf.quantize(&mut self.buf[r]);
    }

    fn keep_set(&mut self, src: usize, set: Payload) -> Payload {
        if self.sets.len() <= src {
            self.sets.resize(src + 1, None);
        }
        self.sets[src] = Some(set.clone().into_sparse());
        set
    }

    fn apply_sets(&mut self) {
        self.buf.fill(0.0);
        for (idx, val) in self.sets.iter().flatten() {
            for (&i, &v) in idx.iter().zip(val) {
                self.buf[i as usize] += v;
            }
        }
    }
}

/// Size-only payload: an element count, no data.
pub(crate) struct SizeOnly(usize);

impl Data for SizeOnly {
    fn elems(&self) -> usize {
        self.0
    }

    fn encode(&self, r: Range<usize>, wf: WireFormat) -> Payload {
        synth_wire(r.len(), wf)
    }

    fn reduce(&mut self, _: Range<usize>, _: Payload, _: ReduceOp) {}

    fn store(&mut self, _: Range<usize>, _: Payload) {}

    fn replace(&mut self, _: Payload) {}

    fn quantize(&mut self, _: Range<usize>, _: WireFormat) {}

    fn keep_set(&mut self, _: usize, set: Payload) -> Payload {
        set
    }

    fn apply_sets(&mut self) {}
}

/// Ring allreduce (reduce-scatter + allgather) over the strided
/// participant set `{0, stride, 2·stride, …, (p−1)·stride}` — all ranks
/// (`stride` 1) or the node leaders (`stride` = GPUs per node). The set is
/// stored as `(p, stride)` rather than a `Vec`: these machines are built
/// once per fusion group per step, and the allocation was visible in the
/// driven-engine profile.
///
/// Wire compression: each reduce-scatter hop encodes the partial sum and
/// the receiver accumulates the decoded values in f32. Between the phases
/// the owner **re-quantizes its fully reduced block once**; the allgather
/// then circulates already-quantized values, whose re-encode is lossless,
/// so every rank finishes with bit-identical buffers (`docs/WIRE.md`).
struct RingSm {
    p: usize,
    stride: usize,
    buf_id: u64,
    seq: u64,
    wf: WireFormat,
    phase: usize,
    step: usize,
    sent: bool,
}

impl RingSm {
    fn new(p: usize, stride: usize, buf_id: u64, seq: u64, wf: WireFormat) -> RingSm {
        RingSm {
            p,
            stride,
            buf_id,
            seq,
            wf,
            phase: 0,
            step: 0,
            sent: false,
        }
    }

    fn poll<D: Data>(&mut self, comm: &mut Comm, data: &mut D, op: ReduceOp) -> Poll {
        let p = self.p;
        if p <= 1 {
            return Poll::Ready;
        }
        let elems = data.elems();
        let (me, right, left) = ring_peers(comm.rank(), p, self.stride);
        while self.phase < 2 {
            while self.step < p - 1 {
                let step = self.step;
                // reduce-scatter: after p-1 steps participant i owns the
                // fully reduced chunk (i+1) mod p; allgather circulates it
                let (tag, send_chunk, recv_chunk) = if self.phase == 0 {
                    (
                        coll_tag(self.seq, step as u64),
                        (me + p - step) % p,
                        (me + p - step - 1) % p,
                    )
                } else {
                    (
                        coll_tag(self.seq, (p + step) as u64),
                        (me + 1 + p - step) % p,
                        (me + p - step) % p,
                    )
                };
                if !self.sent {
                    let payload = data.encode(chunk_range(elems, p, send_chunk), self.wf);
                    comm.isend(right, tag, payload, self.buf_id);
                    self.sent = true;
                }
                let Some(incoming) = comm.try_recv_buffered(left, tag, self.buf_id) else {
                    return Poll::Pending { src: left, tag };
                };
                let r = chunk_range(elems, p, recv_chunk);
                if self.phase == 0 {
                    comm.charge_reduce(r.len());
                    data.reduce(r, incoming, op);
                } else {
                    data.store(r, incoming);
                }
                self.sent = false;
                self.step += 1;
            }
            self.phase += 1;
            self.step = 0;
            if self.phase == 1 {
                // the owner's re-quantization point (see type docs)
                data.quantize(chunk_range(elems, p, (me + 1) % p), self.wf);
            }
        }
        Poll::Ready
    }
}

/// `rank`'s (index, right neighbour, left neighbour) on the strided ring
/// of `p` participants.
fn ring_peers(rank: usize, p: usize, stride: usize) -> (usize, usize, usize) {
    let me = rank / stride;
    debug_assert!(
        rank.is_multiple_of(stride) && me < p,
        "rank {rank} is not on the ring of {p} participants at stride {stride}"
    );
    (me, (me + 1) % p * stride, (me + p - 1) % p * stride)
}

/// The `i`-th `chunk_elems`-sized sub-chunk of `block`.
fn sub_range(block: &Range<usize>, chunk_elems: usize, i: usize) -> Range<usize> {
    let start = block.start + i * chunk_elems;
    start..(start + chunk_elems).min(block.end)
}

/// Pipelined ring: the exact ring schedule, but each block moves as
/// `chunk_elems`-sized sub-chunks, and sub-send `i+1` is posted the moment
/// sub-recv `i` lands — *before* its reduce — so the next transfer is on
/// the wire while the reduce kernel runs and only one sub-chunk reduction
/// per step stays on the virtual-clock critical path. Consecutive sends
/// stay at least one sub-cycle apart, so wire occupancy is still
/// serialized.
///
/// Per-element combine order is identical to [`RingSm`] — sub-chunking
/// only splits *which slice* a combine covers — and encode/decode and the
/// between-phase re-quantization are elementwise, so results are bitwise
/// equal to the plain ring for every `ReduceOp` and `WireFormat`.
struct PipeSm {
    p: usize,
    buf_id: u64,
    seq: u64,
    chunk_elems: usize,
    wf: WireFormat,
    group: Option<usize>,
    stride: usize,
    phase: usize,
    step: usize,
    next_send: usize,
    recv_i: usize,
    primed: bool,
    /// Virtual time the current sub-receive started waiting (span start).
    sub_t0: f64,
}

impl PipeSm {
    #[allow(clippy::too_many_arguments)]
    fn new(
        p: usize,
        stride: usize,
        buf_id: u64,
        seq: u64,
        chunk_elems: usize,
        wf: WireFormat,
        group: Option<usize>,
    ) -> PipeSm {
        // Stride 1 for all-rank rings; gpus-per-node for the hierarchical
        // leader ring.
        PipeSm {
            p,
            buf_id,
            seq,
            chunk_elems,
            wf,
            group,
            stride,
            phase: 0,
            step: 0,
            next_send: 0,
            recv_i: 0,
            primed: false,
            sub_t0: 0.0,
        }
    }

    /// Post sub-send `next_send` of `block` to `right`, if any remain.
    fn post_send<D: Data>(
        &mut self,
        comm: &mut Comm,
        data: &D,
        right: usize,
        block: &Range<usize>,
        ps: u64,
    ) {
        if self.next_send < block.len().div_ceil(self.chunk_elems) {
            let r = sub_range(block, self.chunk_elems, self.next_send);
            comm.isend(
                right,
                coll_tag(self.seq, ps | self.next_send as u64),
                data.encode(r, self.wf),
                self.buf_id,
            );
            self.next_send += 1;
        }
    }

    fn poll<D: Data>(&mut self, comm: &mut Comm, data: &mut D, op: ReduceOp) -> Poll {
        let p = self.p;
        if p <= 1 {
            return Poll::Ready;
        }
        let elems = data.elems();
        // Sub-chunks stream through the path the parent buffer's
        // rendezvous established (an IPC mapping covers the whole
        // registered buffer), so path selection keys on the full dense
        // size — a 40 MB pipelined allreduce rides NVLink when IPC works
        // even though each 4 MB sub-chunk is below the large-message
        // threshold on its own. Set per poll (a poll never interleaves
        // with another task's sends) and cleared on every exit.
        comm.set_rendezvous_bytes(Some((elems * 4) as u64));
        let ce = self.chunk_elems;
        let (me, right, left) = ring_peers(comm.rank(), p, self.stride);
        while self.phase < 2 {
            while self.step < p - 1 {
                let (send_block, recv_block) = if self.phase == 0 {
                    (
                        chunk_range(elems, p, (me + p - self.step) % p),
                        chunk_range(elems, p, (me + p - self.step - 1) % p),
                    )
                } else {
                    (
                        chunk_range(elems, p, (me + 1 + p - self.step) % p),
                        chunk_range(elems, p, (me + p - self.step) % p),
                    )
                };
                // phase step in the high bits, sub-chunk index in the low 20
                let ps = ((self.phase * p + self.step) as u64) << 20;
                if !self.primed {
                    self.post_send(comm, data, right, &send_block, ps);
                    self.primed = true;
                    self.sub_t0 = comm.now();
                }
                while self.recv_i < recv_block.len().div_ceil(ce) {
                    let i = self.recv_i;
                    let tag = coll_tag(self.seq, ps | i as u64);
                    let Some(incoming) = comm.try_recv_buffered(left, tag, self.buf_id) else {
                        comm.set_rendezvous_bytes(None);
                        return Poll::Pending { src: left, tag };
                    };
                    self.post_send(comm, data, right, &send_block, ps);
                    let r = sub_range(&recv_block, ce, i);
                    let sub_bytes = r.len() * 4;
                    if self.phase == 0 {
                        comm.charge_reduce(r.len());
                        data.reduce(r, incoming, op);
                    } else {
                        data.store(r, incoming);
                    }
                    let (group, label, step) = (self.group, ["rs", "ag"][self.phase], self.step);
                    dlsr_trace::record_span(
                        move || match group {
                            Some(g) => {
                                format!("allreduce.pr[g{g}] {label}{step}.c{i} {sub_bytes}B")
                            }
                            None => format!("allreduce.pr {label}{step}.c{i} {sub_bytes}B"),
                        },
                        dlsr_trace::cat::MPI,
                        self.sub_t0,
                        comm.now(),
                    );
                    self.recv_i += 1;
                    self.sub_t0 = comm.now();
                }
                while self.next_send < send_block.len().div_ceil(ce) {
                    self.post_send(comm, data, right, &send_block, ps);
                }
                self.step += 1;
                self.next_send = 0;
                self.recv_i = 0;
                self.primed = false;
            }
            self.phase += 1;
            self.step = 0;
            if self.phase == 1 {
                // same re-quantization point as the plain ring
                data.quantize(chunk_range(elems, p, (me + 1) % p), self.wf);
            }
        }
        comm.set_rendezvous_bytes(None);
        Poll::Ready
    }
}

/// Recursive doubling: log₂ p full-buffer exchanges (power-of-two
/// worlds).
///
/// Wire compression quantizes *both* sides of every hop — the local
/// accumulator and the decoded incoming buffer — so each exchange computes
/// `Q(a) op Q(b)` on both partners. f32 `+`/`max`/`min` of two operands is
/// commutative, so partners agree bitwise after every hop, and by
/// induction all ranks finish identical.
struct RdSm {
    buf_id: u64,
    seq: u64,
    wf: WireFormat,
    mask: usize,
    step: u64,
    sent: bool,
}

impl RdSm {
    fn poll<D: Data>(&mut self, comm: &mut Comm, data: &mut D, op: ReduceOp) -> Poll {
        let p = comm.size();
        let rank = comm.rank();
        let elems = data.elems();
        while self.mask < p {
            let partner = rank ^ self.mask;
            let tag = coll_tag(self.seq, self.step);
            if !self.sent {
                comm.isend(partner, tag, data.encode(0..elems, self.wf), self.buf_id);
                self.sent = true;
            }
            let Some(incoming) = comm.try_recv_buffered(partner, tag, self.buf_id) else {
                return Poll::Pending { src: partner, tag };
            };
            data.quantize(0..elems, self.wf);
            comm.charge_reduce(elems);
            data.reduce(0..elems, incoming, op);
            self.sent = false;
            self.mask <<= 1;
            self.step += 1;
        }
        Poll::Ready
    }
}

/// Top-k sparse allreduce: each rank selects its `k` largest-|g|
/// coordinates ([`wire::topk_indices`] — deterministic), circulates the
/// sparse sets around the ring in `p−1` hops (8 bytes per coordinate on
/// the wire), then **every** rank applies all `p` sets densely in rank
/// order `0..p`. Identical sets + identical application order ⇒
/// bit-identical results everywhere, with no re-quantization (values stay
/// f32). The caller's fusion layer owns the error-feedback residual: this
/// schedule reduces exactly what it is handed. Sum only.
struct TopkSm {
    k: usize,
    buf_id: u64,
    seq: u64,
    step: usize,
    /// The set to forward at the current step (taken once sent).
    cur: Option<Payload>,
}

impl TopkSm {
    fn new<D: Data>(comm: &Comm, data: &mut D, buf_id: u64, seq: u64, wf: WireFormat) -> TopkSm {
        let WireFormat::TopK { k_permille } = wf else {
            unreachable!("top-k schedule needs a top-k wire format")
        };
        let own = data.encode(0..data.elems(), wf);
        TopkSm {
            k: wire::topk_count(data.elems(), k_permille),
            buf_id,
            seq,
            step: 0,
            cur: Some(data.keep_set(comm.rank(), own)),
        }
    }

    fn poll<D: Data>(&mut self, comm: &mut Comm, data: &mut D) -> Poll {
        let p = comm.size();
        let rank = comm.rank();
        let right = (rank + 1) % p;
        let left = (rank + p - 1) % p;
        while self.step < p - 1 {
            let tag = coll_tag(self.seq, self.step as u64);
            if let Some(set) = self.cur.take() {
                comm.isend(right, tag, set, self.buf_id);
            }
            let Some(incoming) = comm.try_recv_buffered(left, tag, self.buf_id) else {
                return Poll::Pending { src: left, tag };
            };
            // after `step+1` hops the set arriving from the left
            // originated at rank rank-(step+1)
            let src = (rank + p - self.step - 1) % p;
            self.cur = Some(data.keep_set(src, incoming));
            self.step += 1;
        }
        for _ in 0..p {
            comm.charge_reduce(self.k);
        }
        data.apply_sets();
        Poll::Ready
    }
}

/// Binomial-tree broadcast (the MPICH algorithm) over the `n` ranks
/// `base..base+n`, rooted at `base + root`. Serves `MPI_Bcast` (all
/// ranks) and two-level allreduce's intra-node phase (one node's ranks,
/// rooted at the leader). Receivers replace their buffer with the
/// parent's; the fan-out is pure sends, so the only park point is the one
/// receive — a re-poll simply retries it.
struct BcastSm {
    n: usize,
    base: usize,
    root: usize,
    tag: u64,
    buf_id: u64,
}

impl BcastSm {
    fn poll<D: Data>(&self, comm: &mut Comm, data: &mut D) -> Poll {
        let n = self.n;
        let relative = (comm.rank() - self.base + n - self.root) % n;
        let peer = |rel: usize| self.base + (rel + self.root) % n;
        // receive from the parent across the lowest set bit; the root
        // forwards across every bit below n
        let mut mask = if relative == 0 {
            n.next_power_of_two()
        } else {
            let bit = 1 << relative.trailing_zeros();
            let src = peer(relative - bit);
            let Some(incoming) = comm.try_recv_buffered(src, self.tag, self.buf_id) else {
                return Poll::Pending { src, tag: self.tag };
            };
            data.replace(incoming);
            bit
        };
        mask >>= 1;
        while mask > 0 {
            if relative + mask < n {
                let payload = data.encode(0..data.elems(), WireFormat::F32);
                comm.send(peer(relative + mask), self.tag, payload, self.buf_id);
            }
            mask >>= 1;
        }
        Poll::Ready
    }
}

/// Hierarchical two-level allreduce (the MVAPICH2-GDR dense-GPU design):
/// binomial intra-node reduce to the node leader (the large intra-node
/// GPU transfers the CUDA IPC fix accelerates) → ring among leaders over
/// InfiniBand → binomial intra-node bcast.
///
/// Wire compression applies to the **inter-node leader ring only**: the
/// intra-node phases ride NVLink/IPC where bandwidth is plentiful and
/// stay lossless f32, which also keeps them bitwise identical to the
/// uncompressed two-level. With [`crate::config::CommTuning::hierarchical`]
/// on and the buffer in the pipelined size bin, the leader ring runs
/// chunk-pipelined (bitwise identical to the plain leader ring).
enum TwoLevelState {
    IntraReduce { mask: usize },
    Ring(RingSm),
    Pipe(PipeSm),
    Bcast(BcastSm),
    Done,
}

struct TwoLevelSm {
    buf_id: u64,
    seq: u64,
    wf: WireFormat,
    group: Option<usize>,
    state: TwoLevelState,
}

impl TwoLevelSm {
    fn poll<D: Data>(&mut self, comm: &mut Comm, data: &mut D, op: ReduceOp) -> Poll {
        // Copy the two scalars out instead of cloning the topology — this
        // poll is the engine's hottest path and the clone's heap traffic
        // (the name `String`) showed up in the simscale profile.
        let (gpn, nodes) = {
            let t = comm.topology();
            (t.gpus_per_node, t.nodes)
        };
        let rank = comm.rank();
        let leader = (rank / gpn) * gpn;
        let r = rank - leader;
        let elems = data.elems();
        loop {
            match &mut self.state {
                TwoLevelState::IntraReduce { mask } => {
                    let tag = coll_tag(self.seq, 0);
                    while *mask < gpn {
                        if r & *mask != 0 {
                            let payload = data.encode(0..elems, WireFormat::F32);
                            comm.send(leader + (r - *mask), tag, payload, self.buf_id);
                            break;
                        }
                        let src = leader + r + *mask;
                        if r + *mask < gpn {
                            let Some(incoming) = comm.try_recv_buffered(src, tag, self.buf_id)
                            else {
                                return Poll::Pending { src, tag };
                            };
                            comm.charge_reduce(elems);
                            data.reduce(0..elems, incoming, op);
                        }
                        *mask <<= 1;
                    }
                    self.state = if nodes > 1 && rank == leader {
                        // leader ring: ranks {0, gpn, 2·gpn, …}
                        let tuning = comm.config().tuning;
                        let buf_id = self.buf_id.wrapping_add(1);
                        if tuning.hierarchical && (elems * 4) as u64 >= tuning.pipeline_threshold {
                            let chunk_elems = (tuning.pipeline_chunk as usize / 4).max(1);
                            TwoLevelState::Pipe(PipeSm::new(
                                nodes,
                                gpn,
                                buf_id,
                                self.seq,
                                chunk_elems,
                                self.wf,
                                self.group,
                            ))
                        } else {
                            TwoLevelState::Ring(RingSm::new(nodes, gpn, buf_id, self.seq, self.wf))
                        }
                    } else {
                        self.bcast_state(gpn, leader)
                    };
                }
                TwoLevelState::Ring(ring) => match ring.poll(comm, data, op) {
                    Poll::Ready => self.state = self.bcast_state(gpn, leader),
                    pending => return pending,
                },
                TwoLevelState::Pipe(pipe) => match pipe.poll(comm, data, op) {
                    Poll::Ready => self.state = self.bcast_state(gpn, leader),
                    pending => return pending,
                },
                TwoLevelState::Bcast(bcast) => match bcast.poll(comm, data) {
                    Poll::Ready => self.state = TwoLevelState::Done,
                    pending => return pending,
                },
                TwoLevelState::Done => return Poll::Ready,
            }
        }
    }

    fn bcast_state(&self, gpn: usize, leader: usize) -> TwoLevelState {
        TwoLevelState::Bcast(BcastSm {
            n: gpn,
            base: leader,
            root: 0,
            tag: coll_tag(self.seq, 1),
            buf_id: self.buf_id,
        })
    }
}

enum AllreduceInner {
    Ring(RingSm),
    Rd(RdSm),
    TwoLevel(TwoLevelSm),
    Pipe(PipeSm),
    Topk(TopkSm),
}

/// One allreduce over payload `D`: verify signature, wire counters,
/// algorithm dispatch and the closing trace span. [`super::Allreduce::run`]
/// drives the `RealData` instance; [`AllreduceElemsTask`] wraps the
/// `SizeOnly` one.
pub(crate) struct AllreduceSm<D> {
    data: D,
    buf_id: u64,
    algo: AllreduceAlgorithm,
    wf: WireFormat,
    op: ReduceOp,
    group: Option<usize>,
    t0: f64,
    inner: Option<AllreduceInner>,
}

impl<D: Data> AllreduceSm<D> {
    /// Build the task; nothing happens until the first `poll`.
    pub(crate) fn new(
        data: D,
        buf_id: u64,
        algo: AllreduceAlgorithm,
        wf: WireFormat,
        op: ReduceOp,
        group: Option<usize>,
    ) -> AllreduceSm<D> {
        AllreduceSm {
            data,
            buf_id,
            algo,
            wf,
            op,
            group,
            t0: 0.0,
            inner: None,
        }
    }

    fn start(&mut self, comm: &mut Comm) -> AllreduceInner {
        let (buf_id, wf, elems) = (self.buf_id, self.wf, self.data.elems());
        // The wire format rides the signature's dtype slot: format skew
        // between ranks must surface as a CollectiveMismatch at the
        // rendezvous, never as a hang or a payload decode panic
        // mid-schedule.
        comm.verify_coll(
            "allreduce",
            crate::verify::op_name(self.op),
            wf.dtype_name(),
            elems,
            crate::verify::algo_name(self.algo),
            self.group,
            0,
        );
        {
            use dlsr_trace::report::keys;
            dlsr_trace::counter_add(keys::WIRE_DENSE_BYTES, (elems * 4) as f64);
            dlsr_trace::counter_add(keys::WIRE_BYTES, wf.wire_bytes(elems) as f64);
        }
        self.t0 = comm.now();
        let seq = comm.next_seq();
        let p = comm.size();
        if let WireFormat::TopK { .. } = wf {
            return AllreduceInner::Topk(TopkSm::new(comm, &mut self.data, buf_id, seq, wf));
        }
        match self.algo {
            AllreduceAlgorithm::RecursiveDoubling if p.is_power_of_two() => {
                AllreduceInner::Rd(RdSm {
                    buf_id,
                    seq,
                    wf,
                    mask: 1,
                    step: 0,
                    sent: false,
                })
            }
            // recursive doubling falls back to ring on other world sizes
            AllreduceAlgorithm::Ring | AllreduceAlgorithm::RecursiveDoubling => {
                AllreduceInner::Ring(RingSm::new(p, 1, buf_id, seq, wf))
            }
            AllreduceAlgorithm::TwoLevel => AllreduceInner::TwoLevel(TwoLevelSm {
                buf_id,
                seq,
                wf,
                group: self.group,
                state: TwoLevelState::IntraReduce { mask: 1 },
            }),
            AllreduceAlgorithm::PipelinedRing => {
                let chunk_elems = (comm.config().tuning.pipeline_chunk as usize / 4).max(1);
                AllreduceInner::Pipe(PipeSm::new(p, 1, buf_id, seq, chunk_elems, wf, self.group))
            }
        }
    }
}

impl<D: Data> EventTask for AllreduceSm<D> {
    fn poll(&mut self, comm: &mut Comm) -> Poll {
        if comm.size() == 1 {
            return Poll::Ready;
        }
        if self.inner.is_none() {
            self.inner = Some(self.start(comm));
        }
        let (data, op) = (&mut self.data, self.op);
        let done = match self.inner.as_mut().expect("initialized above") {
            AllreduceInner::Ring(sm) => sm.poll(comm, data, op),
            AllreduceInner::Rd(sm) => sm.poll(comm, data, op),
            AllreduceInner::TwoLevel(sm) => sm.poll(comm, data, op),
            AllreduceInner::Pipe(sm) => sm.poll(comm, data, op),
            AllreduceInner::Topk(sm) => sm.poll(comm, data),
        };
        if let Poll::Ready = done {
            let (algo, wf, group, bytes) = (self.algo, self.wf, self.group, data.elems() * 4);
            dlsr_trace::record_span(
                move || {
                    let name = if let WireFormat::TopK { .. } = wf {
                        "topk".to_string()
                    } else if wf.is_f32() {
                        format!("{algo:?}")
                    } else {
                        format!("{algo:?}+{wf}")
                    };
                    match group {
                        Some(g) => format!("allreduce.{name}[g{g}] {bytes}B"),
                        None => format!("allreduce.{name} {bytes}B"),
                    }
                },
                dlsr_trace::cat::MPI,
                self.t0,
                comm.now(),
            );
            dlsr_trace::counter_add(dlsr_trace::report::keys::MPI_COLLECTIVES, 1.0);
        }
        done
    }
}

/// Size-only sum-allreduce of `elems` f32 elements as a resumable task:
/// the `SizeOnly` instance of the allreduce schedules, which the
/// scaling harnesses yield from their rank programs.
pub struct AllreduceElemsTask(AllreduceSm<SizeOnly>);

impl AllreduceElemsTask {
    /// Build the task; nothing happens until the first `poll`.
    pub fn new(elems: usize, buf_id: u64, algo: AllreduceAlgorithm) -> AllreduceElemsTask {
        AllreduceElemsTask::new_wire(elems, buf_id, algo, WireFormat::F32)
    }

    /// [`AllreduceElemsTask::new`] with an explicit wire format: the
    /// encoded payload sizes (and, for top-k, the sparse schedule) of the
    /// real collective, without data.
    pub fn new_wire(
        elems: usize,
        buf_id: u64,
        algo: AllreduceAlgorithm,
        wf: WireFormat,
    ) -> AllreduceElemsTask {
        AllreduceElemsTask(AllreduceSm::new(
            SizeOnly(elems),
            buf_id,
            algo,
            wf,
            ReduceOp::Sum,
            None,
        ))
    }
}

impl EventTask for AllreduceElemsTask {
    fn poll(&mut self, comm: &mut Comm) -> Poll {
        self.0.poll(comm)
    }
}

/// `MPI_Bcast` of a real buffer from `root` over all ranks: verify
/// signature, the binomial schedule and the closing trace span.
pub(crate) struct BcastTask<'a> {
    data: RealData<'a>,
    root: usize,
    buf_id: u64,
    t0: f64,
    bytes: usize,
    sm: Option<BcastSm>,
}

impl<'a> BcastTask<'a> {
    /// Build the task; nothing happens until the first `poll`.
    pub(crate) fn new(buf: &'a mut Vec<f32>, root: usize, buf_id: u64) -> BcastTask<'a> {
        BcastTask {
            data: RealData::new(buf),
            root,
            buf_id,
            t0: 0.0,
            bytes: 0,
            sm: None,
        }
    }
}

impl EventTask for BcastTask<'_> {
    fn poll(&mut self, comm: &mut Comm) -> Poll {
        let p = comm.size();
        if p == 1 {
            return Poll::Ready;
        }
        if self.sm.is_none() {
            // Element count deliberately not in the signature: non-root
            // buffers are replaced wholesale, so their pre-call lengths
            // may differ.
            comm.verify_coll("bcast", "-", "f32", 0, "binomial", None, self.root);
            let seq = comm.next_seq();
            self.t0 = comm.now();
            self.bytes = self.data.elems() * 4;
            self.sm = Some(BcastSm {
                n: p,
                base: 0,
                root: self.root,
                tag: coll_tag(seq, 0),
                buf_id: self.buf_id,
            });
        }
        let sm = self.sm.as_mut().expect("initialized above");
        let done = sm.poll(comm, &mut self.data);
        if let Poll::Ready = done {
            let (bytes, root) = (self.bytes, self.root);
            dlsr_trace::record_span(
                move || format!("bcast {bytes}B root{root}"),
                dlsr_trace::cat::MPI,
                self.t0,
                comm.now(),
            );
            dlsr_trace::counter_add(dlsr_trace::report::keys::MPI_COLLECTIVES, 1.0);
        }
        done
    }
}

/// Dissemination barrier as a resumable task — the state-machine twin of
/// [`super::barrier`] (which now drives this).
#[derive(Default)]
pub struct BarrierTask {
    started: bool,
    seq: u64,
    t0: f64,
    dist: usize,
    round: u64,
    sent: bool,
}

impl BarrierTask {
    /// Build the task; nothing happens until the first `poll`.
    pub fn new() -> BarrierTask {
        BarrierTask::default()
    }
}

impl EventTask for BarrierTask {
    fn poll(&mut self, comm: &mut Comm) -> Poll {
        let p = comm.size();
        if p == 1 {
            return Poll::Ready;
        }
        if !self.started {
            comm.verify_coll("barrier", "-", "-", 0, "dissemination", None, 0);
            self.seq = comm.next_seq();
            self.t0 = comm.now();
            self.dist = 1;
            self.started = true;
        }
        let rank = comm.rank();
        while self.dist < p {
            let tag = coll_tag(self.seq, self.round);
            if !self.sent {
                comm.send((rank + self.dist) % p, tag, Payload::Bytes(Vec::new()), 0);
                self.sent = true;
            }
            let from = (rank + p - self.dist) % p;
            if comm.try_recv_buffered(from, tag, 0).is_none() {
                return Poll::Pending { src: from, tag };
            }
            self.sent = false;
            self.dist <<= 1;
            self.round += 1;
        }
        dlsr_trace::record_span(
            || "barrier".to_string(),
            dlsr_trace::cat::MPI,
            self.t0,
            comm.now(),
        );
        dlsr_trace::counter_add(dlsr_trace::report::keys::MPI_COLLECTIVES, 1.0);
        Poll::Ready
    }
}

/// Blocking entry used by [`super::barrier`].
pub(crate) fn drive_barrier(comm: &mut Comm) {
    let mut task = BarrierTask::new();
    drive_task(comm, &mut task);
}

#[cfg(test)]
mod tests {
    use crate::config::MpiConfig;
    use crate::executor::{drive_program, RankProgram, Step};
    use crate::world::MpiWorld;
    use dlsr_net::ClusterTopology;

    use super::*;

    /// A small rank program with per-rank clock skew between collectives,
    /// so scheduling mistakes would show up as clock divergence.
    struct Prog {
        algo: AllreduceAlgorithm,
        left: usize,
    }

    impl Prog {
        fn new(algo: AllreduceAlgorithm) -> Prog {
            Prog { algo, left: 3 }
        }
    }

    impl RankProgram for Prog {
        type Out = f64;
        fn next(&mut self, comm: &mut Comm) -> Step {
            if self.left == 0 {
                return Step::Done;
            }
            self.left -= 1;
            comm.advance(1.0e-5 * (comm.rank() as f64 + 1.0));
            if self.left == 1 {
                Step::Task(BarrierTask::new().into())
            } else {
                Step::Task(AllreduceElemsTask::new(123_457, 1, self.algo).into())
            }
        }
        fn finish(&mut self, comm: &mut Comm, _trace: Vec<dlsr_trace::TraceEvent>) -> f64 {
            comm.now()
        }
    }

    /// The cross-core contract: the driven engine and the event context
    /// core (at several worker counts) produce *bit-identical* per-rank
    /// clocks.
    #[test]
    fn all_cores_agree_bitwise() {
        let topo = ClusterTopology::lassen(2); // 8 ranks
        for algo in AllreduceAlgorithm::ALL {
            let driven =
                MpiWorld::run_driven(&topo, MpiConfig::mpi_opt(), |_| Prog::new(algo)).clocks;
            for workers in [1usize, 4, 8] {
                let mut cfg = MpiConfig::mpi_opt();
                cfg.sim_workers = workers;
                let event =
                    MpiWorld::run(&topo, cfg, move |c| drive_program(c, Prog::new(algo))).clocks;
                assert_eq!(
                    bits(&driven),
                    bits(&event),
                    "{algo:?}: driven vs event(workers={workers})"
                );
            }
        }
    }

    fn bits(clocks: &[f64]) -> Vec<u64> {
        clocks.iter().map(|c| c.to_bits()).collect()
    }
}
