//! Dense GEMM: blueprint-driven drivers over the SIMD microkernels.
//!
//! # Pipeline
//!
//! The engine is a packed, register-blocked GEMM in the BLIS style, split
//! across three modules:
//! - [`crate::kernels`] — the `MR×NR` register-tile microkernels (AVX2/FMA,
//!   AVX-512F, scalar fallback) behind one-time runtime dispatch;
//! - [`crate::tune`] — the shape-keyed selector that resolves every
//!   `(m, k, n)` to a [`Blueprint`] (kernel variant, `MR/NR/KC/NC`
//!   blocking, rayon split), seeded for the EDSR shapes and persistable to
//!   a tune-cache file;
//! - this module — operand packing and the blocked drivers.
//!
//! A is packed whole ([`pack_a`]): `KC`-deep blocks of `MR`-row panels,
//! edge panels zero-padded so the microkernel never branches. B is packed
//! **on the fly in `KC×NC` staged blocks**: one staging buffer, packed for
//! a `KC` panel and then consumed by the microkernels before the next
//! panel is packed into it. B is described by a [`BSrc`], which the
//! packing routines read through directly — including the *virtual im2col
//! views* ([`BSrc::Im2col`]/[`BSrc::Im2colT`]) that let convolution run as
//! implicit GEMM without ever materializing a column matrix.
//!
//! Skinny shapes (`M ≤ 8`, [`KernelId::Stream`]) skip B packing: the
//! streaming driver reads B rows (or a zero-padded copy of the image)
//! straight into lane arrays and runs the same per-element FMA chain
//! against the packed A panels. `BSrc::Cols` and the bf16 panels go to the
//! blocked engine on the `avx2_4x16` tile instead.
//!
//! Every driver takes its scratch (the B staging block, the full B
//! prepack, or the streaming driver's padded image copy and partial sums)
//! from the caller, sized by `workspace_len`; [`gemm`] takes it from the
//! pool itself, the conv path takes one per image on its dispatching
//! thread.
//!
//! # Determinism contract
//!
//! Each output element is an ascending-`k` chain of fused multiply-adds
//! (one FMA per product, starting from `+0`), with one plain partial-sum
//! add into `C` per `KC` block boundary. The microkernel tiles and the
//! streaming lanes both compute exactly this chain. Therefore:
//! - **`kc` is the only blueprint field that can change result bits.** The
//!   selector derives it from the shape alone.
//! - Kernel variant (scalar/AVX2/AVX-512/stream), tile geometry, `nc`,
//!   and the parallel split only partition the output space — results are
//!   bitwise identical across all of them, and across any thread count.
//!
//! `all_variants_bitwise_equal` and `row_partition_is_bitwise_deterministic`
//! in the tests pin both halves of the contract; `docs/KERNELS.md` states it
//! end to end (tune cache included).

use dlsr_attr as dlsr;
use rayon::prelude::*;

use crate::kernels::{self, KernelId, MAX_NR};
use crate::scratch;
use crate::tune::{self, Blueprint, ParHint};
use crate::{Result, Tensor, TensorError};

/// What the GEMM does to each output element after the dot product is
/// complete. Fusing this into the store phase saves a full second pass over
/// `C` (the convolution bias/activation pass).
///
/// `bias` is indexed by **output row** — for the convolution forward GEMM,
/// rows are output channels.
#[derive(Debug, Clone, Copy)]
pub enum Epilogue<'a> {
    /// Store the raw GEMM result.
    None,
    /// `c[i,j] += bias[i]`.
    Bias(&'a [f32]),
    /// `c[i,j] = max(c[i,j], 0)`.
    Relu,
    /// `c[i,j] = max(c[i,j] + bias[i], 0)`.
    BiasRelu(&'a [f32]),
}

impl Epilogue<'_> {
    /// The finished value of an element of output row `row` whose full dot
    /// product is `x`.
    #[inline(always)]
    fn apply(self, x: f32, row: usize) -> f32 {
        match self {
            Epilogue::None => x,
            Epilogue::Bias(bias) => x + bias[row],
            Epilogue::Relu => x.max(0.0),
            Epilogue::BiasRelu(bias) => (x + bias[row]).max(0.0),
        }
    }
}

/// Packed-panel element type: `f32`, or bf16 bits behind the `bf16`
/// feature. Accumulation is always `f32`; only panel storage changes.
pub(crate) trait Elem: Copy + Send + Sync + 'static {
    /// Pooled scratch buffer type for this element.
    type Buf: std::ops::Deref<Target = [Self]> + std::ops::DerefMut<Target = [Self]> + Send + Sync;

    /// Whether [`Elem::stream`] runs the streaming driver. Only `f32`
    /// panels do; the others take the blocked engine.
    const STREAMS: bool = false;

    fn take_scratch(len: usize) -> Self::Buf;
    fn pack(x: f32) -> Self;
    /// One microkernel tile: `acc = Apanel · Bpanel` (see [`kernels`]).
    fn tile(
        kernel: KernelId,
        apan: &[Self],
        bpan: &[Self],
        kc: usize,
        mr: usize,
        nr: usize,
        acc: &mut [f32],
    );

    /// The streaming driver over these panels; reached only when
    /// [`Elem::STREAMS`] holds.
    #[allow(clippy::too_many_arguments)]
    fn stream(
        _bp: &Blueprint,
        _apack: &[Self],
        _bsrc: BSrc<'_>,
        _c: &mut [f32],
        _m: usize,
        _k: usize,
        _n: usize,
        _epi: Epilogue<'_>,
        _ws: &mut [Self],
    ) {
        unreachable!("the streaming driver only runs on f32 panels");
    }
}

impl Elem for f32 {
    type Buf = scratch::ScratchBuf;

    const STREAMS: bool = true;

    #[inline]
    fn stream(
        bp: &Blueprint,
        apack: &[f32],
        bsrc: BSrc<'_>,
        c: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
        epi: Epilogue<'_>,
        ws: &mut [f32],
    ) {
        gemm_stream(bp, apack, bsrc, c, m, k, n, epi, ws);
    }

    fn take_scratch(len: usize) -> scratch::ScratchBuf {
        scratch::take(len)
    }

    fn pack(x: f32) -> f32 {
        x
    }

    #[inline]
    fn tile(
        kernel: KernelId,
        apan: &[f32],
        bpan: &[f32],
        kc: usize,
        mr: usize,
        nr: usize,
        acc: &mut [f32],
    ) {
        kernels::run_tile(kernel, apan, bpan, kc, mr, nr, acc);
    }
}

#[cfg(feature = "bf16")]
impl Elem for u16 {
    type Buf = scratch::ScratchBufU16;

    fn take_scratch(len: usize) -> scratch::ScratchBufU16 {
        scratch::take_u16(len)
    }

    fn pack(x: f32) -> u16 {
        kernels::f32_to_bf16(x)
    }

    #[inline]
    fn tile(
        kernel: KernelId,
        apan: &[u16],
        bpan: &[u16],
        kc: usize,
        mr: usize,
        nr: usize,
        acc: &mut [f32],
    ) {
        kernels::run_tile_bf16(kernel, apan, bpan, kc, mr, nr, acc);
    }
}

/// A virtual im2col matrix over one NCHW image: element `(row, col)` of the
/// `[C_in·K_h·K_w, H_out·W_out]` column matrix, computed on the fly by the
/// packing routines. This is what makes the conv path *implicit* GEMM — no
/// column buffer is ever materialized.
#[derive(Debug, Clone, Copy)]
pub struct Im2colView<'a> {
    img: &'a [f32],
    c_in: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    padding: usize,
    h_out: usize,
    w_out: usize,
}

impl<'a> Im2colView<'a> {
    /// View over one image plane-major `[C_in, H, W]` slice.
    pub fn new(
        img: &'a [f32],
        (c_in, h, w): (usize, usize, usize),
        (kh, kw): (usize, usize),
        stride: usize,
        padding: usize,
    ) -> Im2colView<'a> {
        debug_assert_eq!(img.len(), c_in * h * w);
        let h_out = (h + 2 * padding).saturating_sub(kh) / stride + 1;
        let w_out = (w + 2 * padding).saturating_sub(kw) / stride + 1;
        Im2colView {
            img,
            c_in,
            h,
            w,
            kh,
            kw,
            stride,
            padding,
            h_out,
            w_out,
        }
    }

    /// Rows of the column matrix: `C_in·K_h·K_w`.
    pub fn rows(&self) -> usize {
        self.c_in * self.kh * self.kw
    }

    /// Columns of the column matrix: `H_out·W_out`.
    pub fn cols(&self) -> usize {
        self.h_out * self.w_out
    }
}

/// Where the right-hand operand's panels come from. The packing routines
/// read each source directly, so transposes and im2col layouts are
/// *virtualized* — nothing is materialized before packing.
#[derive(Debug, Clone, Copy)]
pub enum BSrc<'a> {
    /// `B` row-major `[k, n]`.
    Rows(&'a [f32]),
    /// `Bᵀ` row-major `[n, k]` (i.e. `B[p, j] = b[j·k + p]`).
    Cols(&'a [f32]),
    /// The im2col matrix of an image: `B[p, j] = col[p, j]`.
    Im2col(Im2colView<'a>),
    /// The transposed im2col matrix: `B[p, j] = col[j, p]`.
    Im2colT(Im2colView<'a>),
}

/// Length of the packed-A buffer for an `m×k` left operand under `bp`.
pub fn packed_a_len(bp: &Blueprint, m: usize, k: usize) -> usize {
    k * m.div_ceil(bp.mr) * bp.mr
}

/// Pack row-major `a[m×k]` into `bp.mr`-row panels in `bp.kc`-deep blocks
/// (layout `[kb][panel][p][i]`). Rows past `m` in the final panel are
/// zero-filled so the microkernel runs without remainder branches.
#[dlsr::hot]
pub fn pack_a(bp: &Blueprint, a: &[f32], m: usize, k: usize, out: &mut [f32]) {
    pack_a_impl::<f32>(bp, a, m, k, false, out);
}

/// Pack `a` holding `Aᵀ` row-major (`a[k×m]`, so `A[i,p] = a[p·m + i]`)
/// into the same panel layout as [`pack_a`].
#[dlsr::hot]
pub fn pack_a_transposed(bp: &Blueprint, a: &[f32], m: usize, k: usize, out: &mut [f32]) {
    pack_a_impl::<f32>(bp, a, m, k, true, out);
}

#[dlsr::hot]
pub(crate) fn pack_a_impl<E: Elem>(
    bp: &Blueprint,
    a: &[f32],
    m: usize,
    k: usize,
    trans: bool,
    out: &mut [E],
) {
    assert_eq!(a.len(), m * k);
    assert_eq!(out.len(), packed_a_len(bp, m, k));
    let mr = bp.mr;
    let mr_pad = m.div_ceil(mr) * mr;
    for kb in (0..k).step_by(bp.kc) {
        let kc = bp.kc.min(k - kb);
        for ip in 0..mr_pad / mr {
            let base = kb * mr_pad + ip * (mr * kc);
            let dst = &mut out[base..base + mr * kc];
            for (p, drow) in dst.chunks_exact_mut(mr).enumerate() {
                for (i, d) in drow.iter_mut().enumerate() {
                    let row = ip * mr + i;
                    let v = if row < m {
                        let col = kb + p;
                        if trans {
                            a[col * m + row]
                        } else {
                            a[row * k + col]
                        }
                    } else {
                        0.0
                    };
                    *d = E::pack(v);
                }
            }
        }
    }
}

/// Pack one `kc × ncb` staged block of B (`kc` rows starting at `kb`,
/// `ncb` columns starting at `jc`) into `nr`-column panels
/// (`dst[jp][p][j]`, length `ncb·kc`). Columns past `n` are zero-filled.
#[allow(clippy::too_many_arguments)]
#[dlsr::hot]
fn pack_b_block<E: Elem>(
    bp: &Blueprint,
    src: BSrc<'_>,
    k: usize,
    n: usize,
    jc: usize,
    ncb: usize,
    kb: usize,
    kc: usize,
    dst: &mut [E],
) {
    debug_assert!(kb + kc <= k);
    debug_assert!(dst.len() >= ncb * kc);
    match src {
        BSrc::Rows(b) => pack_block_rows::<E>(bp.nr, b, n, jc, ncb, kb, kc, dst),
        BSrc::Cols(b) => pack_block_cols::<E>(bp.nr, b, k, n, jc, ncb, kb, kc, dst),
        BSrc::Im2col(v) => pack_block_im2col::<E>(bp.nr, &v, n, jc, ncb, kb, kc, dst),
        BSrc::Im2colT(v) => pack_block_im2col_t::<E>(bp.nr, &v, n, jc, ncb, kb, kc, dst),
    }
}

#[allow(clippy::too_many_arguments)]
#[dlsr::hot]
fn pack_block_rows<E: Elem>(
    nr: usize,
    b: &[f32],
    n: usize,
    jc: usize,
    ncb: usize,
    kb: usize,
    kc: usize,
    dst: &mut [E],
) {
    for jp in 0..ncb / nr {
        let j0 = jc + jp * nr;
        let cols = nr.min(n.saturating_sub(j0));
        let panel = &mut dst[jp * (nr * kc)..(jp + 1) * (nr * kc)];
        for (p, drow) in panel.chunks_exact_mut(nr).enumerate() {
            let src = &b[(kb + p) * n + j0..(kb + p) * n + j0 + cols];
            // Branch-free split: a straight converting copy for the live
            // columns, one fill for the zero-padded tail — both vectorize.
            let (live, pad) = drow.split_at_mut(cols);
            for (d, &s) in live.iter_mut().zip(src) {
                *d = E::pack(s);
            }
            pad.fill(E::pack(0.0));
        }
    }
}

#[allow(clippy::too_many_arguments)]
#[dlsr::hot]
fn pack_block_cols<E: Elem>(
    nr: usize,
    b: &[f32],
    k: usize,
    n: usize,
    jc: usize,
    ncb: usize,
    kb: usize,
    kc: usize,
    dst: &mut [E],
) {
    for jp in 0..ncb / nr {
        let j0 = jc + jp * nr;
        let cols = nr.min(n.saturating_sub(j0));
        let panel = &mut dst[jp * (nr * kc)..(jp + 1) * (nr * kc)];
        for (p, drow) in panel.chunks_exact_mut(nr).enumerate() {
            let row = kb + p;
            let (live, pad) = drow.split_at_mut(cols);
            for (j, d) in live.iter_mut().enumerate() {
                *d = E::pack(b[(j0 + j) * k + row]);
            }
            pad.fill(E::pack(0.0));
        }
    }
}

/// Pack a staged block straight out of the image: `B[p, j] = col[p, j]`
/// where `p` decodes to a (channel, ky, kx) patch row and `j` to an output
/// pixel. The per-panel spatial bases are hoisted to stack arrays, so the
/// inner loop is an add, two bounds tests, and one image load — the im2col
/// gather fused into packing.
#[allow(clippy::too_many_arguments)]
#[dlsr::hot]
fn pack_block_im2col<E: Elem>(
    nr: usize,
    v: &Im2colView<'_>,
    n: usize,
    jc: usize,
    ncb: usize,
    kb: usize,
    kc: usize,
    dst: &mut [E],
) {
    let khw = v.kh * v.kw;
    let (hs, ws) = (v.h as isize, v.w as isize);
    for jp in 0..ncb / nr {
        let j0 = jc + jp * nr;
        let fast = v.stride == 1;
        let mut iy0 = [0isize; MAX_NR];
        let mut ix0 = [0isize; MAX_NR];
        let mut live = [false; MAX_NR];
        if !fast {
            for j in 0..nr {
                let col = j0 + j;
                if col < n {
                    let (oy, ox) = (col / v.w_out, col % v.w_out);
                    iy0[j] = (oy * v.stride) as isize - v.padding as isize;
                    ix0[j] = (ox * v.stride) as isize - v.padding as isize;
                    live[j] = true;
                }
            }
        }
        let panel = &mut dst[jp * (nr * kc)..(jp + 1) * (nr * kc)];
        let cols = nr.min(n.saturating_sub(j0));
        for (p, drow) in panel.chunks_exact_mut(nr).enumerate() {
            let row = kb + p;
            let (c, rem) = (row / khw, row % khw);
            let (ky, kx) = ((rem / v.kw) as isize, (rem % v.kw) as isize);
            let plane = &v.img[c * v.h * v.w..(c + 1) * v.h * v.w];
            if fast && cols > 0 {
                // Stride-1 fast path: consecutive columns of this panel are
                // consecutive output pixels, so for a fixed patch row the
                // sources form contiguous image runs — one per output row
                // the panel crosses. Each run is a converting copy with
                // zero-filled out-of-image edges instead of a per-element
                // bounds test.
                let (fill, pad) = drow.split_at_mut(cols);
                pad.fill(E::pack(0.0));
                let mut j = 0usize;
                while j < cols {
                    let col = j0 + j;
                    let (oy, ox) = (col / v.w_out, col % v.w_out);
                    let seg = (cols - j).min(v.w_out - ox);
                    let drun = &mut fill[j..j + seg];
                    let iy = oy as isize + ky - v.padding as isize;
                    if iy < 0 || iy >= hs {
                        drun.fill(E::pack(0.0));
                    } else {
                        // source x for element t of the run: ox+t+kx-pad
                        let x0 = ox as isize + kx - v.padding as isize;
                        let lead = (-x0).clamp(0, seg as isize) as usize;
                        let trail = (x0 + seg as isize - ws).clamp(0, seg as isize) as usize;
                        if lead + trail >= seg {
                            // run entirely off-image on the x axis
                            drun.fill(E::pack(0.0));
                        } else {
                            drun[..lead].fill(E::pack(0.0));
                            drun[seg - trail..].fill(E::pack(0.0));
                            let src0 = iy as usize * v.w + (x0 + lead as isize) as usize;
                            let srun = &plane[src0..src0 + seg - lead - trail];
                            for (d, &s) in drun[lead..seg - trail].iter_mut().zip(srun) {
                                *d = E::pack(s);
                            }
                        }
                    }
                    j += seg;
                }
                continue;
            }
            for (j, d) in drow.iter_mut().enumerate() {
                let val = if live[j] {
                    let (iy, ix) = (iy0[j] + ky, ix0[j] + kx);
                    if iy >= 0 && iy < hs && ix >= 0 && ix < ws {
                        plane[iy as usize * v.w + ix as usize]
                    } else {
                        0.0
                    }
                } else {
                    0.0
                };
                *d = E::pack(val);
            }
        }
    }
}

/// Transposed twin of [`pack_block_im2col`]: `B[p, j] = col[j, p]` — rows
/// are output pixels, columns are patch rows (the weight-gradient GEMM).
#[allow(clippy::too_many_arguments)]
#[dlsr::hot]
fn pack_block_im2col_t<E: Elem>(
    nr: usize,
    v: &Im2colView<'_>,
    n: usize,
    jc: usize,
    ncb: usize,
    kb: usize,
    kc: usize,
    dst: &mut [E],
) {
    let khw = v.kh * v.kw;
    let (hs, ws) = (v.h as isize, v.w as isize);
    for jp in 0..ncb / nr {
        let j0 = jc + jp * nr;
        let cols = nr.min(n.saturating_sub(j0));
        // Per-column constants for this panel: linearized patch-row offset
        // into the image (`soff = c·h·w + ky·w + kx`) plus the (ky, kx)
        // displacements for the boundary test.
        let mut soff = [0isize; MAX_NR];
        let mut kya = [0isize; MAX_NR];
        let mut kxa = [0isize; MAX_NR];
        for j in 0..cols {
            let (c, rem) = ((j0 + j) / khw, (j0 + j) % khw);
            let (ky, kx) = (rem / v.kw, rem % v.kw);
            soff[j] = (c * v.h * v.w + ky * v.w + kx) as isize;
            kya[j] = ky as isize;
            kxa[j] = kx as isize;
        }
        let panel = &mut dst[jp * (nr * kc)..(jp + 1) * (nr * kc)];
        for (p, drow) in panel.chunks_exact_mut(nr).enumerate() {
            let pix = kb + p;
            let (oy, ox) = (pix / v.w_out, pix % v.w_out);
            let iy0 = (oy * v.stride) as isize - v.padding as isize;
            let ix0 = (ox * v.stride) as isize - v.padding as isize;
            let base = iy0 * ws + ix0;
            let (fill, pad) = drow.split_at_mut(cols);
            pad.fill(E::pack(0.0));
            // Interior fast path: when the whole receptive field sits
            // inside the image, every column is a plain gather at
            // `soff[j] + base` — no per-element bounds tests.
            let interior = iy0 >= 0
                && iy0 + (v.kh as isize - 1) < hs
                && ix0 >= 0
                && ix0 + (v.kw as isize - 1) < ws;
            if interior {
                for (j, d) in fill.iter_mut().enumerate() {
                    *d = E::pack(v.img[(soff[j] + base) as usize]);
                }
            } else {
                for (j, d) in fill.iter_mut().enumerate() {
                    let (iy, ix) = (iy0 + kya[j], ix0 + kxa[j]);
                    let val = if iy >= 0 && iy < hs && ix >= 0 && ix < ws {
                        v.img[(soff[j] + base) as usize]
                    } else {
                        0.0
                    };
                    *d = E::pack(val);
                }
            }
        }
    }
}

/// Write (or accumulate) a microkernel tile into `C`, applying the
/// epilogue once the final k block has been summed. `acc` is row-major
/// with stride `nr`.
#[inline]
#[allow(clippy::too_many_arguments)]
#[dlsr::hot]
fn store_tile(
    acc: &[f32],
    nr: usize,
    crows: &mut [f32],
    n: usize,
    rows: usize,
    j0: usize,
    cols: usize,
    accumulate: bool,
    finalize: Option<(Epilogue<'_>, usize)>,
) {
    for i in 0..rows {
        let dst = &mut crows[i * n + j0..i * n + j0 + cols];
        let src = &acc[i * nr..i * nr + cols];
        if accumulate {
            for (d, &s) in dst.iter_mut().zip(src) {
                *d += s;
            }
        } else {
            dst.copy_from_slice(src);
        }
        if let Some((epi, row0)) = finalize {
            match epi {
                Epilogue::None => {}
                Epilogue::Bias(bias) => {
                    let bv = bias[row0 + i];
                    dst.iter_mut().for_each(|d| *d += bv);
                }
                Epilogue::Relu => {
                    dst.iter_mut().for_each(|d| *d = d.max(0.0));
                }
                Epilogue::BiasRelu(bias) => {
                    let bv = bias[row0 + i];
                    dst.iter_mut().for_each(|d| *d = (*d + bv).max(0.0));
                }
            }
        }
    }
}

/// Consume one staged `kc × ncb` B block: run the microkernel over every
/// (row panel × column panel) tile it covers and store the partial sums.
/// `c` holds the row range starting at global panel `row_panel0`.
#[allow(clippy::too_many_arguments)]
#[dlsr::hot]
fn compute_block<E: Elem>(
    kernel: KernelId,
    bp: &Blueprint,
    apack: &[E],
    bblock: &[E],
    c: &mut [f32],
    row_panel0: usize,
    m: usize,
    n: usize,
    jc: usize,
    ncb: usize,
    kb: usize,
    kc: usize,
    epi: Epilogue<'_>,
    last_kb: bool,
) {
    let (mr, nr) = (bp.mr, bp.nr);
    let mr_pad = m.div_ceil(mr) * mr;
    let rows_total = c.len() / n;
    let mut acc = [0.0f32; kernels::MAX_MR * MAX_NR];
    for ipl in 0..rows_total.div_ceil(mr) {
        let ip = row_panel0 + ipl;
        let a_off = kb * mr_pad + ip * (mr * kc);
        let apan = &apack[a_off..a_off + mr * kc];
        let rows = mr.min(rows_total - ipl * mr);
        let row0 = ip * mr;
        let finalize = last_kb.then_some((epi, row0));
        let crows = &mut c[ipl * mr * n..];
        for jp in 0..ncb / nr {
            let j0 = jc + jp * nr;
            if j0 >= n {
                break;
            }
            let cols = nr.min(n - j0);
            let b_off = jp * (nr * kc);
            E::tile(
                kernel,
                apan,
                &bblock[b_off..b_off + nr * kc],
                kc,
                mr,
                nr,
                &mut acc,
            );
            store_tile(&acc, nr, crows, n, rows, j0, cols, kb != 0, finalize);
        }
    }
}

/// Rows of B one streaming sweep reads before the accumulators go back to
/// the partial-sum buffer.
const SWEEP_ROWS: usize = 16;

/// Widest lane chunk the streaming driver uses (see [`gemm_stream`]).
const MAX_LANES: usize = 32;

/// Output rows one streaming pass carries: a packed A panel of the
/// stream geometry. Taller GEMMs take several passes over B.
const PASS_ROWS: usize = 4;

/// Offsets of the B rows in the streaming driver's source: `p` splits as
/// `(a, b, d)`, `d` fastest, with extents `nb` and `nd`, and row `p` starts
/// at `a·sa + b·sb + d·sd`.
#[derive(Debug, Clone, Copy)]
struct Odometer {
    nb: usize,
    nd: usize,
    sa: usize,
    sb: usize,
    sd: usize,
}

impl Odometer {
    /// Offsets of rows `p0..p0 + offs.len()`: one division for the first,
    /// then the digits carry.
    fn fill(&self, p0: usize, offs: &mut [usize]) {
        let (a, r) = (p0 / (self.nb * self.nd), p0 % (self.nb * self.nd));
        let (mut b, mut d) = (r / self.nd, r % self.nd);
        let mut run = a * self.sa + b * self.sb;
        for off in offs {
            *off = run + d * self.sd;
            d += 1;
            if d == self.nd {
                d = 0;
                b += 1;
                run += self.sb;
                if b == self.nb {
                    b = 0;
                    run = run - self.nb * self.sb + self.sa;
                }
            }
        }
    }
}

/// The output columns of a streaming GEMM as lane chunks. A chunk is
/// `(u1, u2, v0)` with `u1 < n1`, `u2 < n2` and `v0` stepping through
/// `0..nv` by the lane width; its lane `t` reads the source at
/// `u1·b1 + u2·b2 + (v0 + t)·bv` plus the row offset, and lands in `C`
/// column `u1·c1 + u2·c2 + (v0 + t)·cv`.
#[derive(Debug, Clone, Copy)]
struct Grid {
    n1: usize,
    b1: usize,
    c1: usize,
    n2: usize,
    b2: usize,
    c2: usize,
    nv: usize,
    bv: usize,
    cv: usize,
}

impl Grid {
    /// Call `f(index, source base, first C column, live lanes)` for every
    /// `lanes`-wide chunk, in a fixed order.
    #[inline(always)]
    fn for_each_chunk(self, lanes: usize, mut f: impl FnMut(usize, usize, usize, usize)) {
        let mut ci = 0;
        for u1 in 0..self.n1 {
            for u2 in 0..self.n2 {
                for v0 in (0..self.nv).step_by(lanes) {
                    let base = u1 * self.b1 + u2 * self.b2 + v0 * self.bv;
                    let col0 = u1 * self.c1 + u2 * self.c2 + v0 * self.cv;
                    f(ci, base, col0, lanes.min(self.nv - v0));
                    ci += 1;
                }
            }
        }
    }

    /// Partial-sum floats any pass needs: every chunk padded to the
    /// widest lane count, times the most rows a pass holds.
    fn partial_len(self) -> usize {
        self.n1 * self.n2 * (self.nv + MAX_LANES - 1) * PASS_ROWS
    }
}

/// How the streaming driver reads one B source: the length of the
/// zero-padded image it stages first (0 for `Rows`), the row offsets and
/// the column chunks.
struct StreamLayout {
    stage: usize,
    odo: Odometer,
    grid: Grid,
}

impl StreamLayout {
    fn of(bsrc: &BSrc<'_>, k: usize, n: usize) -> StreamLayout {
        match bsrc {
            // (`Cols` never streams; see `driver`.)
            BSrc::Rows(_) | BSrc::Cols(_) => StreamLayout {
                stage: 0,
                odo: Odometer {
                    nb: 1,
                    nd: k.max(1),
                    sa: 0,
                    sb: 0,
                    sd: n,
                },
                grid: Grid {
                    n1: 1,
                    b1: 0,
                    c1: 0,
                    n2: 1,
                    b2: 0,
                    c2: 0,
                    nv: n,
                    bv: 1,
                    cv: 1,
                },
            },
            BSrc::Im2col(v) => {
                let (_, wp) = v.padded_extents();
                StreamLayout {
                    stage: v.padded_len(),
                    // p = (channel, ky, kx) over channels-first planes
                    odo: Odometer {
                        nb: v.kh,
                        nd: v.kw,
                        sa: v.padded_len() / v.c_in,
                        sb: wp,
                        sd: 1,
                    },
                    // chunks: (output row, -, output x run)
                    grid: Grid {
                        n1: v.h_out,
                        b1: v.stride * wp,
                        c1: v.w_out,
                        n2: 1,
                        b2: 0,
                        c2: 0,
                        nv: v.w_out,
                        bv: v.stride,
                        cv: 1,
                    },
                }
            }
            BSrc::Im2colT(v) => {
                let (_, wp) = v.padded_extents();
                let c_in = v.c_in;
                StreamLayout {
                    stage: v.padded_len(),
                    // p = (output y, output x) over channels-last pixels
                    odo: Odometer {
                        nb: v.h_out,
                        nd: v.w_out,
                        sa: 0,
                        sb: v.stride * wp * c_in,
                        sd: v.stride * c_in,
                    },
                    // chunks: (ky, kx, channel run); column = channel·khw + tap
                    grid: Grid {
                        n1: v.kh,
                        b1: wp * c_in,
                        c1: v.kw,
                        n2: v.kw,
                        b2: c_in,
                        c2: 1,
                        nv: c_in,
                        bv: 1,
                        cv: v.kh * v.kw,
                    },
                }
            }
        }
    }

    /// Workspace floats: the staged image, then the partial sums.
    fn workspace_len(&self) -> usize {
        self.stage + self.grid.partial_len()
    }
}

impl Im2colView<'_> {
    /// Extents `(hp, wp)` of the zero-padded image the streaming driver
    /// stages: the image framed by `padding` zeros, grown where a window
    /// would otherwise reach past it (images smaller than the kernel).
    fn padded_extents(&self) -> (usize, usize) {
        let hp = (self.h + 2 * self.padding).max((self.h_out - 1) * self.stride + self.kh);
        let wp = (self.w + 2 * self.padding).max((self.w_out - 1) * self.stride + self.kw);
        (hp, wp)
    }

    /// Length of the staged zero-padded image.
    fn padded_len(&self) -> usize {
        let (hp, wp) = self.padded_extents();
        self.c_in * hp * wp
    }
}

/// Stage the view's image, zero-padded, into `dst`: channels-first
/// (`[c][hp][wp]`, for [`BSrc::Im2col`]) or channels-last (`[hp][wp][c]`,
/// for [`BSrc::Im2colT`]). Every tap of every output pixel then lands
/// inside the copy, and the taps outside the image read zeros.
#[dlsr::hot]
fn stage_padded(v: &Im2colView<'_>, channels_last: bool, dst: &mut [f32]) {
    let (hp, wp) = v.padded_extents();
    let (c_in, h, w, pad) = (v.c_in, v.h, v.w, v.padding);
    let dst = &mut dst[..c_in * hp * wp];
    if channels_last {
        for (y, drow) in dst.chunks_exact_mut(wp * c_in).enumerate() {
            if y < pad || y >= pad + h {
                drow.fill(0.0);
                continue;
            }
            let (left, rest) = drow.split_at_mut(pad * c_in);
            let (mid, right) = rest.split_at_mut(w * c_in);
            left.fill(0.0);
            right.fill(0.0);
            for ch in 0..c_in {
                let src = &v.img[(ch * h + y - pad) * w..][..w];
                for (d, &s) in mid[ch..].iter_mut().step_by(c_in).zip(src) {
                    *d = s;
                }
            }
        }
    } else {
        for (ch, plane) in dst.chunks_exact_mut(hp * wp).enumerate() {
            for (y, drow) in plane.chunks_exact_mut(wp).enumerate() {
                if y < pad || y >= pad + h {
                    drow.fill(0.0);
                    continue;
                }
                let (left, rest) = drow.split_at_mut(pad);
                let (mid, right) = rest.split_at_mut(w);
                left.fill(0.0);
                right.fill(0.0);
                mid.copy_from_slice(&v.img[(ch * h + y - pad) * w..][..w]);
            }
        }
    }
}

/// Eight `f32` lanes, one AVX2 register's worth: the unit the streaming
/// driver's chains are written in, so that they vectorize.
type Lane8 = [f32; 8];

#[inline(always)]
fn fma8(a: f32, b: &Lane8, c: Lane8) -> Lane8 {
    std::array::from_fn(|l| a.mul_add(b[l], c[l]))
}

/// Continue the chains of one `8·V`-lane chunk of `M` rows over a sweep of
/// B rows: `acc[i][l] = fma(A(i, p), B(p, l), acc[i][l])` for each row `p`
/// in ascending order, `A(i, p)` at `a_rows[p·M + i]` and lane `l` of row
/// `p` at `src[base + off(p) + l]`.
/// The accumulators live in `partial` between sweeps (an exact `f32`
/// round trip) and in registers during one.
#[inline(always)]
#[dlsr::hot]
fn sweep_lanes<const M: usize, const V: usize>(
    partial: &mut [f32],
    a_rows: &[f32],
    src: &[f32],
    base: usize,
    offs: &[usize],
) {
    let lane8 = |s: &[f32], j: usize| -> Lane8 { s[j * 8..j * 8 + 8].try_into().expect("8 lanes") };
    let mut acc: [[Lane8; V]; M] =
        std::array::from_fn(|i| std::array::from_fn(|v| lane8(partial, i * V + v)));
    for (av, &off) in a_rows.as_chunks::<M>().0.iter().zip(offs) {
        let run = &src[base + off..base + off + 8 * V];
        let b: [Lane8; V] = std::array::from_fn(|v| lane8(run, v));
        for i in 0..M {
            for v in 0..V {
                acc[i][v] = fma8(av[i], &b[v], acc[i][v]);
            }
        }
    }
    for (i, acc_i) in acc.iter().enumerate() {
        for (v, x) in acc_i.iter().enumerate() {
            partial[(i * V + v) * 8..(i * V + v + 1) * 8].copy_from_slice(x);
        }
    }
}

/// [`sweep_lanes`] for chunks whose lanes are strided (`step` apart) or
/// run past the end of `src`, with the chunk's `m` rows and `lanes` lanes
/// as runtime values (`a_rows` holds `m` values per B row): each lane is
/// read on its own, zeros past the end of `src`.
#[allow(clippy::too_many_arguments)]
#[inline(never)]
#[dlsr::hot]
fn sweep_lanes_gather(
    partial: &mut [f32],
    a_rows: &[f32],
    m: usize,
    lanes: usize,
    src: &[f32],
    base: usize,
    step: usize,
    offs: &[usize],
) {
    for (av, &off) in a_rows.chunks_exact(m).zip(offs) {
        for (acc, &a) in partial.chunks_exact_mut(lanes).zip(av) {
            for (t, x) in acc.iter_mut().enumerate() {
                let b = src.get(base + off + t * step).copied().unwrap_or(0.0);
                *x = a.mul_add(b, *x);
            }
        }
    }
}

/// One streaming GEMM call: the packed A panels and their blocking, B as
/// the driver reads it, and where the results go.
struct StreamCall<'a> {
    apack: &'a [f32],
    mr: usize,
    mr_pad: usize,
    kc: usize,
    k: usize,
    n: usize,
    src: &'a [f32],
    lay: StreamLayout,
    epi: Epilogue<'a>,
}

/// Continues one chunk's chains over one sweep: `(partial chunk, A rows
/// of the sweep, source base, row offsets)`.
type Sweep<'a> = &'a dyn Fn(&mut [f32], &[f32], usize, &[usize]);

/// Output rows `r0..r0 + m` (`m ≤ PASS_ROWS`) of a streaming GEMM,
/// `lanes` lanes per chunk, `sweep` the [`sweep_lanes`] of that shape.
///
/// Per `KC` block every chain starts from `+0` in `partial`; the block's
/// B rows are swept [`SWEEP_ROWS`] at a time in ascending order, each
/// sweep visiting every chunk; then each chunk's sums are copied (first
/// block) or added (later blocks) into `C`, with the epilogue after the
/// last block. Per output element that is the engine's arithmetic: one
/// ascending-`p` `mul_add` chain per block, one plain add per boundary.
#[allow(clippy::too_many_arguments)]
fn stream_pass(
    s: &StreamCall<'_>,
    r0: usize,
    m: usize,
    lanes: usize,
    c: &mut [f32],
    partial: &mut [f32],
    sweep: Sweep<'_>,
) {
    let (mr, k, n, g) = (s.mr, s.k, s.n, s.lay.grid);
    let chunk_len = m * lanes;
    let nchunks = g.n1 * g.n2 * g.nv.div_ceil(lanes);
    for kb in (0..k).step_by(s.kc) {
        let kc = s.kc.min(k - kb);
        partial[..nchunks * chunk_len].fill(0.0);
        for p0 in (kb..kb + kc).step_by(SWEEP_ROWS) {
            let rows = SWEEP_ROWS.min(kb + kc - p0);
            let mut offs = [0usize; SWEEP_ROWS];
            let offs = &mut offs[..rows];
            s.lay.odo.fill(p0, offs);
            let offs = &*offs;
            // A(r0 + i, p) sits in panel (r0 + i) / mr of block kb.
            let mut a_buf = [0.0f32; SWEEP_ROWS * PASS_ROWS];
            let a_rows = &mut a_buf[..rows * m];
            for (q, ar) in (p0 - kb..).zip(a_rows.chunks_exact_mut(m)) {
                for (row, x) in (r0..).zip(ar) {
                    *x = s.apack[kb * s.mr_pad + row / mr * (mr * kc) + q * mr + row % mr];
                }
            }
            let a_rows = &*a_rows;
            g.for_each_chunk(lanes, |ci, base, _, _| {
                let pc = &mut partial[ci * chunk_len..(ci + 1) * chunk_len];
                // Row offsets grow with p: the sweep's last row bounds it.
                if g.bv == 1 && base + offs[rows - 1] + lanes <= s.src.len() {
                    sweep(pc, a_rows, base, offs);
                } else {
                    sweep_lanes_gather(pc, a_rows, m, lanes, s.src, base, g.bv, offs);
                }
            });
        }
        let finalize = (kb + kc == k).then_some(s.epi);
        g.for_each_chunk(lanes, |ci, _, col0, live| {
            let pc = &partial[ci * chunk_len..(ci + 1) * chunk_len];
            for (i, acc) in pc.chunks_exact(lanes).enumerate() {
                let row = &mut c[(r0 + i) * n..(r0 + i + 1) * n];
                for (t, &x) in acc[..live].iter().enumerate() {
                    let d = &mut row[col0 + t * g.cv];
                    let v = if kb == 0 { x } else { *d + x };
                    *d = finalize.map_or(v, |e| e.apply(v, r0 + i));
                }
            }
        });
    }
}

/// The streaming driver for skinny `M`: B is never packed. `Rows` are read
/// in place; an im2col view is first staged once into `ws` as a
/// zero-padded image — channels-first for `Im2col`, so a chunk's lanes are
/// a shifted image-row run, and channels-last for `Im2colT`, so lanes run
/// over channels. The rest of `ws` holds the chunks' partial sums. Rows go
/// in passes of up to [`PASS_ROWS`].
#[allow(clippy::too_many_arguments)]
fn gemm_stream(
    bp: &Blueprint,
    apack: &[f32],
    bsrc: BSrc<'_>,
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    epi: Epilogue<'_>,
    ws: &mut [f32],
) {
    let lay = StreamLayout::of(&bsrc, k, n);
    let (stage, partial) = ws.split_at_mut(lay.stage);
    let src: &[f32] = match bsrc {
        BSrc::Rows(b) => b,
        BSrc::Im2col(v) | BSrc::Im2colT(v) => {
            stage_padded(&v, matches!(bsrc, BSrc::Im2colT(_)), stage);
            stage
        }
        BSrc::Cols(_) => unreachable!("`Cols` runs on the blocked engine"),
    };
    let call = StreamCall {
        apack,
        mr: bp.mr,
        mr_pad: m.div_ceil(bp.mr) * bp.mr,
        kc: bp.kc,
        k,
        n,
        src,
        lay,
        epi,
    };
    for r0 in (0..m).step_by(PASS_ROWS) {
        let rows = (m - r0).min(PASS_ROWS);
        // Lanes per chunk: a sweep's accumulators fill most of the 16 AVX2
        // registers.
        let lanes = if rows == 4 { 16 } else { 32 };
        let sweep: Sweep<'_> = match rows {
            1 => &|pc, a, base, offs| sweep_lanes::<1, 4>(pc, a, src, base, offs),
            2 => &|pc, a, base, offs| sweep_lanes::<2, 4>(pc, a, src, base, offs),
            3 => &|pc, a, base, offs| sweep_lanes::<3, 4>(pc, a, src, base, offs),
            _ => &|pc, a, base, offs| sweep_lanes::<4, 2>(pc, a, src, base, offs),
        };
        stream_pass(&call, r0, rows, lanes, c, partial, sweep);
    }
}

/// Sequential driver: per `NC` column block and `KC` panel, pack the B
/// block into `stage` and run the microkernels over it, then pack the next
/// panel into the same buffer. `stage` holds at least one `KC×NC` block
/// (see [`workspace_len`]).
#[allow(clippy::too_many_arguments)]
fn gemm_seq<E: Elem>(
    bp: &Blueprint,
    kernel: KernelId,
    apack: &[E],
    bsrc: BSrc<'_>,
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    epi: Epilogue<'_>,
    stage: &mut [E],
) {
    let (nr, kc_full, nc) = (bp.nr, bp.kc, bp.nc);
    let kb_last = (k - 1) / kc_full * kc_full;
    for jc in (0..n).step_by(nc) {
        let ncb = nc.min(n - jc).div_ceil(nr) * nr;
        for kb in (0..k).step_by(kc_full) {
            let kc = kc_full.min(k - kb);
            pack_b_block::<E>(bp, bsrc, k, n, jc, ncb, kb, kc, stage);
            compute_block::<E>(
                kernel,
                bp,
                apack,
                stage,
                c,
                0,
                m,
                n,
                jc,
                ncb,
                kb,
                kc,
                epi,
                kb == kb_last,
            );
        }
    }
}

/// Packed length of a full B prepack under `bp` (the row-parallel path).
fn packed_b_len_for(bp: &Blueprint, k: usize, n: usize) -> usize {
    let full = n / bp.nc * bp.nc;
    let cols = full + (n - full).div_ceil(bp.nr) * bp.nr;
    k * cols
}

/// Row-parallel driver: prepack all of B once into `bfull` (parallel over
/// column blocks), then fan the row panels of `C` out across rayon. Per
/// output element the k-order is identical to [`gemm_seq`], so the two
/// drivers are bitwise interchangeable.
#[allow(clippy::too_many_arguments)]
fn gemm_rows_par<E: Elem>(
    bp: &Blueprint,
    kernel: KernelId,
    apack: &[E],
    bsrc: BSrc<'_>,
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    epi: Epilogue<'_>,
    bfull: &mut [E],
) {
    let (mr, nr, kc_full, nc) = (bp.mr, bp.nr, bp.kc, bp.nc);
    // Carve one disjoint slice per column block so packing can fan out.
    let mut blocks: Vec<(usize, usize, &mut [E])> = Vec::new();
    let mut rest: &mut [E] = bfull;
    for jc in (0..n).step_by(nc) {
        let ncb = nc.min(n - jc).div_ceil(nr) * nr;
        let (head, tail) = rest.split_at_mut(k * ncb);
        blocks.push((jc, ncb, head));
        rest = tail;
    }
    blocks.par_iter_mut().for_each(|(jc, ncb, dst)| {
        let mut off = 0;
        for kb in (0..k).step_by(kc_full) {
            let kc = kc_full.min(k - kb);
            pack_b_block::<E>(bp, bsrc, k, n, *jc, *ncb, kb, kc, &mut dst[off..]);
            off += *ncb * kc;
        }
    });
    let kb_last = (k - 1) / kc_full * kc_full;
    let blocks = &blocks;
    c.par_chunks_mut(mr * n).enumerate().for_each(|(ip, rows)| {
        for (jc, ncb, bblk) in blocks.iter() {
            let mut off = 0;
            for kb in (0..k).step_by(kc_full) {
                let kc = kc_full.min(k - kb);
                compute_block::<E>(
                    kernel,
                    bp,
                    apack,
                    &bblk[off..off + ncb * kc],
                    rows,
                    ip,
                    m,
                    n,
                    *jc,
                    *ncb,
                    kb,
                    kc,
                    epi,
                    kb == kb_last,
                );
                off += ncb * kc;
            }
        }
    });
}

/// Which driver runs one GEMM call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Driver {
    /// [`gemm_stream`]: skinny-M blueprints over every source but `Cols`.
    Stream,
    /// [`gemm_rows_par`]: row panels fanned out across rayon.
    Rows,
    /// [`gemm_seq`]: one staged B block at a time.
    Seq,
}

fn driver<E: Elem>(bp: &Blueprint, bsrc: &BSrc<'_>, force_seq: bool) -> Driver {
    if E::STREAMS && bp.kernel == KernelId::Stream && !matches!(bsrc, BSrc::Cols(_)) {
        Driver::Stream
    } else if !force_seq && bp.par == ParHint::Rows && rayon::current_num_threads() > 1 {
        Driver::Rows
    } else {
        Driver::Seq
    }
}

/// The kernel variant that serves one GEMM call: [`KernelId::Stream`] when
/// the streaming driver runs, otherwise the blueprint's tile kernel as
/// this machine executes it. Span labels and the `gemm.variant.*`
/// counters name this.
pub(crate) fn variant<E: Elem>(bp: &Blueprint, bsrc: &BSrc<'_>, force_seq: bool) -> KernelId {
    match driver::<E>(bp, bsrc, force_seq) {
        Driver::Stream => KernelId::Stream,
        Driver::Rows | Driver::Seq => bp.kernel.tile_kernel(),
    }
}

/// Scratch length, in `E` elements, that one GEMM call needs: the
/// streaming driver's padded image copy, the full B prepack of the
/// row-parallel driver, or one staged `KC×NC` block.
pub(crate) fn workspace_len<E: Elem>(
    bp: &Blueprint,
    bsrc: &BSrc<'_>,
    m: usize,
    k: usize,
    n: usize,
    force_seq: bool,
) -> usize {
    if m == 0 || k == 0 || n == 0 {
        return 0;
    }
    match driver::<E>(bp, bsrc, force_seq) {
        Driver::Stream => StreamLayout::of(bsrc, k, n).workspace_len(),
        Driver::Rows => packed_b_len_for(bp, k, n),
        Driver::Seq => bp.nc.min(n.div_ceil(bp.nr) * bp.nr) * bp.kc.min(k),
    }
}

/// [`gemm`] over either panel element type, with the caller's workspace
/// (`ws.len() >= workspace_len(..)`).
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_generic<E: Elem>(
    bp: &Blueprint,
    apack: &[E],
    bsrc: BSrc<'_>,
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    epi: Epilogue<'_>,
    force_seq: bool,
    ws: &mut [E],
) {
    assert_eq!(c.len(), m * n);
    assert_eq!(apack.len(), packed_a_len(bp, m, k));
    match bsrc {
        BSrc::Rows(b) => assert_eq!(b.len(), k * n),
        BSrc::Cols(b) => assert_eq!(b.len(), n * k),
        BSrc::Im2col(v) => debug_assert_eq!((v.rows(), v.cols()), (k, n)),
        BSrc::Im2colT(v) => debug_assert_eq!((v.cols(), v.rows()), (k, n)),
    }
    assert!(ws.len() >= workspace_len::<E>(bp, &bsrc, m, k, n, force_seq));
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        // Empty dot products: C is the epilogue applied to zero.
        for (i, row) in c.chunks_exact_mut(n).enumerate() {
            match epi {
                Epilogue::None | Epilogue::Relu => row.fill(0.0),
                Epilogue::Bias(bias) => row.fill(bias[i]),
                Epilogue::BiasRelu(bias) => row.fill(bias[i].max(0.0)),
            }
        }
        return;
    }
    let drv = driver::<E>(bp, &bsrc, force_seq);
    let kernel = variant::<E>(bp, &bsrc, force_seq);
    let tiles = m.div_ceil(bp.mr) * n.div_ceil(bp.nr) * k.div_ceil(bp.kc);
    dlsr_trace::counter_add(kernel.counter_key(), tiles as f64);
    match drv {
        Driver::Stream => E::stream(bp, apack, bsrc, c, m, k, n, epi, ws),
        Driver::Rows => gemm_rows_par::<E>(bp, kernel, apack, bsrc, c, m, k, n, epi, ws),
        Driver::Seq => gemm_seq::<E>(bp, kernel, apack, bsrc, c, m, k, n, epi, ws),
    }
}

/// Multiply a prepacked A against any B source: `c[m×n] = A·B`, then apply
/// `epi`. `c` is overwritten.
///
/// `force_seq` pins a sequential driver — callers already inside a
/// batch-parallel region must not fan out again. Either way the result is
/// bitwise identical (see module docs).
#[allow(clippy::too_many_arguments)]
pub fn gemm(
    bp: &Blueprint,
    apack: &[f32],
    bsrc: BSrc<'_>,
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    epi: Epilogue<'_>,
    force_seq: bool,
) {
    let mut ws = scratch::take(workspace_len::<f32>(bp, &bsrc, m, k, n, force_seq));
    gemm_generic::<f32>(bp, apack, bsrc, c, m, k, n, epi, force_seq, &mut ws);
}

/// `C = A(m×k) · B(k×n)`.
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (m, k) = a.shape().as_2d()?;
    let (k2, n) = b.shape().as_2d()?;
    if k != k2 {
        return Err(TensorError::ShapeMismatch {
            expected: vec![k],
            got: vec![k2],
            context: "matmul (inner dimensions)",
        });
    }
    let mut out = Tensor::zeros([m, n]);
    matmul_into(a.data(), b.data(), out.data_mut(), m, k, n);
    Ok(out)
}

/// GEMM on raw slices: `c[m×n] = a[m×k] · b[k×n]`. `c` is overwritten.
///
/// Exposed so layers can reuse scratch buffers without constructing
/// intermediate `Tensor`s. Resolves the blueprint for the shape, packs A
/// into pooled scratch, and drives the staged-B engine.
pub fn matmul_into(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k);
    assert_eq!(b.len(), k * n);
    assert_eq!(c.len(), m * n);
    let bp = tune::select(m, k, n);
    let _span = dlsr_trace::span_with(
        || format!("gemm {m}x{k}x{n} {}", bp.kernel.executes_as().as_str()),
        dlsr_trace::cat::GEMM,
    );
    let mut apack = scratch::take(packed_a_len(&bp, m, k));
    pack_a(&bp, a, m, k, &mut apack);
    gemm(
        &bp,
        &apack,
        BSrc::Rows(b),
        c,
        m,
        k,
        n,
        Epilogue::None,
        false,
    );
}

/// `C = Aᵀ(k×m)ᵀ · B(k×n)` i.e. `C(m×n) = Σ_p a[p,i]·b[p,j]`, without
/// materializing the transpose. Used by linear-layer weight gradients.
pub fn matmul_at_b(a: &[f32], b: &[f32], c: &mut [f32], k: usize, m: usize, n: usize) {
    assert_eq!(a.len(), k * m);
    assert_eq!(b.len(), k * n);
    assert_eq!(c.len(), m * n);
    let bp = tune::select(m, k, n);
    let mut apack = scratch::take(packed_a_len(&bp, m, k));
    pack_a_transposed(&bp, a, m, k, &mut apack);
    gemm(
        &bp,
        &apack,
        BSrc::Rows(b),
        c,
        m,
        k,
        n,
        Epilogue::None,
        false,
    );
}

/// `C = A(m×k) · Bᵀ(n×k)ᵀ` i.e. `C(m×n) = Σ_p a[i,p]·b[j,p]`, without
/// materializing the transpose. Used by linear-layer input gradients.
pub fn matmul_a_bt(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k);
    assert_eq!(b.len(), n * k);
    assert_eq!(c.len(), m * n);
    let bp = tune::select(m, k, n);
    let mut apack = scratch::take(packed_a_len(&bp, m, k));
    pack_a(&bp, a, m, k, &mut apack);
    gemm(
        &bp,
        &apack,
        BSrc::Cols(b),
        c,
        m,
        k,
        n,
        Epilogue::None,
        false,
    );
}

/// Transpose a 2-D tensor.
pub fn transpose(a: &Tensor) -> Result<Tensor> {
    let (m, n) = a.shape().as_2d()?;
    let mut out = Tensor::zeros([n, m]);
    let src = a.data();
    out.data_mut()
        .par_chunks_mut(m)
        .enumerate()
        .for_each(|(j, orow)| {
            for (i, o) in orow.iter_mut().enumerate() {
                *o = src[i * n + j];
            }
        });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::ALL_KERNELS;

    fn naive(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut c = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                for p in 0..k {
                    c[i * n + j] += a[i * k + p] * b[p * n + j];
                }
            }
        }
        c
    }

    fn seq(len: usize, step: f32) -> Vec<f32> {
        (0..len).map(|i| (i as f32 * step).sin()).collect()
    }

    /// Run a GEMM under an explicit blueprint (bypassing the tune table).
    fn run_with(bp: &Blueprint, a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut apack = vec![0.0; packed_a_len(bp, m, k)];
        pack_a(bp, a, m, k, &mut apack);
        let mut c = vec![0.0; m * n];
        gemm(
            bp,
            &apack,
            BSrc::Rows(b),
            &mut c,
            m,
            k,
            n,
            Epilogue::None,
            false,
        );
        c
    }

    fn scalar_bp(mr: usize, nr: usize, kc: usize, nc: usize) -> Blueprint {
        Blueprint {
            kernel: KernelId::Scalar,
            mr,
            nr,
            kc,
            nc,
            par: ParHint::Seq,
        }
    }

    #[test]
    fn small_known_product() {
        let a = Tensor::from_vec([2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let b = Tensor::from_vec([2, 2], vec![5.0, 6.0, 7.0, 8.0]).unwrap();
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matches_naive_rectangular() {
        let (m, k, n) = (7, 5, 9);
        let a = seq(m * k, 0.37);
        let b = seq(k * n, 0.21);
        let at = Tensor::from_vec([m, k], a.clone()).unwrap();
        let bt = Tensor::from_vec([k, n], b.clone()).unwrap();
        let c = matmul(&at, &bt).unwrap();
        let reference = naive(&a, &b, m, k, n);
        for (x, y) in c.data().iter().zip(reference.iter()) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    /// Shapes that cross every blocking boundary: edge panels in M and N,
    /// multiple KC blocks, multiple NC blocks, and the 1×1×1 degenerate.
    #[test]
    fn matches_naive_across_block_boundaries() {
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (3, 7, 2),
            (4, 256, 16),
            (5, 259, 17),
            (5, 523, 33),
            (9, 40, 277),
            (11, 19, 513),
        ] {
            let a = seq(m * k, 0.013);
            let b = seq(k * n, 0.007);
            let mut c = vec![0.0; m * n];
            matmul_into(&a, &b, &mut c, m, k, n);
            let reference = naive(&a, &b, m, k, n);
            for (i, (x, y)) in c.iter().zip(reference.iter()).enumerate() {
                assert!(
                    (x - y).abs() < 1e-3,
                    "({m},{k},{n}) element {i}: {x} vs {y}"
                );
            }
        }
    }

    /// The core contract: every executable kernel variant, at its own
    /// geometry, produces bitwise identical results to the geometry-free
    /// scalar oracle — given the same `kc`.
    #[test]
    fn all_variants_bitwise_equal() {
        for &(m, k, n) in &[(13usize, 300usize, 47usize), (64, 27, 130), (3, 576, 65)] {
            let a = seq(m * k, 0.019);
            let b = seq(k * n, 0.027);
            let kc = k.min(256);
            let oracle = run_with(&scalar_bp(4, 16, kc, 256), &a, &b, m, k, n);
            let oracle_bits: Vec<u32> = oracle.iter().map(|x| x.to_bits()).collect();
            for kid in ALL_KERNELS {
                if kid.executes_as() != kid {
                    continue;
                }
                let (mr, nr) = kid.geometry().unwrap_or((7, 16));
                let bp = Blueprint {
                    kernel: kid,
                    mr,
                    nr,
                    kc,
                    nc: (256 / nr).max(1) * nr,
                    par: ParHint::Seq,
                };
                let got = run_with(&bp, &a, &b, m, k, n);
                let bits: Vec<u32> = got.iter().map(|x| x.to_bits()).collect();
                assert_eq!(bits, oracle_bits, "{kid:?} diverged on ({m},{k},{n})");
            }
        }
    }

    /// The row-parallel driver and the sequential staged driver must
    /// agree bitwise — thread-count determinism.
    #[test]
    fn rows_driver_matches_seq_bitwise() {
        let (m, k, n) = (23, 300, 290);
        let a = seq(m * k, 0.023);
        let b = seq(k * n, 0.011);
        let bp = scalar_bp(4, 16, 256, 256);
        let mut apack = vec![0.0; packed_a_len(&bp, m, k)];
        pack_a(&bp, &a, m, k, &mut apack);
        let mut c_seq = vec![0.0; m * n];
        let mut stage = vec![0.0; bp.nc * bp.kc];
        gemm_seq::<f32>(
            &bp,
            KernelId::Scalar,
            &apack,
            BSrc::Rows(&b),
            &mut c_seq,
            m,
            k,
            n,
            Epilogue::None,
            &mut stage,
        );
        let mut c_par = vec![0.0; m * n];
        let mut bfull = vec![0.0; packed_b_len_for(&bp, k, n)];
        gemm_rows_par::<f32>(
            &bp,
            KernelId::Scalar,
            &apack,
            BSrc::Rows(&b),
            &mut c_par,
            m,
            k,
            n,
            Epilogue::None,
            &mut bfull,
        );
        assert_eq!(c_seq, c_par);
    }

    /// The parallel decomposition is a row partition; computing any row
    /// subset independently must reproduce the full result bit for bit.
    /// Sub-shapes select different blueprints (different m), so this also
    /// pins geometry-invariance end to end through the tune table.
    #[test]
    fn row_partition_is_bitwise_deterministic() {
        let (m, k, n) = (11, 265, 277);
        let a = seq(m * k, 0.023);
        let b = seq(k * n, 0.011);
        let mut full = vec![0.0; m * n];
        matmul_into(&a, &b, &mut full, m, k, n);
        let m_top = 8;
        let mut top = vec![0.0; m_top * n];
        let mut bottom = vec![0.0; (m - m_top) * n];
        matmul_into(&a[..m_top * k], &b, &mut top, m_top, k, n);
        matmul_into(&a[m_top * k..], &b, &mut bottom, m - m_top, k, n);
        assert_eq!(&full[..m_top * n], &top[..]);
        assert_eq!(&full[m_top * n..], &bottom[..]);
    }

    #[test]
    fn epilogues_apply_after_full_sum() {
        let (m, k, n) = (6, 261, 10);
        let a = seq(m * k, 0.017);
        let b = seq(k * n, 0.029);
        let bias: Vec<f32> = (0..m).map(|i| i as f32 - 2.5).collect();
        let plain = naive(&a, &b, m, k, n);
        let bp = tune::select(m, k, n);
        let mut apack = vec![0.0; packed_a_len(&bp, m, k)];
        pack_a(&bp, &a, m, k, &mut apack);

        let mut c = vec![0.0; m * n];
        gemm(
            &bp,
            &apack,
            BSrc::Rows(&b),
            &mut c,
            m,
            k,
            n,
            Epilogue::Bias(&bias),
            false,
        );
        for i in 0..m {
            for j in 0..n {
                let want = plain[i * n + j] + bias[i];
                assert!((c[i * n + j] - want).abs() < 1e-3);
            }
        }

        gemm(
            &bp,
            &apack,
            BSrc::Rows(&b),
            &mut c,
            m,
            k,
            n,
            Epilogue::BiasRelu(&bias),
            false,
        );
        for i in 0..m {
            for j in 0..n {
                let want = (plain[i * n + j] + bias[i]).max(0.0);
                assert!((c[i * n + j] - want).abs() < 1e-3);
                assert!(c[i * n + j] >= 0.0);
            }
        }

        gemm(
            &bp,
            &apack,
            BSrc::Rows(&b),
            &mut c,
            m,
            k,
            n,
            Epilogue::Relu,
            false,
        );
        assert!(c.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn zero_k_applies_epilogue_to_zero() {
        let bp = scalar_bp(4, 16, 1, 256);
        let bias = [1.5f32, -2.0];
        let mut c = vec![9.0; 2 * 3];
        gemm(
            &bp,
            &[],
            BSrc::Rows(&[]),
            &mut c,
            2,
            0,
            3,
            Epilogue::BiasRelu(&bias),
            false,
        );
        assert_eq!(c, vec![1.5, 1.5, 1.5, 0.0, 0.0, 0.0]);
    }

    /// Materialize an im2col matrix the naive way (test oracle for the
    /// virtual views).
    fn naive_im2col(v: &Im2colView<'_>) -> Vec<f32> {
        let (k, n) = (v.rows(), v.cols());
        let mut col = vec![0.0; k * n];
        let khw = v.kh * v.kw;
        for row in 0..k {
            let (c, rem) = (row / khw, row % khw);
            let (ky, kx) = (rem / v.kw, rem % v.kw);
            for j in 0..n {
                let (oy, ox) = (j / v.w_out, j % v.w_out);
                let iy = (oy * v.stride + ky) as isize - v.padding as isize;
                let ix = (ox * v.stride + kx) as isize - v.padding as isize;
                if iy >= 0 && iy < v.h as isize && ix >= 0 && ix < v.w as isize {
                    col[row * n + j] = v.img[(c * v.h + iy as usize) * v.w + ix as usize];
                }
            }
        }
        col
    }

    /// The virtual im2col source must pack to exactly what packing the
    /// materialized column matrix would produce — bitwise.
    #[test]
    fn virtual_im2col_matches_materialized() {
        for &(stride, padding) in &[(1usize, 0usize), (1, 1), (2, 1), (3, 2)] {
            let (c_in, h, w, kh, kw) = (3, 9, 8, 3, 3);
            let img = seq(c_in * h * w, 0.05);
            let v = Im2colView::new(&img, (c_in, h, w), (kh, kw), stride, padding);
            let (k, n) = (v.rows(), v.cols());
            let col = naive_im2col(&v);
            let (m_a, a) = (5usize, seq(5 * k, 0.031));
            let bp = scalar_bp(4, 16, k.min(256), 64);
            let mut apack = vec![0.0; packed_a_len(&bp, m_a, k)];
            pack_a(&bp, &a, m_a, k, &mut apack);
            let mut c_virtual = vec![0.0; m_a * n];
            gemm(
                &bp,
                &apack,
                BSrc::Im2col(v),
                &mut c_virtual,
                m_a,
                k,
                n,
                Epilogue::None,
                false,
            );
            let mut c_mat = vec![0.0; m_a * n];
            gemm(
                &bp,
                &apack,
                BSrc::Rows(&col),
                &mut c_mat,
                m_a,
                k,
                n,
                Epilogue::None,
                false,
            );
            assert_eq!(c_virtual, c_mat, "stride={stride} padding={padding}");

            // Transposed view vs Cols over the same materialized matrix:
            // B = colᵀ (hw_out × k patch rows).
            let bp_t = scalar_bp(4, 16, n.min(256), 64);
            let (m_t, at) = (4usize, seq(4 * n, 0.043));
            let mut apack_t = vec![0.0; packed_a_len(&bp_t, m_t, n)];
            pack_a(&bp_t, &at, m_t, n, &mut apack_t);
            let mut c_tv = vec![0.0; m_t * k];
            gemm(
                &bp_t,
                &apack_t,
                BSrc::Im2colT(v),
                &mut c_tv,
                m_t,
                n,
                k,
                Epilogue::None,
                false,
            );
            let mut c_tc = vec![0.0; m_t * k];
            gemm(
                &bp_t,
                &apack_t,
                BSrc::Cols(&col),
                &mut c_tc,
                m_t,
                n,
                k,
                Epilogue::None,
                false,
            );
            assert_eq!(c_tv, c_tc, "transposed stride={stride} padding={padding}");
        }
    }

    #[test]
    fn inner_dim_mismatch_is_error() {
        let a = Tensor::zeros([2, 3]);
        let b = Tensor::zeros([4, 2]);
        assert!(matmul(&a, &b).is_err());
    }

    #[test]
    fn at_b_equals_explicit_transpose() {
        let (k, m, n) = (262, 4, 5);
        let a = seq(k * m, 0.11);
        let b = seq(k * n, 0.07);
        let mut c = vec![0.0; m * n];
        matmul_at_b(&a, &b, &mut c, k, m, n);
        let at = transpose(&Tensor::from_vec([k, m], a).unwrap()).unwrap();
        let reference = matmul(&at, &Tensor::from_vec([k, n], b).unwrap()).unwrap();
        for (x, y) in c.iter().zip(reference.data().iter()) {
            assert!((x - y).abs() < 1e-3);
        }
    }

    #[test]
    fn a_bt_equals_explicit_transpose() {
        let (m, k, n) = (4, 262, 5);
        let a = seq(m * k, 0.13);
        let b = seq(n * k, 0.05);
        let mut c = vec![0.0; m * n];
        matmul_a_bt(&a, &b, &mut c, m, k, n);
        let bt = transpose(&Tensor::from_vec([n, k], b).unwrap()).unwrap();
        let reference = matmul(&Tensor::from_vec([m, k], a).unwrap(), &bt).unwrap();
        for (x, y) in c.iter().zip(reference.data().iter()) {
            assert!((x - y).abs() < 1e-3);
        }
    }

    #[test]
    fn transpose_round_trip() {
        let a = Tensor::from_vec([2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let t = transpose(&a).unwrap();
        assert_eq!(t.shape().dims(), &[3, 2]);
        assert_eq!(t.data(), &[1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
        assert_eq!(transpose(&t).unwrap(), a);
    }

    /// bf16 storage loses precision but must stay close on tame inputs,
    /// and be identical between B-source kinds.
    #[cfg(feature = "bf16")]
    #[test]
    fn bf16_gemm_tracks_f32() {
        let (m, k, n) = (6, 70, 40);
        let a = seq(m * k, 0.021);
        let b = seq(k * n, 0.033);
        let bp = scalar_bp(6, 16, 70, 256);
        let mut apack = vec![0u16; packed_a_len(&bp, m, k)];
        pack_a_impl::<u16>(&bp, &a, m, k, false, &mut apack);
        let mut c = vec![0.0; m * n];
        let mut ws = vec![0u16; workspace_len::<u16>(&bp, &BSrc::Rows(&b), m, k, n, false)];
        gemm_generic::<u16>(
            &bp,
            &apack,
            BSrc::Rows(&b),
            &mut c,
            m,
            k,
            n,
            Epilogue::None,
            false,
            &mut ws,
        );
        let reference = naive(&a, &b, m, k, n);
        for (x, y) in c.iter().zip(reference.iter()) {
            // ~2^-8 relative per product, accumulated over k=70 terms.
            assert!((x - y).abs() < 0.15, "{x} vs {y}");
        }
    }
}
