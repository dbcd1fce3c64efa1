//! Property-based tests for the tensor kernels: algebraic identities that
//! must hold for arbitrary shapes and data.

use proptest::prelude::*;

use dlsr_tensor::conv::{
    conv2d, conv2d_backward, conv2d_backward_reference, conv2d_reference, Conv2dParams,
};
use dlsr_tensor::kernels::KernelId;
use dlsr_tensor::matmul::{self, matmul, transpose, BSrc, Epilogue, Im2colView};
use dlsr_tensor::shuffle::{pixel_shuffle, pixel_unshuffle};
use dlsr_tensor::tune::{self, Blueprint, ParHint};
use dlsr_tensor::{elementwise, reduce, resize, scratch, Tensor};

/// Drive the blueprint GEMM engine the way the conv path does.
fn run_gemm(bp: &Blueprint, a: &Tensor, bsrc: BSrc<'_>, m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut apack = scratch::take(matmul::packed_a_len(bp, m, k));
    matmul::pack_a(bp, a.data(), m, k, &mut apack);
    let mut c = vec![0.0f32; m * n];
    matmul::gemm(bp, &apack, bsrc, &mut c, m, k, n, Epilogue::None, false);
    c
}

/// The scalar-oracle blueprint: same `kc` (the only bit-affecting field),
/// everything else deliberately different from the selected blueprint.
fn scalar_oracle(kc: usize) -> Blueprint {
    Blueprint {
        kernel: KernelId::Scalar,
        mr: 6,
        nr: 8,
        kc,
        nc: 64,
        par: ParHint::Seq,
    }
}

fn tensor_strategy(len: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-10.0f32..10.0, len)
}

/// The streaming-driver blueprint at a forced `kc`.
fn stream_bp(kc: usize) -> Blueprint {
    Blueprint {
        kernel: KernelId::Stream,
        mr: 4,
        nr: 16,
        kc,
        nc: 256,
        par: ParHint::Seq,
    }
}

/// Raw draws for [`special_values`]: a category and a finite value each.
fn raw_values(len: usize) -> impl Strategy<Value = Vec<(u32, f32)>> {
    proptest::collection::vec((0u32..100, -2.0f32..2.0), len)
}

/// Decode raw draws: mostly finite, with signed zeros sprinkled in, and —
/// when `non_finite` — infinities and NaNs too.
fn special_values(raw: &[(u32, f32)], non_finite: bool) -> Vec<f32> {
    raw.iter()
        .map(|&(cat, x)| match cat {
            0..=2 => 0.0,
            3..=5 => -0.0,
            6 if non_finite => f32::INFINITY,
            7 if non_finite => f32::NEG_INFINITY,
            8 if non_finite => f32::NAN,
            _ => x,
        })
        .collect()
}

/// One of the four epilogues, biases included (`-0.0` among them).
fn epilogue(which: usize, bias: &[f32]) -> Epilogue<'_> {
    match which {
        0 => Epilogue::None,
        1 => Epilogue::Bias(bias),
        2 => Epilogue::Relu,
        _ => Epilogue::BiasRelu(bias),
    }
}

/// `a[m×k]` packed under `bp` against `bsrc`, epilogue applied.
#[allow(clippy::too_many_arguments)]
fn run_gemm_epi(
    bp: &Blueprint,
    a: &[f32],
    bsrc: BSrc<'_>,
    m: usize,
    k: usize,
    n: usize,
    epi: Epilogue<'_>,
) -> Vec<u32> {
    let mut apack = scratch::take(matmul::packed_a_len(bp, m, k));
    matmul::pack_a(bp, a, m, k, &mut apack);
    let mut c = vec![0.0f32; m * n];
    matmul::gemm(bp, &apack, bsrc, &mut c, m, k, n, epi, false);
    // Bits, except that every NaN is one NaN: x86 FMA keeps the payload of
    // whichever NaN operand its encoding lists first, and the two drivers'
    // compiled loops may list them differently.
    c.iter()
        .map(|x| {
            if x.is_nan() {
                f32::NAN.to_bits()
            } else {
                x.to_bits()
            }
        })
        .collect()
}

/// The streaming driver against the scalar engine at the same `kc`, on
/// one B source.
#[allow(clippy::too_many_arguments)]
fn stream_matches_oracle(
    a: &[f32],
    bsrc: BSrc<'_>,
    m: usize,
    k: usize,
    n: usize,
    kc: usize,
    epi: Epilogue<'_>,
) -> Result<(), proptest::TestCaseError> {
    let kc = kc.clamp(1, k.max(1));
    let streamed = run_gemm_epi(&stream_bp(kc), a, bsrc, m, k, n, epi);
    let oracle = run_gemm_epi(&scalar_oracle(kc), a, bsrc, m, k, n, epi);
    prop_assert_eq!(streamed, oracle, "m={} k={} n={} kc={}", m, k, n, kc);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// a + b == b + a, elementwise.
    #[test]
    fn add_commutes(data in tensor_strategy(24)) {
        let a = Tensor::from_vec([24], data.clone()).unwrap();
        let b = Tensor::from_vec([24], data.iter().rev().copied().collect::<Vec<_>>()).unwrap();
        let ab = elementwise::add(&a, &b).unwrap();
        let ba = elementwise::add(&b, &a).unwrap();
        prop_assert_eq!(ab, ba);
    }

    /// (a - b) + b == a up to float rounding.
    #[test]
    fn sub_then_add_roundtrips(data in tensor_strategy(32)) {
        let a = Tensor::from_vec([32], data.clone()).unwrap();
        let b = Tensor::from_vec([32], data.iter().map(|x| x * 0.5 + 1.0).collect::<Vec<_>>()).unwrap();
        let back = elementwise::add(&elementwise::sub(&a, &b).unwrap(), &b).unwrap();
        prop_assert!(back.allclose(&a, 1e-4));
    }

    /// scale(a, s) sums to s * sum(a).
    #[test]
    fn scale_is_linear_in_sum(data in tensor_strategy(16), s in -4.0f32..4.0) {
        let a = Tensor::from_vec([16], data).unwrap();
        let scaled = elementwise::scale(&a, s);
        prop_assert!((reduce::sum(&scaled) - s * reduce::sum(&a)).abs() < 1e-2);
    }

    /// ReLU is idempotent and non-negative.
    #[test]
    fn relu_idempotent(data in tensor_strategy(40)) {
        let a = Tensor::from_vec([40], data).unwrap();
        let r1 = elementwise::relu(&a);
        let r2 = elementwise::relu(&r1);
        prop_assert_eq!(&r1, &r2);
        prop_assert!(r1.data().iter().all(|&x| x >= 0.0));
    }

    /// (Aᵀ)ᵀ == A for arbitrary rectangular matrices.
    #[test]
    fn transpose_involution(rows in 1usize..8, cols in 1usize..8, seed in 0u64..1000) {
        let a = dlsr_tensor::init::uniform([rows, cols], -1.0, 1.0, seed);
        let tt = transpose(&transpose(&a).unwrap()).unwrap();
        prop_assert_eq!(tt, a);
    }

    /// Matmul with the identity matrix is the identity map.
    #[test]
    fn matmul_identity(n in 1usize..8, seed in 0u64..1000) {
        let a = dlsr_tensor::init::uniform([n, n], -1.0, 1.0, seed);
        let mut eye = Tensor::zeros([n, n]);
        for i in 0..n {
            *eye.at_mut(&[i, i]) = 1.0;
        }
        let prod = matmul(&a, &eye).unwrap();
        prop_assert!(prod.allclose(&a, 1e-5));
    }

    /// The batch-parallel im2col+GEMM convolution agrees with the direct
    /// reference across the full hyper-parameter grid the stack trains
    /// with: stride ∈ {1,2}, padding ∈ {0,1,2}, kernel ∈ {1,3,5},
    /// batch ∈ {1,3,4}.
    #[test]
    fn conv_matches_reference(
        n_idx in 0usize..3,
        cin in 1usize..4,
        cout in 1usize..4,
        hw in 5usize..9,
        stride in 1usize..3,
        padding in 0usize..3,
        k_idx in 0usize..3,
        with_bias in proptest::bool::ANY,
        seed in 0u64..1000,
    ) {
        let n = [1usize, 3, 4][n_idx];
        let k = [1usize, 3, 5][k_idx];
        let p = Conv2dParams { stride, padding };
        let x = dlsr_tensor::init::uniform([n, cin, hw, hw], -1.0, 1.0, seed);
        let w = dlsr_tensor::init::uniform([cout, cin, k, k], -1.0, 1.0, seed + 1);
        let bias: Vec<f32> = (0..cout).map(|i| 0.1 * i as f32 - 0.2).collect();
        let b = with_bias.then_some(&bias[..]);
        let fast = conv2d(&x, &w, b, p).unwrap();
        let slow = conv2d_reference(&x, &w, b, p).unwrap();
        prop_assert!(fast.allclose(&slow, 1e-3), "diff {}", fast.max_abs_diff(&slow));
    }

    /// All three backward gradients agree with the direct-loop adjoint
    /// reference over the same hyper-parameter grid as the forward test.
    #[test]
    fn conv_backward_matches_reference(
        n_idx in 0usize..3,
        cin in 1usize..3,
        cout in 1usize..3,
        hw in 5usize..8,
        stride in 1usize..3,
        padding in 0usize..3,
        k_idx in 0usize..3,
        seed in 0u64..1000,
    ) {
        let n = [1usize, 3, 4][n_idx];
        let k = [1usize, 3, 5][k_idx];
        let p = Conv2dParams { stride, padding };
        let x = dlsr_tensor::init::uniform([n, cin, hw, hw], -1.0, 1.0, seed);
        let w = dlsr_tensor::init::uniform([cout, cin, k, k], -1.0, 1.0, seed + 1);
        let (ho, wo) = (p.out_extent(hw, k), p.out_extent(hw, k));
        let go = dlsr_tensor::init::uniform([n, cout, ho, wo], -1.0, 1.0, seed + 2);
        let (gi, gw, gb) = conv2d_backward(&x, &w, &go, p).unwrap();
        let (ri, rw, rb) = conv2d_backward_reference(&x, &w, &go, p).unwrap();
        prop_assert!(gi.allclose(&ri, 1e-3), "grad_input diff {}", gi.max_abs_diff(&ri));
        prop_assert!(gw.allclose(&rw, 1e-3), "grad_weight diff {}", gw.max_abs_diff(&rw));
        for (a, b) in gb.iter().zip(rb.iter()) {
            prop_assert!((a - b).abs() < 1e-3, "grad_bias {a} vs {b}");
        }
    }

    /// The SIMD microkernel path is **bitwise** identical to the scalar
    /// oracle for arbitrary shapes — including odd m/k/n tails that
    /// exercise the zero-padded edge panels. Only `kc` is shared between
    /// the two blueprints; kernel variant, tile geometry, `nc` and the
    /// parallel hint all differ, so this also pins the invariant that
    /// those fields never change result bits.
    #[test]
    fn gemm_simd_matches_scalar_bitwise(
        m in 1usize..40,
        k in 1usize..70,
        n in 1usize..80,
        seed in 0u64..1000,
    ) {
        let a = dlsr_tensor::init::uniform([m, k], -1.0, 1.0, seed);
        let b = dlsr_tensor::init::uniform([k, n], -1.0, 1.0, seed + 1);
        let bp = tune::heuristic(m, k, n);
        let fast = run_gemm(&bp, &a, BSrc::Rows(b.data()), m, k, n);
        let oracle = run_gemm(&scalar_oracle(bp.kc), &a, BSrc::Rows(b.data()), m, k, n);
        prop_assert_eq!(fast, oracle);
    }

    /// The virtual im2col packer (implicit-GEMM conv) is bitwise identical
    /// to a GEMM against the materialized column matrix, across the
    /// stride/padding/kernel grid — this is the property guarding the
    /// stride-1 row-run fast path's boundary arithmetic.
    #[test]
    fn implicit_im2col_matches_materialized_bitwise(
        c_in in 1usize..4,
        hw in 4usize..9,
        k_idx in 0usize..3,
        stride in 1usize..3,
        padding in 0usize..3,
        m in 1usize..6,
        seed in 0u64..1000,
    ) {
        let kk = [1usize, 3, 5][k_idx];
        let img = dlsr_tensor::init::uniform([c_in, hw, hw], -1.0, 1.0, seed);
        let view = Im2colView::new(img.data(), (c_in, hw, hw), (kk, kk), stride, padding);
        let (kdim, n) = (view.rows(), view.cols());
        prop_assume!(n > 0);
        // materialize the column matrix by the im2col definition
        let p = Conv2dParams { stride, padding };
        let w_out = p.out_extent(hw, kk);
        let mut col = vec![0.0f32; kdim * n];
        for r in 0..kdim {
            let (c, rem) = (r / (kk * kk), r % (kk * kk));
            let (ky, kx) = (rem / kk, rem % kk);
            for j in 0..n {
                let (oy, ox) = (j / w_out, j % w_out);
                let iy = (oy * stride + ky) as isize - padding as isize;
                let ix = (ox * stride + kx) as isize - padding as isize;
                if iy >= 0 && iy < hw as isize && ix >= 0 && ix < hw as isize {
                    col[r * n + j] = img.data()[(c * hw + iy as usize) * hw + ix as usize];
                }
            }
        }
        let a = dlsr_tensor::init::uniform([m, kdim], -1.0, 1.0, seed + 1);
        let bp = tune::heuristic(m, kdim, n);
        let implicit = run_gemm(&bp, &a, BSrc::Im2col(view), m, kdim, n);
        let materialized = run_gemm(&bp, &a, BSrc::Rows(&col), m, kdim, n);
        prop_assert_eq!(implicit, materialized);
    }

    /// The streaming driver (skinny M, B never packed) reproduces the
    /// scalar engine's bits on row-major B: every `m` it serves, `n` tails
    /// around its lane widths, multi-block `kc` boundaries, all four
    /// epilogues, signed zeros and non-finite inputs.
    #[test]
    fn stream_rows_matches_scalar_bitwise(
        mkn in (1usize..=8, 1usize..40, 1usize..70),
        kc_idx in 0usize..3,
        epi_idx in 0usize..4,
        non_finite in proptest::bool::ANY,
        raw in raw_values(8 * 40 + 40 * 70 + 8),
    ) {
        let (m, k, n) = mkn;
        let data = special_values(&raw, non_finite);
        let (a, rest) = data.split_at(m * k);
        let (b, rest) = rest.split_at(k * n);
        let kc = [5usize, 7, k][kc_idx];
        stream_matches_oracle(a, BSrc::Rows(b), m, k, n, kc, epilogue(epi_idx, &rest[..m]))?;
    }

    /// The same on the two im2col views the conv path streams — the
    /// forward (`Im2col`) and weight-gradient (`Im2colT`) GEMMs — over
    /// stride {1,2} × padding {0,1,2} × kernel {1,3,5}, including windows
    /// larger than the image.
    #[test]
    fn stream_im2col_matches_scalar_bitwise(
        conv in (1usize..4, 3usize..9, 0usize..3, 1usize..3, 0usize..3),
        m in 1usize..=8,
        idx in (0usize..3, 0usize..4),
        non_finite in proptest::bool::ANY,
        raw in raw_values(3 * 8 * 8 + 8 * 12 * 12 + 8),
    ) {
        let (c_in, hw, k_idx, stride, padding) = conv;
        let (kc_idx, epi_idx) = idx;
        let kk = [1usize, 3, 5][k_idx];
        let data = special_values(&raw, non_finite);
        let (img, rest) = data.split_at(c_in * hw * hw);
        let view = Im2colView::new(img, (c_in, hw, hw), (kk, kk), stride, padding);
        let (kdim, npix) = (view.rows(), view.cols());
        let (a, rest) = rest.split_at(m * kdim.max(npix));
        let epi = epilogue(epi_idx, &rest[..m]);
        let kc = [5usize, 7, kdim][kc_idx];
        stream_matches_oracle(&a[..m * kdim], BSrc::Im2col(view), m, kdim, npix, kc, epi)?;
        let kc = [5usize, 7, npix][kc_idx];
        stream_matches_oracle(&a[..m * npix], BSrc::Im2colT(view), m, npix, kdim, kc, epi)?;
    }

    /// pixel_unshuffle inverts pixel_shuffle for any compatible shape.
    #[test]
    fn shuffle_roundtrip(c in 1usize..4, hw in 1usize..5, r in 2usize..4, seed in 0u64..1000) {
        let x = dlsr_tensor::init::uniform([1, c * r * r, hw, hw], -1.0, 1.0, seed);
        let y = pixel_shuffle(&x, r).unwrap();
        prop_assert_eq!(pixel_unshuffle(&y, r).unwrap(), x);
    }

    /// Bicubic resize preserves constant images exactly (partition of unity).
    #[test]
    fn bicubic_preserves_constants(v in -2.0f32..2.0, hw in 4usize..16, out in 2usize..24) {
        let x = Tensor::full([1, 1, hw, hw], v);
        let y = resize::bicubic_resize(&x, out, out).unwrap();
        prop_assert!(y.data().iter().all(|&p| (p - v).abs() < 1e-4));
    }

    /// Reductions: mean * n == sum; min <= mean <= max.
    #[test]
    fn reduction_relations(data in tensor_strategy(20)) {
        let t = Tensor::from_vec([20], data).unwrap();
        prop_assert!((reduce::mean(&t) * 20.0 - reduce::sum(&t)).abs() < 1e-3);
        prop_assert!(reduce::min(&t) <= reduce::mean(&t) + 1e-6);
        prop_assert!(reduce::mean(&t) <= reduce::max(&t) + 1e-6);
    }

    /// Conv linearity: conv(a + b) == conv(a) + conv(b).
    #[test]
    fn conv_is_linear(seed in 0u64..1000) {
        let p = Conv2dParams::same(3);
        let w = dlsr_tensor::init::uniform([2, 2, 3, 3], -1.0, 1.0, seed);
        let a = dlsr_tensor::init::uniform([1, 2, 5, 5], -1.0, 1.0, seed + 1);
        let b = dlsr_tensor::init::uniform([1, 2, 5, 5], -1.0, 1.0, seed + 2);
        let lhs = conv2d(&elementwise::add(&a, &b).unwrap(), &w, None, p).unwrap();
        let rhs = elementwise::add(
            &conv2d(&a, &w, None, p).unwrap(),
            &conv2d(&b, &w, None, p).unwrap(),
        )
        .unwrap();
        prop_assert!(lhs.allclose(&rhs, 1e-3));
    }
}
