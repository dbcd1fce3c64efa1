//! Steady-state allocation behavior of the kernel scratch pool.
//!
//! Lives in its own integration-test binary: `cargo test` runs each test
//! binary in its own process, so no unit test of another binary can touch
//! the global pool or the allocation counter while this asserts on them.
//! The tests of this binary share both, so each holds [`POOL_LOCK`] for
//! its whole run.

use std::sync::Mutex;

use dlsr_tensor::conv::{conv2d_backward, conv2d_fused_into, Act, Conv2dParams};
use dlsr_tensor::{init, scratch, Tensor};

/// Serializes this binary's tests: they read one process-global counter.
static POOL_LOCK: Mutex<()> = Mutex::new(());

/// After warm-up, a training-shaped conv forward+backward loop must hit
/// the scratch pool every time: zero allocator events across steady-state
/// iterations. This is the acceptance gate for the "allocation-free in
/// steady state" kernel contract. The 64→3 conv is the EDSR output layer's
/// shape family: its forward and weight-gradient GEMMs stream, its
/// input-gradient GEMM runs on the blocked engine.
#[test]
fn conv_forward_backward_steady_state_does_not_allocate() {
    let _guard = POOL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let p = Conv2dParams::same(3);
    let x = init::uniform([4, 8, 12, 12], -1.0, 1.0, 1);
    let w = init::uniform([8, 8, 3, 3], -1.0, 1.0, 2);
    let bias = vec![0.1f32; 8];
    let mut out = Tensor::zeros([4, 8, 12, 12]);
    let go = init::uniform([4, 8, 12, 12], -1.0, 1.0, 3);
    let x64 = init::uniform([2, 64, 12, 12], -1.0, 1.0, 4);
    let w3 = init::uniform([3, 64, 3, 3], -1.0, 1.0, 5);
    let bias3 = vec![0.1f32; 3];
    let mut out3 = Tensor::zeros([2, 3, 12, 12]);
    let go3 = init::uniform([2, 3, 12, 12], -1.0, 1.0, 6);
    let step = |out: &mut Tensor, out3: &mut Tensor| {
        conv2d_fused_into(&x, &w, Some(&bias), Act::Relu, p, out).unwrap();
        conv2d_backward(&x, &w, &go, p).unwrap();
        conv2d_fused_into(&x64, &w3, Some(&bias3), Act::Identity, p, out3).unwrap();
        conv2d_backward(&x64, &w3, &go3, p).unwrap();
    };

    // Warm-up: the first iterations populate the pool (and may grow
    // buffers to their steady-state capacities).
    for _ in 0..3 {
        step(&mut out, &mut out3);
    }

    let before = scratch::alloc_events();
    for _ in 0..5 {
        step(&mut out, &mut out3);
    }
    let after = scratch::alloc_events();
    assert_eq!(
        after,
        before,
        "conv kernels allocated {} times in steady state",
        after - before
    );
}

/// Mixed-shape steady state: alternating two different layer shapes (as a
/// real model does) must also settle into full reuse.
#[test]
fn mixed_shapes_settle_into_reuse() {
    let _guard = POOL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let p = Conv2dParams::same(3);
    let x1 = init::uniform([2, 4, 10, 10], -1.0, 1.0, 4);
    let w1 = init::uniform([6, 4, 3, 3], -1.0, 1.0, 5);
    let mut out1 = Tensor::zeros([2, 6, 10, 10]);
    let x2 = init::uniform([2, 6, 10, 10], -1.0, 1.0, 6);
    let w2 = init::uniform([4, 6, 3, 3], -1.0, 1.0, 7);
    let mut out2 = Tensor::zeros([2, 4, 10, 10]);

    for _ in 0..3 {
        conv2d_fused_into(&x1, &w1, None, Act::Relu, p, &mut out1).unwrap();
        conv2d_fused_into(&x2, &w2, None, Act::Identity, p, &mut out2).unwrap();
    }
    let before = scratch::alloc_events();
    for _ in 0..5 {
        conv2d_fused_into(&x1, &w1, None, Act::Relu, p, &mut out1).unwrap();
        conv2d_fused_into(&x2, &w2, None, Act::Identity, p, &mut out2).unwrap();
    }
    assert_eq!(scratch::alloc_events(), before);
}
