//! Steady-state allocation check for the single-socket train step: after
//! warm-up, live heap bytes and the model's iteration-persistent embedding
//! scratch must stop growing. This is what the persistent `dW[NS][E]`
//! scratch, the reused saved-batch vectors, and the reusable `BagPlan` in
//! `EmbeddingLayer` buy — before them, every step leaked fresh `Vec`s and a
//! fresh gradient matrix per table into the allocator's working set.
//!
//! Same counting-global-allocator pattern as
//! `crates/dlrm-dist/tests/alloc_growth.rs`, single-process here: samples
//! are taken between steps, when no kernel is in flight.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

struct CountingAlloc;

static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size() as isize, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE_BYTES.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

use dlrm::prelude::*;
use dlrm_data::{DlrmConfig, IndexDistribution, MiniBatch};
use dlrm_tensor::init::seeded_rng;

fn tiny_cfg() -> DlrmConfig {
    let mut cfg = DlrmConfig::small().scaled_down(32, 512);
    cfg.dense_features = 6;
    cfg.bottom_mlp = vec![8, 4];
    cfg.emb_dim = 4;
    cfg.num_tables = 4;
    cfg.table_rows = vec![32, 16, 8, 24];
    cfg.lookups_per_table = 2;
    cfg.top_mlp = vec![8, 1];
    cfg
}

/// Runs `steps` optimized train iterations and returns per-step
/// (live-heap, embedding-scratch + MLP-plan-scratch + interaction-scratch)
/// samples taken between steps.
fn sample_training(strategy: UpdateStrategy, fused: bool, steps: usize) -> Vec<(isize, usize)> {
    let cfg = tiny_cfg();
    let batches: Vec<MiniBatch> = (0..steps)
        .map(|i| {
            MiniBatch::random(
                &cfg,
                8,
                IndexDistribution::Uniform,
                &mut seeded_rng(42 + i as u64, 5),
            )
        })
        .collect();
    let mut model = DlrmModel::new(
        &cfg,
        Execution::optimized(3),
        strategy,
        PrecisionMode::Fp32,
        7,
    );
    for t in &mut model.tables {
        t.fused = fused;
    }
    let mut samples = Vec::with_capacity(steps);
    for b in &batches {
        model.train_step(b, 0.1);
        samples.push((
            LIVE_BYTES.load(Ordering::Relaxed),
            model.embedding_scratch_bytes()
                + model.mlp_scratch_bytes()
                + model.interaction_scratch_bytes(),
        ));
    }
    samples
}

fn assert_steady(samples: &[(isize, usize)], label: &str) {
    // Iteration-persistent scratch must stabilize after the very first step.
    let scratch_after_warmup = samples[1].1;
    for (step, (_, scratch)) in samples.iter().enumerate().skip(1) {
        assert_eq!(
            *scratch, scratch_after_warmup,
            "{label}: scratch grew at step {step}"
        );
    }
    // Live heap: the late-window peak must not exceed the warm-up peak by
    // more than a small slack (allocator-internal jitter).
    let mid = samples.len() / 2;
    let warm = samples[2..mid].iter().map(|s| s.0).max().unwrap();
    let late = samples[mid..].iter().map(|s| s.0).max().unwrap();
    const SLACK: isize = 64 * 1024;
    assert!(
        late <= warm + SLACK,
        "{label}: live heap grew from {warm} to {late} bytes"
    );
}

#[test]
fn race_free_step_does_not_grow_allocations() {
    let samples = sample_training(UpdateStrategy::RaceFree, false, 50);
    assert_steady(&samples, "race-free");
}

#[test]
fn bucketed_step_does_not_grow_allocations() {
    let samples = sample_training(UpdateStrategy::Bucketed, false, 50);
    assert_steady(&samples, "bucketed");
}

#[test]
fn planned_fused_step_does_not_grow_allocations() {
    let samples = sample_training(UpdateStrategy::RaceFree, true, 50);
    assert_steady(&samples, "planned-fused");
}

/// The persistent packed-GEMM plan on its own: a full MLP
/// fwd+bwd+sgd loop must stop allocating once the plan (packed weights,
/// blocked gradient scratch, activation residency) has grown to the batch
/// shape.
#[test]
fn mlp_packed_plan_step_does_not_grow_allocations() {
    use dlrm::layers::{Activation, Mlp};
    use dlrm_tensor::init::uniform;
    use dlrm_tensor::Matrix;

    let exec = Execution::optimized(3);
    let mut rng = seeded_rng(31, 0);
    let mut mlp = Mlp::new(12, &[16, 8, 1], Activation::None, &mut rng);
    let x = uniform(12, 24, -1.0, 1.0, &mut rng);
    let mut samples = Vec::new();
    for _ in 0..50 {
        let y = mlp.forward(&exec, &x);
        let dy = Matrix::from_fn(y.rows(), y.cols(), |i, j| y[(i, j)] * 0.01);
        let _ = mlp.backward(&exec, dy);
        mlp.sgd_step(&exec, 0.05);
        samples.push((LIVE_BYTES.load(Ordering::Relaxed), mlp.scratch_bytes()));
    }
    assert_steady(&samples, "mlp-packed-plan");
}
