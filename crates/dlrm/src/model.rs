//! The full DLRM network (Figure 1): bottom MLP ∥ embedding tables →
//! dot-product interaction → top MLP → BCE loss.

use crate::embedding_layer::EmbeddingLayer;
use crate::interaction::Interaction;
use crate::layers::{Activation, Execution, Mlp};
use crate::precision::{ParamOptimizer, PrecisionMode};
use crate::profiler::{OpClass, Profiler};
use dlrm_data::{DlrmConfig, MiniBatch};
use dlrm_kernels::embedding::UpdateStrategy;
use dlrm_kernels::loss::{bce_with_logits_backward, bce_with_logits_loss};
use dlrm_tensor::init::seeded_rng;
use dlrm_tensor::Matrix;

/// A trainable DLRM instance.
pub struct DlrmModel {
    /// The configuration this model was built from.
    pub cfg: DlrmConfig,
    /// Kernel tier.
    pub exec: Execution,
    /// Weight-storage precision.
    pub precision: PrecisionMode,
    /// Bottom (dense-feature) MLP; output dim = `cfg.emb_dim`.
    pub bottom: Mlp,
    /// Embedding tables.
    pub tables: Vec<EmbeddingLayer>,
    /// Interaction op.
    pub interaction: Interaction,
    /// Top MLP ending in the 1-unit logit layer.
    pub top: Mlp,
    /// Per-op-class profiler (Figure 8).
    pub profiler: Profiler,
    /// Per-Linear optimizers (bottom layers then top layers), for non-FP32
    /// modes.
    mlp_opts: Vec<ParamOptimizer>,
    /// Per-table optimizers, for non-FP32 modes.
    emb_opts: Vec<ParamOptimizer>,
}

impl DlrmModel {
    /// RNG stream id of the bottom MLP.
    pub const BOTTOM_STREAM: u64 = 0xB0770;
    /// RNG stream id of the top MLP.
    pub const TOP_STREAM: u64 = 0x70F;
    /// RNG stream id base for table `t` (stream = base + t).
    pub const TABLE_STREAM: u64 = 0x7AB_0000;

    /// Builds table `t` of `cfg` exactly as [`DlrmModel::new`] would —
    /// exposed so model-parallel ranks can construct only their tables.
    pub fn build_table(
        cfg: &DlrmConfig,
        t: usize,
        strategy: UpdateStrategy,
        seed: u64,
    ) -> EmbeddingLayer {
        EmbeddingLayer::new(
            cfg.table_rows[t] as usize,
            cfg.emb_dim,
            strategy,
            &mut seeded_rng(seed, Self::TABLE_STREAM + t as u64),
        )
    }

    /// Builds a model for `cfg`. All randomness comes from `seed`, with an
    /// independent stream per component (bottom MLP, each table, top MLP)
    /// so a distributed instance can reconstruct exactly the same weights
    /// for whichever components a rank owns.
    pub fn new(
        cfg: &DlrmConfig,
        exec: Execution,
        strategy: UpdateStrategy,
        precision: PrecisionMode,
        seed: u64,
    ) -> Self {
        let mut bottom = Mlp::new(
            cfg.dense_features,
            &cfg.bottom_mlp,
            Activation::Relu,
            &mut seeded_rng(seed, Self::BOTTOM_STREAM),
        );
        assert_eq!(
            bottom.out_features(),
            cfg.emb_dim,
            "bottom MLP must project to the embedding dimension"
        );
        let mut tables: Vec<EmbeddingLayer> = (0..cfg.num_tables)
            .map(|t| Self::build_table(cfg, t, strategy, seed))
            .collect();
        let mut top = Mlp::new(
            cfg.interaction_output_dim(),
            &cfg.top_mlp,
            Activation::None,
            &mut seeded_rng(seed, Self::TOP_STREAM),
        );

        let (mlp_opts, emb_opts) = if precision == PrecisionMode::Fp32 {
            (Vec::new(), Vec::new())
        } else {
            let mut mlp_opts = Vec::new();
            for layer in bottom.layers.iter_mut().chain(top.layers.iter_mut()) {
                mlp_opts.push(ParamOptimizer::new(precision, &mut layer.w));
            }
            let emb_opts = tables
                .iter_mut()
                .map(|t| ParamOptimizer::new(precision, &mut t.weight))
                .collect();
            (mlp_opts, emb_opts)
        };

        DlrmModel {
            interaction: Interaction::new(cfg.emb_dim),
            cfg: cfg.clone(),
            exec,
            precision,
            bottom,
            tables,
            top,
            profiler: Profiler::new(),
            mlp_opts,
            emb_opts,
        }
    }

    /// Forward pass; returns the per-sample logits.
    pub fn forward(&mut self, batch: &MiniBatch) -> Vec<f32> {
        let exec = self.exec.clone();
        let z0 = self
            .profiler
            .time(OpClass::Mlp, || self.bottom.forward(&exec, &batch.dense));
        let table_outs: Vec<Matrix> = self.profiler.time(OpClass::Embeddings, || {
            self.tables
                .iter_mut()
                .enumerate()
                .map(|(t, layer)| layer.forward(&exec, &batch.indices[t], &batch.offsets[t]))
                .collect()
        });
        let inter = self.profiler.time(OpClass::Rest, || {
            self.interaction.forward(&exec, &z0, &table_outs)
        });
        let logits = self
            .profiler
            .time(OpClass::Mlp, || self.top.forward(&exec, &inter));
        debug_assert_eq!(logits.rows(), 1);
        logits.as_slice().to_vec()
    }

    /// Forward + predicted click probabilities.
    pub fn predict_proba(&mut self, batch: &MiniBatch) -> Vec<f32> {
        self.forward(batch)
            .into_iter()
            .map(dlrm_kernels::activations::sigmoid)
            .collect()
    }

    /// One full training iteration (forward, loss, backward, update).
    /// Returns the minibatch loss.
    pub fn train_step(&mut self, batch: &MiniBatch, lr: f32) -> f64 {
        let exec = self.exec.clone();
        let n = batch.batch_size();
        let logits = self.forward(batch);

        // Loss + gradient w.r.t. logits.
        let (loss, dlogits) = self.profiler.time(OpClass::Rest, || {
            let loss = bce_with_logits_loss(&logits, &batch.labels);
            let mut g = vec![0.0f32; n];
            bce_with_logits_backward(&logits, &batch.labels, &mut g);
            (loss, Matrix::from_slice(1, n, &g))
        });

        // Top MLP backward.
        let d_inter = self
            .profiler
            .time(OpClass::Mlp, || self.top.backward(&exec, dlogits));

        // Interaction backward.
        let (d_bottom, d_tables) = self
            .profiler
            .time(OpClass::Rest, || self.interaction.backward(&d_inter));

        // Embedding backward + update.
        self.profiler.time(OpClass::Embeddings, || {
            if self.precision == PrecisionMode::Fp32 {
                for (t, layer) in self.tables.iter_mut().enumerate() {
                    let _ = t;
                    layer.backward_update(&exec, &d_tables[t], lr);
                }
            } else {
                // Precision path: per-lookup sparse rows through the
                // mode's optimizer (deterministic index-list order).
                for (t, layer) in self.tables.iter_mut().enumerate() {
                    let opt = &mut self.emb_opts[t];
                    let offsets = &batch.offsets[t];
                    let indices = &batch.indices[t];
                    for bag in 0..n {
                        let grad = d_tables[t].row(bag);
                        #[allow(clippy::needless_range_loop)] // CSR bag walk
                        for s in offsets[bag]..offsets[bag + 1] {
                            opt.step_row(&mut layer.weight, indices[s] as usize, grad, lr);
                        }
                    }
                }
            }
        });

        // Bottom MLP backward.
        let _ = self
            .profiler
            .time(OpClass::Mlp, || self.bottom.backward(&exec, d_bottom));

        // Dense parameter update.
        self.profiler.time(OpClass::Mlp, || {
            if self.precision == PrecisionMode::Fp32 {
                self.bottom.sgd_step(&exec, lr);
                self.top.sgd_step(&exec, lr);
            } else {
                for (layer, opt) in self
                    .bottom
                    .layers
                    .iter_mut()
                    .chain(self.top.layers.iter_mut())
                    .zip(self.mlp_opts.iter_mut())
                {
                    // The precision optimizers mutate the flat weights, so
                    // bracket them with the packed-plan seam: flat must be
                    // current going in, and the packed copy must be dropped
                    // (re-packed on next use) going out.
                    layer.sync_flat_weights();
                    opt.step(&mut layer.w, &layer.dw, lr);
                    layer.invalidate_packed();
                    // Biases stay FP32 (negligible storage; matches the
                    // paper's weight-focused scheme).
                    dlrm_kernels::sgd::sgd_step(&mut layer.b, &layer.db, lr);
                }
            }
        });

        self.profiler.end_iteration();
        loss
    }

    /// Total parameter count (MLPs + tables).
    pub fn param_count(&self) -> usize {
        self.bottom.param_count()
            + self.top.param_count()
            + self.tables.iter().map(|t| t.weight.len()).sum::<usize>()
    }

    /// Bytes of iteration-persistent embedding scratch (saved batches,
    /// `dW` buffers, bag plans) across all tables. Constant after the
    /// first step of a fixed batch shape — see
    /// `crates/dlrm/tests/alloc_growth.rs`.
    pub fn embedding_scratch_bytes(&self) -> usize {
        self.tables.iter().map(|t| t.scratch_bytes()).sum()
    }

    /// Bytes of persistent MLP execution-plan scratch (packed weights,
    /// blocked gradient scratch, activation residency) across both MLPs.
    /// Grow-only, constant after the first step of a fixed batch shape.
    pub fn mlp_scratch_bytes(&self) -> usize {
        self.bottom.scratch_bytes() + self.top.scratch_bytes()
    }

    /// Bytes of persistent interaction buffers (saved feature tiles and
    /// per-thread gradient tiles). Constant after the first step of a fixed
    /// batch shape.
    pub fn interaction_scratch_bytes(&self) -> usize {
        self.interaction.scratch_bytes()
    }

    /// Copies any blocked-SGD updates back into the flat weight mirrors of
    /// both MLPs — required before reading `layer.w` directly (parameter
    /// fingerprints, checkpoints) after optimized training.
    pub fn sync_flat_weights(&mut self) {
        self.bottom.sync_flat_weights();
        self.top.sync_flat_weights();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlrm_data::IndexDistribution;

    fn tiny_cfg() -> DlrmConfig {
        let mut cfg = DlrmConfig::small().scaled_down(64, 256);
        // Shrink the MLPs so tests are fast.
        cfg.dense_features = 16;
        cfg.bottom_mlp = vec![16, 8];
        cfg.emb_dim = 8;
        cfg.num_tables = 3;
        cfg.table_rows = vec![64, 32, 16];
        cfg.lookups_per_table = 2;
        cfg.top_mlp = vec![16, 1];
        cfg
    }

    fn tiny_batch(cfg: &DlrmConfig, n: usize, seed: u64) -> MiniBatch {
        MiniBatch::random(cfg, n, IndexDistribution::Uniform, &mut seeded_rng(seed, 9))
    }

    #[test]
    fn forward_shapes_and_determinism() {
        let cfg = tiny_cfg();
        let batch = tiny_batch(&cfg, 12, 1);
        let mut m1 = DlrmModel::new(
            &cfg,
            Execution::Reference,
            UpdateStrategy::Reference,
            PrecisionMode::Fp32,
            42,
        );
        let mut m2 = DlrmModel::new(
            &cfg,
            Execution::Reference,
            UpdateStrategy::Reference,
            PrecisionMode::Fp32,
            42,
        );
        let l1 = m1.forward(&batch);
        let l2 = m2.forward(&batch);
        assert_eq!(l1.len(), 12);
        assert_eq!(l1, l2, "same seed => identical model");
    }

    #[test]
    fn reference_and_optimized_train_identically_modulo_fp() {
        let cfg = tiny_cfg();
        let mut m_ref = DlrmModel::new(
            &cfg,
            Execution::Reference,
            UpdateStrategy::Reference,
            PrecisionMode::Fp32,
            7,
        );
        let mut m_opt = DlrmModel::new(
            &cfg,
            Execution::optimized(4),
            UpdateStrategy::RaceFree,
            PrecisionMode::Fp32,
            7,
        );
        for step in 0..5 {
            let batch = tiny_batch(&cfg, 16, 100 + step);
            let l_ref = m_ref.train_step(&batch, 0.05);
            let l_opt = m_opt.train_step(&batch, 0.05);
            assert!(
                (l_ref - l_opt).abs() < 1e-4,
                "step {step}: {l_ref} vs {l_opt}"
            );
        }
    }

    #[test]
    fn training_reduces_loss_on_fixed_batch() {
        let cfg = tiny_cfg();
        let batch = tiny_batch(&cfg, 64, 3);
        let mut model = DlrmModel::new(
            &cfg,
            Execution::optimized(2),
            UpdateStrategy::RaceFree,
            PrecisionMode::Fp32,
            11,
        );
        let first = model.train_step(&batch, 0.2);
        let mut last = first;
        for _ in 0..60 {
            last = model.train_step(&batch, 0.2);
        }
        assert!(
            last < first * 0.7,
            "overfitting a fixed batch must reduce loss: {first} -> {last}"
        );
    }

    #[test]
    fn profiler_buckets_populate() {
        let cfg = tiny_cfg();
        let batch = tiny_batch(&cfg, 8, 5);
        let mut model = DlrmModel::new(
            &cfg,
            Execution::Reference,
            UpdateStrategy::Reference,
            PrecisionMode::Fp32,
            1,
        );
        let _ = model.train_step(&batch, 0.1);
        assert_eq!(model.profiler.iterations(), 1);
        let (e, m, r) = model.profiler.fractions();
        assert!(e > 0.0 && m > 0.0 && r > 0.0, "({e}, {m}, {r})");
    }

    #[test]
    fn bf16_split_trains_close_to_fp32() {
        let cfg = tiny_cfg();
        let mut fp32 = DlrmModel::new(
            &cfg,
            Execution::Reference,
            UpdateStrategy::Reference,
            PrecisionMode::Fp32,
            21,
        );
        let mut split = DlrmModel::new(
            &cfg,
            Execution::Reference,
            UpdateStrategy::Reference,
            PrecisionMode::Bf16Split,
            21,
        );
        let mut l_fp32 = 0.0;
        let mut l_split = 0.0;
        for step in 0..20 {
            let batch = tiny_batch(&cfg, 32, 500 + step);
            l_fp32 = fp32.train_step(&batch, 0.1);
            l_split = split.train_step(&batch, 0.1);
        }
        assert!(
            (l_fp32 - l_split).abs() < 0.05,
            "bf16-split loss {l_split} vs fp32 {l_split}: diverged from {l_fp32}"
        );
    }

    #[test]
    fn bf16_split_weights_stay_bf16() {
        let cfg = tiny_cfg();
        let mut model = DlrmModel::new(
            &cfg,
            Execution::Reference,
            UpdateStrategy::Reference,
            PrecisionMode::Bf16Split,
            5,
        );
        let batch = tiny_batch(&cfg, 16, 6);
        let _ = model.train_step(&batch, 0.1);
        for layer in model.bottom.layers.iter().chain(model.top.layers.iter()) {
            for &x in layer.w.as_slice() {
                assert_eq!(x.to_bits() & 0xFFFF, 0, "MLP weight not bf16");
            }
        }
        for t in &model.tables {
            for &x in t.weight.as_slice() {
                assert_eq!(x.to_bits() & 0xFFFF, 0, "table weight not bf16");
            }
        }
    }

    #[test]
    fn param_count_matches_config() {
        let cfg = tiny_cfg();
        let model = DlrmModel::new(
            &cfg,
            Execution::Reference,
            UpdateStrategy::Reference,
            PrecisionMode::Fp32,
            0,
        );
        let table_params: usize = cfg
            .table_rows
            .iter()
            .map(|&m| m as usize * cfg.emb_dim)
            .sum();
        assert_eq!(
            model.param_count(),
            model.bottom.param_count() + model.top.param_count() + table_params
        );
    }
}
