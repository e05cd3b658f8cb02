//! `train-small` and `train-mlperf`: `DlrmModel::train_step` on the scaled
//! Figure 7 configs, MB 256, two threads, race-free FP32 updates.

use crate::stats::{in_traced_block, median, peak_rss_mib, summarize, timed, WindowRecorder};
use crate::{Args, Report};
use dlrm::layers::Execution;
use dlrm::prelude::*;
use dlrm_bench::single_socket::{mlperf_scaled, small_scaled};
use dlrm_data::{DlrmConfig, IndexDistribution, MiniBatch};
use dlrm_kernels::loss::{bce_with_logits_backward, bce_with_logits_loss};
use dlrm_tensor::init::seeded_rng;
use dlrm_tensor::Matrix;
use std::time::{Duration, Instant};

/// Learning rate of every training workload.
pub const LR: f32 = 0.01;
/// Worker threads of the single-process model.
const THREADS: usize = 2;
/// Distinct pre-generated batches, cycled through during a run.
const BATCHES: usize = 12;
/// Untimed steps after set-up.
const WARMUP: usize = 3;
/// Leading steps replayed on a twin model by the output check.
const CHECK_STEPS: usize = 3;
/// Set-ups per `--trace 0` run; `setup_s` is their median.
const SETUPS: usize = 5;

/// The workload's config and index distribution.
fn workload_cfg(name: &str) -> (DlrmConfig, IndexDistribution) {
    match name {
        "train-small" => small_scaled(false),
        _ => mlperf_scaled(false),
    }
}

/// `count` global batches of `n` samples drawn from `seed`.
pub fn make_batches(
    cfg: &DlrmConfig,
    dist: IndexDistribution,
    n: usize,
    count: usize,
    seed: u64,
) -> Vec<MiniBatch> {
    let mut rng = seeded_rng(seed, 0xBA7C);
    (0..count)
        .map(|_| MiniBatch::random(cfg, n, dist, &mut rng))
        .collect()
}

/// A model of the workload, seeded from the run's seed.
pub fn new_model(cfg: &DlrmConfig, seed: u64, threads: usize) -> DlrmModel {
    DlrmModel::new(
        cfg,
        Execution::optimized(threads),
        UpdateStrategy::RaceFree,
        PrecisionMode::Fp32,
        seed,
    )
}

/// Wall time of each layer call of one traced step, in milliseconds.
#[derive(Default, Clone, Copy)]
struct StepTrace {
    bottom_fwd: f64,
    emb_fwd: f64,
    inter_fwd: f64,
    top_fwd: f64,
    loss: f64,
    top_bwd: f64,
    inter_bwd: f64,
    emb_bwd_update: f64,
    bottom_bwd: f64,
    mlp_update: f64,
    total: f64,
}

impl StepTrace {
    fn attributed(&self) -> f64 {
        self.bottom_fwd
            + self.emb_fwd
            + self.inter_fwd
            + self.top_fwd
            + self.loss
            + self.top_bwd
            + self.inter_bwd
            + self.emb_bwd_update
            + self.bottom_bwd
            + self.mlp_update
    }
}

/// One FP32 training step composed from `DlrmModel`'s public layer calls in
/// the order `DlrmModel::train_step` makes them, each call timed from
/// outside. Returns the loss, which must equal `train_step`'s bit for bit.
fn traced_step(model: &mut DlrmModel, batch: &MiniBatch, lr: f32) -> (f64, StepTrace) {
    let t0 = Instant::now();
    let exec = model.exec.clone();
    let n = batch.batch_size();
    let mut tr = StepTrace::default();
    let (z0, t) = timed(|| model.bottom.forward(&exec, &batch.dense));
    tr.bottom_fwd = t;
    let (outs, t) = timed(|| {
        model
            .tables
            .iter_mut()
            .enumerate()
            .map(|(i, layer)| layer.forward(&exec, &batch.indices[i], &batch.offsets[i]))
            .collect::<Vec<Matrix>>()
    });
    tr.emb_fwd = t;
    let (inter, t) = timed(|| model.interaction.forward(&exec, &z0, &outs));
    tr.inter_fwd = t;
    let (logits, t) = timed(|| model.top.forward(&exec, &inter).as_slice().to_vec());
    tr.top_fwd = t;
    let ((loss, dlogits), t) = timed(|| {
        let loss = bce_with_logits_loss(&logits, &batch.labels);
        let mut g = vec![0.0f32; n];
        bce_with_logits_backward(&logits, &batch.labels, &mut g);
        (loss, Matrix::from_slice(1, n, &g))
    });
    tr.loss = t;
    let (d_inter, t) = timed(|| model.top.backward(&exec, dlogits));
    tr.top_bwd = t;
    let ((d_bottom, d_tables), t) = timed(|| model.interaction.backward(&d_inter));
    tr.inter_bwd = t;
    let ((), t) = timed(|| {
        for (layer, grad) in model.tables.iter_mut().zip(&d_tables) {
            layer.backward_update(&exec, grad, lr);
        }
    });
    tr.emb_bwd_update = t;
    let (_, t) = timed(|| model.bottom.backward(&exec, d_bottom));
    tr.bottom_bwd = t;
    let ((), t) = timed(|| {
        model.bottom.sgd_step(&exec, lr);
        model.top.sgd_step(&exec, lr);
    });
    tr.mlp_update = t;
    tr.total = crate::stats::ms(t0.elapsed());
    (loss, tr)
}

/// Output check: a twin model built from the same seed, stepped by the
/// traced composition over the same leading batches, reproduces the
/// `train_step` losses bit for bit, and every loss is finite.
fn check_twin(
    report: &mut Report,
    cfg: &DlrmConfig,
    seed: u64,
    batches: &[MiniBatch],
    losses: &[f64],
) {
    report.check(
        losses.iter().all(|l| l.is_finite()),
        &format!("all {} training losses are finite", losses.len()),
    );
    let mut twin = new_model(cfg, seed, THREADS);
    let k = CHECK_STEPS.min(losses.len());
    let replay: Vec<f64> = (0..k)
        .map(|i| traced_step(&mut twin, &batches[i % batches.len()], LR).0)
        .collect();
    let same = replay
        .iter()
        .zip(losses)
        .all(|(a, b)| a.to_bits() == b.to_bits());
    report.check(
        same,
        &format!(
            "traced composition reproduces train_step's first {k} losses bitwise \
             ({replay:?} vs {:?})",
            &losses[..k]
        ),
    );
}

pub fn run(args: &Args, report: &mut Report) {
    let (cfg, dist) = workload_cfg(&args.workload);
    let n = cfg.mb_single;
    let batches = make_batches(&cfg, dist, n, BATCHES, args.seed);
    println!(
        "config {}: {} tables, E={}, P={}, MB {n}, {:?}, {THREADS} threads, RaceFree FP32",
        cfg.name, cfg.num_tables, cfg.emb_dim, cfg.lookups_per_table, dist
    );
    if args.trace {
        run_traced(args, report, &cfg, &batches);
    } else {
        run_untraced(args, report, &cfg, &batches);
    }
}

/// Set-up: model construction plus the first (cold) step.
fn setup(cfg: &DlrmConfig, seed: u64, batch: &MiniBatch) -> (DlrmModel, f64, f64) {
    let t0 = Instant::now();
    let mut model = new_model(cfg, seed, THREADS);
    let loss = model.train_step(batch, LR);
    (model, t0.elapsed().as_secs_f64(), loss)
}

fn run_untraced(args: &Args, report: &mut Report, cfg: &DlrmConfig, batches: &[MiniBatch]) {
    let n = cfg.mb_single;
    let mut setups = Vec::new();
    let mut kept = None;
    for _ in 0..SETUPS {
        drop(kept.take());
        let (model, s, loss) = setup(cfg, args.seed, &batches[0]);
        setups.push(s);
        kept = Some((model, loss));
    }
    let (mut model, first_loss) = kept.expect("at least one set-up");
    let mut losses = vec![first_loss];
    for b in &batches[1..=WARMUP] {
        losses.push(model.train_step(b, LR));
    }
    let mut step_ms = Vec::new();
    let mut windows = WindowRecorder::new();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut i = 1 + WARMUP;
    while Instant::now() < deadline {
        let (loss, t) = timed(|| model.train_step(&batches[i % batches.len()], LR));
        step_ms.push(t);
        windows.record(n as f64);
        losses.push(loss);
        i += 1;
    }
    let rss = peak_rss_mib();
    drop(model);
    report.ops(losses.len() as u64, 0);
    let summary = summarize(&windows.finish(), &step_ms);
    println!(
        "{} timed steps; samples {summary}; setups {setups:?} s",
        step_ms.len()
    );
    report.end_to_end(&summary, &setups, rss);
    check_twin(report, cfg, args.seed, batches, &losses);
}

fn run_traced(args: &Args, report: &mut Report, cfg: &DlrmConfig, batches: &[MiniBatch]) {
    let n = cfg.mb_single;
    let (mut model, _, first_loss) = setup(cfg, args.seed, &batches[0]);
    let mut losses = vec![first_loss];
    for b in &batches[1..CHECK_STEPS] {
        losses.push(model.train_step(b, LR));
    }
    drop(model);
    check_twin(report, cfg, args.seed, batches, &losses);

    // The twin check built and dropped its own model; time on a fresh one,
    // alternating blocks of untraced `train_step` and traced composition
    // so drift on a shared host hits both sides alike.
    let (mut model, _, _) = setup(cfg, args.seed, &batches[0]);
    for b in &batches[1..=WARMUP] {
        model.train_step(b, LR);
    }
    let mut plain_ms = Vec::new();
    let mut traces = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut i = 0usize;
    while Instant::now() < deadline {
        let batch = &batches[i % batches.len()];
        let loss = if !in_traced_block(i) {
            let (loss, t) = timed(|| model.train_step(batch, LR));
            plain_ms.push(t);
            loss
        } else {
            let (loss, tr) = traced_step(&mut model, batch, LR);
            traces.push(tr);
            loss
        };
        report.ops(1, u64::from(!loss.is_finite()));
        i += 1;
    }
    let med = |f: fn(&StepTrace) -> f64| median(&traces.iter().map(f).collect::<Vec<_>>());
    let mlp_ms = med(|t| t.bottom_fwd + t.bottom_bwd + t.top_fwd + t.top_bwd);
    let emb_ms = med(|t| t.emb_fwd + t.emb_bwd_update);
    let traced_ms = med(|t| t.total);
    let plain = median(&plain_ms);
    println!(
        "{} traced and {} untraced steps; step ms traced {traced_ms:.3} untraced {plain:.3}",
        traces.len(),
        plain_ms.len()
    );
    println!(
        "GF/s and GB/s are computed from tensor sizes (DlrmConfig::mlp_flops_per_iter, \
         embedding_bytes_per_iter), not counted by hardware"
    );
    report.set("dlrm.mlp.bottom_fwd_ms", med(|t| t.bottom_fwd));
    report.set("dlrm.mlp.bottom_bwd_ms", med(|t| t.bottom_bwd));
    report.set("dlrm.mlp.top_fwd_ms", med(|t| t.top_fwd));
    report.set("dlrm.mlp.top_bwd_ms", med(|t| t.top_bwd));
    report.set("dlrm.mlp.update_ms", med(|t| t.mlp_update));
    report.set(
        "dlrm.mlp.gflops",
        cfg.mlp_flops_per_iter(n) as f64 / (mlp_ms * 1e-3) / 1e9,
    );
    report.set("dlrm.embedding.fwd_ms", med(|t| t.emb_fwd));
    report.set("dlrm.embedding.bwd_update_ms", med(|t| t.emb_bwd_update));
    report.set(
        "dlrm.embedding.gbps",
        cfg.embedding_bytes_per_iter(n) as f64 / (emb_ms * 1e-3) / 1e9,
    );
    report.set("dlrm.interaction.fwd_ms", med(|t| t.inter_fwd));
    report.set("dlrm.interaction.bwd_ms", med(|t| t.inter_bwd));
    report.set("kernels.loss_ms", med(|t| t.loss));
    report.set("trace.residual_ms", med(|t| t.total - t.attributed()));
    report.set("trace.overhead_frac", (traced_ms - plain) / plain);
}
