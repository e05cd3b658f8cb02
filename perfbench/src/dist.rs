//! `train-dist`: `DistDlrm::train_step` on two thread-ranks of one thread
//! each, MLPerf-scaled, global batch 512, default `DistOptions` (alltoall
//! exchange, overlapped schedule, FP32 wire, no prefetch). The world and
//! progress engines are built as `dlrm_dist::run_training` builds them.

use crate::stats::{
    in_traced_block, mean, median, ms, peak_rss_mib, summarize, Window, WindowRecorder,
};
use crate::train::{make_batches, new_model, LR};
use crate::{Args, Report};
use dlrm_bench::single_socket::mlperf_scaled;
use dlrm_comm::collectives::{allreduce_sum, alltoall};
use dlrm_comm::nonblocking::create_channel_worlds;
use dlrm_comm::world::CommWorld;
use dlrm_comm::{Backend, OpKind, ProgressEngine, TimingRecorder, WireStats};
use dlrm_data::{DlrmConfig, MiniBatch};
use dlrm_dist::{DistDlrm, DistOptions};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const RANKS: usize = 2;
const GLOBAL_BATCH: usize = 512;
/// The progress-engine backend `run_training` uses.
const BACKEND: Backend = Backend::CclLike { workers: 2 };
const BATCHES: usize = 8;
const WARMUP: usize = 3;
/// Leading steps compared against the single-process trajectory.
const CHECK_STEPS: usize = 3;
/// The tolerance `examples/distributed_training.rs` asserts.
const LOSS_TOL: f64 = 1e-2;
const SETUPS: usize = 5;
/// Recorder buckets reported per step, in `PER_LAYER` order.
const BUCKETS: [OpKind; 5] = [
    OpKind::Compute,
    OpKind::AlltoallWait,
    OpKind::AlltoallFramework,
    OpKind::AllreduceWait,
    OpKind::AllreduceFramework,
];
/// Repetitions of each bare collective.
const COLLECTIVE_REPS: usize = 15;

/// What one rank saw.
#[derive(Default)]
struct RankOut {
    /// Losses of every step, the set-up step first.
    losses: Vec<f64>,
    /// When the set-up step finished.
    setup_end: Option<Instant>,
    /// Wall time of each timed step.
    step_ms: Vec<f64>,
    /// Per timed step: recorder buckets when the recorder was attached.
    buckets: Vec<Option<[f64; 5]>>,
    /// Measurement windows over the timed steps (rank 0 only).
    windows: Vec<Window>,
    /// `[alltoall, allreduce]` wire bytes of the timed steps, all worlds
    /// and ranks (the same on every rank).
    wire: [u64; 2],
}

/// One world's run: set-up, then optionally warm-up and timed steps.
struct WorldOut {
    ranks: Vec<RankOut>,
    setup_s: f64,
}

/// `[alltoall, allreduce]` wire bytes so far, summed over `stats`.
fn wire_bytes(stats: &[Arc<WireStats>]) -> [u64; 2] {
    stats.iter().fold([0, 0], |[a2a, ar], s| {
        let snap = s.snapshot();
        [a2a + snap.alltoall_bytes, ar + snap.allreduce_bytes()]
    })
}

/// Builds a world and its ranks, runs the set-up step, and with
/// `timed = Some(seconds)` continues with warm-up and timed steps. With
/// `trace`, every other block of four timed steps runs with a
/// `TimingRecorder` attached through `DistDlrm::set_recorder`.
fn run_world(
    cfg: &DlrmConfig,
    opts: &DistOptions,
    batches: &[MiniBatch],
    timed: Option<f64>,
    trace: bool,
) -> WorldOut {
    let t0 = Instant::now();
    let comms = CommWorld::create(RANKS);
    let channel_worlds = create_channel_worlds(RANKS, BACKEND);
    let mut stats = vec![Arc::clone(comms[0].wire_stats_arc())];
    stats.extend(
        channel_worlds[0]
            .iter()
            .map(|c| Arc::clone(c.wire_stats_arc())),
    );
    let channel_worlds = Mutex::new(channel_worlds);
    // Step count agreed by all ranks: rank 0 lowers it once the deadline
    // passes; a rank reaches step j + 1 only after exchanging step j with
    // rank 0, so every rank sees the same limit.
    let limit = AtomicUsize::new(usize::MAX);
    let ranks: Vec<RankOut> = std::thread::scope(|s| {
        let handles: Vec<_> = comms
            .into_iter()
            .map(|comm| {
                let (channel_worlds, limit, stats) = (&channel_worlds, &limit, &stats);
                s.spawn(move || {
                    let me = comm.rank();
                    let channels =
                        std::mem::take(&mut channel_worlds.lock().expect("world lock")[me]);
                    let engine = ProgressEngine::new(BACKEND, channels);
                    let mut model = DistDlrm::new(cfg, comm, Some(engine), opts);
                    let mut out = RankOut::default();
                    out.losses.push(model.train_step(&batches[0], LR));
                    out.setup_end = Some(Instant::now());
                    let Some(seconds) = timed else {
                        return out;
                    };
                    for b in &batches[1..=WARMUP] {
                        out.losses.push(model.train_step(b, LR));
                    }
                    // The counters are read while every rank is parked
                    // between steps.
                    model.comm_barrier();
                    let wire_start = wire_bytes(stats);
                    model.comm_barrier();
                    let rec = Arc::new(TimingRecorder::new());
                    let mut windows = WindowRecorder::new();
                    let start = Instant::now();
                    let deadline = Duration::from_secs_f64(seconds);
                    let mut j = 0usize;
                    loop {
                        if me == 0
                            && limit.load(Ordering::SeqCst) == usize::MAX
                            && start.elapsed() >= deadline
                        {
                            limit.store(j + 1, Ordering::SeqCst);
                        }
                        if j >= limit.load(Ordering::SeqCst) {
                            break;
                        }
                        let recorded = trace && in_traced_block(j);
                        model.set_recorder(recorded.then(|| Arc::clone(&rec)));
                        rec.reset();
                        let b = &batches[(1 + WARMUP + j) % batches.len()];
                        let t = Instant::now();
                        out.losses.push(model.train_step(b, LR));
                        out.step_ms.push(ms(t.elapsed()));
                        windows.record(GLOBAL_BATCH as f64);
                        out.buckets.push(recorded.then(|| {
                            let snap = rec.snapshot();
                            BUCKETS.map(|k| snap.get(&k).map_or(0.0, |d| ms(*d)))
                        }));
                        j += 1;
                    }
                    model.comm_barrier();
                    if me == 0 {
                        out.windows = windows.finish();
                    }
                    let wire_end = wire_bytes(stats);
                    out.wire = [wire_end[0] - wire_start[0], wire_end[1] - wire_start[1]];
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rank thread panicked"))
            .collect()
    });
    let setup_end = ranks
        .iter()
        .filter_map(|r| r.setup_end)
        .max()
        .expect("every rank finishes its set-up step");
    WorldOut {
        ranks,
        setup_s: (setup_end - t0).as_secs_f64(),
    }
}

/// Per timed step, the slowest rank's step time.
fn slowest_rank_ms(ranks: &[RankOut]) -> Vec<f64> {
    (0..ranks[0].step_ms.len())
        .map(|j| ranks.iter().map(|r| r.step_ms[j]).fold(0.0, f64::max))
        .collect()
}

pub fn run(args: &Args, report: &mut Report) {
    let (cfg, dist) = mlperf_scaled(false);
    let batches = make_batches(&cfg, dist, GLOBAL_BATCH, BATCHES, args.seed);
    let opts = DistOptions {
        threads_per_rank: 1,
        seed: args.seed,
        ..Default::default()
    };
    println!(
        "config {}: {RANKS} ranks x 1 thread, global batch {GLOBAL_BATCH}, {:?} exchange, \
         {:?} schedule",
        cfg.name, opts.strategy, opts.schedule
    );
    if args.trace {
        run_traced(args, report, &cfg, &opts, &batches);
        return;
    }
    let mut setups = Vec::new();
    for _ in 1..SETUPS {
        setups.push(run_world(&cfg, &opts, &batches, None, false).setup_s);
    }
    let world = run_world(&cfg, &opts, &batches, Some(args.seconds), false);
    setups.push(world.setup_s);
    let rss = peak_rss_mib();
    let step_ms = slowest_rank_ms(&world.ranks);
    report.ops(world.ranks[0].losses.len() as u64, 0);
    let summary = summarize(&world.ranks[0].windows, &step_ms);
    println!(
        "{} timed steps, slowest rank per step; samples {summary}; setups {setups:?} s",
        step_ms.len()
    );
    report.end_to_end(&summary, &setups, rss);
    check_against_single_process(report, &cfg, args.seed, &batches, &world.ranks);
}

/// Output check: the mean rank loss of the leading steps tracks a
/// single-process `DlrmModel` on the same global batches.
fn check_against_single_process(
    report: &mut Report,
    cfg: &DlrmConfig,
    seed: u64,
    batches: &[MiniBatch],
    ranks: &[RankOut],
) {
    report.check(
        ranks.iter().all(|r| r.losses.iter().all(|l| l.is_finite())),
        "all rank losses are finite",
    );
    let mut reference = new_model(cfg, seed, 2);
    let dev = (0..CHECK_STEPS)
        .map(|i| {
            let want = reference.train_step(&batches[i], LR);
            let got = mean(&ranks.iter().map(|r| r.losses[i]).collect::<Vec<_>>());
            (got - want).abs()
        })
        .fold(0.0f64, f64::max);
    report.check(
        dev < LOSS_TOL,
        &format!(
            "mean rank loss of the first {CHECK_STEPS} steps is within {LOSS_TOL} of the \
             single-process trajectory (max deviation {dev:.3e})"
        ),
    );
}

fn run_traced(
    args: &Args,
    report: &mut Report,
    cfg: &DlrmConfig,
    opts: &DistOptions,
    batches: &[MiniBatch],
) {
    let world = run_world(cfg, opts, batches, Some(args.seconds), true);
    let steps = world.ranks[0].step_ms.len();
    report.ops(world.ranks[0].losses.len() as u64, 0);
    check_against_single_process(report, cfg, args.seed, batches, &world.ranks);
    let slowest = slowest_rank_ms(&world.ranks);
    let (mut traced, mut plain) = (Vec::new(), Vec::new());
    for (j, t) in slowest.iter().enumerate() {
        if world.ranks[0].buckets[j].is_some() {
            traced.push(*t);
        } else {
            plain.push(*t);
        }
    }
    // Bucket means over (rank, traced step) pairs.
    let mut sums = [0.0f64; 5];
    let (mut step_sum, mut samples) = (0.0, 0usize);
    for r in &world.ranks {
        for (b, t) in r.buckets.iter().zip(&r.step_ms) {
            if let Some(b) = b {
                for k in 0..5 {
                    sums[k] += b[k];
                }
                step_sum += t;
                samples += 1;
            }
        }
    }
    let per = |x: f64| x / samples.max(1) as f64;
    let skew: Vec<f64> = (0..steps)
        .map(|j| {
            let v: Vec<f64> = world.ranks.iter().map(|r| r.step_ms[j]).collect();
            v.iter().cloned().fold(0.0, f64::max) - v.iter().cloned().fold(f64::MAX, f64::min)
        })
        .collect();
    println!(
        "{steps} timed steps ({} traced); wire per step: alltoall {} B, allreduce {} B",
        traced.len(),
        world.ranks[0].wire[0] / steps as u64,
        world.ranks[0].wire[1] / steps as u64
    );
    report.set("dlrm-dist.compute_ms", per(sums[0]));
    report.set("dlrm-dist.alltoall_wait_ms", per(sums[1]));
    report.set("dlrm-dist.alltoall_framework_ms", per(sums[2]));
    report.set("dlrm-dist.allreduce_wait_ms", per(sums[3]));
    report.set("dlrm-dist.allreduce_framework_ms", per(sums[4]));
    report.set(
        "dlrm-dist.exposed_comm_frac",
        (sums[1] + sums[3]) / step_sum,
    );
    report.set("dlrm-dist.rank_skew_ms", median(&skew));
    report.set(
        "comm.alltoall_bytes_per_step",
        (world.ranks[0].wire[0] / steps as u64) as f64,
    );
    report.set(
        "comm.allreduce_bytes_per_step",
        (world.ranks[0].wire[1] / steps as u64) as f64,
    );
    report.set(
        "trace.residual_ms",
        per(step_sum - sums.iter().sum::<f64>()),
    );
    report.set(
        "trace.overhead_frac",
        (median(&traced) - median(&plain)) / median(&plain),
    );
    drop(world);
    let (a2a, ar) = bare_collectives(cfg);
    report.set("comm.alltoall_ms", a2a);
    report.set("comm.allreduce_ms", ar);
}

/// Median wall time (slowest rank) of direct `alltoall` and
/// `allreduce_sum` calls at one step's forward-exchange and flat-gradient
/// sizes, on a fresh two-rank world.
fn bare_collectives(cfg: &DlrmConfig) -> (f64, f64) {
    let local_n = GLOBAL_BATCH / RANKS;
    let per_rank = CommWorld::run(RANKS, |comm| {
        let me = comm.rank();
        let owned = (0..cfg.num_tables).filter(|t| t % RANKS == me).count();
        let chunk = vec![1.0f32; owned * local_n * cfg.emb_dim];
        let grads = vec![1.0f32; cfg.mlp_param_count() as usize];
        // Per repetition: [alltoall ms, allreduce ms].
        let mut reps = Vec::new();
        for _ in 0..COLLECTIVE_REPS {
            let send = vec![chunk.clone(); RANKS];
            let mut flat = grads.clone();
            comm.barrier();
            let t = Instant::now();
            std::hint::black_box(alltoall(&comm, send));
            let a2a = ms(t.elapsed());
            comm.barrier();
            let t = Instant::now();
            allreduce_sum(&comm, &mut flat);
            reps.push([a2a, ms(t.elapsed())]);
            std::hint::black_box(flat);
        }
        reps
    });
    let slowest = |k: usize| {
        let v: Vec<f64> = (0..COLLECTIVE_REPS)
            .map(|i| per_rank.iter().map(|r| r[i][k]).fold(0.0, f64::max))
            .collect();
        median(&v)
    };
    (slowest(0), slowest(1))
}
