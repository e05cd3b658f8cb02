//! `serve-mlperf`: Zipf(1.1) single-user requests into a `ServeEngine`
//! over the MLPerf-scaled model, 1% hot-row caches, the default
//! `ServeConfig` (max batch 32, 200 µs window) and a one-thread engine
//! team. Load comes from two threads: one sender, one receiver waiting on
//! the response handles.
//!
//! The end-to-end run is a closed loop of eight requests in flight, as by
//! eight users who each wait for their reply. A closed loop cannot build a
//! backlog, so its figures hold still on a shared host, where open-loop
//! tails and saturation capacity did not (see `PREDICTIONS.md`). The
//! traced run adds the open loop: requests sent on a fixed schedule at
//! 2,000 and 5,000 req/s, each timed from when it was due, the SLO ladder,
//! and the capacity with 64 requests in flight.

use crate::stats::{
    median, ms, peak_rss_mib, percentile, summarize, timed, Window, WindowRecorder,
};
use crate::{Args, Report};
use dlrm::layers::Execution;
use dlrm::prelude::*;
use dlrm_bench::single_socket::mlperf_scaled;
use dlrm_data::{DlrmConfig, IndexDistribution, MiniBatch};
use dlrm_kernels::embedding::rowops;
use dlrm_kernels::gemm::micro::detect_isa;
use dlrm_serve::engine::ResponseHandle;
use dlrm_serve::{
    CacheSizing, EngineReport, HotRowCache, Request, ServeClient, ServeConfig, ServeEngine,
    ServeModel,
};
use dlrm_tensor::init::seeded_rng;
use dlrm_tensor::Matrix;
use rand::rngs::StdRng;
use rand::Rng;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Low open-loop rate, about 30% of this engine's capacity on a 2-core
/// host.
const LOW_RATE: f64 = 2000.0;
/// High open-loop rate, about 75% of that capacity.
const HIGH_RATE: f64 = 5000.0;
const ZIPF: IndexDistribution = IndexDistribution::Zipf { s: 1.1 };
const CACHE_FRACTION: f64 = 0.01;
const SETUPS: usize = 5;
/// Requests in flight while measuring latency.
const LATENCY_WINDOW: usize = 8;
/// Requests in flight while measuring capacity: two full batches.
const CAPACITY_WINDOW: usize = 64;
/// Length of the traced run's capacity phase.
const CAPACITY_S: f64 = 2.0;
/// Distinct pre-generated requests the closed loops cycle through.
const POOL: usize = 4096;
/// p99 latency limit of the SLO ladder.
const SLO_P99_MS: f64 = 20.0;
/// An open-loop phase whose generator sent any request later than this
/// after its due time did not offer the stated load.
const MAX_GEN_LATE_MS: f64 = 50.0;
/// Offered rates of the SLO ladder, ascending.
const LADDER: [f64; 8] = [
    2000.0, 3000.0, 4000.0, 5000.0, 6000.0, 7000.0, 8000.0, 9000.0,
];
/// Length of one ladder point.
const LADDER_S: f64 = 1.0;
/// Served logits re-derived offline by the output check.
const CHECK_SAMPLES: usize = 200;
/// Untimed warm-up before every timed phase (fills the caches).
const WARM_S: f64 = 1.0;

fn serve_model(cfg: &DlrmConfig, seed: u64) -> ServeModel {
    ServeModel::new(
        cfg,
        Execution::optimized(1),
        CacheSizing::Fraction(CACHE_FRACTION),
        seed,
    )
}

/// One single-user request drawn from `rng`.
fn random_request(cfg: &DlrmConfig, rng: &mut StdRng) -> Request {
    let dense = (0..cfg.dense_features)
        .map(|_| rng.gen_range(-1.0..1.0f32))
        .collect();
    let indices = (0..cfg.num_tables)
        .map(|t| ZIPF.sample_many(cfg.table_rows[t], cfg.lookups_per_table, rng))
        .collect();
    Request { dense, indices }
}

fn requests(cfg: &DlrmConfig, count: usize, rng: &mut StdRng) -> Vec<Request> {
    (0..count).map(|_| random_request(cfg, rng)).collect()
}

/// One request as a batch of one, for the offline forward.
fn single_batch(cfg: &DlrmConfig, req: &Request) -> MiniBatch {
    MiniBatch {
        dense: Matrix::from_fn(cfg.dense_features, 1, |r, _| req.dense[r]),
        indices: req.indices.clone(),
        offsets: req.indices.iter().map(|bag| vec![0, bag.len()]).collect(),
        labels: vec![0.0],
    }
}

/// What one load phase saw, in send order.
#[derive(Default)]
struct Phase {
    /// Latency of each answered request: from its due time in an open
    /// loop, from its submission in a closed loop.
    lat_ms: Vec<f64>,
    /// Measurement windows over the answered requests.
    windows: Vec<Window>,
    /// Largest delay between a request's due time and its submission.
    late_ms_max: f64,
    /// Requests in flight at each send.
    in_flight: Vec<usize>,
    sent: u64,
    failed: u64,
    /// `(send index, logit)` of every answered request.
    logits: Vec<(usize, f32)>,
}

impl Phase {
    /// True when completion lag or queue depth keeps growing: the last
    /// quarter of the phase is markedly worse than the first.
    fn backlog_grows(&self) -> bool {
        if self.lat_ms.len() < 8 {
            return false;
        }
        let quarter = |v: &[f64], k: usize| {
            let n = v.len() / 4;
            median(&v[k * n..(k + 1) * n])
        };
        let depth: Vec<f64> = self.in_flight.iter().map(|&d| d as f64).collect();
        let (lag0, lag3) = (quarter(&self.lat_ms, 0), quarter(&self.lat_ms, 3));
        let (d0, d3) = (quarter(&depth, 0), quarter(&depth, 3));
        (lag3 > 1.5 * lag0 && lag3 > lag0 + 2.0) || (d3 > 2.0 * d0 && d3 > d0 + 32.0)
    }
}

/// How the sender paces its requests.
#[derive(Clone, Copy)]
enum Pace {
    /// Open loop: request `i` is due `i / rate` seconds after the start.
    Rate(f64),
    /// Closed loop: at most this many requests in flight, for this long.
    Window(usize, f64),
}

/// Drives one load phase: `reqs` are sent in order (cycled in a closed
/// loop) from this thread, and one receiver thread waits on the handles.
fn drive(client: &ServeClient, reqs: &[Request], pace: Pace) -> Phase {
    // In a closed loop the receiver holds one handle, the sender one more.
    let cap = match pace {
        Pace::Rate(_) => reqs.len(),
        Pace::Window(w, _) => w.saturating_sub(2),
    };
    let (tx, rx) = mpsc::sync_channel::<(usize, Instant, Result<ResponseHandle, String>)>(cap);
    let done = AtomicUsize::new(0);
    let start = Instant::now() + Duration::from_millis(1);
    std::thread::scope(|s| {
        let done = &done;
        let receiver = s.spawn(move || {
            let mut out = Phase::default();
            let mut windows = WindowRecorder::new();
            for (i, t0, handle) in rx {
                match handle.and_then(|h| h.wait()) {
                    Ok(resp) => {
                        out.lat_ms.push(ms(t0.elapsed()));
                        windows.record(1.0);
                        out.logits.push((i, resp.logit));
                    }
                    Err(_) => out.failed += 1,
                }
                done.fetch_add(1, Ordering::Relaxed);
            }
            out.windows = windows.finish();
            out
        });
        let (mut late_ms_max, mut in_flight, mut sent) = (0.0f64, Vec::new(), 0usize);
        match pace {
            Pace::Rate(rate) => {
                for req in reqs {
                    let due = start + Duration::from_secs_f64(sent as f64 / rate);
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    late_ms_max =
                        late_ms_max.max(ms(Instant::now().saturating_duration_since(due)));
                    in_flight.push(sent - done.load(Ordering::Relaxed));
                    tx.send((sent, due, client.submit(req.clone())))
                        .expect("receiver outlives the sender");
                    sent += 1;
                }
            }
            Pace::Window(_, seconds) => {
                let deadline = start + Duration::from_secs_f64(seconds);
                while Instant::now() < deadline {
                    let req = reqs[sent % reqs.len()].clone();
                    tx.send((sent, Instant::now(), client.submit(req)))
                        .expect("receiver outlives the sender");
                    sent += 1;
                }
            }
        }
        drop(tx);
        let mut out = receiver.join().expect("receiver thread panicked");
        out.late_ms_max = late_ms_max;
        out.in_flight = in_flight;
        out.sent = sent as u64;
        out
    })
}

/// Set-up: model construction, engine start and the first served request.
fn setup(cfg: &DlrmConfig, seed: u64, first: &Request) -> (ServeEngine, f64) {
    let t0 = Instant::now();
    let engine = ServeEngine::start(serve_model(cfg, seed), ServeConfig::default());
    engine
        .client()
        .infer(first.clone())
        .expect("first request is served");
    (engine, t0.elapsed().as_secs_f64())
}

pub fn run(args: &Args, report: &mut Report) {
    let (cfg, _) = mlperf_scaled(false);
    println!(
        "config {}: {} tables, E={}, Zipf s=1.1, {}% hot-row caches, max batch 32, \
         200 us window, 1-thread engine team",
        cfg.name,
        cfg.num_tables,
        cfg.emb_dim,
        CACHE_FRACTION * 100.0
    );
    if args.trace {
        run_traced(args, report, &cfg);
    } else {
        run_untraced(args, report, &cfg);
    }
}

fn run_untraced(args: &Args, report: &mut Report, cfg: &DlrmConfig) {
    let pool = requests(cfg, POOL, &mut seeded_rng(args.seed, 0x5E7E));
    let mut setups = Vec::new();
    let mut engine = None;
    for _ in 0..SETUPS {
        if let Some(e) = engine.take() {
            ServeEngine::shutdown(e);
        }
        let (e, s) = setup(cfg, args.seed, &pool[0]);
        setups.push(s);
        engine = Some(e);
    }
    let engine = engine.expect("at least one set-up");
    let client = engine.client();
    let warm = drive(&client, &pool, Pace::Window(LATENCY_WINDOW, WARM_S));
    let lat = drive(&client, &pool, Pace::Window(LATENCY_WINDOW, args.seconds));
    let rss = peak_rss_mib();
    drop(client);
    let engine_report = engine.shutdown();
    report.ops(warm.sent + lat.sent, warm.failed + lat.failed);
    let summary = summarize(&lat.windows, &lat.lat_ms);
    println!(
        "{} requests with {LATENCY_WINDOW} in flight; requests {summary}; engine mean batch \
         {:.2}; setups {setups:?} s",
        lat.lat_ms.len(),
        engine_report.mean_batch(),
    );
    report.end_to_end(&summary, &setups, rss);

    // Output check: a sample of served logits against an offline forward
    // of the same requests on a fresh model.
    let mut offline = serve_model(cfg, args.seed);
    let stride = (lat.logits.len() / CHECK_SAMPLES).max(1);
    let sample: Vec<&(usize, f32)> = lat.logits.iter().step_by(stride).collect();
    let mismatched = sample
        .iter()
        .filter(|(i, logit)| {
            let want = offline.forward(&single_batch(cfg, &pool[i % pool.len()]))[0];
            want.to_bits() != logit.to_bits()
        })
        .count();
    report.check(
        !sample.is_empty() && mismatched == 0,
        &format!(
            "{} sampled served logits equal an offline ServeModel::forward bitwise \
             ({mismatched} mismatched)",
            sample.len()
        ),
    );
}

/// Forward-only replica of `ServeModel` built from outside: `DlrmModel`
/// layers plus one `HotRowCache` per table, timed layer by layer.
struct Replica {
    model: DlrmModel,
    caches: Vec<HotRowCache>,
    outs: Vec<Matrix>,
}

impl Replica {
    fn new(cfg: &DlrmConfig, seed: u64) -> Self {
        let mut model = DlrmModel::new(
            cfg,
            Execution::optimized(1),
            UpdateStrategy::RaceFree,
            PrecisionMode::Fp32,
            seed,
        );
        model.bottom.prepack_weights();
        model.top.prepack_weights();
        let caches = model
            .tables
            .iter()
            .map(|t| {
                let rows = ((t.rows() as f64 * CACHE_FRACTION).ceil() as usize).clamp(1, t.rows());
                HotRowCache::new(rows, t.dim())
            })
            .collect();
        let outs = model
            .tables
            .iter()
            .map(|t| Matrix::zeros(0, t.dim()))
            .collect();
        Replica {
            model,
            caches,
            outs,
        }
    }

    /// Logits plus `[bottom, gather, interaction, top]` milliseconds.
    fn forward(&mut self, batch: &MiniBatch) -> (Vec<f32>, [f64; 4]) {
        let exec = self.model.exec.clone();
        let n = batch.batch_size();
        let (z0, bottom) = timed(|| self.model.bottom.forward(&exec, &batch.dense));
        let isa = detect_isa();
        let ((), gather) = timed(|| {
            for (t, layer) in self.model.tables.iter().enumerate() {
                let out = &mut self.outs[t];
                out.resize_rows(n);
                let (indices, offsets) = (&batch.indices[t], &batch.offsets[t]);
                for bag in 0..n {
                    let row_out = out.row_mut(bag);
                    row_out.fill(0.0);
                    for &idx in &indices[offsets[bag]..offsets[bag + 1]] {
                        rowops::accumulate(
                            isa,
                            row_out,
                            self.caches[t].get_or_admit(idx, &layer.weight),
                        );
                    }
                }
            }
        });
        let (inter, interaction) = timed(|| self.model.interaction.forward(&exec, &z0, &self.outs));
        let (logits, top) = timed(|| self.model.top.forward(&exec, &inter).as_slice().to_vec());
        (logits, [bottom, gather, interaction, top])
    }
}

/// One engine over a fresh model: an untimed warm-up, then `reqs` at
/// `rate`. Returns the timed phase and the engine-side report, whose
/// latencies are trimmed to the timed phase.
fn engine_phase(
    report: &mut Report,
    model: ServeModel,
    rate: f64,
    warm: &[Request],
    reqs: &[Request],
) -> (Phase, EngineReport) {
    let engine = ServeEngine::start(model, ServeConfig::default());
    let client = engine.client();
    let warm_out = drive(&client, warm, Pace::Rate(rate));
    let out = drive(&client, reqs, Pace::Rate(rate));
    drop(client);
    let mut er = engine.shutdown();
    report.ops(warm_out.sent + out.sent, warm_out.failed + out.failed);
    er.latencies_us.drain(..warm_out.lat_ms.len());
    (out, er)
}

fn run_traced(args: &Args, report: &mut Report, cfg: &DlrmConfig) {
    let s = args.seconds;
    let mut rng = seeded_rng(args.seed, 0x5E7E);
    let warm_batches: Vec<MiniBatch> = (0..64)
        .map(|_| MiniBatch::random(cfg, 32, ZIPF, &mut rng))
        .collect();
    let b1: Vec<MiniBatch> = (0..256)
        .map(|_| MiniBatch::random(cfg, 1, ZIPF, &mut rng))
        .collect();
    let b32: Vec<MiniBatch> = (0..64)
        .map(|_| MiniBatch::random(cfg, 32, ZIPF, &mut rng))
        .collect();
    let mut phase_reqs =
        |rate: f64, seconds: f64| requests(cfg, (rate * seconds) as usize, &mut rng);
    let (warm_lo, timed_lo) = (phase_reqs(LOW_RATE, 0.5), phase_reqs(LOW_RATE, 0.15 * s));
    let (warm_hi, timed_hi) = (phase_reqs(HIGH_RATE, 0.5), phase_reqs(HIGH_RATE, 0.15 * s));
    let warm_ladder = phase_reqs(LADDER[0], 0.5);
    let ladder_reqs: Vec<Vec<Request>> = LADDER.iter().map(|r| phase_reqs(*r, LADDER_S)).collect();

    // Direct ServeModel::forward timing at batch 1 and 32, warm caches.
    let mut model = serve_model(cfg, args.seed);
    for b in &warm_batches {
        model.forward(b);
    }
    let (mut f1, mut f32_) = (Vec::new(), Vec::new());
    let deadline = Instant::now() + Duration::from_secs_f64(0.1 * s);
    let mut i = 0usize;
    while Instant::now() < deadline {
        for _ in 0..8 {
            f1.push(timed(|| model.forward(&b1[i % b1.len()])).1);
            i += 1;
        }
        f32_.push(timed(|| model.forward(&b32[i % b32.len()])).1);
    }
    report.set("serve.forward_ms.b1", median(&f1));
    report.set("serve.forward_ms.b32", median(&f32_));

    // Engine counters at the workload's rate, then at a high rate.
    model.reset_cache_stats();
    let (lo, er) = engine_phase(report, model, LOW_RATE, &warm_lo, &timed_lo);
    let (hits, misses, evictions) = er
        .cache_stats
        .iter()
        .flatten()
        .fold((0u64, 0u64, 0u64), |(h, m, e), st| {
            (h + st.hits, m + st.misses, e + st.evictions)
        });
    let engine_p50 = |er: &EngineReport| {
        median(
            &er.latencies_us
                .iter()
                .map(|&us| us as f64 / 1e3)
                .collect::<Vec<_>>(),
        )
    };
    report.set("serve.engine_lat_ms_p50.r2000", engine_p50(&er));
    report.set("serve.lat_ms_p50.r2000", median(&lo.lat_ms));
    report.set("serve.lat_ms_p99.r2000", percentile(&lo.lat_ms, 99.0));
    report.set("serve.mean_batch.r2000", er.mean_batch());
    report.set(
        "serve.cache.hit_rate",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    report.set(
        "serve.cache.evictions_per_req",
        evictions as f64 / er.requests.max(1) as f64,
    );
    drop(er);
    let (hi, er) = engine_phase(
        report,
        serve_model(cfg, args.seed),
        HIGH_RATE,
        &warm_hi,
        &timed_hi,
    );
    report.set("serve.engine_lat_ms_p50.r5000", engine_p50(&er));
    report.set("serve.mean_batch.r5000", er.mean_batch());
    report.set(
        "serve.queue_depth_hwm.r5000",
        er.shards
            .iter()
            .map(|s| s.queue_depth_hwm)
            .max()
            .unwrap_or(0) as f64,
    );
    report.set("serve.lat_ms_p50.r5000", median(&hi.lat_ms));
    report.set("serve.lat_ms_p99.r5000", percentile(&hi.lat_ms, 99.0));
    drop(er);

    // Layer split of a batch-32 forward on a replica built from outside.
    let mut replica = Replica::new(cfg, args.seed);
    for b in &warm_batches {
        replica.forward(b);
    }
    let mut parts: Vec<[f64; 4]> = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(0.1 * s);
    let mut i = 0usize;
    while Instant::now() < deadline {
        parts.push(replica.forward(&b32[i % b32.len()]).1);
        i += 1;
    }
    let replica_logits: Vec<Vec<f32>> = b32[..4].iter().map(|b| replica.forward(b).0).collect();
    drop(replica);
    let part = |k: usize| median(&parts.iter().map(|p| p[k]).collect::<Vec<_>>());
    report.set("serve.bottom_ms", part(0));
    report.set("serve.gather_ms", part(1));
    report.set("serve.interaction_ms", part(2));
    report.set("serve.top_ms", part(3));

    // SLO ladder on a fresh engine; the replica check rides on its model.
    let mut model = serve_model(cfg, args.seed);
    let same = b32[..4]
        .iter()
        .zip(&replica_logits)
        .all(|(b, want)| model.forward(b) == *want);
    report.check(
        same,
        "replica forward reproduces ServeModel::forward bitwise",
    );
    let engine = ServeEngine::start(model, ServeConfig::default());
    let client = engine.client();
    let warm = drive(&client, &warm_ladder, Pace::Rate(LADDER[0]));
    report.ops(warm.sent, warm.failed);
    let mut slo_rate = 0.0;
    println!(
        "generator late max: {:.3} ms at {LOW_RATE}/s, {:.3} ms at {HIGH_RATE}/s",
        lo.late_ms_max, hi.late_ms_max
    );
    let mut late_ms_max = lo.late_ms_max.max(hi.late_ms_max);
    for (r, reqs) in LADDER.iter().zip(&ladder_reqs) {
        let point = drive(&client, reqs, Pace::Rate(*r));
        report.ops(point.sent, point.failed);
        let p99 = percentile(&point.lat_ms, 99.0);
        let grows = point.backlog_grows();
        let ok = p99 <= SLO_P99_MS && point.failed == 0 && !grows;
        println!(
            "ladder {r} req/s: p99 {p99:.3} ms, failed {}, backlog grows {grows}, late max \
             {:.3} ms -> {}",
            point.failed,
            point.late_ms_max,
            if ok { "meets SLO" } else { "misses SLO" }
        );
        if !ok {
            break;
        }
        late_ms_max = late_ms_max.max(point.late_ms_max);
        slo_rate = *r;
    }
    let cap = drive(
        &client,
        &ladder_reqs[0],
        Pace::Window(CAPACITY_WINDOW, CAPACITY_S),
    );
    report.ops(cap.sent, cap.failed);
    report.set(
        "serve.capacity_per_s",
        summarize(&cap.windows, &cap.lat_ms).rate,
    );
    drop(client);
    engine.shutdown();
    report.set("serve.slo_rate_per_s", slo_rate);
    report.set("serve.gen_late_ms_max", late_ms_max);
    report.check(
        late_ms_max <= MAX_GEN_LATE_MS,
        &format!(
            "load generator kept its schedule at {LOW_RATE} and {HIGH_RATE} req/s and at \
             every ladder rate that met the SLO (late by at most {late_ms_max:.3} ms)"
        ),
    );
}
