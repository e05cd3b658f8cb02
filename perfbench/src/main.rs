//! End-to-end and per-layer benchmark of the DLRM training and serving
//! stack.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! Each run builds its inputs from `--seed` before any timing starts,
//! measures one workload for about `--seconds`, checks the program's
//! outputs outside the timed window, prints a human-readable summary, and
//! ends with one JSON line:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` is a separate
//! run that times each layer from outside, by wrapping the calls into that
//! layer's public functions, and reports the per-layer metrics.
//! `PREDICTIONS.md` beside this crate records why each workload exists and
//! which end-to-end metric each layer metric should move.

mod dist;
mod serve;
mod stats;
mod train;

use std::collections::BTreeMap;
use std::process::ExitCode;

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;
/// Seed reserved for re-checking a claimed gain after the change was
/// written; do not tune against it.
pub const HELD_OUT_SEED: u64 = 20_201_117;

/// Workload names, in report order.
pub const WORKLOADS: [&str; 4] = ["train-small", "train-mlperf", "train-dist", "serve-mlperf"];

/// End-to-end metrics every `--trace 0` run reports: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("samples_per_s", "1/s"),
    ("lat_ms_p50", "ms"),
    ("lat_ms_p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics every `--trace 1` run reports: `(name, unit)`. A
/// layer the workload does not run reports 0.
pub const PER_LAYER: [(&str, &str); 45] = [
    ("dlrm.mlp.bottom_fwd_ms", "ms"),
    ("dlrm.mlp.bottom_bwd_ms", "ms"),
    ("dlrm.mlp.top_fwd_ms", "ms"),
    ("dlrm.mlp.top_bwd_ms", "ms"),
    ("dlrm.mlp.update_ms", "ms"),
    ("dlrm.mlp.gflops", "GF/s"),
    ("dlrm.embedding.fwd_ms", "ms"),
    ("dlrm.embedding.bwd_update_ms", "ms"),
    ("dlrm.embedding.gbps", "GB/s"),
    ("dlrm.interaction.fwd_ms", "ms"),
    ("dlrm.interaction.bwd_ms", "ms"),
    ("kernels.loss_ms", "ms"),
    ("trace.residual_ms", "ms"),
    ("trace.overhead_frac", "frac"),
    ("dlrm-dist.compute_ms", "ms"),
    ("dlrm-dist.alltoall_wait_ms", "ms"),
    ("dlrm-dist.alltoall_framework_ms", "ms"),
    ("dlrm-dist.allreduce_wait_ms", "ms"),
    ("dlrm-dist.allreduce_framework_ms", "ms"),
    ("dlrm-dist.exposed_comm_frac", "frac"),
    ("dlrm-dist.rank_skew_ms", "ms"),
    ("comm.alltoall_bytes_per_step", "bytes"),
    ("comm.allreduce_bytes_per_step", "bytes"),
    ("comm.alltoall_ms", "ms"),
    ("comm.allreduce_ms", "ms"),
    ("serve.forward_ms.b1", "ms"),
    ("serve.forward_ms.b32", "ms"),
    ("serve.bottom_ms", "ms"),
    ("serve.gather_ms", "ms"),
    ("serve.interaction_ms", "ms"),
    ("serve.top_ms", "ms"),
    ("serve.engine_lat_ms_p50.r2000", "ms"),
    ("serve.engine_lat_ms_p50.r5000", "ms"),
    ("serve.mean_batch.r2000", "count"),
    ("serve.mean_batch.r5000", "count"),
    ("serve.queue_depth_hwm.r5000", "count"),
    ("serve.lat_ms_p50.r2000", "ms"),
    ("serve.lat_ms_p99.r2000", "ms"),
    ("serve.lat_ms_p50.r5000", "ms"),
    ("serve.lat_ms_p99.r5000", "ms"),
    ("serve.cache.hit_rate", "frac"),
    ("serve.cache.evictions_per_req", "1/req"),
    ("serve.gen_late_ms_max", "ms"),
    ("serve.slo_rate_per_s", "1/s"),
    ("serve.capacity_per_s", "1/s"),
];

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> [--seed <n>] [--seconds <s>] [--trace <0|1>]\n\
         default seed {DEFAULT_SEED}, held-out seed {HELD_OUT_SEED}",
        WORKLOADS.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Report {
    attempted: u64,
    failed: u64,
    checks_failed: u64,
    metrics: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Records a metric by its registered name.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| *n == name),
            "metric {name} is not registered"
        );
        self.metrics.insert(name, value);
    }

    /// Records the five end-to-end metrics.
    pub fn end_to_end(&mut self, timed: &stats::Summary, setups: &[f64], peak_rss_mib: f64) {
        self.set("samples_per_s", timed.rate);
        self.set("lat_ms_p50", timed.p50);
        self.set("lat_ms_p90", timed.p90);
        self.set("setup_s", stats::median(setups));
        self.set("peak_rss_mib", peak_rss_mib);
    }

    /// Counts `attempted` operations of which `failed` failed (refused,
    /// dropped or erroring requests and steps).
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Counts one output check; a failing check is a failed attempt.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if ok {
            println!("check ok: {what}");
        } else {
            println!("CHECK FAILED: {what}");
            self.failed += 1;
            self.checks_failed += 1;
        }
    }

    /// The final JSON line over the metric set of this run's mode.
    fn json(&self, trace: bool) -> Result<String, String> {
        let set: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let mut fields = Vec::new();
        for (name, unit) in set {
            let value = match self.metrics.get(name) {
                Some(v) => *v,
                // A layer this workload does not run.
                None if trace => 0.0,
                None => return Err(format!("end-to-end metric {name} was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            fields.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.checks_failed == 0,
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        ))
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {} host_cores {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let mut report = Report::default();
    match args.workload.as_str() {
        "train-small" | "train-mlperf" => train::run(&args, &mut report),
        "train-dist" => dist::run(&args, &mut report),
        "serve-mlperf" => serve::run(&args, &mut report),
        _ => unreachable!("workload names are validated by parse_args"),
    }
    let set: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for (name, unit) in set {
        match report.metrics.get(name) {
            Some(v) => println!("{name:<34} {v:>16.4} {unit}"),
            None => println!("{name:<34} {:>16} (not run by this workload)", "-"),
        }
    }
    println!(
        "error_rate {:.6} ({} failed of {} attempted)",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    );
    match report.json(args.trace) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `"name": "<value>"` entries of one top-level array of BENCHMARK.json,
    /// in order.
    fn names_in(json: &str, key: &str) -> Vec<String> {
        let start = json.find(&format!("\"{key}\"")).expect("key present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("array closes")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("name closes")].to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_lists_the_metrics_and_workloads_this_binary_reports() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let names =
            |set: &[(&str, &str)]| set.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
        assert_eq!(names_in(&json, "end_to_end"), names(&END_TO_END));
        assert_eq!(names_in(&json, "per_layer"), names(&PER_LAYER));
        assert_eq!(names_in(&json, "workloads"), WORKLOADS.to_vec());
    }
}
