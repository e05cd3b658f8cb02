//! Small statistics and process helpers shared by every workload.

use std::ops::Range;
use std::time::{Duration, Instant};

/// Linear-interpolated percentile `q` (0..=100) of `values`; 0 when empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = (q / 100.0).clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `values`; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Arithmetic mean; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Milliseconds in `d`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs `f` and returns its result with its wall time in milliseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, ms(t0.elapsed()))
}

/// Whether timed step `step` runs traced: traced and untraced blocks of
/// four steps alternate, so drift on a shared host hits both alike.
pub fn in_traced_block(step: usize) -> bool {
    (step / 4) % 2 == 1
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Number of CPUs this process may run on.
fn cpus() -> f64 {
    std::thread::available_parallelism().map_or(1, |n| n.get()) as f64
}

/// Seconds of CPU time the hypervisor stole from this machine's CPUs so
/// far, summed over CPUs (`steal` of `/proc/stat`); 0 where unavailable.
fn steal_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .next()
                .and_then(|l| l.split_whitespace().nth(8))
                .and_then(|v| v.parse::<f64>().ok())
        })
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// Largest share of CPU time the hypervisor may steal in a window that
/// counts as clean.
pub const CLEAN_STEAL: f64 = 0.02;

/// Shortest measurement window. Stolen CPU time on a shared host comes in
/// bursts shorter than a second, so quarter-second windows leave clean
/// stretches to keep where one-second windows mixed them with stolen ones.
const WINDOW_S: f64 = 0.25;

/// One timed window of at least [`WINDOW_S`]: the samples (steps or requests)
/// that finished in it, as indices into the caller's latency list.
pub struct Window {
    pub samples: Range<usize>,
    /// Units of work done (training samples, requests).
    pub work: f64,
    pub secs: f64,
    /// Share of the machine's CPU time the hypervisor stole in it.
    pub steal: f64,
}

/// Cuts a timed run into windows of at least [`WINDOW_S`] as samples finish,
/// reading the hypervisor's steal counter at each cut.
pub struct WindowRecorder {
    samples: usize,
    first: usize,
    work: f64,
    opened: Instant,
    steal0: f64,
    windows: Vec<Window>,
}

impl WindowRecorder {
    pub fn new() -> Self {
        WindowRecorder {
            samples: 0,
            first: 0,
            work: 0.0,
            opened: Instant::now(),
            steal0: steal_s(),
            windows: Vec::new(),
        }
    }

    /// Records one finished sample that did `work` units.
    pub fn record(&mut self, work: f64) {
        self.samples += 1;
        self.work += work;
        if self.opened.elapsed().as_secs_f64() >= WINDOW_S {
            self.close();
        }
    }

    fn close(&mut self) {
        let secs = self.opened.elapsed().as_secs_f64();
        let steal = steal_s();
        self.windows.push(Window {
            samples: self.first..self.samples,
            work: self.work,
            secs,
            steal: (steal - self.steal0) / (cpus() * secs),
        });
        self.first = self.samples;
        self.work = 0.0;
        self.opened = Instant::now();
        self.steal0 = steal;
    }

    /// The closed windows; a trailing partial one is dropped unless no
    /// window closed at all.
    pub fn finish(mut self) -> Vec<Window> {
        if self.windows.is_empty() && self.samples > 0 {
            self.close();
        }
        self.windows
    }
}

/// Throughput and latency over the windows measured while the host left
/// the CPUs alone.
pub struct Summary {
    /// Median over kept windows of work per second.
    pub rate: f64,
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
    pub kept: usize,
    pub windows: usize,
    /// Share of CPU time stolen over all windows.
    pub steal: f64,
}

/// Summarizes `lat_ms` over the clean windows: those with at most
/// [`CLEAN_STEAL`] of CPU time stolen, or, when fewer than a third
/// qualify, the third with the least steal. A neighbour's burst on a
/// shared host then cannot swing a run's figures; `--seconds` must leave
/// enough windows to choose from.
pub fn summarize(windows: &[Window], lat_ms: &[f64]) -> Summary {
    let mut order: Vec<&Window> = windows.iter().collect();
    order.sort_by(|a, b| a.steal.total_cmp(&b.steal));
    let clean = order.iter().filter(|w| w.steal <= CLEAN_STEAL).count();
    let kept = &order[..clean.max(windows.len().div_ceil(3))];
    let rates: Vec<f64> = kept.iter().map(|w| w.work / w.secs).collect();
    let lat: Vec<f64> = kept
        .iter()
        .flat_map(|w| lat_ms[w.samples.clone()].iter().copied())
        .collect();
    let secs: f64 = windows.iter().map(|w| w.secs).sum();
    Summary {
        rate: median(&rates),
        p50: median(&lat),
        p90: percentile(&lat, 90.0),
        p99: percentile(&lat, 99.0),
        kept: kept.len(),
        windows: windows.len(),
        steal: windows.iter().map(|w| w.steal * w.secs).sum::<f64>() / secs,
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:.1}/s, p50 {:.3} ms, p90 {:.3} ms, p99 {:.3} ms over {} of {} windows \
             (host steal {:.1}% overall)",
            self.rate,
            self.p50,
            self.p90,
            self.p99,
            self.kept,
            self.windows,
            self.steal * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn summary_keeps_the_clean_windows() {
        let w = |i: usize, steal: f64| Window {
            samples: i..i + 1,
            work: 10.0,
            secs: 1.0,
            steal,
        };
        // Two clean windows of three: the stolen one's latency is dropped.
        let s = summarize(&[w(0, 0.0), w(1, 0.5), w(2, 0.01)], &[1.0, 100.0, 3.0]);
        assert_eq!((s.kept, s.windows), (2, 3));
        assert_eq!(s.p50, 2.0);
        assert_eq!(s.rate, 10.0);
        // None clean: the least-stolen third is kept.
        let s = summarize(&[w(0, 0.3), w(1, 0.5), w(2, 0.2)], &[1.0, 100.0, 3.0]);
        assert_eq!((s.kept, s.p50), (1, 3.0));
    }
}
