//! Sample summaries, host probes and the metric list the run prints.

use airdnd::sim::percentile;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Median and quartiles of a set of samples, with its size.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    pub median: f64,
    pub p25: f64,
    pub p75: f64,
    pub n: usize,
}

impl Summary {
    /// Summarises `samples` (linear-interpolated quantiles).
    ///
    /// # Panics
    ///
    /// Panics on an empty slice: every probe takes at least one sample.
    pub fn of(samples: &[f64]) -> Summary {
        let q = |p| percentile(samples, p).expect("probe took samples");
        Summary {
            median: q(0.5),
            p25: q(0.25),
            p75: q(0.75),
            n: samples.len(),
        }
    }
}

/// Samples per host-time probe.
const PROBE_SAMPLES: usize = 31;
/// Host time one probe sample aims at; calls are batched up to it so that
/// nanosecond operations are not lost in timer resolution.
const SAMPLE_TARGET: Duration = Duration::from_micros(400);

/// Times `op` in `scale` units per call: a warm-up and calibration call,
/// then [`PROBE_SAMPLES`] batches sized to [`SAMPLE_TARGET`].
pub fn probe<T>(scale: Duration, mut op: impl FnMut() -> T) -> Summary {
    let started = Instant::now();
    black_box(op());
    let once = started.elapsed().max(Duration::from_nanos(20));
    let batch = (SAMPLE_TARGET.as_nanos() / once.as_nanos()).clamp(1, 100_000) as u32;
    let samples: Vec<f64> = (0..PROBE_SAMPLES)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..batch {
                black_box(op());
            }
            started.elapsed().as_secs_f64() / batch as f64 / scale.as_secs_f64()
        })
        .collect();
    Summary::of(&samples)
}

/// Restarts the peak resident set (`VmHWM`) from the current one, so the
/// next [`peak_rss_mb`] covers only what ran in between.
pub fn reset_peak_rss() -> std::io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}

/// Peak resident set of this process since start or the last
/// [`reset_peak_rss`] (`VmHWM`), MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The metrics one run reports, in print order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    /// Adds a probe's median under `name` and its quartiles and sample
    /// count under `name.p25`, `name.p75` and `name.n`.
    pub fn push_summary(&mut self, name: &str, summary: Summary, unit: &'static str) {
        self.push(name, summary.median, unit);
        self.push(format!("{name}.p25"), summary.p25, unit);
        self.push(format!("{name}.p75"), summary.p75, unit);
        self.push(format!("{name}.n"), summary.n as f64, "count");
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _, _)| n == name).map(|m| m.1)
    }

    pub fn iter(&self) -> impl Iterator<Item = &(String, f64, &'static str)> {
        self.0.iter()
    }
}
