//! The untraced end-to-end measurement: set-up, the timed closed loop of
//! scenario runs, and the checks every run must pass.

use crate::stats::{peak_rss_mb, reset_peak_rss, Metrics};
use crate::workload::{Workload, WORLDS};
use airdnd::scenario::{
    run_scenario_in_observed, validate_spans, RunTelemetry, ScenarioConfig, ScenarioReport,
    TelemetryOptions, WorldInstance,
};
use airdnd::sim::percentile;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Set-up repetitions before each timed run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Completed tasks a run's latency pool needs for its p90 to rest on at
/// least ten samples beyond it.
const MIN_LATENCY_SAMPLES: usize = 100;

/// Per-category event-ring capacity of a traced run: far above the
/// largest run's event count, so the ring never evicts (checked).
const TRACE_RING: usize = 1 << 26;

/// Tracing off, stated explicitly rather than read from the environment.
pub const UNTRACED: TelemetryOptions = TelemetryOptions {
    events: None,
    profile: false,
    spans: false,
};

/// Every hook the runner has: the event ring, the phase profiler and
/// per-query spans.
pub const TRACED: TelemetryOptions = TelemetryOptions {
    events: Some(TRACE_RING),
    profile: true,
    spans: true,
};

/// Counts scenario runs and the runs that panicked or failed a check.
#[derive(Default)]
pub struct Book {
    pub attempted: u64,
    pub failed: u64,
}

impl Book {
    /// Runs one scenario, timing it. A panic or a failed books check is
    /// recorded as a failed run and yields `None`.
    pub fn run(
        &mut self,
        world: WorldInstance,
        cfg: ScenarioConfig,
        opts: TelemetryOptions,
    ) -> Option<(ScenarioReport, RunTelemetry, Duration)> {
        self.attempted += 1;
        let started = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            run_scenario_in_observed(world, cfg, opts)
        }));
        let wall = started.elapsed();
        let Ok((report, telemetry)) = outcome else {
            self.fail(format!("seed {}: run panicked", cfg.seed));
            return None;
        };
        if let Err(why) = books_balance(&report) {
            self.fail(format!("seed {}: {why}", cfg.seed));
            return None;
        }
        Some((report, telemetry, wall))
    }

    /// Records a failed check on a run already counted.
    pub fn fail(&mut self, why: String) {
        eprintln!("check failed: {why}");
        self.failed += 1;
    }

    /// Runs `world` traced and checks it against its untraced `reference`
    /// report: byte-identical report, valid span trees, no evicted event.
    pub fn traced_check(
        &mut self,
        world: WorldInstance,
        cfg: ScenarioConfig,
        reference: &ScenarioReport,
    ) -> Option<(ScenarioReport, RunTelemetry, Duration)> {
        let (report, telemetry, wall) = self.run(world, cfg, TRACED)?;
        let seed = cfg.seed;
        if format!("{report:?}") != format!("{reference:?}") {
            self.fail(format!("seed {seed}: traced report differs from untraced"));
        } else if let Err(why) = validate_spans(telemetry.spans.spans()) {
            self.fail(format!("seed {seed}: invalid spans: {why}"));
        } else if telemetry.events.dropped_total() > 0 {
            self.fail(format!("seed {seed}: event ring evicted events"));
        } else {
            return Some((report, telemetry, wall));
        }
        None
    }
}

/// The run's own books: no task is both completed and failed or counted
/// twice, and every completed task has exactly one latency sample.
fn books_balance(r: &ScenarioReport) -> Result<(), String> {
    if r.tasks_completed + r.tasks_failed > r.tasks_submitted {
        return Err(format!(
            "completed {} + failed {} > submitted {}",
            r.tasks_completed, r.tasks_failed, r.tasks_submitted
        ));
    }
    if r.latencies_ms.len() as u64 != r.tasks_completed {
        return Err(format!(
            "{} latency samples for {} completed tasks",
            r.latencies_ms.len(),
            r.tasks_completed
        ));
    }
    Ok(())
}

/// Materialises the run's worlds and times it, s.
fn materialize(workload: Workload, seed: u64) -> (Vec<(WorldInstance, ScenarioConfig)>, f64) {
    let started = Instant::now();
    let worlds = (0..WORLDS)
        .map(|i| workload.materialize(Workload::world_seed(seed, i)))
        .collect();
    (worlds, started.elapsed().as_secs_f64())
}

/// The end-to-end run: set-up, then scenario runs over the run's worlds
/// in a closed loop until `seconds` have passed (every world at least
/// once, the first twice), then one traced re-run of the first world.
///
/// The set-up is repeated before every timed run and `setup_s` is the
/// median: spread over the whole run, the repetitions see the same host
/// as the runs do, not just its state in the first millisecond.
pub fn measure(workload: Workload, seed: u64, seconds: f64, book: &mut Book) -> Metrics {
    let (worlds, first) = materialize(workload, seed);
    let mut setup_times = vec![first];
    let mut first_pass: Vec<Option<ScenarioReport>> = vec![None; worlds.len()];
    let (mut vsim, mut wall_s) = (0.0, 0.0);
    let mut run_peaks = Vec::new();
    let started = Instant::now();
    let mut i = 0;
    while i <= worlds.len() || started.elapsed().as_secs_f64() < seconds {
        let k = i % worlds.len();
        i += 1;
        setup_times.extend((0..SETUP_REPS).map(|_| materialize(workload, seed).1));
        let (world, cfg) = worlds[k].clone();
        if let Err(why) = reset_peak_rss() {
            book.fail(format!("cannot reset the peak RSS: {why}"));
        }
        let Some((report, _, wall)) = book.run(world, cfg, UNTRACED) else {
            continue;
        };
        run_peaks.extend(peak_rss_mb());
        vsim += cfg.vehicles as f64 * cfg.duration.as_secs_f64();
        wall_s += wall.as_secs_f64();
        match &first_pass[k] {
            None => first_pass[k] = Some(report),
            Some(first) if format!("{first:?}") != format!("{report:?}") => {
                book.fail(format!("seed {}: repeated run differs", cfg.seed));
            }
            Some(_) => {}
        }
    }
    if let Some(reference) = &first_pass[0] {
        let (world, cfg) = worlds[0].clone();
        book.traced_check(world, cfg, reference);
    }
    let reports: Vec<ScenarioReport> = first_pass.into_iter().flatten().collect();

    let submitted: u64 = reports.iter().map(|r| r.tasks_submitted).sum();
    let completed: u64 = reports.iter().map(|r| r.tasks_completed).sum();
    let bytes: u64 = reports
        .iter()
        .map(|r| r.mesh_bytes + r.cellular_bytes)
        .sum();
    let latencies: Vec<f64> = reports
        .iter()
        .flat_map(|r| r.latencies_ms.iter().copied())
        .collect();
    // Coverage is sampled once per completed view, so weighting each
    // world's mean by its completions pools the samples.
    let coverage = reports
        .iter()
        .map(|r| r.mean_coverage * r.tasks_completed as f64)
        .sum::<f64>()
        / completed as f64;
    if latencies.len() < MIN_LATENCY_SAMPLES {
        book.fail(format!(
            "{} latency samples; p90 needs {MIN_LATENCY_SAMPLES}",
            latencies.len()
        ));
    }
    let q = |p| percentile(&latencies, p).unwrap_or(f64::NAN);
    let peak = |p| percentile(&run_peaks, p).unwrap_or(f64::NAN);
    eprintln!(
        "{} seed {seed}: {} worlds, {i} timed runs in {wall_s:.2} s, {} latency samples, \
         peak RSS per run {:.1} MB median, {:.1} MB max",
        workload.name(),
        reports.len(),
        latencies.len(),
        peak(0.5),
        peak(1.0)
    );

    let mut m = Metrics::default();
    m.push("vsim_per_s", vsim / wall_s, "vehicle-s/s");
    m.push(
        "setup_s",
        percentile(&setup_times, 0.5).expect("set up at least once"),
        "s",
    );
    m.push("peak_rss_mb", peak(0.5), "MB");
    m.push(
        "completion_rate",
        completed as f64 / submitted as f64,
        "ratio",
    );
    m.push("sim_latency_p50_ms", q(0.5), "ms");
    m.push("sim_latency_p90_ms", q(0.9), "ms");
    m.push("bytes_per_view", bytes as f64 / completed as f64, "B");
    m.push("coverage", coverage, "ratio");
    m
}
