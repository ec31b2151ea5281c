//! The traced per-layer run: the run's first world untraced, traced and
//! untraced again, the program's own counts from the trace, and timed
//! probes over each layer's public calls, sized from that world and
//! those counts.

use crate::e2e::{Book, UNTRACED};
use crate::stats::{probe, Metrics, Summary};
use crate::workload::Workload;
use airdnd::core::score_candidates;
use airdnd::data::{DataCatalog, DataQuery, DataType, QualityDescriptor, QualityRequirement};
use airdnd::engine::{SpatialGrid, Timeline};
use airdnd::geo::Vec2;
use airdnd::mesh::{Beacon, MeshDescriptor, MeshMsg, MeshNode, NodeAdvert};
use airdnd::radio::{NodeAddr, RadioMedium};
use airdnd::scenario::{
    DropReason, EventCategory, EventKind, Fleet, FleetLayout, Phase, RunTelemetry, ScenarioConfig,
    ScenarioReport, WorldInstance,
};
use airdnd::sim::{SimDuration, SimRng, SimTime};
use airdnd::task::vm::{execute, verify, ExecLimits};
use airdnd::task::{library, ResourceRequirements, TaskId, TaskSpec};
use airdnd::telemetry::PhaseProfiler;
use airdnd::trust::{digest_outputs, ReputationTable};
use std::hint::black_box;
use std::time::{Duration, Instant};

const NS: Duration = Duration::from_nanos(1);
const US: Duration = Duration::from_micros(1);

/// Samples of the per-call probes that need set-up outside the timer
/// (world generation steps, mesh rounds).
const STEP_SAMPLES: usize = 31;

/// Medium carrier-sense range the V2V profile uses, m: the spatial grid's
/// cell size and the radius of a broadcast's candidate query.
const CS_RANGE: f64 = 600.0;

/// Event counts taken from the traced run's own event log.
#[derive(Default)]
struct Counts {
    broadcast_tx: u64,
    unicast_tx: u64,
    frames_rx: u64,
    unicast_drops: u64,
    drops: [u64; 3],
    broadcast_bytes: u64,
    unicast_bytes: u64,
    tasks_expired: u64,
}

impl Counts {
    fn of(telemetry: &RunTelemetry) -> Counts {
        let mut c = Counts::default();
        for recorded in telemetry.events.category(EventCategory::Frame) {
            match recorded.event.kind {
                EventKind::FrameTx {
                    to: None, bytes, ..
                } => {
                    c.broadcast_tx += 1;
                    c.broadcast_bytes += bytes;
                }
                EventKind::FrameTx { bytes, .. } => {
                    c.unicast_tx += 1;
                    c.unicast_bytes += bytes;
                }
                EventKind::FrameRx { .. } => c.frames_rx += 1,
                EventKind::FrameDrop { to, reason, .. } => {
                    c.unicast_drops += u64::from(to.is_some());
                    c.drops[match reason {
                        DropReason::Channel => 0,
                        DropReason::QueueCap => 1,
                        DropReason::Unreachable => 2,
                    }] += 1;
                }
                _ => {}
            }
        }
        c.tasks_expired = telemetry
            .events
            .category(EventCategory::Task)
            .filter(|r| matches!(r.event.kind, EventKind::TaskExpire { .. }))
            .count() as u64;
        c
    }

    fn frames_tx(&self) -> u64 {
        self.broadcast_tx + self.unicast_tx
    }

    /// Deliveries of broadcast frames (beacons): every delivery that was
    /// not a delivered unicast.
    fn broadcast_rx(&self) -> u64 {
        self.frames_rx
            .saturating_sub(self.unicast_tx.saturating_sub(self.unicast_drops))
    }
}

fn mean_bytes(bytes: u64, frames: u64) -> u64 {
    bytes.checked_div(frames).unwrap_or(64)
}

/// The per-layer run of `workload`'s first world for `seed`.
pub fn measure(workload: Workload, seed: u64, book: &mut Book) -> Metrics {
    let cfg = workload.config(seed);
    let mut m = Metrics::default();

    // worldgen: the two set-up steps, each timed on a fresh input.
    let instantiate = step_probe_ms(|| {
        let started = Instant::now();
        black_box(workload.instantiate(&cfg));
        started.elapsed()
    });
    let base = workload.instantiate(&cfg);
    let ego_stages = step_probe_ms(|| {
        let mut world = base.clone();
        let started = Instant::now();
        workload.add_egos(&mut world, &cfg);
        let elapsed = started.elapsed();
        black_box(world);
        elapsed
    });
    let (world, cfg) = workload.materialize(seed);

    // Untraced, traced, untraced: the overhead is taken against the mean
    // of the two untraced runs, and the second one checks that a repeat
    // reproduces the report.
    let Some((reference, _, before)) = book.run(world.clone(), cfg, UNTRACED) else {
        return m;
    };
    let Some((report, telemetry, traced_wall)) = book.traced_check(world.clone(), cfg, &reference)
    else {
        return m;
    };
    let Some((repeat, _, after)) = book.run(world.clone(), cfg, UNTRACED) else {
        return m;
    };
    if format!("{repeat:?}") != format!("{reference:?}") {
        book.fail(format!("seed {seed}: repeated run differs"));
    }
    let counts = Counts::of(&telemetry);
    let untraced_wall = (before + after).as_secs_f64() / 2.0;
    let traced_wall = traced_wall.as_secs_f64();

    m.push(
        "telemetry.trace_overhead_share",
        (traced_wall - untraced_wall) / untraced_wall,
        "ratio",
    );
    m.push(
        "telemetry.events_recorded",
        telemetry.events.recorded_total() as f64,
        "count",
    );
    m.push(
        "telemetry.events_dropped",
        telemetry.events.dropped_total() as f64,
        "count",
    );
    let phases = &telemetry.phases;
    for phase in Phase::ALL {
        m.push(
            format!("phase.{}_ms", phase.name()),
            phases.nanos(phase) as f64 / 1e6,
            "ms",
        );
    }
    m.push(
        "phase.other_ms",
        traced_wall * 1e3 - phases.total_nanos() as f64 / 1e6,
        "ms",
    );

    m.push("radio.frames_tx", counts.frames_tx() as f64, "count");
    m.push("radio.frames_rx", counts.frames_rx as f64, "count");
    m.push(
        "radio.rx_per_tx",
        counts.frames_rx as f64 / counts.frames_tx() as f64,
        "ratio",
    );
    m.push("radio.drops_channel", counts.drops[0] as f64, "count");
    m.push("radio.drops_queue_cap", counts.drops[1] as f64, "count");
    m.push("radio.drops_unreachable", counts.drops[2] as f64, "count");
    m.push("radio.bytes_on_air", report.mesh_bytes as f64, "B");
    m.push("mesh.joins", report.joins as f64, "count");
    m.push("mesh.leaves", report.leaves as f64, "count");
    m.push("scenario.spawns", report.lifecycle_spawns as f64, "count");
    m.push(
        "scenario.despawns",
        report.lifecycle_despawns as f64,
        "count",
    );
    m.push("core.offers_sent", report.offers_sent as f64, "count");
    m.push(
        "core.results_returned",
        report.results_returned as f64,
        "count",
    );
    m.push(
        "core.result_yield",
        report.results_returned as f64 / report.offers_sent as f64,
        "ratio",
    );
    m.push("core.tasks_expired", counts.tasks_expired as f64, "count");
    for (stage, p50, p95) in [
        (
            "discover",
            report.lat_discover_p50_ms,
            report.lat_discover_p95_ms,
        ),
        ("select", report.lat_select_p50_ms, report.lat_select_p95_ms),
        ("radio", report.lat_radio_p50_ms, report.lat_radio_p95_ms),
        ("exec", report.lat_exec_p50_ms, report.lat_exec_p95_ms),
        ("return", report.lat_return_p50_ms, report.lat_return_p95_ms),
    ] {
        m.push(format!("stage.{stage}_p50_ms"), p50, "ms");
        m.push(format!("stage.{stage}_p95_ms"), p95, "ms");
    }

    probe_layers(&mut m, &world, &cfg, &report, &counts);
    m.push_summary("worldgen.instantiate_ms", instantiate, "ms");
    m.push_summary("worldgen.ego_stages_ms", ego_stages, "ms");
    explain(&mut m, &world, &cfg, &report, &counts, phases);
    m
}

/// Times `step` [`STEP_SAMPLES`] times, in ms; `step` returns the time of
/// the part it measures, leaving its own set-up out.
fn step_probe_ms(mut step: impl FnMut() -> Duration) -> Summary {
    let samples: Vec<f64> = (0..STEP_SAMPLES)
        .map(|_| step().as_secs_f64() * 1e3)
        .collect();
    Summary::of(&samples)
}

/// Vehicle positions once the fleet has entered: the workload's own
/// fleet spawned on the world and driven through its arrival window.
fn fleet_positions(world: &WorldInstance, cfg: &ScenarioConfig) -> Vec<Vec2> {
    let layout = FleetLayout {
        ego_arm: world.ego_arm,
        parked: world.parked.clone(),
        arrival_window_s: world.arrival_window_s,
    };
    let mut fleet = Fleet::spawn(
        &world.stage,
        cfg.vehicles,
        cfg.gas_rate_range,
        cfg.sensor_range,
        cfg.byzantine_fraction,
        cfg.orch,
        cfg.mesh,
        &layout,
        &mut SimRng::seed_from(cfg.seed),
    );
    let dt = cfg.tick.as_secs_f64();
    for _ in 0..((world.arrival_window_s + 5.0) / dt).ceil() as usize {
        fleet.step_all(&world.stage, dt);
    }
    fleet.iter().map(|v| v.pos()).collect()
}

/// The catalog a sensing vehicle advertises: one fresh occupancy grid
/// of the primary ego's hidden region.
fn advert(world: &WorldInstance, now: SimTime) -> NodeAdvert {
    let stage = &world.stage;
    let mut catalog = DataCatalog::new(8);
    catalog.insert(
        DataType::OccupancyGrid,
        stage.cell_count() as u64 * 8,
        QualityDescriptor {
            produced_at: now,
            confidence: 0.9,
            resolution: 1.0 / stage.cell_size,
            coverage: Some(stage.hidden_region),
            noise_sigma: 0.0,
        },
    );
    NodeAdvert {
        gas_rate: 2_000_000,
        gas_backlog: 0,
        mem_free_bytes: 1 << 30,
        accepting: true,
        catalog: catalog.summarize(),
    }
}

fn probe_layers(
    m: &mut Metrics,
    world: &WorldInstance,
    cfg: &ScenarioConfig,
    report: &ScenarioReport,
    counts: &Counts,
) {
    let positions = fleet_positions(world, cfg);
    let n = positions.len();
    let mut rng = SimRng::seed_from(cfg.seed);

    // engine: the timeline at the depth the run keeps pending — its
    // deliveries and transmissions per tick.
    let ticks = (cfg.duration.as_secs_f64() / cfg.tick.as_secs_f64()).max(1.0);
    let depth = (((counts.frames_tx() + counts.frames_rx) as f64 / ticks) as usize).max(16);
    let tick_ns = cfg.tick.as_nanos();
    let mut timeline = Timeline::new();
    for i in 0..depth {
        let at = SimTime::from_nanos((rng.next_f64() * tick_ns as f64) as u64);
        timeline.schedule_at(at, i);
    }
    let s = probe(NS, || {
        let (at, event) = timeline
            .pop_before(SimTime::MAX)
            .expect("timeline stays full");
        let delay = SimDuration::from_nanos((rng.next_f64() * tick_ns as f64) as u64);
        timeline.schedule_at(at + delay, event);
    });
    m.push_summary("engine.timeline_ns_per_event", s, "ns");

    let mut grid = SpatialGrid::new(CS_RANGE);
    for (i, &p) in positions.iter().enumerate() {
        grid.insert(i, p);
    }
    let mut out = Vec::new();
    let mut i = 0;
    let s = probe(NS, || {
        i = (i + 1) % n;
        out.clear();
        grid.candidates_into(positions[i], CS_RANGE, &mut out);
        out.len()
    });
    m.push_summary("engine.grid_query_ns", s, "ns");
    // Each move is one tick of travel at the lane speed, back and forth.
    let step = Vec2::new(cfg.speed_limit * cfg.tick.as_secs_f64(), 0.0);
    let mut moves = 0usize;
    let s = probe(NS, || {
        moves += 1;
        let k = moves % n;
        let offset = if (moves / n).is_multiple_of(2) {
            step
        } else {
            Vec2::ZERO
        };
        grid.insert(k, positions[k] + offset);
    });
    m.push_summary("engine.grid_move_ns", s, "ns");

    // geo: line of sight between each vehicle and one peer in radio range.
    let los = world.stage.los_index();
    let pairs: Vec<(usize, usize)> = (0..n)
        .filter_map(|a| {
            let near = grid.query_within(positions[a], CS_RANGE);
            let (b, _) = *near.iter().find(|(b, _)| *b != a)?;
            Some((a, b))
        })
        .collect();
    let pairs = if pairs.is_empty() {
        vec![(0, 0)]
    } else {
        pairs
    };
    let mut i = 0;
    let s = probe(NS, || {
        i = (i + 1) % pairs.len();
        let (a, b) = pairs[i];
        los.line_of_sight(positions[a], positions[b])
    });
    m.push_summary("geo.los_ns", s, "ns");

    // radio: the workload's medium with the whole fleet registered, one
    // frame per simulated second so the MAC queue stays empty and the
    // probe times fan-out and channel draws, not backlog.
    let mut medium = RadioMedium::v2v(world.stage.world.clone(), SimRng::seed_from(cfg.seed));
    if let Some(loss) = world.obstacle_loss_db {
        medium.set_obstacle_loss_db(loss);
    }
    medium.set_max_queue_delay(cfg.radio_queue_cap);
    let addr = |k: usize| NodeAddr::new(k as u64 + 1);
    for (k, &p) in positions.iter().enumerate() {
        medium.set_position(addr(k), p);
    }
    let bcast = mean_bytes(counts.broadcast_bytes, counts.broadcast_tx);
    let ucast = mean_bytes(counts.unicast_bytes, counts.unicast_tx);
    let mut t = 0u64;
    let s = probe(NS, || {
        t += 1;
        medium.broadcast(SimTime::from_secs(t), addr(t as usize % n), bcast)
    });
    m.push_summary("radio.broadcast_ns", s, "ns");
    let mut i = 0;
    let s = probe(NS, || {
        t += 1;
        i = (i + 1) % pairs.len();
        let (a, b) = pairs[i];
        medium.unicast(SimTime::from_secs(t), addr(a), addr(b), ucast)
    });
    m.push_summary("radio.unicast_ns", s, "ns");

    // mesh: one node with the ego's mean member count, fed a beacon from
    // every member each interval.
    let members = (report.mean_members.round() as usize).clamp(1, n - 1);
    let interval = cfg.mesh.beacon_interval;
    let mut node = MeshNode::new(addr(0), cfg.mesh, advert(world, SimTime::ZERO));
    node.set_kinematics(positions[0], Vec2::ZERO);
    let peers: Vec<usize> = (1..=members).map(|k| k % n).collect();
    for &p in &peers {
        node.on_message(
            SimTime::ZERO,
            addr(p),
            MeshMsg::JoinRequest {
                advert: advert(world, SimTime::ZERO),
                pos: positions[p],
                velocity: Vec2::ZERO,
            },
        );
    }
    let member_list: Vec<NodeAddr> = peers.iter().map(|&p| addr(p)).collect();
    let (mut on_beacon, mut on_timer) = (Vec::new(), Vec::new());
    let mut now = SimTime::ZERO;
    for round in 1..=STEP_SAMPLES as u64 * 4 {
        now = SimTime::ZERO + SimDuration::from_nanos(interval.as_nanos() * round);
        let beacons: Vec<(NodeAddr, MeshMsg)> = peers
            .iter()
            .map(|&p| {
                let msg = MeshMsg::Beacon(Beacon {
                    src: addr(p),
                    seq: round,
                    pos: positions[p],
                    velocity: Vec2::ZERO,
                    advert: advert(world, now),
                    members: member_list.clone(),
                });
                (addr(p), msg)
            })
            .collect();
        let started = Instant::now();
        for (from, msg) in beacons {
            black_box(node.on_message(now, from, msg));
        }
        let fed = Instant::now();
        black_box(node.on_timer(now));
        let done = Instant::now();
        on_beacon.push((fed - started).as_secs_f64() / peers.len() as f64 / 1e-9);
        on_timer.push((done - fed).as_secs_f64() / 1e-9);
    }
    m.push_summary("mesh.on_timer_ns", Summary::of(&on_timer), "ns");
    m.push_summary("mesh.on_beacon_ns", Summary::of(&on_beacon), "ns");

    // core: scoring that mesh for the ego's perception task.
    let stage = &world.stage;
    let kernel = library::burn_and_echo(cfg.task_compute_rounds);
    let task = TaskSpec::new(TaskId::new(1), "corner-view", kernel.program().clone())
        .with_input(DataQuery {
            data_type: DataType::OccupancyGrid,
            requirement: QualityRequirement {
                max_age: SimDuration::from_secs(1),
                required_region: Some(stage.hidden_region),
                min_coverage_fraction: 0.3,
                ..Default::default()
            },
        })
        .with_requirements(ResourceRequirements {
            gas: 1_000_000,
            memory_bytes: 1 << 16,
            input_bytes: 512,
            output_bytes: stage.cell_count() as u64 * 8,
            deadline: SimDuration::from_secs(1),
        });
    let descriptor = MeshDescriptor::capture(&node, now);
    let trust = ReputationTable::default();
    let s = probe(US, || {
        score_candidates(&task, &descriptor, Vec2::ZERO, &trust, &cfg.orch, now)
    });
    m.push_summary("core.select_us", s, "us");

    // task and trust: the workload's kernel on the view of the vehicle
    // that sees most of the hidden region, then its result digest.
    let view = |p: Vec2| stage.rasterize_with(&los, p, cfg.sensor_range, &world.hidden_agents);
    let inputs = positions
        .iter()
        .map(|&p| view(p))
        .max_by_key(|g| g.iter().filter(|&&c| c >= 0).count())
        .expect("fleet has the ego");
    let gas = library::measure_gas(&kernel, &inputs);
    let limits = ExecLimits {
        max_gas: gas + gas / 4 + 10_000,
        ..ExecLimits::default()
    };
    let s = probe(US, || {
        execute(&kernel, &inputs, limits).expect("kernel runs")
    });
    m.push_summary("task.vm_exec_us", s, "us");
    let s = probe(US, || {
        verify(kernel.program().clone()).expect("kernel verifies")
    });
    m.push_summary("task.verify_us", s, "us");
    let outputs = execute(&kernel, &inputs, limits)
        .expect("kernel runs")
        .outputs;
    let s = probe(US, || digest_outputs(&outputs));
    m.push_summary("trust.digest_us", s, "us");

    // scenario: one vehicle's sensor raster of the hidden region.
    let mut i = 0;
    let s = probe(US, || {
        i = (i + 1) % n;
        view(positions[i])
    });
    m.push_summary("scenario.rasterize_us", s, "us");
}

/// Probe time per call × the traced run's call count, as a share of the
/// phase the calls are booked under. Reported, not gated: a share far
/// from 1 says the phase holds work its probes do not cover (or the
/// other way round).
fn explain(
    m: &mut Metrics,
    world: &WorldInstance,
    cfg: &ScenarioConfig,
    report: &ScenarioReport,
    counts: &Counts,
    phases: &PhaseProfiler,
) {
    let get = |name: &str| m.get(name).unwrap_or(f64::NAN);
    let phase_ns = |phase| phases.nanos(phase) as f64;
    let ticks = cfg.duration.as_secs_f64() / cfg.tick.as_secs_f64();
    let node_ticks = (cfg.vehicles + world.parked.len()) as f64 * ticks;
    let egos = 1.0 + world.extra_egos.len() as f64;
    let mesh = get("mesh.on_timer_ns") * node_ticks
        + get("mesh.on_beacon_ns") * counts.broadcast_rx() as f64;
    let radio = get("radio.broadcast_ns") * counts.broadcast_tx as f64
        + get("radio.unicast_ns") * counts.unicast_tx as f64;
    let tasks = 1e3
        * (get("core.select_us") * report.tasks_submitted as f64
            + get("task.verify_us") * report.offers_sent as f64
            + (get("task.vm_exec_us") + get("trust.digest_us")) * report.results_returned as f64);
    let sensor =
        1e3 * get("scenario.rasterize_us") * node_ticks / cfg.sensor_every_ticks as f64 * egos;
    m.push(
        "explained.mesh_share",
        mesh / phase_ns(Phase::Mesh),
        "ratio",
    );
    m.push(
        "explained.radio_share",
        radio / phase_ns(Phase::Radio),
        "ratio",
    );
    m.push(
        "explained.tasks_share",
        tasks / phase_ns(Phase::Tasks),
        "ratio",
    );
    m.push(
        "explained.sensor_share",
        sensor / phase_ns(Phase::Sensor),
        "ratio",
    );
}
