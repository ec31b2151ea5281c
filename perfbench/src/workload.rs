//! The three seeded workloads and the one path that materialises them.
//!
//! Every world is built here through the simulator's public entry points
//! (`FamilyKind::instantiate`, `ChurnProcess::schedule`,
//! `assign_extra_egos`, `WorldInstance::ensure_ego_stages`); the runs
//! only ever see the `(WorldInstance, ScenarioConfig)` pairs this module
//! hands out.

use airdnd::scenario::{ScenarioConfig, Strategy, WorldInstance};
use airdnd::sim::SimDuration;
use airdnd::worldgen::{
    assign_extra_egos, ChurnProcess, CityParams, FamilyKind, FleetProfile, HighwayParams,
};

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The paper's corner with a heavy perception kernel: TaskVM,
    /// orchestration and trust load, little spatial scale.
    CornerOffload,
    /// A 4×4-district city at G5's settings: beacons, neighbour tables,
    /// radio fan-out, the spatial grid and LOS, read-heavy.
    CityMesh,
    /// A fast highway under heavy churn with no MAC queue cap: the same
    /// layers write-heavy, plus the unbounded-queue backlog.
    HighwayChurn,
}

/// Worlds per run. Each world has its own seed derived from the run seed,
/// so a run's figures pool sixteen generated worlds instead of resting on
/// one: single worlds differ by up to 4× in completion and coverage.
pub const WORLDS: usize = 16;

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::CornerOffload,
        Workload::CityMesh,
        Workload::HighwayChurn,
    ];

    /// The workload's command-line and report name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CornerOffload => "corner_offload",
            Workload::CityMesh => "city_mesh",
            Workload::HighwayChurn => "highway_churn",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The seed of world `index` of a run seeded `seed`. World 0 uses the
    /// run seed itself, so `--seed N` always includes the world a bare
    /// scenario seed `N` builds.
    pub fn world_seed(seed: u64, index: usize) -> u64 {
        seed.wrapping_add((index as u64).wrapping_mul(1_000_003))
    }

    /// The scenario knobs of one world.
    pub fn config(self, seed: u64) -> ScenarioConfig {
        let base = ScenarioConfig {
            seed,
            strategy: Strategy::Airdnd,
            ..ScenarioConfig::default()
        };
        match self {
            Workload::CornerOffload => ScenarioConfig {
                vehicles: 24,
                duration: SimDuration::from_secs(60),
                task_compute_rounds: 600,
                task_every_ticks: 2,
                ..base
            },
            Workload::CityMesh => {
                let mut cfg = ScenarioConfig {
                    vehicles: 640,
                    duration: SimDuration::from_secs(20),
                    tick: SimDuration::from_millis(500),
                    radio_queue_cap: Some(SimDuration::from_millis(100)),
                    ..base
                };
                cfg.mesh.beacon_interval = SimDuration::from_millis(500);
                cfg.mesh.neighbor_timeout = SimDuration::from_millis(1_750);
                cfg
            }
            // 45, not 60: with no MAC queue cap a 60-vehicle highway
            // collapses on most seeds (no task completes), which leaves
            // the latency, bytes-per-view and coverage metrics undefined.
            Workload::HighwayChurn => ScenarioConfig {
                vehicles: 45,
                duration: SimDuration::from_secs(40),
                ..base
            },
        }
    }

    fn family(self) -> FamilyKind {
        match self {
            Workload::CornerOffload => FamilyKind::Corner,
            Workload::CityMesh => FamilyKind::City(CityParams::with_districts(4, 4)),
            Workload::HighwayChurn => FamilyKind::Highway(HighwayParams {
                mainline_speed: 30.0,
                ..HighwayParams::default()
            }),
        }
    }

    fn profile(self, vehicles: usize) -> FleetProfile {
        match self {
            Workload::CornerOffload => FleetProfile {
                vehicles,
                parked: 0,
                arrival_window_s: 20.0,
            },
            Workload::CityMesh => FleetProfile {
                vehicles,
                parked: 2,
                arrival_window_s: 10.0,
            },
            Workload::HighwayChurn => FleetProfile {
                vehicles,
                parked: 2,
                arrival_window_s: 20.0,
            },
        }
    }

    /// Concurrent query origins, the primary ego included.
    fn egos(self) -> usize {
        match self {
            Workload::CornerOffload => 1,
            Workload::CityMesh => 8,
            Workload::HighwayChurn => 4,
        }
    }

    fn churn(self) -> ChurnProcess {
        match self {
            Workload::HighwayChurn => ChurnProcess {
                arrivals_per_min: 90.0,
                departures_per_min: 90.0,
                abrupt_fraction: 0.5,
            },
            _ => ChurnProcess::none(),
        }
    }

    /// Generates the map and its occlusion stage and compiles the churn
    /// schedule onto it.
    pub fn instantiate(self, cfg: &ScenarioConfig) -> WorldInstance {
        let mut world = self.family().instantiate(cfg, &self.profile(cfg.vehicles));
        world.schedule = self.churn().schedule(
            cfg.duration.as_secs_f64(),
            world.stage.net.arm_count(),
            cfg.seed,
        );
        world
    }

    /// Adds the extra query origins and derives their occlusion stages.
    pub fn add_egos(self, world: &mut WorldInstance, cfg: &ScenarioConfig) {
        assign_extra_egos(world, self.egos() - 1, cfg.hidden_agents);
        world.ensure_ego_stages();
    }

    /// Materialises one world: generation, churn schedule, extra egos and
    /// their occlusion stages — everything `setup_s` times.
    pub fn materialize(self, seed: u64) -> (WorldInstance, ScenarioConfig) {
        let cfg = self.config(seed);
        let mut world = self.instantiate(&cfg);
        self.add_egos(&mut world, &cfg);
        (world, cfg)
    }
}
