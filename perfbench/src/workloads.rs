//! The three benchmark workloads and the seed that drives their inputs.
//!
//! Every input a run uses is a pure function of `--seed`: the repetition
//! seed of the closed-batch sweeps (`ExperimentConfig::base_seed`), the
//! `full_chip_suite` mixes and scenario seeds, and the open-loop arrival
//! trace. The default seed reproduces the experiment binaries' inputs
//! (`eval_config`'s base seed, `full_chip`'s scenario seeds).

use synpa::apps::workload::{
    full_chip_suite, heterogeneous_workload, partial_occupancy_workload, phase_shifted_workload,
    WorkloadKind,
};
use synpa::prelude::*;
use synpa_experiments::{SuitePolicy, SuiteSpec};

/// `--seed` when none is given: `ExperimentConfig::default().base_seed`.
pub const DEFAULT_SEED: u64 = 0xBEEF;

/// Arrivals in the service56 trace. The turnaround tail is set by the
/// trace's largest bursts, which vary from seed to seed; with 12,000
/// short-window arrivals `tt_p99_kcycles` spreads by 2-5 % across seeds
/// (600 full-window arrivals spread it by a quarter).
pub const SERVICE_ARRIVALS: usize = 12_000;

/// Nominal offered load of the service56 trace, well below saturation:
/// the linux baseline sheds nothing and bursts still push the chip past
/// one app per core. At 0.35, contention slowdowns feed back into
/// occupancy and the p99 turnaround moved by 12 % between seeds.
pub const SERVICE_RHO: f64 = 0.25;

/// Randomized 56-app mixes in fullchip56, beside its three fixed-shape
/// scenarios.
pub const FULL_CHIP_MIXES: usize = 9;

/// Which workload a run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The paper's 20 eight-app workloads on 4 cores, closed batch.
    Paper8,
    /// The 56-app `full_chip` scenarios on 28 cores, closed batch.
    FullChip56,
    /// An open-loop Poisson arrival trace on 28 cores.
    Service56,
}

impl Kind {
    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "paper8" => Some(Kind::Paper8),
            "fullchip56" => Some(Kind::FullChip56),
            "service56" => Some(Kind::Service56),
            _ => None,
        }
    }

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Paper8 => "paper8",
            Kind::FullChip56 => "fullchip56",
            Kind::Service56 => "service56",
        }
    }
}

/// Seeds derived from `--seed`. Each offset is chosen so that
/// [`DEFAULT_SEED`] maps onto the constant the experiment binaries use.
#[derive(Debug, Clone, Copy)]
pub struct Seeds {
    /// `ExperimentConfig::base_seed` (repetition chip seeds).
    pub base: u64,
    /// `full_chip_suite` seed; the three scenarios use `+1`, `+2`, `+3`.
    pub full_chip: u64,
    /// `poisson_trace` seed of service56.
    pub trace: u64,
}

impl Seeds {
    /// Derives every input seed from one `--seed` value.
    pub fn from(seed: u64) -> Seeds {
        Seeds {
            base: seed,
            full_chip: seed ^ DEFAULT_SEED ^ 0xF0C1,
            trace: seed ^ DEFAULT_SEED ^ 0x0010_AD35,
        }
    }
}

/// Everything a closed-batch run needs besides the model.
pub struct ClosedBatch {
    /// The sweep as the experiment binaries describe it (uncached).
    pub spec: SuiteSpec,
}

/// Everything an open-loop run needs besides the model.
pub struct OpenLoop {
    /// Service configuration (queue capacity = hardware threads).
    pub service: ServiceConfig,
    /// Calibrated apps in trace order.
    pub prepared: synpa::sched::PreparedWorkload,
    /// Due cycle of each arrival.
    pub arrivals: Vec<u64>,
    /// Calibration config, reused by the traced run.
    pub config: ExperimentConfig,
}

/// The generated inputs of one workload (one value per run, so the size
/// difference between the variants costs nothing).
#[allow(clippy::large_enum_variant)]
pub enum Inputs {
    /// paper8 / fullchip56.
    Closed(ClosedBatch),
    /// service56.
    Open(OpenLoop),
}

/// The 28-core measurement config `full_chip` and `open_system` share
/// (10k-cycle quanta, 120k-instruction launch windows).
fn full_chip_config(seeds: Seeds, workers: usize, max_quanta: u64) -> ExperimentConfig {
    ExperimentConfig {
        manager: ManagerConfig {
            chip: ChipConfig::thunderx2_full(),
            quantum_cycles: 10_000,
            max_quanta,
            faults: None,
            chip_faults: None,
        },
        target_window: 120_000,
        calibration_warmup: 40_000,
        reps: 1,
        base_seed: seeds.base,
        threads: workers,
        ..Default::default()
    }
}

/// Generates a workload's inputs. For service56 this includes the
/// calibration (`prepare_workload`) of the trace's apps, since every
/// service run consumes calibrated profiles.
pub fn generate(kind: Kind, seeds: Seeds, workers: usize) -> Inputs {
    let policies = vec![SuitePolicy::Linux, SuitePolicy::Synpa];
    match kind {
        Kind::Paper8 => Inputs::Closed(ClosedBatch {
            spec: SuiteSpec {
                workloads: workload::standard_suite(),
                policies,
                config: ExperimentConfig {
                    reps: 1,
                    base_seed: seeds.base,
                    threads: workers,
                    ..Default::default()
                },
                cache_dir: None,
            },
        }),
        Kind::FullChip56 => {
            let size = ChipConfig::thunderx2_full().hw_threads();
            let s = seeds.full_chip;
            // Nine seeded mixes rather than `full_chip`'s three: each mix's
            // speedup and cost move with the seed, and the geomean over
            // twelve scenarios spreads less across seeds than over six.
            let mut workloads = full_chip_suite(FULL_CHIP_MIXES, size, s);
            let mixed = WorkloadKind::Mixed;
            workloads.push(partial_occupancy_workload(
                "fcpart",
                mixed,
                size / 2,
                size,
                s.wrapping_add(1),
            ));
            workloads.push(phase_shifted_workload(
                "fcwave",
                mixed,
                size,
                4,
                40_000,
                s.wrapping_add(2),
            ));
            workloads.push(heterogeneous_workload(
                "fchet",
                mixed,
                size,
                0.5,
                2.0,
                s.wrapping_add(3),
            ));
            Inputs::Closed(ClosedBatch {
                spec: SuiteSpec {
                    workloads,
                    policies,
                    config: full_chip_config(seeds, workers, 3_000),
                    cache_dir: None,
                },
            })
        }
        Kind::Service56 => {
            // `open_system`'s chip with shorter launches (40k-cycle windows,
            // 5k-cycle quanta): three times the arrivals per host second,
            // and more decisions per arrival.
            let mut config = full_chip_config(seeds, workers, 50_000);
            config.target_window = 40_000;
            config.calibration_warmup = 20_000;
            config.manager.quantum_cycles = 5_000;
            let slots = config.manager.chip.hw_threads();
            // `open_system`'s load scale: an app needs about two launch
            // windows of cycles when paired, so this gap offers `rho` of
            // the chip's thread capacity.
            let gap = 2.0 * config.target_window as f64 / (slots as f64 * SERVICE_RHO);
            let trace = poisson_trace(
                "svc56",
                WorkloadKind::Mixed,
                SERVICE_ARRIVALS,
                gap,
                seeds.trace,
            );
            let prepared = prepare_workload(&trace.to_workload(), &config);
            Inputs::Open(OpenLoop {
                service: ServiceConfig {
                    manager: config.manager.clone(),
                    queue_capacity: slots,
                    ..ServiceConfig::default()
                },
                prepared,
                arrivals: trace.arrivals,
                config,
            })
        }
    }
}
