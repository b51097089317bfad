//! # synpa-sched — the SYNPA thread-allocation policy and its baselines
//!
//! The paper's user-level manager (§V-A) rebuilt against the simulator:
//!
//! * [`Policy`] — the per-quantum decision interface (counters in,
//!   placement out);
//! * [`Synpa`] — the full policy of §IV-B: characterize → invert → predict
//!   every pair → Blossom-optimal pairing;
//! * [`LinuxLike`] — the arrival-order static baseline the paper compares
//!   against, plus [`RandomPairing`] and [`OracleSynpa`] ablations;
//! * [`run_workload`] / [`run_workload_with_arrivals`] — the closed batch
//!   with the §V-B relaunch methodology;
//! * [`run_service`] — the open-system front end: streaming arrivals
//!   through a bounded admission queue, detach on completion, re-pairing
//!   under churn, turnaround/sojourn latencies (see `docs/service.md`);
//! * both are thin wrappers over one quantum loop, `Scheduler::step` in
//!   the private `scheduler` module: chip faults → admission → simulate →
//!   completions → crash/hang watchdog → sample, decide, apply, with each
//!   app's lifecycle one `AppState`;
//! * [`run_cell`] / [`prepare_workload`] — the repetition + outlier-discard
//!   experiment driver.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chipfaults;
mod manager;
mod policy;
mod runner;
mod scheduler;
mod service;

pub use chipfaults::ChipFaultStats;
pub use manager::{
    run_workload, run_workload_with_arrivals, AppResult, DegradedStats, ManagerConfig, QuantumRow,
    RunResult,
};
pub use policy::{
    pairs_to_slots, units_to_slots, GreedySynpa, GuardrailStats, LinuxLike, MatcherKind,
    OracleSynpa, Policy, QuantumView, RandomPairing, StaticPairs, Synpa,
};
pub use runner::{
    cv, discard_outliers, parallel_map, prepare_workload, run_cell, CellOutcome, ExperimentConfig,
    PreparedWorkload,
};
pub use scheduler::first_free_slot;
pub use service::{run_service, ServiceApp, ServiceConfig, ServiceResult};
pub use synpa_matching::MatcherStats;
