//! # synpa-counters — performance-counter abstraction
//!
//! The paper's SYNPA prototype is a user-level manager that configures and
//! reads ARM PMU counters through Linux `perf`. This crate is the equivalent
//! seam in the reproduction:
//!
//! * [`CounterSource`] — anything that reports the four Table I events per
//!   application (`CPU_CYCLES`, `INST_SPEC`, `STALL_FRONTEND`,
//!   `STALL_BACKEND`). The simulator's [`synpa_sim::Chip`] implements it; a
//!   `perf_event_open` backend on real ARM hardware would too.
//! * [`SamplingSession`] — turns cumulative counters into per-quantum deltas.
//! * [`FaultInjector`] / [`FaultySource`] — seeded, deterministic counter
//!   faults (dropped reads, freezes, rollbacks, spikes, zeroes, stale
//!   repeats) for chaos testing the whole pipeline.
//! * [`SanitizingSession`] — classifies each sample (ok / clamped / held /
//!   missing), clamps rollbacks, holds over last-good deltas, and keeps a
//!   per-app [`SampleHealth`] ledger (see `docs/robustness.md`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod faults;
mod sanitize;
mod source;

pub use faults::{
    FaultConfig, FaultInjector, FaultKind, FaultPlan, FaultRates, FaultySource, InjectedCounts,
};
pub use sanitize::{SampleHealth, SampleStatus, SanitizedQuantum, SanitizingSession};
pub use source::{CounterSource, SamplingSession};
