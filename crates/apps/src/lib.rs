//! # synpa-apps — application models and the evaluation workload suite
//!
//! Synthetic stand-ins for the 28 SPEC CPU applications the paper
//! characterizes (Fig. 4, Table III), plus the 20-workload evaluation suite
//! (§V-B). Each application is a phase-based demand generator whose isolated
//! PMU signature on the `synpa-sim` processor lands in the same group as the
//! real benchmark on the ThunderX2.
//!
//! ```
//! use synpa_apps::{spec, characterize_isolated};
//!
//! let mcf = spec::by_name("mcf").unwrap();
//! let run = characterize_isolated(&mcf, 20_000, 50_000);
//! // mcf is backend bound: most cycles are backend dispatch stalls.
//! assert!(run.fractions.backend > 0.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod characterize;
mod classify;
mod parallel;
mod profile;
pub mod spec;
pub mod workload;

pub use characterize::{characterize_isolated, characterize_isolated_with, co_run, IsolatedRun};
pub use classify::{Fractions, Group};
pub use parallel::parallel_map;
pub use profile::{AppProfile, Phase};
pub use workload::{Workload, WorkloadKind, WORKLOAD_SIZE};
