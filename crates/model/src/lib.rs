//! # synpa-model — the SYNPA performance model
//!
//! The paper's primary modelling contribution:
//!
//! * [`Categories`] — the three-step dispatch-stage characterization of
//!   §III-B (full-dispatch cycles, frontend stalls, backend stalls with
//!   revealed horizontal waste), expressed as CPI components;
//! * [`CategoryCoeffs`] / [`SynpaModel`] — the per-category linear
//!   regression of Equation 1 (`C_smt = α + β·Cᵢ + γ·Cⱼ + ρ·Cᵢ·Cⱼ`,
//!   Table IV);
//! * [`invert`] — Feliu-style model inversion recovering ST values from
//!   SMT observations at runtime (§IV-B step 1);
//! * [`training`] — the §IV-C pipeline: isolated profiles, all-pairs SMT
//!   runs, instruction-count alignment, least-squares fit, held-out MSE.
//!   Every profiling run is one `synpa_apps::co_run`, and the collectors
//!   are generic over the per-window extractor, so the same pipeline and
//!   the same train/held-out split serve every category set;
//! * [`ablation`] — the 10-category extractor and model the paper
//!   rejected (fitted through the training pipeline) and the IBM-style
//!   5-equation model used for the overhead comparison.
//!
//! ```no_run
//! use synpa_apps::spec;
//! use synpa_model::training::{train, TrainingConfig};
//!
//! let apps: Vec<_> = spec::catalog().into_iter().take(6).collect();
//! let report = train(&apps, &TrainingConfig::default(), 4).expect("catalog fits");
//! println!("Table IV analogue: {:?}", report.model.coeffs());
//! println!("held-out MSE per category: {:?}", report.mse);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
mod categories;
mod inversion;
mod linalg;
mod regression;
pub mod training;

pub use categories::{Categories, RevealsSplit, CATEGORY_NAMES};
pub use inversion::{invert, invert_category};
pub use linalg::{least_squares, mse, solve, spearman};
pub use regression::{CategoryCoeffs, SynpaModel};
