//! Shared plumbing for the per-table/per-figure experiment binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper,
//! named in the binary's module doc. This library provides:
//!
//! * the canonical train/holdout application split (§IV-C's 80 %),
//! * a disk-cached trained model so binaries don't retrain redundantly,
//! * the sharded, per-cell-cached 20-workload × {linux, synpa} evaluation
//!   sweep shared by Figs. 5, 8 and 9 (see [`suite`]),
//! * small table-formatting helpers.
//!
//! All caches live under `results/`; delete the directory (or run with
//! `SYNPA_FRESH=1`) to recompute everything from scratch. Worker-thread
//! count is taken from the machine, overridable with `SYNPA_THREADS`
//! (malformed values abort rather than being silently ignored).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod suite;

use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
pub use suite::{
    canned_model, cell_key, config_hash, load_cell, run_suite_sequential, run_suite_sharded,
    store_cell, write_atomic, SuiteCell, SuitePolicy, SuiteSpec,
};
use synpa::model::CategoryCoeffs;
use synpa::prelude::*;

/// Directory where experiment outputs and caches are written. On first
/// call per process it also collects temp files a killed run left
/// unpublished at the root (cell cache directories are swept by the
/// sharded orchestrator itself).
pub fn results_dir() -> PathBuf {
    static SWEEP_ONCE: std::sync::Once = std::sync::Once::new();
    let dir = PathBuf::from("results");
    std::fs::create_dir_all(&dir).expect("create results dir");
    SWEEP_ONCE.call_once(|| suite::sweep_stale_tmp(&dir));
    dir
}

/// True when cached artefacts should be ignored.
pub fn fresh_requested() -> bool {
    std::env::var("SYNPA_FRESH").is_ok()
}

/// The §IV-C training split: 22 of the 28 applications train the model, six
/// are held out and only ever appear in evaluation workloads.
pub fn training_split() -> (Vec<AppProfile>, Vec<AppProfile>) {
    let all = spec::catalog();
    let mut train_set = Vec::new();
    let mut holdout = Vec::new();
    for (i, app) in all.into_iter().enumerate() {
        // Deterministic 22/6 split spread across the three Table III groups
        // (holds out xalancbmk_r, mcf_r, calculix, fotonik3d_r, namd_r,
        // tonto).
        if matches!(i, 4 | 9 | 13 | 18 | 23 | 27) {
            holdout.push(app);
        } else {
            train_set.push(app);
        }
    }
    (train_set, holdout)
}

#[derive(Serialize, Deserialize)]
struct ModelOnDisk {
    coeffs: [[f64; 4]; 3],
    mse: [f64; 3],
}

/// Trains the SYNPA model on the standard split (or loads the cached fit).
/// Returns the model and the held-out per-category MSE (§VI-A).
pub fn trained_model() -> (SynpaModel, [f64; 3]) {
    let path = results_dir().join("model.json");
    if !fresh_requested() {
        if let Some(m) = load_model(&path) {
            return m;
        }
    }
    let (train_set, _) = training_split();
    let report = train(&train_set, &TrainingConfig::default(), threads()).expect("catalog fits");
    let m = report.model;
    let disk = ModelOnDisk {
        coeffs: [
            coeff_array(&m.full_dispatch),
            coeff_array(&m.frontend),
            coeff_array(&m.backend),
        ],
        mse: report.mse,
    };
    write_atomic(&path, &serde_json::to_string_pretty(&disk).unwrap());
    (m, report.mse)
}

fn coeff_array(c: &CategoryCoeffs) -> [f64; 4] {
    [c.alpha, c.beta, c.gamma, c.rho]
}

fn coeff_from(a: [f64; 4]) -> CategoryCoeffs {
    CategoryCoeffs {
        alpha: a[0],
        beta: a[1],
        gamma: a[2],
        rho: a[3],
    }
}

fn load_model(path: &Path) -> Option<(SynpaModel, [f64; 3])> {
    let text = std::fs::read_to_string(path).ok()?;
    let disk: ModelOnDisk = serde_json::from_str(&text).ok()?;
    Some((
        SynpaModel {
            full_dispatch: coeff_from(disk.coeffs[0]),
            frontend: coeff_from(disk.coeffs[1]),
            backend: coeff_from(disk.coeffs[2]),
        },
        disk.mse,
    ))
}

/// Worker threads for parallel runs.
///
/// `SYNPA_THREADS` pins the worker count for CI and tests; unset or empty
/// falls back to `available_parallelism`. A malformed value — `0`, `1O`,
/// `lots` — **aborts** with the accepted format: an explicit pin must
/// never fall back silently, or a mistyped CI pin would quietly unpin the
/// worker count and thread-count-independence claims would go untested at
/// the intended count.
pub fn threads() -> usize {
    let v = std::env::var("SYNPA_THREADS").unwrap_or_default();
    let v = v.trim();
    if v.is_empty() {
        return std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(8);
    }
    match v.parse::<usize>() {
        Ok(n) if n >= 1 => n,
        Ok(_) => panic!("SYNPA_THREADS: worker count must be at least 1, got '{v}'"),
        Err(_) => panic!(
            "SYNPA_THREADS: unparseable value '{v}' (expected a positive integer, e.g. \
             SYNPA_THREADS=4; unset or empty means machine parallelism)"
        ),
    }
}

/// The experiment configuration used by every evaluation binary
/// (9 repetitions, CV < 5 % outlier rule — the §V-B methodology).
/// Worker threads come from [`threads`], so `SYNPA_THREADS` pins direct
/// `run_cell`/`prepare_workload` consumers too, not just the sharded
/// orchestrator.
pub fn eval_config() -> ExperimentConfig {
    ExperimentConfig {
        reps: 9,
        threads: threads(),
        ..Default::default()
    }
}

/// Runs (or loads) the full 20-workload × {linux, synpa} sweep that backs
/// Figs. 5, 8 and 9.
///
/// Cells are sharded across [`threads`] workers and individually cached
/// under `results/cells/`, keyed by (workload, policy, config-hash, seed) —
/// so an interrupted or partially invalidated sweep only recomputes what is
/// missing, and a methodology or model change invalidates exactly the
/// affected cells. The sweep is always assembled from the cell cache
/// (milliseconds when warm); `results/suite.json` is a write-only aggregate
/// for external consumers, never trusted as a cache. `SYNPA_FRESH=1` drops
/// the cell cache before running.
pub fn evaluation_suite() -> Vec<SuiteCell> {
    let cells_dir = results_dir().join("cells");
    let (model, _) = trained_model();
    let spec = SuiteSpec {
        workloads: workload::standard_suite(),
        policies: vec![SuitePolicy::Linux, SuitePolicy::Synpa],
        config: eval_config(),
        cache_dir: Some(cells_dir),
    };
    let cells = run_suite_sharded(&spec, model, threads());
    let path = results_dir().join("suite.json");
    write_atomic(&path, &serde_json::to_string_pretty(&cells).unwrap());
    cells
}

/// Finds the two cells (linux, synpa) of one workload in suite results.
pub fn cells_of<'a>(cells: &'a [SuiteCell], workload: &str) -> (&'a SuiteCell, &'a SuiteCell) {
    let linux = cells
        .iter()
        .find(|c| c.workload == workload && c.policy == "linux")
        .expect("linux cell");
    let synpa = cells
        .iter()
        .find(|c| c.workload == workload && c.policy == "synpa")
        .expect("synpa cell");
    (linux, synpa)
}

/// Mean of a slice (0 when empty).
pub fn mean(xs: &[f64]) -> f64 {
    synpa::metrics::mean(xs)
}

/// Formats a bar of `*` characters for terminal "figures".
pub fn bar(value: f64, scale: f64) -> String {
    let n = (value * scale).round().max(0.0) as usize;
    "*".repeat(n.min(120))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_is_22_train_6_holdout() {
        let (t, h) = training_split();
        assert_eq!(t.len(), 22);
        assert_eq!(h.len(), 6);
    }

    #[test]
    fn bar_scales() {
        assert_eq!(bar(1.0, 10.0), "**********");
        assert_eq!(bar(0.0, 10.0), "");
    }
}
