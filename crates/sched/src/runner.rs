//! The experiment driver: the §V-B measurement methodology end to end.
//!
//! * Target-instruction calibration: each application runs alone for the
//!   scaled equivalent of the paper's 60 seconds; the instructions it
//!   retires become its launch target and its solo-IPC reference.
//! * Repetition: every workload×policy cell runs `reps` times with
//!   different seeds; runs deviating excessively from the mean TT are
//!   discarded until the coefficient of variation falls below 5 %
//!   (the paper's outlier rule).
//! * Runs are independent and execute on worker threads.

use crate::manager::{run_workload_with_arrivals, ManagerConfig, RunResult};
use crate::policy::Policy;
use std::collections::HashMap;
use synpa_apps::{characterize_isolated_with, parallel_map, spec, AppProfile, Workload};
use synpa_sim::ThreadProgram;

/// Experiment-level configuration.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Per-run manager configuration.
    pub manager: ManagerConfig,
    /// Cycles of the isolated calibration run that defines each app's
    /// launch target (the paper's 60 s, scaled).
    pub target_window: u64,
    /// Warm-up cycles discarded before the calibration window.
    pub calibration_warmup: u64,
    /// Repetitions per workload×policy cell (paper: 9).
    pub reps: u32,
    /// Maximum coefficient of variation accepted after outlier discard.
    pub max_cv: f64,
    /// Base seed; rep *r* uses `base_seed + r`.
    pub base_seed: u64,
    /// Worker threads for parallel runs.
    pub threads: usize,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self {
            manager: ManagerConfig::default(),
            target_window: 300_000,
            calibration_warmup: 60_000,
            reps: 9,
            max_cv: 0.05,
            base_seed: 0xBEEF,
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
        }
    }
}

/// A workload instantiated for execution: app models with launch targets
/// plus solo-IPC references.
#[derive(Debug, Clone)]
pub struct PreparedWorkload {
    /// Suite workload description.
    pub workload: Workload,
    /// App models with calibrated launch lengths, arrival order.
    pub apps: Vec<AppProfile>,
    /// Isolated IPC per app, arrival order.
    pub solo_ipc: Vec<f64>,
}

/// Calibrates launch targets and solo IPC for every distinct app of
/// `workload` (§V-B: "we executed each application in isolation for 60
/// seconds and recorded its number of retired instructions").
///
/// A one-workload [`prepare_workloads`]; callers with several workloads
/// should prepare them in one call, so shared apps calibrate once.
pub fn prepare_workload(workload: &Workload, cfg: &ExperimentConfig) -> PreparedWorkload {
    prepare_workloads(&[workload], cfg).remove(0)
}

/// Prepares several workloads at once, calibrating each distinct app
/// across all of them exactly once.
///
/// Calibration runs the app alone on the chip of `cfg`, so its result
/// depends only on the app name and the config, never on the workload:
/// sharing one measurement between workloads is byte-identical to
/// measuring it per workload. The table lives for this call only.
///
/// Calibration runs are independent, so distinct apps are measured across
/// `cfg.threads` workers; the result is identical for any thread count.
/// Deduplicating pays: run once per workload, calibration took about 20 %
/// of the CPU of a cold 20-workload 4-core sweep (122 runs where 21 apps
/// are distinct) and about 4 % of a cold 28-core full-chip sweep (160
/// runs for 28 apps), measured on a 2-CPU x86-64 host.
pub fn prepare_workloads(workloads: &[&Workload], cfg: &ExperimentConfig) -> Vec<PreparedWorkload> {
    // Distinct names in first-appearance order (determinism: the order the
    // measurements are assembled in never depends on worker scheduling).
    let mut distinct: Vec<&str> = Vec::new();
    for name in workloads.iter().flat_map(|w| &w.apps) {
        if !distinct.contains(&name.as_str()) {
            distinct.push(name.as_str());
        }
    }
    let measured = parallel_map(&distinct, cfg.threads, |name| {
        let app = spec::by_name(name).unwrap_or_else(|| panic!("unknown app {name}"));
        let run = characterize_isolated_with(
            &app,
            cfg.calibration_warmup,
            cfg.target_window,
            &cfg.manager.chip,
        );
        (run.retired.max(1), run.ipc)
    });
    let cache: HashMap<&str, (u64, f64)> = distinct.into_iter().zip(measured).collect();
    workloads
        .iter()
        .map(|workload| {
            let mut apps = Vec::with_capacity(workload.apps.len());
            let mut solo_ipc = Vec::with_capacity(workload.apps.len());
            for (k, name) in workload.apps.iter().enumerate() {
                let (target, ipc) = cache[name.as_str()];
                // Heterogeneous launch targets: each position's calibrated
                // target is scaled individually (same app, same calibration
                // run, shorter or longer launch), so one chip mixes
                // early-relaunching and long-running applications. Solo IPC
                // is a rate and stays as measured.
                let scale = workload.target_scale(k);
                let target = if scale == 1.0 {
                    target
                } else {
                    ((target as f64 * scale).round() as u64).max(1)
                };
                apps.push(
                    spec::by_name(name)
                        .expect("calibrated above")
                        .with_length(target),
                );
                solo_ipc.push(ipc);
            }
            PreparedWorkload {
                workload: (*workload).clone(),
                apps,
                solo_ipc,
            }
        })
        .collect()
}

/// Aggregated outcome of one workload×policy cell.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// Workload name.
    pub workload: String,
    /// Policy name.
    pub policy: String,
    /// Mean TT over kept repetitions, in cycles.
    pub tt_mean: f64,
    /// Coefficient of variation of TT over kept repetitions.
    pub tt_cv: f64,
    /// Kept repetition TTs.
    pub tt_runs: Vec<u64>,
    /// Repetitions discarded as outliers.
    pub discarded: usize,
    /// Mean per-app IPC over kept reps (arrival order).
    pub app_ipc: Vec<f64>,
    /// Mean per-app individual speedup over kept reps (arrival order).
    pub app_speedup: Vec<f64>,
    /// Per-app names (arrival order).
    pub app_names: Vec<String>,
    /// Full result of the first kept repetition (traces for Figs. 6/7 and
    /// Table V).
    pub exemplar: RunResult,
}

/// Runs one workload under one policy for `cfg.reps` repetitions and
/// aggregates with the outlier rule. `make_policy` builds a fresh policy
/// per repetition (seeded by the rep seed where relevant).
pub fn run_cell<F>(
    prepared: &PreparedWorkload,
    make_policy: F,
    cfg: &ExperimentConfig,
) -> CellOutcome
where
    F: Fn(u64) -> Box<dyn Policy> + Sync,
{
    let reps: Vec<u64> = (0..cfg.reps as u64).map(|r| cfg.base_seed + r).collect();
    let results: Vec<RunResult> = parallel_map(&reps, cfg.threads, |&seed| {
        let mut mgr = cfg.manager.clone();
        mgr.chip = mgr.chip.clone().with_seed(seed);
        let mut policy = make_policy(seed);
        run_workload_with_arrivals(
            &prepared.apps,
            &prepared.solo_ipc,
            policy.as_mut(),
            &mgr,
            &prepared.workload.arrivals,
        )
    });

    let tts: Vec<u64> = results.iter().map(|r| r.tt_cycles).collect();
    let kept = discard_outliers(&tts, cfg.max_cv);
    let kept_results: Vec<&RunResult> = kept.iter().map(|&i| &results[i]).collect();
    let kept_tts: Vec<u64> = kept.iter().map(|&i| tts[i]).collect();
    let n = prepared.apps.len();
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    let app_ipc: Vec<f64> = (0..n)
        .map(|k| {
            mean(
                &kept_results
                    .iter()
                    .map(|r| r.per_app[k].ipc)
                    .collect::<Vec<_>>(),
            )
        })
        .collect();
    let app_speedup: Vec<f64> = (0..n)
        .map(|k| {
            mean(
                &kept_results
                    .iter()
                    .map(|r| r.per_app[k].individual_speedup())
                    .collect::<Vec<_>>(),
            )
        })
        .collect();
    let tt_mean = mean(&kept_tts.iter().map(|&t| t as f64).collect::<Vec<_>>());
    let tt_cv = cv(&kept_tts);
    CellOutcome {
        workload: prepared.workload.name.clone(),
        policy: kept_results
            .first()
            .map(|r| r.policy.clone())
            .unwrap_or_default(),
        tt_mean,
        tt_cv,
        discarded: tts.len() - kept.len(),
        tt_runs: kept_tts,
        app_ipc,
        app_speedup,
        app_names: prepared.apps.iter().map(|a| a.name().to_string()).collect(),
        exemplar: results[kept[0]].clone(),
    }
}

/// Coefficient of variation (σ/µ) of a sample.
pub fn cv(xs: &[u64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let n = xs.len() as f64;
    let mean = xs.iter().map(|&x| x as f64).sum::<f64>() / n;
    if mean == 0.0 {
        return 0.0;
    }
    let var = xs.iter().map(|&x| (x as f64 - mean).powi(2)).sum::<f64>() / n;
    var.sqrt() / mean
}

/// The paper's outlier rule: while the TT coefficient of variation exceeds
/// `max_cv`, drop the run farthest from the mean (never below 3 runs).
/// Returns the kept indices, in original order.
pub fn discard_outliers(tts: &[u64], max_cv: f64) -> Vec<usize> {
    let mut kept: Vec<usize> = (0..tts.len()).collect();
    while kept.len() > 3 && cv(&kept.iter().map(|&i| tts[i]).collect::<Vec<_>>()) > max_cv {
        let mean = kept.iter().map(|&i| tts[i] as f64).sum::<f64>() / kept.len() as f64;
        let worst = kept
            .iter()
            .enumerate()
            .max_by(|(_, &a), (_, &b)| {
                (tts[a] as f64 - mean)
                    .abs()
                    .total_cmp(&(tts[b] as f64 - mean).abs())
            })
            .map(|(pos, _)| pos)
            .unwrap();
        kept.remove(worst);
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::LinuxLike;
    use synpa_apps::workload;

    #[test]
    fn cv_of_constant_sample_is_zero() {
        assert_eq!(cv(&[5, 5, 5]), 0.0);
        assert_eq!(cv(&[7]), 0.0);
    }

    #[test]
    fn cv_detects_spread() {
        assert!(cv(&[100, 200]) > 0.3);
    }

    #[test]
    fn outlier_discard_removes_far_point() {
        // One wild run among tight ones.
        let tts = [100, 102, 98, 101, 400];
        let kept = discard_outliers(&tts, 0.05);
        assert!(!kept.contains(&4), "the 400 run must go");
        assert_eq!(kept.len(), 4);
    }

    #[test]
    fn outlier_discard_keeps_tight_samples() {
        let tts = [100, 101, 99, 100, 102];
        assert_eq!(discard_outliers(&tts, 0.05).len(), 5);
    }

    #[test]
    fn outlier_discard_never_below_three() {
        let tts = [1, 100, 10_000, 1_000_000];
        assert!(discard_outliers(&tts, 0.01).len() >= 3);
    }

    #[test]
    fn prepare_workload_caches_per_name() {
        let cfg = ExperimentConfig {
            target_window: 30_000,
            calibration_warmup: 20_000,
            ..Default::default()
        };
        let w = workload::by_name("fb2").unwrap();
        let prepared = prepare_workload(&w, &cfg);
        assert_eq!(prepared.apps.len(), 8);
        // fb2 contains mcf twice: identical targets.
        assert_eq!(prepared.apps[1].length(), prepared.apps[3].length());
        assert!(prepared.solo_ipc.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn run_cell_aggregates_reps() {
        let cfg = ExperimentConfig {
            target_window: 25_000,
            calibration_warmup: 20_000,
            reps: 3,
            ..Default::default()
        };
        let w = workload::by_name("fb2").unwrap();
        let prepared = prepare_workload(&w, &cfg);
        let cell = run_cell(&prepared, |_| Box::new(LinuxLike), &cfg);
        assert_eq!(cell.policy, "linux");
        assert!(cell.tt_mean > 0.0);
        assert_eq!(cell.app_ipc.len(), 8);
        assert_eq!(cell.tt_runs.len() + cell.discarded, 3);
        assert!(!cell.exemplar.trace.is_empty());
    }
}
