//! Dedicated-core profiling runs: [`co_run`] and the isolated-execution
//! characterization built on it (paper Fig. 4 methodology).
//!
//! Every profiling run in the workspace (calibration, the ST profiles and
//! SMT pair runs of training, the ablations, the probes) is one [`co_run`]:
//! one to two applications alone on one core, a warm-up discarded so cold
//! caches don't skew the windows, then counter deltas per window.

use crate::classify::Fractions;
use crate::profile::AppProfile;
use synpa_sim::{Chip, ChipConfig, PmuDelta, Slot, ThreadProgram};

/// Runs `apps[k]` on hardware context `k` of a one-core copy of `chip`,
/// discards `warmup` cycles, then measures `quanta` consecutive windows of
/// `quantum` cycles. Returns each app's counter deltas per window:
/// `out[k][w]` is app `k` in window `w`.
///
/// Launches are endless, so a relaunch boundary never lands in a window.
pub fn co_run(
    apps: &[&AppProfile],
    chip: &ChipConfig,
    warmup: u64,
    quantum: u64,
    quanta: usize,
) -> Vec<Vec<PmuDelta>> {
    let mut cfg = chip.clone();
    cfg.cores = 1;
    let mut chip = Chip::new(cfg);
    for (k, app) in apps.iter().enumerate() {
        chip.attach(Slot(k), k, Box::new((*app).clone().with_length(u64::MAX)));
    }
    chip.run_cycles(warmup);
    let read = |chip: &Chip, k: usize| *chip.pmu_of(k).expect("app attached");
    let mut last: Vec<_> = (0..apps.len()).map(|k| read(&chip, k)).collect();
    let mut out = vec![Vec::with_capacity(quanta); apps.len()];
    for _ in 0..quanta {
        chip.run_cycles(quantum);
        for (k, prev) in last.iter_mut().enumerate() {
            let now = read(&chip, k);
            out[k].push(now.delta_since(prev));
            *prev = now;
        }
    }
    out
}

/// Result of an isolated characterization run.
#[derive(Debug, Clone)]
pub struct IsolatedRun {
    /// Application name.
    pub name: String,
    /// Step-3 category fractions over the measurement window.
    pub fractions: Fractions,
    /// Instructions retired during the measurement window.
    pub retired: u64,
    /// Measurement window length in cycles.
    pub cycles: u64,
    /// IPC over the measurement window.
    pub ipc: f64,
}

/// Characterizes `app` in isolation: `warmup` cycles discarded, `measure`
/// cycles measured. The chip uses a single core so the app has every shared
/// resource to itself.
pub fn characterize_isolated(app: &AppProfile, warmup: u64, measure: u64) -> IsolatedRun {
    characterize_isolated_with(app, warmup, measure, &ChipConfig::thunderx2(1))
}

/// Same as [`characterize_isolated`] with an explicit chip configuration
/// (`cfg.cores` is forced to 1): a single-window [`co_run`].
pub fn characterize_isolated_with(
    app: &AppProfile,
    warmup: u64,
    measure: u64,
    cfg: &ChipConfig,
) -> IsolatedRun {
    let delta = co_run(&[app], cfg, warmup, measure, 1)[0][0];
    IsolatedRun {
        name: app.name().to_string(),
        fractions: Fractions::from_pmu(&delta, cfg.core.dispatch_width),
        retired: delta.inst_retired,
        cycles: delta.cpu_cycles,
        ipc: delta.inst_retired as f64 / delta.cpu_cycles.max(1) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec;

    #[test]
    fn isolated_run_reports_consistent_window() {
        let app = spec::by_name("nab_r").unwrap();
        let run = characterize_isolated(&app, 5_000, 20_000);
        assert_eq!(run.cycles, 20_000);
        assert!(run.retired > 0);
        assert!((run.fractions.total() - 1.0).abs() < 1e-6);
        assert!(run.ipc > 0.0 && run.ipc <= 4.0);
    }

    #[test]
    fn characterization_is_deterministic() {
        let app = spec::by_name("mcf").unwrap();
        let a = characterize_isolated(&app, 5_000, 20_000);
        let b = characterize_isolated(&app, 5_000, 20_000);
        assert_eq!(a.retired, b.retired);
        assert_eq!(a.fractions, b.fractions);
    }

    #[test]
    fn co_run_returns_one_window_series_per_app() {
        let mcf = spec::by_name("mcf").unwrap();
        let nab = spec::by_name("nab_r").unwrap();
        let cfg = ChipConfig::thunderx2(4);
        let out = co_run(&[&mcf, &nab], &cfg, 5_000, 2_000, 3);
        assert_eq!(out.len(), 2);
        for series in &out {
            assert_eq!(series.len(), 3);
            assert!(series.iter().all(|d| d.cpu_cycles == 2_000));
        }
        // Row k is app k: memory-bound mcf retires less than compute-bound
        // nab_r in the same windows.
        let retired = |k: usize| out[k].iter().map(|d| d.inst_retired).sum::<u64>();
        assert!(retired(0) < retired(1));
    }
}
