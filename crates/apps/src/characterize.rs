//! Isolated-execution characterization (paper Fig. 4 methodology).
//!
//! Runs one application alone on one core (ST mode), discards a warm-up
//! period so cold caches don't skew the fractions, and reports the step-3
//! category breakdown.

use crate::classify::Fractions;
use crate::profile::AppProfile;
use synpa_sim::{Chip, ChipConfig, Slot, ThreadProgram};

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
/// (`cfg.cores` is forced to 1).
pub fn characterize_isolated_with(
    app: &AppProfile,
    warmup: u64,
    measure: u64,
    cfg: &ChipConfig,
) -> IsolatedRun {
    let mut cfg = cfg.clone();
    cfg.cores = 1;
    let width = cfg.core.dispatch_width;
    let mut chip = Chip::new(cfg);
    // Launch length irrelevant here; make it effectively infinite so a
    // relaunch boundary never lands mid-measurement.
    let endless = app.clone().with_length(u64::MAX);
    chip.attach(Slot(0), 0, Box::new(endless));
    chip.run_cycles(warmup);
    let before = *chip.pmu_of(0).unwrap();
    chip.run_cycles(measure);
    let delta = chip.pmu_of(0).unwrap().delta_since(&before);
    IsolatedRun {
        name: app.name().to_string(),
        fractions: Fractions::from_pmu(&delta, width),
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
}
