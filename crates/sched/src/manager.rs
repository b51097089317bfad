//! The closed batch: the paper's evaluation methodology (§V-B) on top of
//! the quantum loop in [`crate::scheduler`] (the §V-A manager).
//!
//! Each application runs to a target instruction count and is relaunched
//! immediately so the machine load stays constant; the workload is
//! finished when the slowest application completes its first launch. This
//! module owns the batch's configuration and result types and the two
//! entry points; at every quantum boundary the scheduler reads the PMU
//! deltas, logs the characterization (the raw material for Figs. 6/7 and
//! Table V), asks the policy for a placement and applies it.

use crate::chipfaults::ChipFaultStats;
use crate::policy::{MatcherStats, Policy};
use crate::scheduler::{Mode, Outcome, Scheduler};
use synpa_apps::AppProfile;
use synpa_counters::{FaultConfig, FaultKind, InjectedCounts};
use synpa_model::Categories;
use synpa_sim::{ChipConfig, ChipFaultConfig};

/// One application's per-quantum log row.
#[derive(Debug, Clone, Copy)]
pub struct QuantumRow {
    /// Quantum ordinal.
    pub quantum: u64,
    /// Application id (workload arrival index).
    pub app: usize,
    /// Measured SMT categories (CPI components) this quantum.
    pub categories: Categories,
    /// Co-runner app id during this quantum.
    pub co_runner: usize,
    /// Instructions retired this quantum.
    pub retired: u64,
    /// Cycles observed this quantum.
    pub cycles: u64,
}

impl QuantumRow {
    /// Dominant dispatch-stall behaviour this quantum: `true` if frontend
    /// stalls exceed backend stalls (used by the Table V classification).
    pub fn is_frontend_behaving(&self) -> bool {
        self.categories.frontend > self.categories.backend
    }
}

/// Final per-application result.
#[derive(Debug, Clone)]
pub struct AppResult {
    /// Workload arrival index.
    pub app: usize,
    /// Application name.
    pub name: String,
    /// Target instructions per launch (§V-B).
    pub target: u64,
    /// Turnaround time in cycles, measured from the app's arrival. For a
    /// completed app this is the first-launch completion; for an app the
    /// quanta cap cut off mid-flight it is the censored elapsed time (a
    /// lower bound on the true TT); for an app that never reached the chip
    /// it is 0. Check [`AppResult::completed`] before treating it as a
    /// turnaround measurement.
    pub tt_cycles: u64,
    /// IPC of the first launch. Completed apps report `target / tt_cycles`;
    /// capped-but-running apps report the *measured* IPC of their partial
    /// launch (retired instructions over on-chip cycles) — never a value
    /// fabricated from a clamped turnaround; never-placed apps report 0.
    pub ipc: f64,
    /// Isolated-execution IPC reference (from target-length measurement).
    pub solo_ipc: f64,
    /// Whether the first launch actually completed within the quanta cap.
    /// When `false`, `tt_cycles` and `ipc` are censored observations (or
    /// zero for an app that never arrived/was never placed), not results.
    pub completed: bool,
}

impl AppResult {
    /// Individual speedup vs. isolated execution (≤ 1 under interference);
    /// the quantity fairness is computed over (§VI-D).
    pub fn individual_speedup(&self) -> f64 {
        self.ipc / self.solo_ipc
    }
}

/// Result of running one workload under one policy.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Policy name.
    pub policy: String,
    /// Workload turnaround time: the slowest application's first-launch
    /// completion, in cycles (§VI-B).
    pub tt_cycles: u64,
    /// Per-application outcomes, in arrival order.
    pub per_app: Vec<AppResult>,
    /// Full per-quantum trace (Fig. 6/7, Table V raw data).
    pub trace: Vec<QuantumRow>,
    /// Quanta executed.
    pub quanta: u64,
    /// Thread migrations performed (core changes).
    pub migrations: u64,
    /// `true` when the `max_quanta` cap fired with at least one app still
    /// unfinished (its [`AppResult::completed`] is `false`); the workload
    /// TT is then a lower bound, not a measurement.
    pub capped: bool,
    /// Pairing-solver counters, if the policy drives a pairing matcher.
    /// Engine- and thread-count-independent, like every other field here.
    pub matcher: Option<MatcherStats>,
    /// Sample-health and fault accounting for the run. All-zero (with
    /// `injected` all-zero) on a healthy source without fault injection.
    pub degraded: DegradedStats,
    /// Execution-fault accounting: cores lost, apps evacuated. All-zero
    /// without chip-fault injection. The closed batch only evacuates and
    /// re-queues (no retry cap), so the crash/hang/retry/failed fields
    /// stay zero here — they belong to the open-system service.
    pub chip_faults: ChipFaultStats,
}

/// Fault-tolerance accounting for one run: what the sanitizer classified,
/// what the injector injected, and how the policy guardrails reacted.
/// Derived entirely from deterministic state, so it is engine-,
/// thread-count- and matcher-independent like every other result field.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DegradedStats {
    /// Samples classified Ok.
    pub samples_ok: u64,
    /// Samples clamped (non-monotonic snapshot, saturated delta).
    pub samples_clamped: u64,
    /// Samples held over from the last good delta.
    pub samples_held: u64,
    /// Samples missing outright (no row reached the policy).
    pub samples_missing: u64,
    /// Quanta with at least one non-Ok sample.
    pub quanta_degraded: u64,
    /// Faults injected, by kind in `FaultKind::ALL` order. All-zero when
    /// fault injection is off.
    pub injected: InjectedCounts,
    /// Times the policy entered fallback (0 for policies without
    /// guardrails).
    pub fallback_entries: u64,
    /// Quanta the policy spent in fallback.
    pub fallback_quanta: u64,
}

impl DegradedStats {
    /// Total faults injected across all kinds.
    pub fn injected_total(&self) -> u64 {
        self.injected.iter().sum()
    }

    /// Samples that were anything but Ok.
    pub fn samples_degraded(&self) -> u64 {
        self.samples_clamped + self.samples_held + self.samples_missing
    }

    /// One-line accounting summary (the `faults:` row of the experiment
    /// tables): injected per kind, classification totals, fallback counts.
    pub fn summary(&self) -> String {
        let per_kind = FaultKind::ALL
            .iter()
            .enumerate()
            .map(|(i, k)| format!("{} {}", k.name(), self.injected[i]))
            .collect::<Vec<_>>()
            .join(" ");
        format!(
            "injected {} ({per_kind}), quanta degraded {}, samples ok {} clamped {} held {} \
             missing {}, fallback entries {} quanta {}",
            self.injected_total(),
            self.quanta_degraded,
            self.samples_ok,
            self.samples_clamped,
            self.samples_held,
            self.samples_missing,
            self.fallback_entries,
            self.fallback_quanta,
        )
    }
}

/// Manager configuration.
#[derive(Debug, Clone)]
pub struct ManagerConfig {
    /// Chip to simulate (the evaluation uses 4 SMT2 cores for 8 apps).
    pub chip: ChipConfig,
    /// Cycles per scheduling quantum (the paper's 100 ms, scaled).
    pub quantum_cycles: u64,
    /// Hard cap on quanta (safety against livelock).
    pub max_quanta: u64,
    /// Seeded counter-fault injection (chaos testing). `None` — the
    /// default — reads the chip directly and is byte-identical to the
    /// pre-fault-layer behaviour.
    pub faults: Option<FaultConfig>,
    /// Seeded execution-fault injection: core offlining/outages/derating
    /// plus app crash/hang plans (see `docs/robustness.md`). `None` — the
    /// default — runs a healthy chip and is byte-identical to the
    /// pre-chip-fault behaviour.
    pub chip_faults: Option<ChipFaultConfig>,
}

impl Default for ManagerConfig {
    fn default() -> Self {
        Self {
            chip: ChipConfig::thunderx2(4),
            quantum_cycles: 10_000,
            max_quanta: 3_000,
            faults: None,
            chip_faults: None,
        }
    }
}

/// Runs `apps` (with launch targets already set) under `policy` until every
/// application finishes its first launch. Equivalent to
/// [`run_workload_with_arrivals`] with every app arriving at cycle 0.
///
/// `solo_ipc[k]` is app *k*'s isolated IPC reference. Initial placement is
/// arrival order — app *k* shares core *k mod cores* with app *k + n/2*,
/// matching the Linux placement observed in §VI-C.
pub fn run_workload(
    apps: &[AppProfile],
    solo_ipc: &[f64],
    policy: &mut dyn Policy,
    cfg: &ManagerConfig,
) -> RunResult {
    run_workload_with_arrivals(apps, solo_ipc, policy, cfg, &[])
}

/// [`run_workload`] with per-app arrival cycles (`arrivals[k]` for app *k*;
/// an empty slice means everyone arrives at cycle 0). Any other length
/// mismatch panics — a truncated arrival list would otherwise silently run
/// the tail at cycle 0 and corrupt per-app turnaround times.
///
/// Apps may underfill the chip (partial occupancy), overfill it
/// (oversubscription), and may arrive staggered: each app is attached at
/// the first quantum boundary at or after its arrival cycle, onto the
/// first free slot in (context, core) order; an app arriving while the
/// chip is full stays pending (FIFO) until a slot frees. In this closed
/// batch no slot ever frees (apps relaunch in place, §V-B), so an
/// oversubscribed workload runs to the quanta cap and the never-placed
/// tail is flagged `completed: false` — it does not panic. Waves may be
/// any size, including odd: a core then simply runs one thread, and the
/// pairing policies place the unpaired app alone. Each app's turnaround
/// time is measured from its own arrival.
pub fn run_workload_with_arrivals(
    apps: &[AppProfile],
    solo_ipc: &[f64],
    policy: &mut dyn Policy,
    cfg: &ManagerConfig,
    arrivals: &[u64],
) -> RunResult {
    let n = apps.len();
    assert_eq!(solo_ipc.len(), n);
    // A partially-filled arrivals slice is almost always a bug (a workload
    // edited without its arrival list): refusing it beats silently running
    // the truncated tail at cycle 0 and reporting wrong turnaround times.
    assert!(
        arrivals.is_empty() || arrivals.len() == n,
        "arrivals length {} does not match the workload's {n} apps \
         (pass one arrival cycle per app, or an empty slice for all-at-0)",
        arrivals.len()
    );
    let arrivals = if arrivals.is_empty() {
        vec![0; n]
    } else {
        arrivals.to_vec()
    };
    let mode = Mode::Batch { cfg, solo_ipc };
    let Outcome::Batch(result) = Scheduler::new(mode, apps, arrivals, policy).run() else {
        unreachable!("a closed batch yields a RunResult");
    };
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{LinuxLike, RandomPairing};
    use synpa_apps::spec;

    fn small_workload() -> (Vec<AppProfile>, Vec<f64>) {
        let names = [
            "mcf",
            "xalancbmk_r",
            "gobmk",
            "perlbench",
            "nab_r",
            "hmmer",
            "leela_r",
            "astar",
        ];
        let apps: Vec<AppProfile> = names
            .iter()
            .map(|n| spec::by_name(n).unwrap().with_length(30_000))
            .collect();
        let solo = vec![1.0; 8];
        (apps, solo)
    }

    #[test]
    fn linux_run_completes_and_reports() {
        let (apps, solo) = small_workload();
        let cfg = ManagerConfig::default();
        let result = run_workload(&apps, &solo, &mut LinuxLike, &cfg);
        assert_eq!(result.per_app.len(), 8);
        assert!(result.quanta > 0);
        assert_eq!(result.migrations, 0, "Linux never migrates");
        assert!(result.tt_cycles > 0);
        assert_eq!(
            result.tt_cycles,
            result.per_app.iter().map(|a| a.tt_cycles).max().unwrap()
        );
        // Every app retired its target eventually (within the quanta cap).
        assert!(result.quanta < cfg.max_quanta, "workload should finish");
    }

    #[test]
    fn trace_rows_cover_every_app_every_quantum() {
        let (apps, solo) = small_workload();
        let cfg = ManagerConfig::default();
        let result = run_workload(&apps, &solo, &mut LinuxLike, &cfg);
        let rows_q0: Vec<_> = result.trace.iter().filter(|r| r.quantum == 0).collect();
        assert_eq!(rows_q0.len(), 8);
        // Co-runner symmetry within a quantum.
        for r in &rows_q0 {
            let partner = rows_q0.iter().find(|p| p.app == r.co_runner).unwrap();
            assert_eq!(partner.co_runner, r.app);
        }
    }

    #[test]
    fn random_policy_migrates() {
        let (apps, solo) = small_workload();
        let cfg = ManagerConfig::default();
        let mut policy = RandomPairing::new(3);
        let result = run_workload(&apps, &solo, &mut policy, &cfg);
        assert!(result.migrations > 0, "random repairing must move threads");
    }

    #[test]
    fn deterministic_given_seed() {
        let (apps, solo) = small_workload();
        let cfg = ManagerConfig::default();
        let a = run_workload(&apps, &solo, &mut LinuxLike, &cfg);
        let b = run_workload(&apps, &solo, &mut LinuxLike, &cfg);
        assert_eq!(a.tt_cycles, b.tt_cycles);
        assert_eq!(a.quanta, b.quanta);
    }

    #[test]
    fn partial_occupancy_leaves_cores_idle_and_finishes() {
        // 4 apps on a 4-core / 8-thread chip: two cores stay empty, the
        // run must still complete and report per-app results.
        let names = ["mcf", "gobmk", "hmmer", "astar"];
        let apps: Vec<AppProfile> = names
            .iter()
            .map(|n| spec::by_name(n).unwrap().with_length(30_000))
            .collect();
        let solo = vec![1.0; 4];
        let cfg = ManagerConfig::default();
        let result = run_workload(&apps, &solo, &mut LinuxLike, &cfg);
        assert_eq!(result.per_app.len(), 4);
        assert!(result.quanta < cfg.max_quanta, "must finish under the cap");
        assert!(result.per_app.iter().all(|a| a.tt_cycles > 0));
    }

    #[test]
    fn staggered_arrivals_attach_late_and_measure_tt_from_arrival() {
        let (apps, solo) = small_workload();
        let cfg = ManagerConfig::default();
        // Second wave arrives 4 quanta in.
        let gap = 4 * cfg.quantum_cycles;
        let arrivals = [0, 0, 0, 0, gap, gap, gap, gap];
        let base = run_workload(&apps, &solo, &mut LinuxLike, &cfg);
        let wave = run_workload_with_arrivals(&apps, &solo, &mut LinuxLike, &cfg, &arrivals);
        assert_eq!(wave.per_app.len(), 8);
        assert!(wave.quanta < cfg.max_quanta, "must finish under the cap");
        // Early apps ran alone on their cores for the first 4 quanta, so
        // they can only be faster than in the everyone-at-once run.
        for k in 0..4 {
            assert!(
                wave.per_app[k].tt_cycles <= base.per_app[k].tt_cycles,
                "app {k}: {} vs {}",
                wave.per_app[k].tt_cycles,
                base.per_app[k].tt_cycles
            );
        }
        // Late apps' TT is measured from their arrival, not from cycle 0.
        let end = wave.quanta * cfg.quantum_cycles;
        for k in 4..8 {
            assert!(wave.per_app[k].tt_cycles > 0);
            assert!(
                wave.per_app[k].tt_cycles <= end - gap + cfg.quantum_cycles,
                "app {k} TT {} not measured from arrival",
                wave.per_app[k].tt_cycles
            );
        }
    }

    #[test]
    fn staggered_arrivals_work_under_a_migrating_policy() {
        let (apps, solo) = small_workload();
        let cfg = ManagerConfig::default();
        let gap = 2 * cfg.quantum_cycles;
        let arrivals = [0, 0, 0, 0, 0, 0, gap, gap];
        let mut policy = RandomPairing::new(11);
        let result = run_workload_with_arrivals(&apps, &solo, &mut policy, &cfg, &arrivals);
        assert!(result.quanta < cfg.max_quanta);
        assert!(result.migrations > 0, "policy still re-pairs across waves");
    }

    /// Regression: a too-short arrivals slice used to fall back to
    /// arrive-at-0 for the missing tail instead of flagging the mismatch.
    #[test]
    #[should_panic(expected = "does not match the workload")]
    fn truncated_arrivals_slice_panics() {
        let (apps, solo) = small_workload();
        let cfg = ManagerConfig::default();
        let arrivals = [0, 0, 10_000, 10_000]; // 4 entries for 8 apps
        run_workload_with_arrivals(&apps, &solo, &mut LinuxLike, &cfg, &arrivals);
    }

    #[test]
    fn empty_and_full_length_arrivals_agree() {
        let (apps, solo) = small_workload();
        let cfg = ManagerConfig::default();
        let base = run_workload_with_arrivals(&apps, &solo, &mut LinuxLike, &cfg, &[]);
        let zeros = run_workload_with_arrivals(&apps, &solo, &mut LinuxLike, &cfg, &[0; 8]);
        assert_eq!(base.tt_cycles, zeros.tt_cycles);
        assert_eq!(base.quanta, zeros.quanta);
    }

    /// Regression (odd-wave restriction): odd waves used to be rejected
    /// with an "arrival waves must be even-sized" assert. A core now simply
    /// runs one thread until the next wave pairs it up.
    #[test]
    fn odd_arrival_waves_are_legal_and_finish() {
        let (apps, solo) = small_workload();
        let cfg = ManagerConfig::default();
        let arrivals = [0, 0, 0, 0, 0, 10_000, 10_000, 10_000];
        let result = run_workload_with_arrivals(&apps, &solo, &mut LinuxLike, &cfg, &arrivals);
        assert!(result.quanta < cfg.max_quanta, "must finish under the cap");
        assert!(!result.capped);
        assert!(result.per_app.iter().all(|a| a.completed));
    }

    /// Odd waves under a migrating pairing policy: the re-pairing path must
    /// handle the unpaired app every quantum.
    #[test]
    fn odd_waves_work_under_a_migrating_policy() {
        let (apps, solo) = small_workload();
        let apps = apps[..7].to_vec(); // odd total: one app is always single
        let solo = solo[..7].to_vec();
        let cfg = ManagerConfig::default();
        let arrivals = [0, 0, 0, 20_000, 20_000, 20_000, 20_000];
        let mut policy = RandomPairing::new(5);
        let result = run_workload_with_arrivals(&apps, &solo, &mut policy, &cfg, &arrivals);
        assert!(result.quanta < cfg.max_quanta, "must finish under the cap");
        assert!(result.per_app.iter().all(|a| a.completed));
        assert!(
            result.migrations > 0,
            "policy still re-pairs around the single"
        );
    }

    /// Regression (full-chip arrival panic): an arrival while every slot is
    /// occupied used to hit `expect("even waves never overfill the chip")`.
    /// The app now stays pending; in the closed batch no slot ever frees,
    /// so it runs to the cap flagged incomplete instead of panicking.
    #[test]
    fn arrival_while_full_stays_pending_instead_of_panicking() {
        let (apps, solo) = small_workload();
        let apps = apps[..6].to_vec();
        let solo = solo[..6].to_vec();
        let cfg = ManagerConfig {
            chip: ChipConfig::thunderx2(2), // 4 slots for 6 apps
            max_quanta: 60,
            ..Default::default()
        };
        let arrivals = [0, 0, 0, 0, 10_000, 10_000];
        let result = run_workload_with_arrivals(&apps, &solo, &mut LinuxLike, &cfg, &arrivals);
        assert!(result.capped, "the pending tail can never be placed");
        assert_eq!(result.quanta, cfg.max_quanta);
        for k in 4..6 {
            let a = &result.per_app[k];
            assert!(!a.completed, "app {k} never reached the chip");
            assert_eq!(a.tt_cycles, 0);
            assert_eq!(a.ipc, 0.0);
        }
        // The first wave kept running normally the whole time.
        assert!(result.per_app[..4].iter().all(|a| a.completed));
    }

    /// Regression (capped-run turnaround): an app still unfinished when
    /// `max_quanta` fires used to get `tt = end - arrival` clamped to 0 and
    /// then `ipc = length / 1` — an absurdly flattering IPC. Unfinished
    /// apps must be flagged and report measured (or zero) IPC only.
    #[test]
    fn capped_run_never_fabricates_ipc() {
        let (apps, solo) = small_workload();
        let cfg = ManagerConfig {
            max_quanta: 5, // cap fires at cycle 50_000
            ..Default::default()
        };
        // Last wave arrives beyond the cap: pre-fix it reported
        // tt_cycles = 0 and ipc = 30_000.
        let arrivals = [0, 0, 0, 0, 0, 0, 80_000, 80_000];
        let result = run_workload_with_arrivals(&apps, &solo, &mut LinuxLike, &cfg, &arrivals);
        assert!(result.capped);
        let width = cfg.chip.core.dispatch_width as f64;
        for a in &result.per_app {
            assert!(
                a.ipc <= width,
                "app {} reports impossible ipc {} (> dispatch width)",
                a.app,
                a.ipc
            );
        }
        for k in 6..8 {
            let a = &result.per_app[k];
            assert!(!a.completed);
            assert_eq!(a.tt_cycles, 0, "never arrived: no fabricated turnaround");
            assert_eq!(a.ipc, 0.0, "never arrived: no fabricated IPC");
        }
    }

    /// A capped app that *was* running reports its measured partial-launch
    /// IPC (a plausible value), with the censored elapsed time as TT.
    #[test]
    fn capped_mid_flight_app_reports_measured_ipc() {
        let names = ["mcf", "gobmk", "hmmer", "astar"];
        let apps: Vec<AppProfile> = names
            .iter()
            .map(|n| spec::by_name(n).unwrap().with_length(10_000_000))
            .collect();
        let solo = vec![1.0; 4];
        let cfg = ManagerConfig {
            max_quanta: 4,
            ..Default::default()
        };
        let result = run_workload(&apps, &solo, &mut LinuxLike, &cfg);
        assert!(result.capped);
        let end = cfg.max_quanta * cfg.quantum_cycles;
        for a in &result.per_app {
            assert!(!a.completed);
            assert_eq!(a.tt_cycles, end, "censored elapsed time, not a clamp");
            assert!(a.ipc > 0.0, "ran the whole time: measured IPC is positive");
            assert!(
                a.ipc <= cfg.chip.core.dispatch_width as f64,
                "measured, not fabricated from the target length"
            );
        }
    }

    /// Closed-batch runs survive core outages: evacuees are re-queued and
    /// re-placed (restarting their launch — censored progress), cores come
    /// and go, and the run either finishes or is honestly capped. No retry
    /// budget here: the batch methodology relaunches forever anyway.
    #[test]
    fn core_faults_evacuate_and_requeue_without_panicking() {
        let (apps, solo) = small_workload();
        let cfg = ManagerConfig {
            chip_faults: Some(synpa_sim::ChipFaultConfig::uniform(3, 1.0)),
            max_quanta: 400,
            ..Default::default()
        };
        let result = run_workload(&apps, &solo, &mut LinuxLike, &cfg);
        let s = result.chip_faults;
        assert!(
            s.cores_offlined + s.cores_transient + s.cores_throttled > 0,
            "a rate-1.0 plan must disturb the chip: {s:?}"
        );
        assert!(s.apps_evacuated > 0, "outages must strand residents: {s:?}");
        assert_eq!(s.apps_crashed + s.apps_hung + s.retries + s.failed, 0);
        // Honesty: completed apps have real turnarounds, incomplete ones
        // are flagged — and the dispatch width bounds every reported IPC.
        let width = cfg.chip.core.dispatch_width as f64;
        for a in &result.per_app {
            assert!(a.ipc <= width, "app {} ipc {} impossible", a.app, a.ipc);
            if a.completed {
                assert!(a.tt_cycles > 0);
            }
        }
    }

    #[test]
    fn zero_rate_chip_faults_match_no_chip_faults() {
        let (apps, solo) = small_workload();
        let plain = run_workload(&apps, &solo, &mut LinuxLike, &ManagerConfig::default());
        let zero = run_workload(
            &apps,
            &solo,
            &mut LinuxLike,
            &ManagerConfig {
                chip_faults: Some(synpa_sim::ChipFaultConfig::uniform(9, 0.0)),
                ..Default::default()
            },
        );
        assert_eq!(format!("{plain:?}"), format!("{zero:?}"));
    }

    #[test]
    fn individual_speedup_uses_solo_reference() {
        let r = AppResult {
            app: 0,
            name: "x".into(),
            target: 1000,
            tt_cycles: 2000,
            ipc: 0.5,
            solo_ipc: 1.0,
            completed: true,
        };
        assert!((r.individual_speedup() - 0.5).abs() < 1e-12);
    }
}
