//! The full chip: cores, shared LLC, memory, and the thread-placement API
//! that stands in for `sched_setaffinity` on the real machine.

use std::collections::HashMap;

use crate::cache::Cache;
use crate::config::ChipConfig;
use crate::core::Core;
use crate::engine::{self, EngineKind, EngineStats};
use crate::mem::Memory;
use crate::pmu::PmuCounters;
use crate::program::ThreadProgram;
use crate::thread::{Completion, HwThread};

/// A hardware-thread slot, addressed as `core * smt_ways + ctx`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Slot(pub usize);

impl Slot {
    /// Physical core index for a chip with `smt_ways` contexts per core.
    pub fn core(&self, smt_ways: usize) -> usize {
        self.0 / smt_ways
    }

    /// Context index within the core.
    pub fn ctx(&self, smt_ways: usize) -> usize {
        self.0 % smt_ways
    }
}

/// The simulated processor.
pub struct Chip {
    pub(crate) cfg: ChipConfig,
    pub(crate) cores: Vec<Core>,
    pub(crate) llc: Cache,
    pub(crate) mem: Memory,
    pub(crate) cycle: u64,
    pub(crate) events: Vec<Completion>,
    /// `app_id → Slot` index kept in sync by `attach`/`detach`/
    /// `set_placement`, so the per-quantum scheduler lookups (`slot_of`,
    /// `pmu_of`, `placement`) are O(1)/O(apps) instead of O(cores × smt).
    slot_index: HashMap<usize, Slot>,
    /// Per-core availability: `true` = the core is out of service (failed
    /// or administratively offlined) and is excluded from stepping by every
    /// engine, its core-cycles accounted as elided. Offline cores must be
    /// empty — evacuation is the scheduler's job, enforced by asserts.
    pub(crate) offline: Vec<bool>,
    /// Per-core resume times, reused across `run_until` calls by the
    /// per-core horizon engine so the quantum loop never allocates.
    pub(crate) percore_resume: Vec<u64>,
    /// Diagnostic stepped/elided tallies (see [`EngineStats`]).
    pub(crate) stats: EngineStats,
}

impl Chip {
    /// Builds a chip per `cfg` with every slot empty.
    pub fn new(cfg: ChipConfig) -> Self {
        let cores_n = cfg.cores as usize;
        let cores = (0..cores_n).map(|i| Core::new(i, &cfg)).collect();
        Self {
            llc: Cache::new(cfg.llc),
            mem: Memory::new(cfg.mem_latency, cfg.mem_queue_penalty),
            cores,
            cfg,
            cycle: 0,
            events: Vec::new(),
            slot_index: HashMap::new(),
            offline: vec![false; cores_n],
            percore_resume: Vec::new(),
            stats: EngineStats::default(),
        }
    }

    /// The configuration the chip was built with.
    pub fn config(&self) -> &ChipConfig {
        &self.cfg
    }

    /// Current simulated cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    fn smt(&self) -> usize {
        self.cfg.core.smt_ways as usize
    }

    /// Total hardware-thread slots.
    pub fn slots(&self) -> usize {
        self.cores.len() * self.smt()
    }

    /// Places a new application on `slot`. Panics if the slot is occupied
    /// or `app_id` is already placed somewhere on the chip (app ids key the
    /// placement index and must be unique per chip).
    pub fn attach(&mut self, slot: Slot, app_id: usize, program: Box<dyn ThreadProgram>) {
        assert!(
            !self.slot_index.contains_key(&app_id),
            "app {app_id} already placed"
        );
        let smt = self.smt();
        assert!(
            !self.offline[slot.core(smt)],
            "slot {slot:?} is on offline core {}",
            slot.core(smt)
        );
        let ctx = &mut self.cores[slot.core(smt)].ctx[slot.ctx(smt)];
        assert!(ctx.is_none(), "slot {slot:?} already occupied");
        *ctx = Some(HwThread::new(
            app_id,
            program,
            self.cfg.seed ^ (app_id as u64) << 17,
            self.cfg.l1d.line_bytes as u64,
        ));
        self.slot_index.insert(app_id, slot);
    }

    /// Removes the thread on `slot`, returning it (if any).
    pub fn detach(&mut self, slot: Slot) -> Option<HwThread> {
        let smt = self.smt();
        let taken = self.cores[slot.core(smt)].ctx[slot.ctx(smt)].take();
        if let Some(t) = taken.as_ref() {
            self.slot_index.remove(&t.app_id());
        }
        taken
    }

    /// Slot currently hosting `app_id`, if placed. O(1) via the placement
    /// index.
    pub fn slot_of(&self, app_id: usize) -> Option<Slot> {
        self.slot_index.get(&app_id).copied()
    }

    /// Applications currently placed, as `(app_id, slot)` pairs in slot
    /// order.
    pub fn placement(&self) -> Vec<(usize, Slot)> {
        let mut out: Vec<(usize, Slot)> = self.slot_index.iter().map(|(&a, &s)| (a, s)).collect();
        out.sort_by_key(|&(_, s)| s);
        out
    }

    /// Atomically re-places every listed application. Threads that change
    /// *core* pay `migration_penalty` and lose private-cache warmth; a swap
    /// of contexts within the same core is free. The simulator equivalent of
    /// a batch of `sched_setaffinity` calls at a quantum boundary.
    ///
    /// Panics if the target placement maps two apps to one slot or names an
    /// app that is not currently placed.
    pub fn set_placement(&mut self, target: &[(usize, Slot)]) {
        let smt = self.smt();
        {
            let mut seen = vec![false; self.slots()];
            for &(_, s) in target {
                assert!(!seen[s.0], "duplicate target slot {s:?}");
                seen[s.0] = true;
            }
        }
        // Lift every involved thread out, remembering its old core.
        let mut moved: Vec<(usize, Slot, HwThread)> = Vec::with_capacity(target.len());
        for &(app, dst) in target {
            let src = self.slot_of(app).unwrap_or_else(|| {
                panic!(
                    "app {app} not placed (current placement: {:?})",
                    self.placement()
                )
            });
            let t = self.detach(src).unwrap();
            moved.push((src.core(smt), dst, t));
        }
        for (old_core, dst, mut t) in moved {
            assert!(
                !self.offline[dst.core(smt)],
                "target slot {dst:?} is on offline core {}",
                dst.core(smt)
            );
            if dst.core(smt) != old_core {
                t.apply_migration(self.cycle, self.cfg.migration_penalty);
            }
            let app_id = t.app_id();
            let ctx = &mut self.cores[dst.core(smt)].ctx[dst.ctx(smt)];
            assert!(
                ctx.is_none(),
                "target slot {dst:?} occupied by unlisted app"
            );
            *ctx = Some(t);
            self.slot_index.insert(app_id, dst);
        }
    }

    /// Runs `n` cycles; returns launch-completion events that occurred.
    pub fn run_cycles(&mut self, n: u64) -> Vec<Completion> {
        self.run_until(self.cycle + n)
    }

    /// Advances simulated time up to and not beyond cycle `target` (no-op
    /// if already there), returning launch-completion events that occurred.
    /// The quantum manager drives this with absolute quantum boundaries;
    /// which engine advances time is selected by [`ChipConfig::engine`] —
    /// the two are bit-identical on every observable (see `crate::engine`).
    pub fn run_until(&mut self, target: u64) -> Vec<Completion> {
        debug_assert!(
            self.offline
                .iter()
                .zip(self.cores.iter())
                .all(|(&off, c)| !off || c.occupancy() == 0),
            "offline cores must be evacuated before stepping"
        );
        match self.cfg.engine {
            EngineKind::Reference => engine::run_reference(self, target),
            EngineKind::PerCore => engine::run_percore(self, target),
        }
    }

    /// Cumulative stepped/elided core-cycle tallies of the engine that has
    /// been advancing this chip — a diagnostic of how much exact stepping
    /// the horizon machinery avoided, never an observable of the
    /// simulation itself.
    pub fn engine_stats(&self) -> EngineStats {
        self.stats
    }

    /// Takes `core` out of service: every engine excludes it from stepping
    /// (its core-cycles are accounted as elided) and `attach` /
    /// `set_placement` refuse to target it. The core must already be empty
    /// — evacuating residents is the scheduler's job.
    pub fn set_core_offline(&mut self, core: usize) {
        assert!(
            self.cores[core].occupancy() == 0,
            "core {core} must be evacuated before going offline (apps: {:?})",
            self.apps_on_core(core)
        );
        self.offline[core] = true;
    }

    /// Returns `core` to service (a transient fault healing).
    pub fn set_core_online(&mut self, core: usize) {
        self.offline[core] = false;
    }

    /// True when `core` is in service (placement may target it).
    pub fn core_available(&self, core: usize) -> bool {
        !self.offline[core]
    }

    /// Number of cores currently in service.
    pub fn available_cores(&self) -> usize {
        self.offline.iter().filter(|&&off| !off).count()
    }

    /// Per-core availability mask, `true` = in service, indexed by core.
    pub fn availability(&self) -> Vec<bool> {
        self.offline.iter().map(|&off| !off).collect()
    }

    /// Derates (or restores, with `None`) the dispatch width of `core`.
    /// The limit is clamped to at least 1; it applies identically in every
    /// engine because all of them step through the same dispatch stage.
    pub fn set_core_width_limit(&mut self, core: usize, limit: Option<u32>) {
        self.cores[core].width_limit = limit;
    }

    /// Applications currently placed on `core`, in slot order.
    pub fn apps_on_core(&self, core: usize) -> Vec<usize> {
        let smt = self.smt();
        let mut out: Vec<usize> = self
            .slot_index
            .iter()
            .filter(|(_, s)| s.core(smt) == core)
            .map(|(&a, _)| a)
            .collect();
        out.sort_unstable();
        out
    }

    /// Wedges the thread running `app_id` (injected hang): it keeps its
    /// slot and its cycle counter but never retires or completes again.
    /// Panics if the app is not placed.
    pub fn hang_app(&mut self, app_id: usize) {
        let smt = self.smt();
        let slot = self.slot_of(app_id).unwrap_or_else(|| {
            panic!(
                "app {app_id} not placed (current placement: {:?})",
                self.placement()
            )
        });
        self.cores[slot.core(smt)].ctx[slot.ctx(smt)]
            .as_mut()
            .expect("slot index consistent")
            .hang();
    }

    /// True when the thread running `app_id` has been wedged by
    /// [`Chip::hang_app`].
    pub fn is_hung(&self, app_id: usize) -> bool {
        let smt = self.smt();
        self.slot_of(app_id)
            .and_then(|slot| self.cores[slot.core(smt)].ctx[slot.ctx(smt)].as_ref())
            .map(|t| t.is_hung())
            .unwrap_or(false)
    }

    /// PMU counters of the thread running `app_id`.
    pub fn pmu_of(&self, app_id: usize) -> Option<&PmuCounters> {
        let smt = self.smt();
        let slot = self.slot_of(app_id)?;
        self.cores[slot.core(smt)].ctx[slot.ctx(smt)]
            .as_ref()
            .map(|t| t.pmu())
    }

    /// Launch count of `app_id` (completed executions, paper §V-B).
    pub fn launches_of(&self, app_id: usize) -> Option<u64> {
        let smt = self.smt();
        let slot = self.slot_of(app_id)?;
        self.cores[slot.core(smt)].ctx[slot.ctx(smt)]
            .as_ref()
            .map(|t| t.launches())
    }
}

impl std::fmt::Debug for Chip {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Chip")
            .field("cores", &self.cores.len())
            .field("cycle", &self.cycle)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{PhaseParams, UniformProgram};

    fn prog(name: &str) -> Box<dyn ThreadProgram> {
        Box::new(UniformProgram::new(name, PhaseParams::compute(), 10_000))
    }

    #[test]
    fn attach_detach_roundtrip() {
        let mut chip = Chip::new(ChipConfig::thunderx2(2));
        chip.attach(Slot(0), 7, prog("a"));
        assert_eq!(chip.slot_of(7), Some(Slot(0)));
        let t = chip.detach(Slot(0)).unwrap();
        assert_eq!(t.app_id(), 7);
        assert_eq!(chip.slot_of(7), None);
    }

    #[test]
    #[should_panic(expected = "already occupied")]
    fn double_attach_panics() {
        let mut chip = Chip::new(ChipConfig::thunderx2(1));
        chip.attach(Slot(0), 0, prog("a"));
        chip.attach(Slot(0), 1, prog("b"));
    }

    #[test]
    fn run_cycles_advances_all_threads() {
        let mut chip = Chip::new(ChipConfig::thunderx2(2));
        for i in 0..4 {
            chip.attach(Slot(i), i, prog(&format!("p{i}")));
        }
        // Long enough to warm the cold caches (each cold I-cache miss costs
        // a full memory round trip).
        chip.run_cycles(10_000);
        for i in 0..4 {
            let pmu = chip.pmu_of(i).unwrap();
            assert_eq!(pmu.cpu_cycles, 10_000);
            assert!(pmu.inst_retired > 0);
        }
    }

    #[test]
    fn set_placement_swaps_across_cores() {
        let mut chip = Chip::new(ChipConfig::thunderx2(2));
        chip.attach(Slot(0), 0, prog("a"));
        chip.attach(Slot(2), 1, prog("b"));
        chip.run_cycles(10_000);
        chip.set_placement(&[(0, Slot(2)), (1, Slot(0))]);
        assert_eq!(chip.slot_of(0), Some(Slot(2)));
        assert_eq!(chip.slot_of(1), Some(Slot(0)));
        // Progress preserved across the move.
        assert!(chip.pmu_of(0).unwrap().inst_retired > 0);
    }

    #[test]
    fn same_core_swap_keeps_running() {
        let mut chip = Chip::new(ChipConfig::thunderx2(1));
        chip.attach(Slot(0), 0, prog("a"));
        chip.attach(Slot(1), 1, prog("b"));
        chip.run_cycles(50);
        chip.set_placement(&[(0, Slot(1)), (1, Slot(0))]);
        let ev = chip.run_cycles(5_000);
        // Both apps (length 10_000 compute) keep retiring and eventually
        // complete launches.
        assert!(chip.pmu_of(0).unwrap().inst_retired > 1_000);
        let _ = ev;
    }

    #[test]
    #[should_panic(expected = "duplicate target slot")]
    fn duplicate_target_slot_panics() {
        let mut chip = Chip::new(ChipConfig::thunderx2(1));
        chip.attach(Slot(0), 0, prog("a"));
        chip.attach(Slot(1), 1, prog("b"));
        chip.set_placement(&[(0, Slot(0)), (1, Slot(0))]);
    }

    #[test]
    fn completions_carry_app_ids() {
        let mut chip = Chip::new(ChipConfig::thunderx2(1));
        chip.attach(Slot(0), 5, prog("short"));
        let mut seen = false;
        for _ in 0..50 {
            for ev in chip.run_cycles(1_000) {
                assert_eq!(ev.app_id, 5);
                seen = true;
            }
            if seen {
                break;
            }
        }
        assert!(
            seen,
            "program of length 10k should finish within 50k cycles"
        );
        assert!(chip.launches_of(5).unwrap() >= 1);
    }

    #[test]
    #[should_panic(expected = "app 9 not placed (current placement: [(3, Slot(0))])")]
    fn set_placement_unplaced_app_panics_with_placement() {
        let mut chip = Chip::new(ChipConfig::thunderx2(1));
        chip.attach(Slot(0), 3, prog("a"));
        chip.set_placement(&[(9, Slot(1))]);
    }

    #[test]
    fn offline_core_is_excluded_and_elided() {
        let mut chip = Chip::new(ChipConfig::thunderx2(2));
        chip.attach(Slot(0), 0, prog("a"));
        chip.set_core_offline(1);
        assert!(!chip.core_available(1));
        assert_eq!(chip.available_cores(), 1);
        assert_eq!(chip.availability(), vec![true, false]);
        chip.run_cycles(1_000);
        let s = chip.engine_stats();
        assert_eq!(s.stepped + s.elided, 2 * 1_000, "{s:?}");
        assert!(
            s.elided >= 1_000,
            "offline core must be fully elided: {s:?}"
        );
        chip.set_core_online(1);
        chip.attach(Slot(2), 1, prog("b"));
        chip.run_cycles(1_000);
        assert_eq!(chip.pmu_of(1).unwrap().cpu_cycles, 1_000);
    }

    #[test]
    #[should_panic(expected = "is on offline core")]
    fn attach_to_offline_core_panics() {
        let mut chip = Chip::new(ChipConfig::thunderx2(2));
        chip.set_core_offline(1);
        chip.attach(Slot(2), 0, prog("a"));
    }

    #[test]
    #[should_panic(expected = "must be evacuated")]
    fn offlining_an_occupied_core_panics() {
        let mut chip = Chip::new(ChipConfig::thunderx2(1));
        chip.attach(Slot(0), 0, prog("a"));
        chip.set_core_offline(0);
    }

    #[test]
    fn hung_app_stops_retiring_but_keeps_cycling() {
        let mut chip = Chip::new(ChipConfig::thunderx2(1));
        chip.attach(Slot(0), 0, prog("a"));
        // Long enough to warm the cold caches and retire real work.
        chip.run_cycles(5_000);
        let before = chip.pmu_of(0).unwrap().inst_retired;
        assert!(before > 0);
        chip.hang_app(0);
        assert!(chip.is_hung(0));
        chip.run_cycles(5_000);
        let pmu = chip.pmu_of(0).unwrap();
        assert_eq!(pmu.inst_retired, before, "hung app must stop retiring");
        assert_eq!(pmu.cpu_cycles, 10_000, "hung app keeps accumulating cycles");
    }

    #[test]
    fn throttled_core_retires_less() {
        let run = |limit: Option<u32>| {
            let mut chip = Chip::new(ChipConfig::thunderx2(1));
            chip.set_core_width_limit(0, limit);
            chip.attach(Slot(0), 0, prog("a"));
            chip.run_cycles(5_000);
            chip.pmu_of(0).unwrap().inst_retired
        };
        let full = run(None);
        let derated = run(Some(1));
        assert!(
            derated < full,
            "width 1 must retire less than width 4: {derated} vs {full}"
        );
        assert!(derated > 0, "a throttled core still makes progress");
    }

    #[test]
    fn determinism_same_seed_same_counters() {
        let run = |seed: u64| {
            let mut chip = Chip::new(ChipConfig::thunderx2(2).with_seed(seed));
            for i in 0..4 {
                chip.attach(Slot(i), i, prog(&format!("p{i}")));
            }
            chip.run_cycles(2_000);
            (0..4).map(|i| *chip.pmu_of(i).unwrap()).collect::<Vec<_>>()
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1), run(2));
    }
}
