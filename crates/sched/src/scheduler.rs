//! The per-quantum loop: the paper's user-level manager (§V-A) as one
//! [`Scheduler::step`], behind both the closed batch
//! ([`crate::run_workload_with_arrivals`]) and the open-system service
//! ([`crate::run_service`]).
//!
//! A step runs one quantum in a fixed order: chip faults and evacuation →
//! admission → `Chip::run_until` → first-launch completions → planned app
//! crash/hang and the watchdog (open system under chip faults only) →
//! sanitized sampling, the characterization log, `Policy::decide` and
//! apply (skipped on an empty chip). The two regimes differ only through
//! [`Mode`], and each app's progress is one [`AppState`].

use crate::chipfaults::{ChipFaultDriver, ChipFaultStats};
use crate::manager::{AppResult, DegradedStats, ManagerConfig, QuantumRow, RunResult};
use crate::policy::{Policy, QuantumView};
use crate::service::{ServiceApp, ServiceConfig, ServiceResult};
use std::collections::VecDeque;
use synpa_apps::AppProfile;
use synpa_counters::{FaultInjector, SanitizingSession};
use synpa_model::Categories;
use synpa_sim::{AppFault, Chip, Slot, ThreadProgram};

/// First free hardware-thread slot in (context, core) order: arriving apps
/// fill context 0 of every core before any core runs two threads. With
/// every app arriving at cycle 0 this reproduces the classic arrival-order
/// placement (app *k* on ctx 0 of core *k*, app *k + n/2* on ctx 1 of core
/// *k*); mid-run it is the "place on an idle core first" behaviour of a
/// load-balancing OS. `None` means the chip is full — the caller keeps the
/// app waiting until a slot frees (the admission primitive of both the
/// closed batch and the open-system [`crate::run_service`]). Cores out of
/// service are skipped: a slot on an offlined core is not free capacity.
pub fn first_free_slot(chip: &Chip) -> Option<Slot> {
    let smt = chip.config().core.smt_ways as usize;
    let cores = chip.config().cores as usize;
    let occupied: std::collections::HashSet<usize> =
        chip.placement().iter().map(|&(_, s)| s.0).collect();
    for ctx in 0..smt {
        for core in 0..cores {
            if !chip.core_available(core) {
                continue;
            }
            let slot = Slot(core * smt + ctx);
            if !occupied.contains(&slot.0) {
                return Some(slot);
            }
        }
    }
    None
}

/// Watchdog horizon: an on-chip app that retires zero instructions for
/// this many consecutive quanta is declared hung and evicted. Catches the
/// planned `Hang` execution fault (and anything else that wedges) without
/// any privileged knowledge of the fault plan.
const WATCHDOG_QUANTA: u64 = 3;

/// Retry budget per app in the open system: an evicted app (core outage,
/// crash, hang) is re-queued at most this many times; the next eviction
/// reports it `failed`. Retries bypass the admission-capacity check — an
/// admitted app is never shed (the drop-newest rule holds at the door
/// only).
const MAX_RETRIES: u32 = 2;

/// Quanta an evicted app waits before its retry re-enters the queue —
/// crash-looping apps must not hammer the admission path.
const RETRY_BACKOFF_QUANTA: u64 = 2;

/// How arrivals, completions and evictions are handled.
///
/// The closed batch (§V-B) keeps due arrivals in an unbounded FIFO,
/// re-places evacuees at the same boundary ahead of them, and relaunches a
/// completed app in place: its turnaround is the first completion and it
/// stays on as background load. It reports `solo_ipc[k]` with app *k*.
/// The open system bounds its admission queue (drop-newest), detaches an
/// app at its first completion, and routes evicted apps through a capped,
/// backed-off retry.
#[derive(Clone, Copy)]
pub(crate) enum Mode<'a> {
    Batch {
        cfg: &'a ManagerConfig,
        solo_ipc: &'a [f64],
    },
    Open(&'a ServiceConfig),
}

/// Where one application is in its lifecycle (drawn in `docs/service.md`).
#[derive(Debug, Clone, Copy)]
enum AppState {
    /// Not arrived; in the closed batch, also arrived but not yet placed.
    Pending,
    /// Waiting for a slot: in the open system's admission queue, or a
    /// closed-batch evacuee, which keeps its first admission cycle.
    Queued { admitted: Option<u64>, retries: u32 },
    /// On a hardware thread since `admitted` (the first admission in the
    /// closed batch, the latest in the open system). The watchdog tracks
    /// the retired count at the last progress and the stalled quanta since.
    Running {
        admitted: u64,
        retries: u32,
        last_retired: u64,
        stalled: u64,
    },
    /// Evicted from the open system, waiting out its retry backoff.
    Backoff { retries: u32 },
    /// First launch completed (the closed batch relaunches it in place).
    Done { cycle: u64 },
    /// Refused at the door by a full admission queue.
    Shed,
    /// Evicted with its retry budget exhausted.
    Failed,
}

/// A finished run, in the result type of its mode.
pub(crate) enum Outcome {
    Batch(RunResult),
    Open(ServiceResult),
}

/// One scheduling run: the chip, the sampling stack, the policy and every
/// app's [`AppState`], advanced one quantum per [`Scheduler::step`].
pub(crate) struct Scheduler<'a> {
    mode: Mode<'a>,
    cfg: &'a ManagerConfig,
    apps: &'a [AppProfile],
    arrivals: Vec<u64>,
    policy: &'a mut dyn Policy,
    chip: Chip,
    session: SanitizingSession,
    injector: Option<FaultInjector>,
    faults: Option<ChipFaultDriver>,
    state: Vec<AppState>,
    /// App ids in (arrival cycle, id) order; `order[next..]` have not been
    /// placed (closed batch) or offered to the queue (open system).
    order: Vec<usize>,
    next: usize,
    /// Closed batch: evacuees, placed ahead of due arrivals. Open system:
    /// the admission queue.
    queue: VecDeque<usize>,
    /// `(due quantum, app)` in push order; the backoff is constant, so
    /// due quanta are nondecreasing.
    backoff: VecDeque<(u64, usize)>,
    /// Apps not yet `Done`, `Shed` or `Failed`.
    remaining: usize,
    quantum: u64,
    migrations: u64,
    quanta_degraded: u64,
    chip_faults: ChipFaultStats,
    trace: Vec<QuantumRow>,
    completed: Vec<ServiceApp>,
    shed: Vec<usize>,
    failed: Vec<usize>,
    queue_depth: Vec<usize>,
    occupancy: Vec<usize>,
}

impl<'a> Scheduler<'a> {
    pub(crate) fn new(
        mode: Mode<'a>,
        apps: &'a [AppProfile],
        arrivals: Vec<u64>,
        policy: &'a mut dyn Policy,
    ) -> Self {
        let cfg = match mode {
            Mode::Batch { cfg, .. } => cfg,
            Mode::Open(svc) => &svc.manager,
        };
        let mut order: Vec<usize> = (0..apps.len()).collect();
        order.sort_by_key(|&k| (arrivals[k], k));
        Scheduler {
            mode,
            cfg,
            apps,
            arrivals,
            policy,
            chip: Chip::new(cfg.chip.clone()),
            session: SanitizingSession::new().with_cycle_bound(cfg.quantum_cycles),
            injector: cfg.faults.as_ref().map(FaultInjector::new),
            faults: cfg
                .chip_faults
                .as_ref()
                .map(|fc| ChipFaultDriver::new(fc, cfg.chip.cores as usize)),
            state: vec![AppState::Pending; apps.len()],
            order,
            next: 0,
            queue: VecDeque::new(),
            backoff: VecDeque::new(),
            remaining: apps.len(),
            quantum: 0,
            migrations: 0,
            quanta_degraded: 0,
            chip_faults: ChipFaultStats::default(),
            trace: Vec::new(),
            completed: Vec::new(),
            shed: Vec::new(),
            failed: Vec::new(),
            queue_depth: Vec::new(),
            occupancy: Vec::new(),
        }
    }

    /// Steps until the run is over and assembles its result.
    pub(crate) fn run(mut self) -> Outcome {
        while self.step() {}
        self.finish()
    }

    /// Runs one quantum. Returns `false`, without running it, once every
    /// app is done or the quanta cap is reached. The closed batch checks
    /// before the boundary's faults and admissions, the open system after
    /// them (so its queue-depth and occupancy series end with the final
    /// boundary).
    pub(crate) fn step(&mut self) -> bool {
        let open = matches!(self.mode, Mode::Open(_));
        if !open && self.over() {
            return false;
        }
        let mut evacuated = 0;
        if let Some(drv) = self.faults.as_mut() {
            let evacuees = drv.apply(&mut self.chip, self.quantum, &mut self.chip_faults);
            evacuated = evacuees.len();
            for app in evacuees {
                self.evict(app);
            }
        }
        self.admit();
        if open {
            self.queue_depth.push(self.queue.len());
            self.occupancy.push(self.chip.placement().len());
            if self.over() {
                return false;
            }
        }
        // An empty chip still advances (an idle gap in the arrivals).
        let boundary = (self.quantum + 1) * self.cfg.quantum_cycles;
        for ev in self.chip.run_until(boundary) {
            if ev.launch == 0 {
                self.complete(ev.app_id, ev.cycle);
            }
        }
        if open && self.faults.is_some() {
            self.app_faults_and_watchdog();
        }
        self.sample_and_decide(evacuated);
        self.quantum += 1;
        true
    }

    fn over(&self) -> bool {
        self.remaining == 0 || self.quantum >= self.cfg.max_quanta
    }

    /// Moves `app` to a terminal state.
    fn end(&mut self, app: usize, state: AppState) {
        self.state[app] = state;
        self.remaining -= 1;
    }

    fn attach(&mut self, app: usize, slot: Slot, now: u64) {
        let program = Box::new(self.apps[app].clone());
        self.chip.attach(slot, app, program);
        let (admitted, retries) = match self.state[app] {
            AppState::Pending => (now, 0),
            AppState::Queued { admitted, retries } => (admitted.unwrap_or(now), retries),
            // A closed-batch evacuee past its first completion.
            AppState::Done { .. } => return,
            s => unreachable!("app {app} admitted while {s:?}"),
        };
        self.state[app] = AppState::Running {
            admitted,
            retries,
            last_retired: 0,
            stalled: 0,
        };
    }

    /// Routes an app whose thread was just detached (evacuated off a
    /// failing core, crashed, or caught by the watchdog); its partial
    /// progress is censored, never credited back. The closed batch
    /// re-places it at the next admission, ahead of new arrivals; the open
    /// system grants a backed-off retry while the budget lasts and reports
    /// it failed after.
    fn evict(&mut self, app: usize) {
        self.session.forget(app);
        match (self.mode, self.state[app]) {
            (Mode::Batch { .. }, s) => {
                if let AppState::Running { admitted, .. } = s {
                    self.state[app] = AppState::Queued {
                        admitted: Some(admitted),
                        retries: 0,
                    };
                }
                self.queue.push_back(app);
            }
            (Mode::Open(_), AppState::Running { retries, .. }) if retries < MAX_RETRIES => {
                self.chip_faults.retries += 1;
                let due = self.quantum + 1 + RETRY_BACKOFF_QUANTA;
                self.backoff.push_back((due, app));
                self.state[app] = AppState::Backoff {
                    retries: retries + 1,
                };
            }
            (Mode::Open(_), _) => {
                self.chip_faults.failed += 1;
                self.failed.push(app);
                self.end(app, AppState::Failed);
            }
        }
    }

    /// Expired retries re-enter the queue, bypassing the capacity check (an
    /// admitted app is never shed). Then the queue and the due arrivals are
    /// admitted onto free slots in strict FIFO order: a blocked head of
    /// line blocks everyone behind it. The queue is drained before each
    /// arrival is offered, so the open system sheds an arrival only against
    /// the true backlog, never against same-boundary transients.
    /// Drop-newest: a full queue refuses the arrival at the door. Capacity
    /// 0 leaves no waiting room, but an arrival that can attach right now
    /// still runs; a full non-empty queue must shed to keep admission FIFO.
    fn admit(&mut self) {
        let now = self.chip.cycle();
        while let Some(&(due, app)) = self.backoff.front() {
            if due > self.quantum {
                break;
            }
            self.backoff.pop_front();
            let AppState::Backoff { retries } = self.state[app] else {
                unreachable!("app {app} in the backlog while {:?}", self.state[app]);
            };
            self.state[app] = AppState::Queued {
                admitted: None,
                retries,
            };
            self.queue.push_back(app);
        }
        loop {
            if let Some(&k) = self.queue.front() {
                if let Some(slot) = first_free_slot(&self.chip) {
                    self.queue.pop_front();
                    self.attach(k, slot, now);
                    continue;
                }
            }
            let Some(&k) = self.order.get(self.next) else {
                break;
            };
            if self.arrivals[k] > now {
                break;
            }
            let free = || first_free_slot(&self.chip);
            match self.mode {
                Mode::Batch { .. } => match free() {
                    Some(slot) => self.attach(k, slot, now),
                    None => break,
                },
                Mode::Open(svc) if self.queue.len() < svc.queue_capacity => {
                    self.state[k] = AppState::Queued {
                        admitted: None,
                        retries: 0,
                    };
                    self.queue.push_back(k);
                }
                Mode::Open(_) => match self.queue.is_empty().then(free).flatten() {
                    Some(slot) => self.attach(k, slot, now),
                    None => {
                        self.shed.push(k);
                        self.end(k, AppState::Shed);
                    }
                },
            }
            self.next += 1;
        }
    }

    /// `app`'s first launch completed at `cycle`. The closed batch records
    /// the turnaround once and lets the chip's relaunch run on. The open
    /// system detaches the app: the partial second launch is discarded, and
    /// the turnaround uses the exact completion cycle, not the boundary.
    fn complete(&mut self, app: usize, cycle: u64) {
        match (self.mode, self.state[app]) {
            (Mode::Batch { .. }, AppState::Done { .. }) => return,
            (Mode::Batch { .. }, _) => {}
            (Mode::Open(_), AppState::Running { admitted, .. }) => {
                let slot = self.chip.slot_of(app).expect("running app has a slot");
                self.chip.detach(slot);
                self.session.forget(app);
                self.completed.push(ServiceApp {
                    app,
                    name: self.apps[app].name().to_string(),
                    target: self.apps[app].length(),
                    arrival: self.arrivals[app],
                    admitted,
                    completed: cycle,
                });
            }
            (Mode::Open(_), s) => unreachable!("app {app} completed while {s:?}"),
        }
        self.end(app, AppState::Done { cycle });
    }

    /// Planned execution faults on the open system's survivors, then the
    /// watchdog. Completion wins a same-quantum tie (it was handled first).
    /// Crashes detach at once; hangs wedge the thread in place, and the
    /// watchdog catches them like any other app that retires nothing for
    /// [`WATCHDOG_QUANTA`] consecutive quanta — from the public PMU alone,
    /// with no knowledge of the fault plan.
    fn app_faults_and_watchdog(&mut self) {
        let (Mode::Open(_), Some(drv)) = (self.mode, self.faults.as_ref()) else {
            return;
        };
        let plan = *drv.plan();
        for (app, slot) in self.chip.placement() {
            let retired = self.chip.pmu_of(app).map_or(0, |p| p.inst_retired);
            let reached = |frac: f64| retired >= (frac * self.apps[app].length() as f64) as u64;
            match plan.app_fault(app) {
                Some(AppFault::Crash { frac }) if reached(frac) => {
                    self.chip.detach(slot);
                    self.chip_faults.apps_crashed += 1;
                    self.evict(app);
                }
                Some(AppFault::Hang { frac }) if reached(frac) && !self.chip.is_hung(app) => {
                    self.chip.hang_app(app);
                    self.chip_faults.apps_hung += 1;
                }
                _ => {}
            }
        }
        for (app, slot) in self.chip.placement() {
            let retired = self.chip.pmu_of(app).map_or(0, |p| p.inst_retired);
            let AppState::Running {
                last_retired,
                stalled,
                ..
            } = &mut self.state[app]
            else {
                unreachable!("placed app {app} is not running");
            };
            if retired == *last_retired {
                *stalled += 1;
            } else {
                *stalled = 0;
                *last_retired = retired;
            }
            if *stalled >= WATCHDOG_QUANTA {
                self.chip.detach(slot);
                self.evict(app);
            }
        }
    }

    /// Samples the placed apps through the fault/sanitize stack, logs the
    /// characterization rows (the Fig. 6/7 and Table V raw material), asks
    /// the policy for a placement and applies it. An empty chip has
    /// nothing to measure or pair, so the policy is not consulted.
    fn sample_and_decide(&mut self, evacuated: usize) {
        let placement = self.chip.placement();
        if placement.is_empty() {
            return;
        }
        let mut ids: Vec<usize> = placement.iter().map(|&(a, _)| a).collect();
        // The closed batch samples in ascending-id order, the open system
        // in slot order; the order shows in the characterization log.
        if matches!(self.mode, Mode::Batch { .. }) {
            ids.sort_unstable();
        }
        let quantum = self.quantum;
        let sanitized = match self.injector.as_mut() {
            Some(inj) => {
                inj.begin_quantum(quantum);
                self.session.sample(&inj.wrap(&self.chip), &ids, quantum)
            }
            None => self.session.sample(&self.chip, &ids, quantum),
        };
        self.quanta_degraded += u64::from(!sanitized.is_clean());
        let smt = self.cfg.chip.core.smt_ways as usize;
        let width = self.cfg.chip.core.dispatch_width;
        let core_of = |app: usize| {
            placement
                .iter()
                .find(|&&(a, _)| a == app)
                .unwrap()
                .1
                .core(smt)
        };
        for &(app, ref delta) in &sanitized.samples {
            let core = core_of(app);
            let co_runner = placement
                .iter()
                .find(|&&(a, s)| a != app && s.core(smt) == core)
                .map_or(app, |&(a, _)| a);
            self.trace.push(QuantumRow {
                quantum,
                app,
                categories: Categories::from_delta(delta, width),
                co_runner,
                retired: delta.inst_retired,
                cycles: delta.cpu_cycles,
            });
        }
        // An empty availability mask is the healthy fast path (policies
        // treat it as all-available); only faulted runs pay for the mask.
        let availability = match self.faults {
            Some(_) => self.chip.availability(),
            None => Vec::new(),
        };
        let view = QuantumView {
            quantum,
            samples: &sanitized.samples,
            placement: &placement,
            smt_ways: smt,
            dispatch_width: width,
            degraded: &sanitized.degraded,
            availability: &availability,
            evacuated,
        };
        if let Some(next) = self.policy.decide(&view) {
            let moved = next
                .iter()
                .filter(|&&(app, slot)| core_of(app) != slot.core(smt));
            self.migrations += moved.count() as u64;
            self.chip.set_placement(&next);
        }
    }

    /// Assembles the result of the mode from the final state.
    fn finish(self) -> Outcome {
        let totals = self.session.totals();
        let guard = self.policy.guardrail_stats().unwrap_or_default();
        let degraded = DegradedStats {
            samples_ok: totals.ok,
            samples_clamped: totals.clamped,
            samples_held: totals.held,
            samples_missing: totals.missing,
            quanta_degraded: self.quanta_degraded,
            injected: self.injector.map(|i| i.injected()).unwrap_or_default(),
            fallback_entries: guard.fallback_entries,
            fallback_quanta: guard.fallback_quanta,
        };
        let (policy, matcher) = (self.policy.name().to_string(), self.policy.matcher_stats());
        let (end_cycle, n) = (self.chip.cycle(), self.apps.len());
        match self.mode {
            // An app the cap cut off mid-flight (or stranded in the
            // evacuee queue) reports its censored elapsed time and its
            // *measured* partial-launch IPC; an app that never reached the
            // chip reports zeroes. Both are flagged `completed: false`.
            Mode::Batch { solo_ipc, .. } => {
                let per_app: Vec<AppResult> = (0..n)
                    .map(|k| {
                        let (app, arrival) = (&self.apps[k], self.arrivals[k]);
                        let (tt_cycles, ipc, completed) = match self.state[k] {
                            AppState::Done { cycle } => {
                                let tt = cycle - arrival;
                                (tt, app.length() as f64 / tt.max(1) as f64, true)
                            }
                            AppState::Running { admitted, .. }
                            | AppState::Queued {
                                admitted: Some(admitted),
                                ..
                            } => {
                                let retired = self.chip.pmu_of(k).map_or(0, |p| p.inst_retired);
                                let on_chip = end_cycle.saturating_sub(admitted).max(1);
                                let ipc = retired as f64 / on_chip as f64;
                                (end_cycle.saturating_sub(arrival), ipc, false)
                            }
                            _ => (0, 0.0, false),
                        };
                        AppResult {
                            app: k,
                            name: app.name().to_string(),
                            target: app.length(),
                            tt_cycles,
                            ipc,
                            solo_ipc: solo_ipc[k],
                            completed,
                        }
                    })
                    .collect();
                Outcome::Batch(RunResult {
                    policy,
                    tt_cycles: per_app.iter().map(|a| a.tt_cycles).max().unwrap_or(0),
                    capped: per_app.iter().any(|a| !a.completed),
                    per_app,
                    trace: self.trace,
                    quanta: self.quantum,
                    migrations: self.migrations,
                    matcher,
                    degraded,
                    chip_faults: self.chip_faults,
                })
            }
            Mode::Open(_) => {
                // Conservation: every arrival reaches exactly one terminal
                // outcome or is identifiably in flight. A release assert —
                // a service that loses track of admitted work must abort
                // rather than publish latency numbers.
                let (done, shed, failed) =
                    (self.completed.len(), self.shed.len(), self.failed.len());
                let waiting = self.queue.len() + self.backoff.len() + (n - self.next);
                let in_flight = waiting + self.chip.placement().len();
                assert_eq!(
                    done + shed + failed + in_flight,
                    n,
                    "service lost track of arrivals: {done} completed + {shed} shed + {failed} \
                     failed + {in_flight} in flight"
                );
                Outcome::Open(ServiceResult {
                    policy,
                    completed: self.completed,
                    shed: self.shed,
                    failed: self.failed,
                    queue_depth: self.queue_depth,
                    occupancy: self.occupancy,
                    trace: self.trace,
                    quanta: self.quantum,
                    end_cycle,
                    migrations: self.migrations,
                    drained: self.remaining == 0,
                    matcher,
                    degraded,
                    chip_faults: self.chip_faults,
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::policy::{LinuxLike, Policy, QuantumView};
    use crate::{run_service, run_workload_with_arrivals, ManagerConfig, ServiceConfig};
    use synpa_apps::spec;
    use synpa_sim::Slot;

    /// Counts `decide` calls, and the ones that saw an empty chip.
    struct Counting {
        calls: u64,
        empty: u64,
    }

    impl Policy for Counting {
        fn name(&self) -> &'static str {
            "counting"
        }

        fn decide(&mut self, view: &QuantumView<'_>) -> Option<Vec<(usize, Slot)>> {
            self.calls += 1;
            self.empty += u64::from(view.placement.is_empty());
            LinuxLike.decide(view)
        }
    }

    /// The policy is never consulted before an app is placed: the first
    /// arrival at 20,000 cycles attaches at the boundary of quantum 2, so
    /// quanta 0 and 1 run an empty chip without a decision.
    #[test]
    fn closed_batch_never_decides_on_an_empty_chip() {
        let apps: Vec<_> = ["mcf", "gobmk", "hmmer", "astar"]
            .iter()
            .map(|n| spec::by_name(n).unwrap().with_length(30_000))
            .collect();
        let cfg = ManagerConfig::default();
        let mut policy = Counting { calls: 0, empty: 0 };
        let r = run_workload_with_arrivals(&apps, &[1.0; 4], &mut policy, &cfg, &[20_000; 4]);
        assert!(!r.capped);
        assert_eq!(policy.empty, 0);
        assert_eq!(policy.calls, r.quanta - 2);
    }

    /// The same holds across the idle gaps of an open-system trace.
    #[test]
    fn open_system_never_decides_on_an_empty_chip() {
        let apps: Vec<_> = ["nab_r", "hmmer"]
            .iter()
            .map(|n| spec::by_name(n).unwrap().with_length(20_000))
            .collect();
        let mut policy = Counting { calls: 0, empty: 0 };
        let r = run_service(&apps, &[0, 200_000], &mut policy, &ServiceConfig::default());
        assert!(r.drained);
        assert_eq!(policy.empty, 0);
        let busy = r.occupancy.iter().filter(|&&o| o > 0).count() as u64;
        assert!(policy.calls <= busy && policy.calls < r.quanta);
    }
}
