//! Sample sanitization: classify, clamp, hold over, and account.
//!
//! Real counter reads fail in the ways `faults` models (drops, freezes,
//! rollbacks, spikes, zeroes, stale repeats). [`SanitizingSession`] wraps
//! [`SamplingSession`] and classifies every per-quantum sample before the
//! policy sees it:
//!
//! * **Ok** — monotonic, plausible; emitted and remembered as last-good.
//! * **Clamped** — the snapshot went backwards; the delta saturates at
//!   zero per field (see `PmuCounters::delta_since`), is emitted so
//!   downstream accounting keeps a row, but is flagged degraded and never
//!   becomes last-good.
//! * **Held** — the read failed or was implausible (zero-cycle quantum,
//!   `stall_frontend + stall_backend > cpu_cycles`, or a delta exceeding
//!   the per-quantum cycle bound); the last-good delta is replayed if it
//!   is fresh within the holdover TTL.
//! * **Missing** — the read failed and no fresh last-good exists; no row
//!   is emitted at all.
//!
//! Everything non-Ok lands in the quantum's `degraded` list and in the
//! per-app [`SampleHealth`] ledger, which is how the policy guardrails and
//! `DegradedStats` know what happened. The ladder is pure per-app state
//! machine — no randomness, no clocks — so a fixed fault schedule yields a
//! byte-identical classification sequence on every engine/thread/matcher
//! combination (`docs/robustness.md`).

use crate::{CounterSource, SamplingSession};
use std::collections::HashMap;
use synpa_sim::PmuDelta;

/// How long (in quanta) a last-good delta may be replayed for an app whose
/// reads keep failing, before the app goes [`SampleStatus::Missing`].
const HOLDOVER_TTL: u64 = 3;

/// Classification of one per-app, per-quantum sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SampleStatus {
    /// Monotonic and plausible; safe for prediction.
    Ok,
    /// Non-monotonic snapshot; delta saturated at zero per field. Emitted
    /// but degraded.
    Clamped,
    /// Read failed or implausible; the last-good delta was replayed.
    Held,
    /// Read failed or implausible and no fresh last-good exists; no row
    /// emitted.
    Missing,
}

impl SampleStatus {
    /// Everything except [`SampleStatus::Ok`] is degraded.
    pub fn is_degraded(self) -> bool {
        self != SampleStatus::Ok
    }
}

/// Per-app running tally of sample classifications.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SampleHealth {
    /// Samples classified [`SampleStatus::Ok`].
    pub ok: u64,
    /// Samples classified [`SampleStatus::Clamped`].
    pub clamped: u64,
    /// Samples classified [`SampleStatus::Held`].
    pub held: u64,
    /// Samples classified [`SampleStatus::Missing`].
    pub missing: u64,
}

impl SampleHealth {
    /// All samples ever classified for this app.
    pub fn total(&self) -> u64 {
        self.ok + self.clamped + self.held + self.missing
    }

    /// Samples that were anything but Ok.
    pub fn degraded(&self) -> u64 {
        self.clamped + self.held + self.missing
    }

    fn count(&mut self, status: SampleStatus) {
        match status {
            SampleStatus::Ok => self.ok += 1,
            SampleStatus::Clamped => self.clamped += 1,
            SampleStatus::Held => self.held += 1,
            SampleStatus::Missing => self.missing += 1,
        }
    }

    fn add(&mut self, other: &SampleHealth) {
        self.ok += other.ok;
        self.clamped += other.clamped;
        self.held += other.held;
        self.missing += other.missing;
    }
}

/// One sanitized quantum: the rows the policy may consume, plus the
/// classification of every requested app.
#[derive(Debug, Clone, Default)]
pub struct SanitizedQuantum {
    /// `(app_id, delta)` rows, in request order. Missing apps have no row.
    pub samples: Vec<(usize, PmuDelta)>,
    /// `(app_id, status)` for every requested app, in request order.
    pub statuses: Vec<(usize, SampleStatus)>,
    /// Apps whose sample was anything but Ok this quantum, in request
    /// order (a subset of `statuses`).
    pub degraded: Vec<usize>,
}

impl SanitizedQuantum {
    /// True when every requested app sampled Ok.
    pub fn is_clean(&self) -> bool {
        self.degraded.is_empty()
    }
}

/// A [`SamplingSession`] with a sanitization ladder in front of the
/// consumer. See the module docs for the classification rules.
#[derive(Debug)]
pub struct SanitizingSession {
    session: SamplingSession,
    /// Last Ok delta per app and the quantum it was measured at.
    last_good: HashMap<usize, (PmuDelta, u64)>,
    /// Last quantum each app's cumulative snapshot was rebased at (any
    /// successful read, regardless of classification).
    last_observed: HashMap<usize, u64>,
    health: HashMap<usize, SampleHealth>,
    /// Upper bound on plausible cycles per quantum, when known. A delta
    /// spanning `g` quanta may carry at most `(g + 1) *
    /// max_cycles_per_quantum` cycles — the +1 quantum of slack lets a
    /// single freeze/stale fault recover in one quantum instead of
    /// cascading (docs/robustness.md walks through each fault's recovery).
    max_cycles_per_quantum: Option<u64>,
}

impl Default for SanitizingSession {
    fn default() -> Self {
        Self::new()
    }
}

impl SanitizingSession {
    /// Creates an empty session with no cycle-plausibility bound.
    pub fn new() -> Self {
        Self {
            session: SamplingSession::new(),
            last_good: HashMap::new(),
            last_observed: HashMap::new(),
            health: HashMap::new(),
            max_cycles_per_quantum: None,
        }
    }

    /// Enables the cycle-plausibility check: a healthy app sampled every
    /// quantum can accumulate at most `cycles` per quantum.
    pub fn with_cycle_bound(mut self, cycles: u64) -> Self {
        self.max_cycles_per_quantum = Some(cycles);
        self
    }

    /// Samples and sanitizes the given apps at quantum ordinal `quantum`.
    pub fn sample<S: CounterSource + ?Sized>(
        &mut self,
        source: &S,
        app_ids: &[usize],
        quantum: u64,
    ) -> SanitizedQuantum {
        let mut out = SanitizedQuantum::default();
        for &id in app_ids {
            let status = match source.read_counters(id) {
                None => self.hold_or_miss(id, quantum, &mut out),
                Some(now) => {
                    let monotonic = self
                        .session
                        .last_of(id)
                        .map_or(true, |prev| now.is_monotonic_since(&prev));
                    let gap = quantum
                        .saturating_sub(self.last_observed.get(&id).copied().unwrap_or(quantum))
                        .max(1);
                    let delta = self.session.observe(id, now);
                    self.last_observed.insert(id, quantum);
                    if !monotonic {
                        out.samples.push((id, delta));
                        SampleStatus::Clamped
                    } else if self.is_implausible(&delta, gap) {
                        self.hold_or_miss(id, quantum, &mut out)
                    } else {
                        self.last_good.insert(id, (delta, quantum));
                        out.samples.push((id, delta));
                        SampleStatus::Ok
                    }
                }
            };
            out.statuses.push((id, status));
            if status.is_degraded() {
                out.degraded.push(id);
            }
            self.health.entry(id).or_default().count(status);
        }
        out
    }

    fn is_implausible(&self, delta: &PmuDelta, gap: u64) -> bool {
        if delta.cpu_cycles == 0 {
            return true;
        }
        if delta.stall_frontend.saturating_add(delta.stall_backend) > delta.cpu_cycles {
            return true;
        }
        if let Some(bound) = self.max_cycles_per_quantum {
            if delta.cpu_cycles > gap.saturating_add(1).saturating_mul(bound) {
                return true;
            }
        }
        false
    }

    fn hold_or_miss(
        &mut self,
        id: usize,
        quantum: u64,
        out: &mut SanitizedQuantum,
    ) -> SampleStatus {
        match self.last_good.get(&id) {
            Some(&(delta, at)) if quantum.saturating_sub(at) <= HOLDOVER_TTL => {
                out.samples.push((id, delta));
                SampleStatus::Held
            }
            _ => SampleStatus::Missing,
        }
    }

    /// Forgets an app (e.g. it terminated). Its health tally is kept; its
    /// snapshots and last-good state are dropped.
    pub fn forget(&mut self, app_id: usize) {
        self.session.forget(app_id);
        self.last_good.remove(&app_id);
        self.last_observed.remove(&app_id);
    }

    /// The health ledger of one app (zeroes if never sampled).
    pub fn health_of(&self, app_id: usize) -> SampleHealth {
        self.health.get(&app_id).copied().unwrap_or_default()
    }

    /// Classification totals across every app ever sampled.
    pub fn totals(&self) -> SampleHealth {
        let mut t = SampleHealth::default();
        for h in self.health.values() {
            t.add(h);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use synpa_sim::PmuCounters;

    /// A scripted source: each call returns the next queued reading.
    struct Scripted {
        reads: RefCell<std::collections::VecDeque<Option<PmuCounters>>>,
    }

    impl Scripted {
        fn new(reads: Vec<Option<PmuCounters>>) -> Self {
            Self {
                reads: RefCell::new(reads.into()),
            }
        }
    }

    impl CounterSource for Scripted {
        fn read_counters(&self, _app_id: usize) -> Option<PmuCounters> {
            self.reads.borrow_mut().pop_front().flatten()
        }
    }

    fn cum(cycles: u64, fe: u64, be: u64) -> PmuCounters {
        PmuCounters {
            cpu_cycles: cycles,
            inst_spec: cycles * 2,
            stall_frontend: fe,
            stall_backend: be,
            inst_retired: cycles,
            ..Default::default()
        }
    }

    #[test]
    fn healthy_reads_are_ok() {
        let src = Scripted::new(vec![Some(cum(1000, 100, 200)), Some(cum(2000, 180, 420))]);
        let mut s = SanitizingSession::new().with_cycle_bound(1000);
        let q0 = s.sample(&src, &[7], 0);
        assert_eq!(q0.statuses, vec![(7, SampleStatus::Ok)]);
        assert_eq!(q0.samples[0].1.cpu_cycles, 1000);
        let q1 = s.sample(&src, &[7], 1);
        assert!(q1.is_clean());
        assert_eq!(q1.samples[0].1.cpu_cycles, 1000, "delta, not cumulative");
        assert_eq!(
            s.health_of(7),
            SampleHealth {
                ok: 2,
                ..Default::default()
            }
        );
    }

    #[test]
    fn rollback_is_clamped_then_recovers() {
        // 1000 → 400 (rollback) → 1400 (truth resumes above the rolled-back
        // snapshot; delta 1000 from the rebased 400).
        let src = Scripted::new(vec![
            Some(cum(1000, 100, 200)),
            Some(cum(400, 40, 80)),
            Some(cum(1400, 140, 280)),
        ]);
        let mut s = SanitizingSession::new().with_cycle_bound(1000);
        assert_eq!(s.sample(&src, &[1], 0).statuses[0].1, SampleStatus::Ok);
        let q1 = s.sample(&src, &[1], 1);
        assert_eq!(q1.statuses[0].1, SampleStatus::Clamped);
        assert_eq!(q1.samples[0].1.cpu_cycles, 0, "saturated delta");
        assert_eq!(q1.degraded, vec![1]);
        let q2 = s.sample(&src, &[1], 2);
        assert_eq!(q2.statuses[0].1, SampleStatus::Ok, "rebased and recovered");
        assert_eq!(q2.samples[0].1.cpu_cycles, 1000);
    }

    #[test]
    fn failed_read_holds_last_good_within_ttl_then_misses() {
        let mut reads = vec![Some(cum(1000, 100, 200))];
        reads.extend(std::iter::repeat_n(None, 5));
        let src = Scripted::new(reads);
        let mut s = SanitizingSession::new();
        assert_eq!(s.sample(&src, &[2], 0).statuses[0].1, SampleStatus::Ok);
        for q in 1..=3 {
            let out = s.sample(&src, &[2], q);
            assert_eq!(out.statuses[0].1, SampleStatus::Held, "quantum {q}");
            assert_eq!(out.samples[0].1.cpu_cycles, 1000, "last-good replayed");
        }
        for q in 4..=5 {
            let out = s.sample(&src, &[2], q);
            assert_eq!(out.statuses[0].1, SampleStatus::Missing, "TTL expired");
            assert!(out.samples.is_empty(), "no row for a missing app");
        }
        assert_eq!(
            s.health_of(2),
            SampleHealth {
                ok: 1,
                held: 3,
                missing: 2,
                ..Default::default()
            }
        );
    }

    #[test]
    fn first_read_failure_is_missing() {
        let src = Scripted::new(vec![None]);
        let mut s = SanitizingSession::new();
        let out = s.sample(&src, &[9], 0);
        assert_eq!(out.statuses, vec![(9, SampleStatus::Missing)]);
        assert!(out.samples.is_empty());
    }

    #[test]
    fn zero_cycle_and_stall_overflow_are_implausible() {
        // Frozen counters: same cumulative twice → zero-cycle delta → Held.
        let src = Scripted::new(vec![Some(cum(1000, 100, 200)), Some(cum(1000, 100, 200))]);
        let mut s = SanitizingSession::new();
        s.sample(&src, &[3], 0);
        assert_eq!(s.sample(&src, &[3], 1).statuses[0].1, SampleStatus::Held);

        // Stall sum exceeding cycles → Held (no last good → Missing here).
        let src = Scripted::new(vec![Some(cum(1000, 700, 600))]);
        let mut s = SanitizingSession::new();
        assert_eq!(s.sample(&src, &[4], 0).statuses[0].1, SampleStatus::Missing);
    }

    #[test]
    fn spike_exceeding_cycle_bound_is_held() {
        let src = Scripted::new(vec![
            Some(cum(1000, 100, 200)),
            Some(cum(1_000_000_000, 200, 400)),
        ]);
        let mut s = SanitizingSession::new().with_cycle_bound(1000);
        assert_eq!(s.sample(&src, &[5], 0).statuses[0].1, SampleStatus::Ok);
        let out = s.sample(&src, &[5], 1);
        assert_eq!(out.statuses[0].1, SampleStatus::Held);
        assert_eq!(out.samples[0].1.cpu_cycles, 1000, "held the good delta");
    }

    #[test]
    fn missing_gap_widens_the_cycle_bound() {
        // A drop at q1 means q2's true delta spans two quanta; the gap-aware
        // bound must accept it.
        let src = Scripted::new(vec![
            Some(cum(1000, 100, 200)),
            None,
            Some(cum(3000, 300, 600)),
        ]);
        let mut s = SanitizingSession::new().with_cycle_bound(1000);
        assert_eq!(s.sample(&src, &[6], 0).statuses[0].1, SampleStatus::Ok);
        assert_eq!(s.sample(&src, &[6], 1).statuses[0].1, SampleStatus::Held);
        let out = s.sample(&src, &[6], 2);
        assert_eq!(out.statuses[0].1, SampleStatus::Ok);
        assert_eq!(out.samples[0].1.cpu_cycles, 2000, "two quanta of cycles");
    }

    #[test]
    fn forget_drops_state_but_keeps_health() {
        let src = Scripted::new(vec![Some(cum(1000, 100, 200)), Some(cum(500, 50, 100))]);
        let mut s = SanitizingSession::new();
        s.sample(&src, &[8], 0);
        s.forget(8);
        // After forget the 500 reading is a fresh cumulative, not a rollback.
        let out = s.sample(&src, &[8], 1);
        assert_eq!(out.statuses[0].1, SampleStatus::Ok);
        assert_eq!(out.samples[0].1.cpu_cycles, 500);
        assert_eq!(s.health_of(8).ok, 2, "ledger survives forget");
    }

    #[test]
    fn totals_sum_across_apps() {
        let src = Scripted::new(vec![Some(cum(1000, 100, 200)), None]);
        let mut s = SanitizingSession::new();
        s.sample(&src, &[1, 2], 0);
        let t = s.totals();
        assert_eq!(t.ok, 1);
        assert_eq!(t.missing, 1);
        assert_eq!(t.total(), 2);
        assert_eq!(t.degraded(), 1);
    }
}
