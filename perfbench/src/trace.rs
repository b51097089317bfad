//! Outside-in tracing: a [`Policy`] wrapper that times every `decide` call
//! and captures its inputs, replays of the model and matching layers on
//! those inputs, and a probe chip for the simulator and counter layers.
//!
//! Nothing here reaches inside the program: every span brackets a call to
//! a public function (`Policy::decide`, `invert`, `predict_slowdown`,
//! `min_cost_pairing`, `Chip::run_until`, `SanitizingSession::sample`).

use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use synpa::model::invert;
use synpa::prelude::*;
use synpa::sched::{first_free_slot, GuardrailStats, MatcherStats, PreparedWorkload, QuantumView};
use synpa::sim::Slot;

/// Categories measured in one quantum: co-running pairs and apps alone on
/// a core (whose SMT categories are their ST categories).
#[derive(Debug, Clone, Default)]
pub struct Captured {
    /// `(a, b)` SMT categories of each co-running pair.
    pub pairs: Vec<(Categories, Categories)>,
    /// Categories of apps running alone.
    pub singles: Vec<Categories>,
}

/// What the wrapper recorded over one policy instance's lifetime.
#[derive(Debug, Default)]
pub struct PolicyLog {
    /// Duration of each `decide` call of the wrapped policy.
    pub decide: Vec<Duration>,
    /// Time between consecutive `decide` entries: one full quantum of
    /// simulate + sample + decide + apply. The first entry has no
    /// predecessor, so the first quantum is dropped.
    pub quantum: Vec<Duration>,
    /// Time the wrapper itself added (timing and capture), i.e. the traced
    /// call time minus the untraced (inner) call time.
    pub overhead: Duration,
    /// The measured inputs of each call, for the layer replays.
    pub captured: Vec<Captured>,
}

/// Shared sink the wrappers publish their logs into when dropped.
pub type LogSink = Arc<Mutex<Vec<PolicyLog>>>;

/// Times and records every `decide` of the wrapped policy, forwarding
/// everything else unchanged, so the run it drives is the untraced run.
pub struct TracedPolicy {
    inner: Box<dyn Policy>,
    last_entry: Option<Instant>,
    log: PolicyLog,
    sink: LogSink,
}

impl TracedPolicy {
    /// Wraps `inner`; its log lands in `sink` when the wrapper is dropped.
    pub fn new(inner: Box<dyn Policy>, sink: LogSink) -> Self {
        TracedPolicy {
            inner,
            last_entry: None,
            log: PolicyLog::default(),
            sink,
        }
    }
}

fn categories(view: &QuantumView<'_>, app: usize) -> Option<Categories> {
    let d = view.delta_of(app)?;
    (d.inst_retired > 0).then(|| Categories::from_delta(d, view.dispatch_width))
}

impl Policy for TracedPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn decide(&mut self, view: &QuantumView<'_>) -> Option<Vec<(usize, Slot)>> {
        let entry = Instant::now();
        if let Some(prev) = self.last_entry {
            self.log.quantum.push(entry - prev);
        }
        self.last_entry = Some(entry);
        let start = Instant::now();
        let decision = self.inner.decide(view);
        let inner = start.elapsed();
        self.log.decide.push(inner);
        let mut captured = Captured::default();
        for (a, b) in view.pairs() {
            if let (Some(ca), Some(cb)) = (categories(view, a), categories(view, b)) {
                captured.pairs.push((ca, cb));
            }
        }
        captured.singles.extend(
            view.singles()
                .into_iter()
                .filter_map(|s| categories(view, s)),
        );
        self.log.captured.push(captured);
        self.log.overhead += entry.elapsed().saturating_sub(inner);
        decision
    }

    fn matcher_stats(&self) -> Option<MatcherStats> {
        self.inner.matcher_stats()
    }

    fn guardrail_stats(&self) -> Option<GuardrailStats> {
        self.inner.guardrail_stats()
    }
}

impl Drop for TracedPolicy {
    fn drop(&mut self) {
        // A poisoned sink means another run already panicked; that panic
        // is the one to report, so this log is dropped silently.
        if let Ok(mut logs) = self.sink.lock() {
            logs.push(std::mem::take(&mut self.log));
        }
    }
}

/// Per-call timings of the model and matching replays.
#[derive(Debug, Default)]
pub struct Replay {
    /// `invert` calls, one per captured pair.
    pub invert_calls: u64,
    /// Total time of those `invert` calls.
    pub invert_time: Duration,
    /// `predict_slowdown` calls over all ordered pairs of each quantum's
    /// estimates.
    pub predict_calls: u64,
    /// Total time of those calls.
    pub predict_time: Duration,
    /// Duration of each `min_cost_pairing` on a replayed cost matrix.
    pub solves: Vec<Duration>,
}

/// Most cost matrices one workload's replay solves (evenly spaced over the
/// captured quanta), which bounds the replay's time on long runs.
const MAX_REPLAYED_SOLVES: usize = 1_000;

/// Replays the model and matching layers on the captured inputs: `invert`
/// each captured pair, `predict_slowdown` over all ordered pairs of the
/// resulting estimates (plus the singles' measured categories), and
/// `min_cost_pairing` on that cost matrix (padded with a zero-cost virtual
/// node when odd, as the policy does). SYNPA's own matrices come from
/// smoothed estimates and a cost cache, so these timings approximate the
/// split of `decide`; they do not partition it.
pub fn replay(model: &SynpaModel, logs: &[PolicyLog], replay: &mut Replay) {
    let quanta: Vec<&Captured> = logs.iter().flat_map(|l| &l.captured).collect();
    // All inversions in one timed loop over preallocated buffers: many
    // quanta hold one pair or none, so timing per quantum (or allocating
    // per quantum) would mostly measure the clock and the allocator.
    let pairs: Vec<&(Categories, Categories)> = quanta.iter().flat_map(|c| &c.pairs).collect();
    let mut inverted: Vec<(Categories, Categories)> = Vec::with_capacity(pairs.len());
    let start = Instant::now();
    for (a, b) in &pairs {
        inverted.push(black_box(invert(model, black_box(a), black_box(b))));
    }
    replay.invert_time += start.elapsed();
    replay.invert_calls += pairs.len() as u64;
    let mut inverted = inverted.into_iter();
    let estimates: Vec<Vec<Categories>> = quanta
        .iter()
        .map(|captured| {
            let mut st: Vec<Categories> = inverted
                .by_ref()
                .take(captured.pairs.len())
                .flat_map(|(a, b)| [a, b])
                .collect();
            st.extend_from_slice(&captured.singles);
            st
        })
        .filter(|st| st.len() >= 2)
        .collect();
    // All cost matrices in one timed loop too, into one reused matrix.
    let mut costs = Vec::new();
    let start = Instant::now();
    for st in &estimates {
        cost_matrix(model, st, &mut costs);
        black_box(&costs);
    }
    replay.predict_time += start.elapsed();
    replay.predict_calls += estimates
        .iter()
        .map(|st| (st.len() * (st.len() - 1)) as u64)
        .sum::<u64>();
    let stride = estimates.len().div_ceil(MAX_REPLAYED_SOLVES).max(1);
    for st in estimates.iter().step_by(stride) {
        cost_matrix(model, st, &mut costs);
        let start = Instant::now();
        black_box(min_cost_pairing(black_box(&costs)));
        replay.solves.push(start.elapsed());
    }
}

/// Fills `costs` with the predicted slowdown of every ordered pair of
/// `st`, padded to even size with a zero-cost virtual node.
fn cost_matrix(model: &SynpaModel, st: &[Categories], costs: &mut Vec<Vec<f64>>) {
    let n = st.len();
    let size = n + n % 2;
    costs.resize_with(size, Vec::new);
    costs.truncate(size);
    for (i, row) in costs.iter_mut().enumerate() {
        row.clear();
        row.resize(size, 0.0);
        for j in 0..n {
            if i < n && i != j {
                row[j] = model.predict_slowdown(black_box(&st[i]), black_box(&st[j]));
            }
        }
    }
}

/// What the probe chip measured.
#[derive(Debug, Default)]
pub struct Probe {
    /// Duration of each one-quantum `run_until`.
    pub quantum: Vec<Duration>,
    /// Duration of each `SanitizingSession::sample` over the placed apps.
    pub sample: Vec<Duration>,
    /// Chip cycles simulated.
    pub cycles: u64,
    /// Core-cycles stepped exactly / advanced in closed form.
    pub stepped: u64,
    /// See `stepped`.
    pub elided: u64,
}

/// Quanta the probe chip runs per workload.
pub const PROBE_QUANTA: u64 = 20;

/// Runs [`PROBE_QUANTA`] quanta of a chip holding the workload's
/// prepared apps at arrival-order placement (first free slot, in arrival
/// order, up to the chip's capacity), timing each `run_until` and each
/// sanitized sample. Fails if the engine's stepped + elided core-cycles do
/// not cover exactly cores × cycles simulated.
pub fn probe(
    prepared: &PreparedWorkload,
    cfg: &ExperimentConfig,
    probe: &mut Probe,
) -> Result<(), String> {
    let chip_cfg = cfg.manager.chip.clone().with_seed(cfg.base_seed);
    let cores = chip_cfg.cores as u64;
    let mut chip = Chip::new(chip_cfg);
    for (k, app) in prepared.apps.iter().enumerate() {
        let Some(slot) = first_free_slot(&chip) else {
            break;
        };
        chip.attach(slot, k, Box::new(app.clone()));
    }
    let mut ids: Vec<usize> = chip.placement().iter().map(|&(a, _)| a).collect();
    ids.sort_unstable();
    let quantum = cfg.manager.quantum_cycles;
    let mut session = SanitizingSession::new().with_cycle_bound(quantum);
    for q in 0..PROBE_QUANTA {
        let start = Instant::now();
        black_box(chip.run_until((q + 1) * quantum));
        probe.quantum.push(start.elapsed());
        let start = Instant::now();
        black_box(session.sample(&chip, &ids, q));
        probe.sample.push(start.elapsed());
    }
    let stats = chip.engine_stats();
    if stats.stepped + stats.elided != cores * chip.cycle() {
        return Err(format!(
            "probe chip of {}: stepped {} + elided {} != {} cores x {} cycles",
            prepared.workload.name,
            stats.stepped,
            stats.elided,
            cores,
            chip.cycle()
        ));
    }
    probe.cycles += chip.cycle();
    probe.stepped += stats.stepped;
    probe.elided += stats.elided;
    Ok(())
}
