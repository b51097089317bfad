//! Property tests over the counter-sampling seam: `SamplingSession` under
//! random sample/forget interleavings must always emit the delta since the
//! last observation (full cumulative counts after a forget).

use proptest::prelude::*;
use std::collections::HashMap;
use synpa::counters::{CounterSource, SamplingSession};
use synpa::sim::PmuCounters;

/// A source whose cumulative counters are set directly by the test; all
/// five main events advance together so snapshots are always monotonic
/// and plausible (stalls sum to half the cycles).
#[derive(Default)]
struct Scripted {
    cum: HashMap<usize, u64>,
}

impl Scripted {
    fn advance(&mut self, app: usize, cycles: u64) {
        *self.cum.entry(app).or_insert(0) += cycles;
    }
}

fn counters_at(cum: u64) -> PmuCounters {
    PmuCounters {
        cpu_cycles: cum,
        inst_spec: cum * 2,
        stall_frontend: cum / 4,
        stall_backend: cum / 4,
        inst_retired: cum * 2,
        ..Default::default()
    }
}

impl CounterSource for Scripted {
    fn read_counters(&self, app_id: usize) -> Option<PmuCounters> {
        self.cum.get(&app_id).map(|&c| counters_at(c))
    }
}

/// One step of a random interleaving.
#[derive(Debug, Clone)]
enum Op {
    /// Advance one app's cumulative counters, then sample it.
    Sample { app: usize, advance: u64 },
    /// Forget one app's snapshot (as the manager does on detach).
    Forget { app: usize },
}

/// Sample ops outnumber forgets 4:1 (the manager forgets only on detach).
fn op_strategy() -> impl Strategy<Value = Op> {
    (0usize..5, 0usize..3, 1u64..2_000).prop_map(|(variant, app, advance)| {
        if variant < 4 {
            Op::Sample { app, advance }
        } else {
            Op::Forget { app }
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Whatever the interleaving, every emitted delta equals the source's
    // cumulative progress since the previous observation of that app —
    // and the full cumulative count right after a forget. Deltas summed
    // between forgets therefore never exceed the cumulative total.
    #[test]
    fn sampling_session_deltas_track_cumulative_progress(ops in proptest::collection::vec(op_strategy(), 1..60)) {
        let mut source = Scripted::default();
        let mut session = SamplingSession::new();
        // The model: cumulative value at each app's last observation.
        let mut last_seen: HashMap<usize, u64> = HashMap::new();
        for op in ops {
            match op {
                Op::Sample { app, advance } => {
                    source.advance(app, advance);
                    let cum = source.cum[&app];
                    let out = session.sample(&source, &[app]);
                    prop_assert_eq!(out.len(), 1);
                    let delta = out[0].1;
                    let expect = cum - last_seen.get(&app).copied().unwrap_or(0);
                    prop_assert_eq!(delta.cpu_cycles, expect);
                    prop_assert!(delta.cpu_cycles <= cum, "delta may never exceed cumulative");
                    prop_assert_eq!(delta.inst_spec, counters_at(cum).inst_spec
                        - last_seen.get(&app).map_or(0, |&c| counters_at(c).inst_spec));
                    last_seen.insert(app, cum);
                }
                Op::Forget { app } => {
                    session.forget(app);
                    last_seen.remove(&app);
                }
            }
        }
    }
}
