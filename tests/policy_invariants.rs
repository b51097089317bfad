//! Property tests over the allocation policies: whatever the counter inputs,
//! a policy's placement decision must be a valid assignment (every app on
//! exactly one slot, every core hosting exactly one pair), and the SYNPA
//! decision must respect the matching's optimality guarantees.

use proptest::prelude::*;
use synpa::model::{Categories, CategoryCoeffs, SynpaModel};
use synpa::prelude::*;
use synpa::sched::{units_to_slots, QuantumView};
use synpa::sim::PmuCounters;

fn test_model() -> SynpaModel {
    SynpaModel {
        full_dispatch: CategoryCoeffs {
            alpha: 0.0,
            beta: 1.0,
            gamma: 0.0,
            rho: 0.0,
        },
        frontend: CategoryCoeffs {
            alpha: 0.05,
            beta: 1.0,
            gamma: 0.0,
            rho: 0.0,
        },
        backend: CategoryCoeffs {
            alpha: 0.2,
            beta: 1.1,
            gamma: 0.0,
            rho: 0.4,
        },
    }
}

fn arb_delta() -> impl Strategy<Value = PmuCounters> {
    (1u64..4000, 0u64..2000, 0u64..2000).prop_map(|(work, fe, be)| {
        let cycles = 4000u64;
        let fe = fe.min(cycles - 1);
        let be = be.min(cycles - 1 - fe);
        PmuCounters {
            cpu_cycles: cycles,
            inst_spec: work * 2,
            stall_frontend: fe,
            stall_backend: be,
            inst_retired: work * 2,
            ..Default::default()
        }
    })
}

fn assert_valid_placement(placement: &[(usize, Slot)], n: usize) {
    let mut apps: Vec<usize> = placement.iter().map(|&(a, _)| a).collect();
    apps.sort_unstable();
    assert_eq!(apps, (0..n).collect::<Vec<_>>(), "every app exactly once");
    let mut slots: Vec<usize> = placement.iter().map(|&(_, s)| s.0).collect();
    slots.sort_unstable();
    assert_eq!(slots, (0..n).collect::<Vec<_>>(), "every slot exactly once");
}

/// Validity for arbitrary (including odd) occupancy: every app placed
/// exactly once, no slot reused, at most two apps per SMT2 core. Odd
/// counts necessarily leave one app alone on a core — that is legal, not
/// an error (the open-system service runs at odd occupancy routinely).
fn assert_valid_partial_placement(placement: &[(usize, Slot)], n: usize, smt: usize) {
    let mut apps: Vec<usize> = placement.iter().map(|&(a, _)| a).collect();
    apps.sort_unstable();
    assert_eq!(apps, (0..n).collect::<Vec<_>>(), "every app exactly once");
    let mut slots: Vec<usize> = placement.iter().map(|&(_, s)| s.0).collect();
    slots.sort_unstable();
    slots.dedup();
    assert_eq!(slots.len(), n, "no slot hosts two apps");
    let mut per_core = std::collections::HashMap::new();
    for &(_, s) in placement {
        *per_core.entry(s.core(smt)).or_insert(0usize) += 1;
    }
    assert!(
        per_core.values().all(|&c| c <= smt),
        "a core can host at most {smt} threads"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn synpa_decisions_are_valid_placements(
        deltas in proptest::collection::vec(arb_delta(), 8),
        seed in 0u64..1000,
    ) {
        let placement: Vec<(usize, Slot)> = (0..8usize).map(|a| (a, Slot(a))).collect();
        let samples: Vec<(usize, PmuCounters)> =
            deltas.into_iter().enumerate().collect();
        let mut policy = Synpa::new(test_model()).without_damping();
        let view = QuantumView {
            quantum: seed % 7,
            samples: &samples,
            placement: &placement,
            smt_ways: 2,
            dispatch_width: 4,
            degraded: &[],
            availability: &[],
            evacuated: 0,
        };
        if let Some(decision) = policy.decide(&view) {
            assert_valid_placement(&decision, 8);
        }
    }

    // Regression (odd-wave restriction): pairing policies used to assume
    // an even thread count end to end. Odd counts must now produce a
    // valid partial placement with exactly one app alone on a core.
    #[test]
    fn policies_handle_odd_counts(
        deltas in proptest::collection::vec(arb_delta(), 7),
        seed in 0u64..1000,
    ) {
        let placement: Vec<(usize, Slot)> = (0..7usize).map(|a| (a, Slot(a))).collect();
        let samples: Vec<(usize, PmuCounters)> =
            deltas.into_iter().enumerate().collect();
        let view = QuantumView {
            quantum: seed % 7,
            samples: &samples,
            placement: &placement,
            smt_ways: 2,
            dispatch_width: 4,
            degraded: &[],
            availability: &[],
            evacuated: 0,
        };
        let mut random = RandomPairing::new(seed);
        let decision = random.decide(&view).unwrap();
        assert_valid_partial_placement(&decision, 7, 2);
        let mut synpa = Synpa::new(test_model()).without_damping();
        if let Some(decision) = synpa.decide(&view) {
            assert_valid_partial_placement(&decision, 7, 2);
            let singles: usize = {
                let mut per_core = std::collections::HashMap::new();
                for &(_, s) in &decision {
                    *per_core.entry(s.core(2)).or_insert(0usize) += 1;
                }
                per_core.values().filter(|&&c| c == 1).count()
            };
            prop_assert_eq!(singles, 1, "7 apps must leave exactly one single");
        }
    }

    #[test]
    fn random_pairing_always_valid(seed in 0u64..10_000) {
        let placement: Vec<(usize, Slot)> = (0..8usize).map(|a| (a, Slot(a))).collect();
        let mut policy = RandomPairing::new(seed);
        let view = QuantumView {
            quantum: 0,
            samples: &[],
            placement: &placement,
            smt_ways: 2,
            dispatch_width: 4,
            degraded: &[],
            availability: &[],
            evacuated: 0,
        };
        let decision = policy.decide(&view).unwrap();
        assert_valid_placement(&decision, 8);
    }

    #[test]
    fn pairs_to_slots_never_splits_pairs(perm in proptest::sample::subsequence((0..8usize).collect::<Vec<_>>(), 8).prop_shuffle()) {
        let placement: Vec<(usize, Slot)> = (0..8usize).map(|a| (a, Slot(a))).collect();
        let pairs: Vec<(usize, usize)> = perm.chunks(2).map(|c| (c[0], c[1])).collect();
        let out = units_to_slots(&pairs, &[], &placement, 2, &[]);
        assert_valid_placement(&out, 8);
        for &(a, b) in &pairs {
            let core = |x: usize| out.iter().find(|&&(ap, _)| ap == x).unwrap().1.core(2);
            prop_assert_eq!(core(a), core(b), "pair ({}, {}) split", a, b);
        }
    }

    #[test]
    fn blossom_choice_beats_current_when_it_migrates(
        deltas in proptest::collection::vec(arb_delta(), 8),
    ) {
        // Whenever SYNPA decides to migrate, its predicted total cost must be
        // strictly better than the current pairing's predicted cost (the
        // hysteresis contract).
        let placement: Vec<(usize, Slot)> = (0..8usize).map(|a| (a, Slot(a))).collect();
        let samples: Vec<(usize, PmuCounters)> = deltas.into_iter().enumerate().collect();
        let model = test_model();
        let mut policy = Synpa::new(model);
        policy.smoothing = 1.0;
        let view = QuantumView {
            quantum: 0,
            samples: &samples,
            placement: &placement,
            smt_ways: 2,
            dispatch_width: 4,
            degraded: &[],
            availability: &[],
            evacuated: 0,
        };
        if let Some(decision) = policy.decide(&view) {
            // Recover ST estimates the same way the policy did and compare
            // predicted pairing costs.
            let st: Vec<Categories> = (0..8)
                .map(|a| *policy.st_estimate(a).expect("estimated"))
                .collect();
            let cost_of = |pl: &[(usize, Slot)]| -> f64 {
                let mut total = 0.0;
                for core in 0..4 {
                    let members: Vec<usize> = pl
                        .iter()
                        .filter(|&&(_, s)| s.core(2) == core)
                        .map(|&(a, _)| a)
                        .collect();
                    total += model.pair_cost(&st[members[0]], &st[members[1]]);
                }
                total
            };
            prop_assert!(cost_of(&decision) < cost_of(&placement));
        }
    }
}

#[test]
fn metrics_are_consistent_on_real_run_results() {
    // A tiny real run: metric relationships hold on genuine data.
    let names = [
        "mcf", "gobmk", "nab_r", "hmmer", "lbm_r", "astar", "bzip2", "tonto",
    ];
    let apps: Vec<AppProfile> = names
        .iter()
        .map(|n| spec::by_name(n).unwrap().with_length(40_000))
        .collect();
    let solo = vec![1.0; 8];
    let result = run_workload(&apps, &solo, &mut LinuxLike, &ManagerConfig::default());
    let speedups: Vec<f64> = result
        .per_app
        .iter()
        .map(|a| a.individual_speedup())
        .collect();
    assert!(synpa::metrics::fairness(&speedups) <= 1.0);
    assert!(synpa::metrics::stp(&speedups) <= 8.0);
    assert!(synpa::metrics::antt(&speedups) >= 1.0 / 1.2);
    let ipcs: Vec<f64> = result.per_app.iter().map(|a| a.ipc).collect();
    assert!(synpa::metrics::workload_ipc(&ipcs) > 0.0);
}
