//! Property tests over the open-system scheduler service: random seeded
//! arrival traces must yield deterministic metrics across both engines,
//! the admission queue must drain with the trace, and no
//! completed app may report a turnaround below its solo lower bound.

use proptest::prelude::*;
use synpa::apps::workload::{poisson_trace, ArrivalTrace, WorkloadKind};
use synpa::prelude::*;
use synpa::sched::run_service;
use synpa::sched::ServiceConfig;
use synpa::sim::EngineKind;

const LAUNCH: u64 = 20_000;

fn trace_profiles(trace: &ArrivalTrace) -> Vec<AppProfile> {
    trace
        .apps
        .iter()
        .map(|n| spec::by_name(n).unwrap().with_length(LAUNCH))
        .collect()
}

fn service_cfg(engine: EngineKind, queue_capacity: usize) -> ServiceConfig {
    ServiceConfig {
        manager: ManagerConfig {
            chip: ChipConfig::thunderx2(2).with_engine(engine),
            quantum_cycles: 10_000,
            max_quanta: 3_000,
            faults: None,
            chip_faults: None,
        },
        queue_capacity,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // Same trace, same policy seed ⇒ byte-identical `ServiceResult` on
    // both engines (`Debug` prints every field, so equal strings mean
    // bit-identical metrics).
    #[test]
    fn service_metrics_are_engine_and_worker_independent(
        seed in 0u64..500,
        policy_seed in 0u64..100,
        mean_gap in 2_000.0f64..30_000.0,
    ) {
        let trace = poisson_trace("prop", WorkloadKind::Mixed, 12, mean_gap, seed);
        let apps = trace_profiles(&trace);
        let run = |engine| {
            let mut policy = RandomPairing::new(policy_seed);
            let cfg = service_cfg(engine, 6);
            format!("{:?}", run_service(&apps, &trace.arrivals, &mut policy, &cfg))
        };
        prop_assert_eq!(run(EngineKind::PerCore), run(EngineKind::Reference));
    }

    // After the trace drains: queue depth 0, chip empty, and every
    // arrival is accounted for — completed + shed = trace length, with
    // no app in both sets and none missing.
    #[test]
    fn queue_drains_and_every_arrival_is_accounted_for(
        seed in 0u64..500,
        mean_gap in 1_000.0f64..25_000.0,
        queue_capacity in 1usize..8,
    ) {
        let trace = poisson_trace("prop", WorkloadKind::Mixed, 14, mean_gap, seed);
        let apps = trace_profiles(&trace);
        let mut policy = LinuxLike;
        let cfg = service_cfg(EngineKind::PerCore, queue_capacity);
        let r = run_service(&apps, &trace.arrivals, &mut policy, &cfg);
        prop_assert!(r.drained, "short traces must drain under the cap");
        prop_assert_eq!(*r.queue_depth.last().unwrap(), 0);
        prop_assert_eq!(*r.occupancy.last().unwrap(), 0);
        prop_assert!(r.failed.is_empty(), "no execution faults, no failures");
        prop_assert_eq!(r.completed.len() + r.shed.len(), trace.len());
        let mut seen: Vec<usize> = r
            .completed
            .iter()
            .map(|a| a.app)
            .chain(r.shed.iter().copied())
            .collect();
        seen.sort_unstable();
        prop_assert_eq!(seen, (0..trace.len()).collect::<Vec<_>>());
    }

    // Satellite contract: with queue capacity 0 there is no queueing at
    // all — every arrival either attaches immediately to a free slot or is
    // shed at the door — and the conservation invariant still partitions
    // the trace exactly.
    #[test]
    fn zero_capacity_queue_sheds_every_non_attachable_arrival(
        seed in 0u64..500,
        policy_seed in 0u64..100,
        mean_gap in 1_000.0f64..25_000.0,
    ) {
        let trace = poisson_trace("prop", WorkloadKind::Mixed, 14, mean_gap, seed);
        let apps = trace_profiles(&trace);
        let mut policy = RandomPairing::new(policy_seed);
        let cfg = service_cfg(EngineKind::PerCore, 0);
        let r = run_service(&apps, &trace.arrivals, &mut policy, &cfg);
        prop_assert!(r.drained, "short traces must drain under the cap");
        prop_assert!(r.queue_depth.iter().all(|&d| d == 0), "capacity 0 never queues");
        prop_assert!(r.failed.is_empty());
        prop_assert_eq!(
            r.completed.len() + r.shed.len(),
            trace.len(),
            "conservation under zero capacity"
        );
        // Everyone who completed was admitted at the first boundary after
        // arriving: with no waiting room an app never queues across one.
        let quantum_cycles = cfg.manager.quantum_cycles;
        for a in &r.completed {
            prop_assert!(
                a.queue_wait() < quantum_cycles,
                "app {} waited {} cycles with no queue",
                a.app,
                a.queue_wait()
            );
        }
    }

    // Latency sanity on every completed app: turnaround = queue wait +
    // sojourn, admission never precedes arrival, and the sojourn can
    // never beat the solo lower bound (`length / dispatch_width` cycles —
    // the chip cannot retire faster than its dispatch width even with
    // zero interference).
    #[test]
    fn turnaround_respects_the_solo_lower_bound(
        seed in 0u64..500,
        policy_seed in 0u64..100,
        mean_gap in 1_000.0f64..25_000.0,
    ) {
        let trace = poisson_trace("prop", WorkloadKind::Mixed, 14, mean_gap, seed);
        let apps = trace_profiles(&trace);
        let mut policy = RandomPairing::new(policy_seed);
        let cfg = service_cfg(EngineKind::PerCore, 6);
        let r = run_service(&apps, &trace.arrivals, &mut policy, &cfg);
        let width = u64::from(cfg.manager.chip.core.dispatch_width);
        for a in &r.completed {
            prop_assert!(a.admitted >= a.arrival);
            prop_assert!(a.completed > a.admitted);
            prop_assert_eq!(a.turnaround(), a.queue_wait() + a.sojourn());
            prop_assert!(
                a.sojourn() >= (a.target / width).max(1),
                "{} retired {} insts in {} cycles (dispatch width {})",
                a.name, a.target, a.sojourn(), width
            );
            prop_assert!(a.turnaround() >= a.sojourn());
        }
    }
}
