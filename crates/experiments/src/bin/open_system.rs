//! Open-system load sweep: streaming arrivals through the scheduler
//! service (`sched::service`), latency percentiles vs. offered load.
//!
//! The closed-batch binaries measure the paper's §V-B methodology: a fixed
//! mix, everyone arrives at once, run to collective completion. This one
//! measures the *service* regime the ROADMAP targets: seeded Poisson and
//! bursty arrival traces feed a bounded admission queue; apps run one
//! launch, detach, and leave; the table reports p50/p95/p99 turnaround and
//! sojourn per offered load, plus queue depth and shed counts under
//! overload. See `docs/service.md` for the rules and metric definitions.
//!
//! ```text
//! cargo run --release -p synpa-experiments --bin open_system
//! cargo run --release -p synpa-experiments --bin open_system -- --smoke
//! cargo run --release -p synpa-experiments --bin open_system -- --arrivals 400
//! ```
//!
//! Offered load `rho` is arrival work over chip capacity, with capacity
//! counted at SMT efficiency 1/2 (a pair of co-runners retires roughly
//! one solo-equivalent per core): with mean inter-arrival gap `g`, solo
//! launch time `W` and `S` hardware threads, `rho = 2W / (g * S)`. The
//! sweep runs rho ∈ {0.4, 0.8, 1.5} — under-loaded, near-saturated, and
//! overloaded (the shedding row) — plus a bursty/diurnal storm trace at
//! nominal rho 0.8 whose storms locally exceed saturation.
//!
//! Everything is deterministic: traces are seeded, the service loop is
//! event-driven, and the engines are byte-equivalent, so this table is
//! byte-identical across `--engine` choices and `SYNPA_THREADS` values
//! (CI diffs it on every PR, mirroring the `full_chip` byte-diff).

use std::time::Instant;
use synpa::apps::workload::WorkloadKind;
use synpa::metrics::percentile;
use synpa::prelude::*;
use synpa_experiments::{canned_model, threads, trained_model};

fn usage(reason: &str) -> ! {
    eprintln!("error: {reason}");
    eprintln!(
        "usage: open_system [--smoke] [--arrivals N] [--queue-capacity N] \
         [--engine reference|percore] [--faults seed:rate[:kind]] \
         [--chip-faults seed:rate]"
    );
    std::process::exit(2)
}

/// Table rendering of a percentile: the observation itself, or `-` when
/// the sample is empty (a heavily faulted row can censor or fail every
/// arrival — that must read as "no data", not a zero-cycle latency).
/// Right-aligned strings pad exactly like the integers they replace, so
/// healthy tables stay byte-identical.
fn pct(sample: &[u64], p: f64) -> String {
    percentile(sample, p).map_or_else(|| "-".into(), |v| v.to_string())
}

struct TraceRow {
    trace: ArrivalTrace,
    /// Nominal offered load (arrival work over chip capacity).
    rho: f64,
    label: &'static str,
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut n_arrivals: Option<usize> = None;
    let mut engine: Option<EngineKind> = None;
    let mut faults: Option<FaultConfig> = None;
    let mut chip_faults: Option<ChipFaultConfig> = None;
    let mut queue_capacity: Option<usize> = None;
    let mut it = raw.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--engine" => {
                let name = it.next().unwrap_or_else(|| usage("--engine needs a value"));
                engine = Some(EngineKind::parse(name).unwrap_or_else(|e| usage(&e)));
            }
            // Seeded counter-fault injection on the service path; same
            // byte-replayable contract as `full_chip --faults`.
            "--faults" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| usage("--faults needs seed:rate"));
                faults = Some(FaultConfig::parse(v).unwrap_or_else(|e| usage(&e)));
            }
            // Seeded execution-fault injection: offline/transient/throttled
            // cores plus crashing and hung apps, driven by a pure plan so
            // the faulted table is byte-replayable from the seed (CI
            // byte-diffs a fixed seed:rate across engines and thread
            // counts, and checks seed:0 is the healthy table).
            "--chip-faults" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| usage("--chip-faults needs seed:rate"));
                chip_faults = Some(ChipFaultConfig::parse(v).unwrap_or_else(|e| usage(&e)));
            }
            "--arrivals" => {
                n_arrivals = Some(
                    it.next()
                        .and_then(|v| v.parse::<usize>().ok())
                        .filter(|&n| n >= 1)
                        .unwrap_or_else(|| usage("--arrivals needs a positive count")),
                )
            }
            // Overrides the documented default bound (one slot per hardware
            // thread). 0 is legal and means no queueing at all: arrivals
            // that cannot attach at the next boundary are shed.
            "--queue-capacity" => {
                queue_capacity = Some(
                    it.next()
                        .and_then(|v| v.parse::<usize>().ok())
                        .unwrap_or_else(|| usage("--queue-capacity needs a non-negative count")),
                )
            }
            other => usage(&format!("unknown argument '{other}'")),
        }
    }
    let engine = engine.unwrap_or(ChipConfig::thunderx2(4).engine);
    let count = n_arrivals.unwrap_or(if smoke { 36 } else { 200 });

    // The paper's evaluation chip: 4 SMT2 cores, 8 hardware threads.
    let chip = ChipConfig::thunderx2(4).with_engine(engine);
    let slots = chip.hw_threads();
    let target_window = if smoke { 20_000 } else { 120_000 };
    let cfg = ExperimentConfig {
        manager: ManagerConfig {
            chip: chip.clone(),
            quantum_cycles: if smoke { 5_000 } else { 10_000 },
            max_quanta: if smoke { 2_000 } else { 10_000 },
            faults,
            chip_faults,
        },
        target_window,
        calibration_warmup: if smoke { 10_000 } else { 40_000 },
        ..Default::default()
    };
    let service_cfg = ServiceConfig {
        manager: cfg.manager.clone(),
        // One documented bound for the whole sweep: small enough that the
        // overload and storm rows actually shed, large enough that light load never
        // does (drop-newest; see docs/service.md).
        queue_capacity: queue_capacity.unwrap_or(slots),
    };

    // Solo launch time ~= target_window cycles and an SMT2 pair retires
    // ~1 solo-equivalent per core, so a mean gap of 2 * target_window /
    // (slots * rho) offers load rho against the chip's paired capacity.
    let gap = |rho: f64| 2.0 * target_window as f64 / (slots as f64 * rho);
    let mut rows = vec![
        TraceRow {
            trace: workload::poisson_trace(
                "ln04",
                WorkloadKind::Mixed,
                count,
                gap(0.4),
                0x0010_AD04,
            ),
            rho: 0.4,
            label: "poisson",
        },
        TraceRow {
            trace: workload::poisson_trace(
                "ln08",
                WorkloadKind::Mixed,
                count,
                gap(0.8),
                0x0010_AD08,
            ),
            rho: 0.8,
            label: "poisson",
        },
        TraceRow {
            trace: workload::poisson_trace(
                "ln15",
                WorkloadKind::Mixed,
                count,
                gap(1.5),
                0x0010_AD15,
            ),
            rho: 1.5,
            label: "overload",
        },
    ];
    // Diurnal storms: nominal rho 0.8, but burstiness 3 concentrates
    // arrivals into half-period storms at local rho ~2.4 — the queue
    // fills and sheds during storms, drains during lulls.
    let period = (gap(0.8) * count as f64 / 4.0) as u64;
    rows.push(TraceRow {
        trace: workload::bursty_trace(
            "bst08",
            WorkloadKind::Mixed,
            count,
            gap(0.8),
            3.0,
            period.max(2),
            0x0010_ADB5,
        ),
        rho: 0.8,
        label: "bursty",
    });

    let model = if smoke {
        canned_model()
    } else {
        trained_model().0
    };

    println!(
        "open system: {} arrivals per trace on {} cores / {} threads, queue capacity {}, \
         {} workers, {} engine{}",
        count,
        chip.cores,
        slots,
        service_cfg.queue_capacity,
        threads(),
        engine,
        if smoke { " (smoke)" } else { "" }
    );
    let t0 = Instant::now();

    println!(
        "\n{:<6} {:<8} {:>4} {:<6} {:>5} {:>5} {:>5} {:>10} {:>10} {:>10} {:>10} {:>5} {:>5} {:>7}",
        "trace",
        "kind",
        "rho",
        "policy",
        "arr",
        "done",
        "shed",
        "p50 TT",
        "p95 TT",
        "p99 TT",
        "p95 soj",
        "maxq",
        "migr",
        "drained"
    );
    let workloads: Vec<Workload> = rows.iter().map(|row| row.trace.to_workload()).collect();
    let prepared_rows = prepare_workloads(&workloads.iter().collect::<Vec<_>>(), &cfg);
    for (row, prepared) in rows.iter().zip(&prepared_rows) {
        let policies: Vec<(&str, Box<dyn Policy>)> = vec![
            ("linux", Box::new(LinuxLike)),
            ("synpa", Box::new(Synpa::new(model))),
        ];
        for (pname, mut policy) in policies {
            let r = run_service(
                &prepared.apps,
                &row.trace.arrivals,
                policy.as_mut(),
                &service_cfg,
            );
            let tt = r.turnarounds();
            let soj = r.sojourns();
            println!(
                "{:<6} {:<8} {:>4.1} {:<6} {:>5} {:>5} {:>5} {:>10} {:>10} {:>10} {:>10} {:>5} {:>5} {:>7}",
                row.trace.name,
                row.label,
                row.rho,
                pname,
                row.trace.len(),
                r.completed.len(),
                r.shed.len(),
                pct(&tt, 50.0),
                pct(&tt, 95.0),
                pct(&tt, 99.0),
                pct(&soj, 95.0),
                r.peak_queue_depth(),
                r.migrations,
                r.drained,
            );
            // Printed only under --faults, so the healthy table stays
            // byte-identical to pre-fault-injection runs.
            if faults.is_some() {
                println!("{:<6} {:<8} faults: {}", "", "", r.degraded.summary());
            }
            // Same contract for execution faults: the line exists only
            // under --chip-faults, so `--chip-faults seed:0` and the plain
            // invocation print byte-identical tables (CI checks this).
            if chip_faults.is_some() {
                println!(
                    "{:<6} {:<8} chip faults: {} ({} failed terminally)",
                    "",
                    "",
                    r.chip_faults.summary(),
                    r.failed.len(),
                );
            }
        }
    }
    println!("\nwall time: {:.1}s", t0.elapsed().as_secs_f64());
}
