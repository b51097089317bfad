//! The sharded suite orchestrator must be a pure refactor of the
//! sequential loop: for any worker-thread count, and with or without the
//! cell cache, the serialized `suite.json` payload is byte-identical to the
//! pre-refactor sequential path.

use std::path::PathBuf;
use synpa::prelude::*;
use synpa_experiments::{
    canned_model, run_suite_sequential, run_suite_sharded, SuitePolicy, SuiteSpec,
};

/// The shared fixed Equation-1 model (no training) so the test exercises
/// the full SYNPA decision path deterministically and cheaply.
fn model() -> SynpaModel {
    canned_model()
}

/// A 2-workload mini-suite with the §V-B methodology scaled down to test
/// size: both policies, three repetitions, short calibration windows.
fn mini_spec(cache_dir: Option<PathBuf>) -> SuiteSpec {
    SuiteSpec {
        workloads: vec![
            workload::by_name("be1").unwrap(),
            workload::by_name("fb2").unwrap(),
        ],
        policies: vec![SuitePolicy::Linux, SuitePolicy::Synpa],
        config: ExperimentConfig {
            target_window: 25_000,
            calibration_warmup: 20_000,
            reps: 3,
            ..Default::default()
        },
        cache_dir,
    }
}

#[test]
fn sharded_suite_is_byte_identical_across_thread_counts_and_to_sequential() {
    let reference = run_suite_sequential(&mini_spec(None), model());
    let reference_json = serde_json::to_string_pretty(&reference).unwrap();
    assert_eq!(reference.len(), 4, "2 workloads x 2 policies");

    for threads in [1usize, 2, 8] {
        let cells = run_suite_sharded(&mini_spec(None), model(), threads);
        let json = serde_json::to_string_pretty(&cells).unwrap();
        assert_eq!(
            json, reference_json,
            "sharded suite at {threads} threads must match the sequential path byte for byte"
        );
    }
}

#[test]
fn warm_cache_reproduces_the_cold_result_byte_for_byte() {
    let dir = std::env::temp_dir().join("synpa-suite-determinism-cache");
    let _ = std::fs::remove_dir_all(&dir);
    let cold = run_suite_sharded(&mini_spec(Some(dir.clone())), model(), 2);
    let warm = run_suite_sharded(&mini_spec(Some(dir.clone())), model(), 8);
    assert_eq!(
        serde_json::to_string_pretty(&cold).unwrap(),
        serde_json::to_string_pretty(&warm).unwrap(),
        "a warm (fully cached) run must reproduce the cold run exactly"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn partially_warm_cache_reproduces_the_cold_result_byte_for_byte() {
    // Deleting one workload's cells makes the rerun calibrate only that
    // workload's apps; its recomputed cells must equal the cold ones.
    let dir = std::env::temp_dir().join("synpa-suite-determinism-partial-cache");
    let _ = std::fs::remove_dir_all(&dir);
    let cold = run_suite_sharded(&mini_spec(Some(dir.clone())), model(), 1);
    let cell_files = || -> Vec<PathBuf> {
        std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect()
    };
    let fb2_cells: Vec<PathBuf> = cell_files()
        .into_iter()
        .filter(|p| p.file_name().unwrap().to_string_lossy().starts_with("fb2-"))
        .collect();
    assert_eq!(fb2_cells.len(), 2, "fb2 has one cell per policy");
    for path in &fb2_cells {
        std::fs::remove_file(path).unwrap();
    }
    let partial = run_suite_sharded(&mini_spec(Some(dir.clone())), model(), 2);
    assert_eq!(cell_files().len(), 4, "the deleted cells are stored again");
    assert_eq!(
        serde_json::to_string_pretty(&cold).unwrap(),
        serde_json::to_string_pretty(&partial).unwrap(),
        "a partially cached run must reproduce the cold run exactly"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
