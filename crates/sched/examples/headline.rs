//! Headline comparison: SYNPA vs the Linux baseline on the paper's three
//! case-study workloads plus two generated mixes, 5 repetitions each.

use synpa_apps::{spec, workload};
use synpa_model::training::{train, TrainingConfig};
use synpa_sched::*;

fn main() {
    // Train on ~80% of apps (paper §IV-C).
    let all = spec::catalog();
    let train_apps: Vec<_> = all
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 14 != 6 && i % 14 != 13)
        .map(|(_, a)| a.clone())
        .collect();
    let t0 = std::time::Instant::now();
    let report = train(&train_apps, &TrainingConfig::default(), 16).expect("catalog fits");
    eprintln!(
        "trained in {:?}; BE coeffs {:?}",
        t0.elapsed(),
        report.model.backend
    );
    let model = report.model;

    let cfg = ExperimentConfig {
        reps: 5,
        ..Default::default()
    };
    let workloads: Vec<_> = ["be1", "fe2", "fb2", "fb0", "fb5"]
        .iter()
        .map(|name| workload::by_name(name).unwrap())
        .collect();
    for prepared in prepare_workloads(&workloads.iter().collect::<Vec<_>>(), &cfg) {
        let name = &prepared.workload.name;
        let linux = run_cell(&prepared, |_| Box::new(LinuxLike), &cfg);
        let synpa = run_cell(&prepared, |_| Box::new(Synpa::new(model)), &cfg);
        let speedup = linux.tt_mean / synpa.tt_mean;
        println!(
            "{name}: linux TT {:.0} synpa TT {:.0} speedup {:.3} (migrations/run {})",
            linux.tt_mean, synpa.tt_mean, speedup, synpa.exemplar.migrations
        );
    }
    eprintln!("total {:?}", t0.elapsed());
}
