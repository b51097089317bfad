use std::collections::HashMap;
use synpa_apps::{spec, workload, WorkloadKind};
use synpa_model::training::{train, TrainingConfig};
use synpa_sched::*;

fn main() {
    let all = spec::catalog();
    let train_apps: Vec<_> = all
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 14 != 6 && i % 14 != 13)
        .map(|(_, a)| a.clone())
        .collect();
    let model = train(&train_apps, &TrainingConfig::default(), 16)
        .expect("catalog fits")
        .model;
    let cfg = ExperimentConfig {
        reps: 5,
        ..Default::default()
    };

    let t0 = std::time::Instant::now();
    let mut by_kind: HashMap<String, Vec<f64>> = HashMap::new();
    let suite = workload::standard_suite();
    for prepared in prepare_workloads(&suite.iter().collect::<Vec<_>>(), &cfg) {
        let w = &prepared.workload;
        let linux = run_cell(&prepared, |_| Box::new(LinuxLike), &cfg);
        let synpa = run_cell(&prepared, |_| Box::new(Synpa::new(model)), &cfg);
        let sp = linux.tt_mean / synpa.tt_mean;
        println!(
            "{:<5} {:<9} speedup {:.3} (linux {:.0} synpa {:.0}, mig {})",
            w.name,
            w.kind.to_string(),
            sp,
            linux.tt_mean,
            synpa.tt_mean,
            synpa.exemplar.migrations
        );
        by_kind.entry(w.kind.to_string()).or_default().push(sp);
        let _ = WorkloadKind::Mixed;
    }
    println!("--- averages ---");
    for (k, v) in &by_kind {
        println!("{k}: {:.3}", v.iter().sum::<f64>() / v.len() as f64);
    }
    println!("elapsed {:?}", t0.elapsed());
}
