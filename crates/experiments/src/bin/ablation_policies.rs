//! Policy ablation (extension): SYNPA vs its oracle variant (true ST
//! categories, no runtime inversion), random re-pairing, and the Linux
//! baseline, on one workload per family.

use synpa::metrics::tt_speedup;
use synpa::model::training::{st_profile, TrainingConfig};
use synpa::prelude::*;
use synpa_experiments::{eval_config, trained_model};

fn main() {
    let (model, _) = trained_model();
    let cfg = ExperimentConfig {
        reps: 5,
        ..eval_config()
    };
    let tcfg = TrainingConfig::default();
    println!(
        "policy ablation — TT speedup over Linux (reps = {})",
        cfg.reps
    );
    println!("{:<6} {:>8} {:>8} {:>8}", "wl", "synpa", "oracle", "random");
    let workloads: Vec<Workload> = ["be2", "fe3", "fb5", "fb8"]
        .iter()
        .map(|name| workload::by_name(name).unwrap())
        .collect();
    let prepared_all = prepare_workloads(&workloads.iter().collect::<Vec<_>>(), &cfg);
    for prepared in &prepared_all {
        let name = &prepared.workload.name;
        let st: Vec<(usize, Categories)> = prepared
            .apps
            .iter()
            .enumerate()
            .map(|(k, app)| (k, st_profile(app, &tcfg).mean()))
            .collect();
        let linux = run_cell(prepared, |_| Box::new(LinuxLike), &cfg);
        let synpa = run_cell(prepared, |_| Box::new(Synpa::new(model)), &cfg);
        let oracle = run_cell(
            prepared,
            {
                let st = st.clone();
                move |_| Box::new(OracleSynpa::new(model, st.clone()))
            },
            &cfg,
        );
        let random = run_cell(prepared, |s| Box::new(RandomPairing::new(s)), &cfg);
        println!(
            "{name:<6} {:>8.3} {:>8.3} {:>8.3}",
            tt_speedup(linux.tt_mean, synpa.tt_mean),
            tt_speedup(linux.tt_mean, oracle.tt_mean),
            tt_speedup(linux.tt_mean, random.tt_mean),
        );
    }
    println!(
        "\nexpected: oracle >= synpa (no inversion error), random pays migrations for nothing"
    );
}
