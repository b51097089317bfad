//! §III-B step-3 ablation: the paper assigns the revealed horizontal waste
//! entirely to the backend, having also evaluated equal and proportional
//! splits. Trains a model under each choice and compares held-out error.

use synpa::model::training::{
    collect_all_samples, fit_from_samples, holdout_split, TrainingConfig,
};
use synpa::model::RevealsSplit;
use synpa_experiments::{threads, training_split};

fn main() {
    let (train_apps, _) = training_split();
    println!("§III-B — where should the revealed stalls go?");
    println!(
        "{:<16} {:>12} {:>12} {:>12} {:>14}",
        "split", "MSE(FD)", "MSE(FE)", "MSE(BE)", "slowdown MSE"
    );
    for (name, split) in [
        ("all-to-backend", RevealsSplit::AllToBackend),
        ("equal", RevealsSplit::Equal),
        ("proportional", RevealsSplit::Proportional),
    ] {
        let cfg = TrainingConfig {
            split,
            ..Default::default()
        };
        let samples = collect_all_samples(&train_apps, &cfg, threads());
        let report = fit_from_samples(&samples, &cfg).expect("collected samples fit");
        // Held-out slowdown error (what pair selection actually consumes),
        // on the rows the fit held out.
        let (_, holdout) = holdout_split(&samples, &cfg);
        let slowdown_mse: f64 = holdout
            .iter()
            .map(|s| {
                let pred = report.model.predict_slowdown(&s.st_i, &s.st_j);
                let obs = s.smt_ij.cpi() / s.st_i.cpi().max(1e-9);
                (pred - obs) * (pred - obs)
            })
            .sum::<f64>()
            / holdout.len().max(1) as f64;
        println!(
            "{name:<16} {:>12.4} {:>12.4} {:>12.4} {:>14.4}",
            report.mse[0], report.mse[1], report.mse[2], slowdown_mse
        );
    }
    println!("\npaper choice: all-to-backend (selected as the most accurate design).");
    println!("NOTE: on this simulator dispatch happens in full-width bursts (the ROB");
    println!("frees whole groups at retirement) and INST_SPEC includes wrong-path µops,");
    println!("so the revealed horizontal waste is ~0 and the three designs coincide —");
    println!("the mechanism is implemented and exercised, but this machine gives it no");
    println!("signal to distribute. See EXPERIMENTS.md.");
}
