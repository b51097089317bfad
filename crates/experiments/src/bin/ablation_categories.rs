//! §VI-A ablation: the authors first built a 10-category model (backend
//! split by stall cause) and found it *worse* than the 3-category model.
//! Reproduces that comparison on held-out CPI prediction error.

use synpa::model::ablation::{fit_ten, ten_categories, TEN_NAMES};
use synpa::model::training::{
    collect_all_samples, collect_all_samples_with, fit_from_samples, holdout_split, TrainingConfig,
};
use synpa_experiments::{threads, training_split};

fn main() {
    let (train_apps, _) = training_split();
    let cfg = TrainingConfig::default();

    println!("collecting 3-category training data...");
    let samples3 = collect_all_samples(&train_apps, &cfg, threads());
    let report3 = fit_from_samples(&samples3, &cfg).expect("collected samples fit");
    // Held-out MSE of the predicted total CPI under the 3-category model,
    // on the rows the fit held out (the same split fit_ten scores on).
    let (_, holdout) = holdout_split(&samples3, &cfg);
    let cpi3: f64 = holdout
        .iter()
        .map(|s| {
            let pred = report3.model.predict(&s.st_i, &s.st_j).cpi();
            let obs = s.smt_ij.cpi();
            (pred - obs) * (pred - obs)
        })
        .sum::<f64>()
        / holdout.len().max(1) as f64;

    println!("collecting 10-category training data...");
    let samples10 = collect_all_samples_with(&train_apps, &cfg, threads(), ten_categories);
    let report10 = fit_ten(&samples10, &cfg);

    println!("\n§VI-A — 3-category vs 10-category model (held-out CPI prediction)");
    println!("  3-category  total-CPI MSE: {cpi3:.4}");
    println!("  10-category total-CPI MSE: {:.4}", report10.cpi_mse);
    println!(
        "  paper's finding reproduced (10-category worse): {}",
        report10.cpi_mse > cpi3
    );
    println!("\nper-category MSE of the 10-category model (errors that compound):");
    for (name, m) in TEN_NAMES.iter().zip(&report10.mse) {
        println!("  {name:<16} {m:.5}");
    }
}
