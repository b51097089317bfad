//! Ground-truth synergy probe: measures the pairwise slowdown matrix of
//! eight representative applications on one SMT2 core — the raw
//! interference structure the SYNPA model has to learn.

use synpa_apps::{co_run, spec};
use synpa_sim::ChipConfig;

/// Measured IPC of each named app co-running on one SMT core (one app:
/// isolated), over a 100k-cycle window after a 60k-cycle warm-up.
fn ipcs(names: &[&str]) -> Vec<f64> {
    let apps: Vec<_> = names.iter().map(|n| spec::by_name(n).unwrap()).collect();
    let refs: Vec<_> = apps.iter().collect();
    co_run(&refs, &ChipConfig::thunderx2(1), 60_000, 100_000, 1)
        .iter()
        .map(|w| w[0].inst_retired as f64 / w[0].cpu_cycles as f64)
        .collect()
}

fn main() {
    let apps = [
        "mcf",
        "lbm_r",
        "xalancbmk_r",
        "gobmk",
        "leela_r",
        "perlbench",
        "nab_r",
        "hmmer",
    ];
    let solos: Vec<f64> = apps.iter().map(|a| ipcs(&[a])[0]).collect();
    println!(
        "{:<12} solo IPC: {:?}",
        "apps",
        apps.iter()
            .zip(&solos)
            .map(|(a, s)| format!("{a}={s:.2}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    println!("\npair slowdown matrix (row app's slowdown vs solo, when paired with col):");
    print!("{:<12}", "");
    for b in &apps {
        print!("{:>11}", b);
    }
    println!();
    for (i, a) in apps.iter().enumerate() {
        print!("{:<12}", a);
        for b in &apps {
            print!("{:>11.2}", solos[i] / ipcs(&[a, b])[0]);
        }
        println!();
    }
}
