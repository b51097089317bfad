//! Fig. 2: the three-step characterization of cycles at the dispatch stage,
//! demonstrated on a live measurement of one application.

use synpa::apps::co_run;
use synpa::model::{Categories, RevealsSplit};
use synpa::prelude::*;

fn main() {
    let app = std::env::args().nth(1).unwrap_or_else(|| "bwaves".into());
    let profile = spec::by_name(&app).expect("known application");
    let d = co_run(&[&profile], &ChipConfig::thunderx2(1), 60_000, 100_000, 1)[0][0];
    let cycles = d.cpu_cycles as f64;

    println!("Fig. 2 — characterization of cycles at the dispatch stage ({app})");
    println!("\nStep 1: measured events (M)");
    let fe = d.stall_frontend as f64 / cycles;
    let be = d.stall_backend as f64 / cycles;
    let dc = 1.0 - fe - be;
    println!("  frontend stalls (FEs)   {:6.1}%", fe * 100.0);
    println!("  backend stalls  (BEs)   {:6.1}%", be * 100.0);
    println!("  dispatch cycles (Dc)    {:6.1}%  (remainder)", dc * 100.0);

    println!("\nStep 2: equivalent full-dispatch cycles (E)");
    let fdc = d.inst_spec as f64 / 4.0 / cycles;
    println!("  F-Dc = INST_SPEC/width  {:6.1}%", fdc * 100.0);
    println!(
        "  revealed waste          {:6.1}%  (Dc - F-Dc, hidden horizontal waste)",
        (dc - fdc) * 100.0
    );

    println!("\nStep 3: revealed waste assigned to the backend");
    let c = Categories::from_delta_with(&d, 4, RevealsSplit::AllToBackend);
    let f = c.fractions();
    println!("  full-dispatch           {:6.1}%", f[0] * 100.0);
    println!("  frontend stalls         {:6.1}%", f[1] * 100.0);
    println!(
        "  backend stalls          {:6.1}%  (measured + revealed)",
        f[2] * 100.0
    );
    println!(
        "  total                   {:6.1}%",
        f.iter().sum::<f64>() * 100.0
    );
}
