//! Fig. 6: per-application category breakdown for workloads be1, fe2 and
//! fb2 under Linux (left) and SYNPA (right), normalized to the slowest
//! application of the workload.

use synpa::prelude::*;
use synpa_experiments::{eval_config, trained_model};

fn main() {
    let (model, _) = trained_model();
    let cfg = eval_config();
    let workloads: Vec<Workload> = ["be1", "fe2", "fb2"]
        .iter()
        .map(|name| workload::by_name(name).unwrap())
        .collect();
    let prepared_all = prepare_workloads(&workloads.iter().collect::<Vec<_>>(), &cfg);
    for prepared in &prepared_all {
        let w = &prepared.workload;
        let name = &w.name;
        let linux = run_cell(prepared, |_| Box::new(LinuxLike), &cfg);
        let synpa = run_cell(prepared, |_| Box::new(Synpa::new(model)), &cfg);
        println!("\nFig. 6 — workload {name}  (per app: linux | synpa, % of workload TT)");
        println!(
            "{:<14} {:>22} | {:>22}",
            "app", "FD%   FE%   BE%  time", "FD%   FE%   BE%  time"
        );
        for k in 0..8 {
            let fmt = |cell: &synpa::sched::CellOutcome| {
                let r = &cell.exemplar;
                // Aggregate the app's categories over its run (cycle-weighted).
                let mut acc = [0.0f64; 3];
                let mut cycles = 0.0;
                for row in r.trace.iter().filter(|t| t.app == k) {
                    let f = row.categories.fractions();
                    for (a, x) in acc.iter_mut().zip(f) {
                        *a += x * row.cycles as f64;
                    }
                    cycles += row.cycles as f64;
                }
                let tt_frac = r.per_app[k].tt_cycles as f64 / r.tt_cycles as f64;
                format!(
                    "{:>5.1} {:>5.1} {:>5.1} {:>5.2}",
                    acc[0] / cycles * 100.0,
                    acc[1] / cycles * 100.0,
                    acc[2] / cycles * 100.0,
                    tt_frac
                )
            };
            println!(
                "{:<14} {:>22} | {:>22}",
                w.apps[k],
                fmt(&linux),
                fmt(&synpa)
            );
        }
    }
    println!("\n('time' = the app's TT normalized to the slowest app of the workload)");
}
