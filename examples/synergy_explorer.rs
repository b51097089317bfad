//! Synergy explorer: measure how synergistic two applications are when
//! co-scheduled on one SMT2 core — the quantity SYNPA's model predicts.
//!
//! ```text
//! cargo run --release --example synergy_explorer -- mcf gobmk
//! cargo run --release --example synergy_explorer            # full matrix
//! ```

use synpa::apps::co_run;
use synpa::prelude::*;
use synpa::sim::ThreadProgram;

const WARMUP: u64 = 60_000;
const MEASURE: u64 = 100_000;

/// Runs the named apps together on one SMT2 core (one name: alone) and
/// returns each one's measurement-window counters.
fn measure(names: &[&str]) -> Vec<PmuCounters> {
    let apps: Vec<_> = names
        .iter()
        .map(|n| spec::by_name(n).unwrap_or_else(|| die(n)))
        .collect();
    let refs: Vec<_> = apps.iter().collect();
    co_run(&refs, &ChipConfig::thunderx2(1), WARMUP, MEASURE, 1)
        .into_iter()
        .map(|w| w[0])
        .collect()
}

fn ipc(d: &PmuCounters) -> f64 {
    d.inst_retired as f64 / d.cpu_cycles as f64
}

fn solo_ipc(name: &str) -> f64 {
    ipc(&measure(&[name])[0])
}

/// Runs `a` and `b` together; returns each one's slowdown vs. solo and the
/// measured dispatch-stall fractions.
fn pair(a: &str, b: &str, solo_a: f64, solo_b: f64) -> ((f64, Fractions), (f64, Fractions)) {
    let d = measure(&[a, b]);
    let width = ChipConfig::thunderx2(1).core.dispatch_width;
    (
        (solo_a / ipc(&d[0]), Fractions::from_pmu(&d[0], width)),
        (solo_b / ipc(&d[1]), Fractions::from_pmu(&d[1], width)),
    )
}

fn die(name: &str) -> ! {
    eprintln!("unknown application '{name}'. Known:");
    for app in spec::catalog() {
        eprintln!("  {}", app.name());
    }
    std::process::exit(1)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [a, b] => {
            let (sa, sb) = (solo_ipc(a), solo_ipc(b));
            let ((slow_a, frac_a), (slow_b, frac_b)) = pair(a, b, sa, sb);
            println!("pair {a} + {b} on one SMT2 core:");
            for (name, slow, f) in [(a, slow_a, frac_a), (b, slow_b, frac_b)] {
                println!(
                    "  {name:<14} slowdown {slow:>5.2}x   FD {:>5.1}%  FE {:>5.1}%  BE {:>5.1}%",
                    f.full_dispatch * 100.0,
                    f.frontend * 100.0,
                    f.backend * 100.0
                );
            }
            println!(
                "  pair cost (sum of slowdowns, lower = more synergistic): {:.2}",
                slow_a + slow_b
            );
        }
        [] => {
            // Compact matrix over one representative app per group.
            let names = ["mcf", "lbm_r", "xalancbmk_r", "gobmk", "leela_r", "nab_r"];
            let solos: Vec<f64> = names.iter().map(|n| solo_ipc(n)).collect();
            print!("{:<14}", "pair cost");
            for b in names {
                print!("{b:>13}");
            }
            println!();
            for (i, a) in names.iter().enumerate() {
                print!("{a:<14}");
                for (j, b) in names.iter().enumerate() {
                    if j < i {
                        print!("{:>13}", "");
                        continue;
                    }
                    let ((x, _), (y, _)) = pair(a, b, solos[i], solos[j]);
                    print!("{:>13.2}", x + y);
                }
                println!();
            }
            println!("\n(lower = more synergistic; diagonal = two instances of the same app)");
        }
        _ => {
            eprintln!("usage: synergy_explorer [<app-a> <app-b>]");
            std::process::exit(2);
        }
    }
}
