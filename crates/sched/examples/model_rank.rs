//! Model-vs-ground-truth ranking: measures every possible pairing of a
//! workload, then reports how well the trained model's predicted pair costs
//! rank-correlate with reality and where the model's preferred pairing
//! lands in the true order. The key validation that the Equation-1 model is
//! decision-grade on this machine.

use synpa_apps::{spec, workload};
use synpa_model::training::{st_profile, train, TrainingConfig};
use synpa_sched::*;

fn pairings(items: &[usize]) -> Vec<Vec<(usize, usize)>> {
    if items.is_empty() {
        return vec![vec![]];
    }
    let a = items[0];
    let mut out = Vec::new();
    for i in 1..items.len() {
        let b = items[i];
        let rest: Vec<usize> = items.iter().skip(1).filter(|&&x| x != b).cloned().collect();
        for mut sub in pairings(&rest) {
            sub.push((a, b));
            out.push(sub);
        }
    }
    out
}

fn main() {
    let all = spec::catalog();
    let train_apps: Vec<_> = all
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 14 != 6 && i % 14 != 13)
        .map(|(_, a)| a.clone())
        .collect();
    let tcfg = TrainingConfig::default();
    let model = train(&train_apps, &tcfg, 16).expect("catalog fits").model;
    eprintln!("backend coeffs: {:?}", model.backend);

    let cfg = ExperimentConfig {
        reps: 1,
        ..Default::default()
    };
    let workloads: Vec<_> = ["be1", "be3", "fb2", "fb7"]
        .iter()
        .map(|name| workload::by_name(name).unwrap())
        .collect();
    for prepared in prepare_workloads(&workloads.iter().collect::<Vec<_>>(), &cfg) {
        let name = &prepared.workload.name;
        let st: Vec<_> = prepared
            .apps
            .iter()
            .map(|a| st_profile(a, &tcfg).mean())
            .collect();
        let all_p = pairings(&(0..8).collect::<Vec<_>>());
        let results = parallel_map(&all_p, 16, |pairs| {
            let mut mgr = cfg.manager.clone();
            mgr.chip = mgr.chip.clone().with_seed(cfg.base_seed);
            let mut p = StaticPairs::new(pairs.clone());
            run_workload(&prepared.apps, &prepared.solo_ipc, &mut p, &mgr).tt_cycles
        });
        // model predicted cost per pairing
        let pred: Vec<f64> = all_p
            .iter()
            .map(|pairs| {
                pairs
                    .iter()
                    .map(|&(a, b)| model.pair_cost(&st[a], &st[b]))
                    .sum()
            })
            .collect();
        // spearman-ish: rank of model argmin in true order
        let mut order: Vec<usize> = (0..all_p.len()).collect();
        order.sort_by_key(|&i| results[i]);
        let argmin = (0..pred.len())
            .min_by(|&i, &j| pred[i].total_cmp(&pred[j]))
            .unwrap();
        let true_rank = order.iter().position(|&i| i == argmin).unwrap();
        // pearson on ranks
        let n = pred.len() as f64;
        let rank_of = |v: &Vec<f64>| {
            let mut o: Vec<usize> = (0..v.len()).collect();
            o.sort_by(|&a, &b| v[a].total_cmp(&v[b]));
            let mut r = vec![0.0; v.len()];
            for (k, &i) in o.iter().enumerate() {
                r[i] = k as f64;
            }
            r
        };
        let rp = rank_of(&pred);
        let rt = rank_of(&results.iter().map(|&x| x as f64).collect());
        let mp = rp.iter().sum::<f64>() / n;
        let mt = rt.iter().sum::<f64>() / n;
        let cov: f64 = rp.iter().zip(&rt).map(|(a, b)| (a - mp) * (b - mt)).sum();
        let sp = (rp.iter().map(|a| (a - mp) * (a - mp)).sum::<f64>()
            * rt.iter().map(|b| (b - mt) * (b - mt)).sum::<f64>())
        .sqrt();
        println!("{name}: spearman {:.2}; model argmin true-rank {true_rank}/105; best TT {} argmin TT {}",
            cov/sp, results[order[0]], results[argmin]);
    }
}
