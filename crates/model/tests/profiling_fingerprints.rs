//! Whole-output pins for the dedicated-core profiling runs and the fits
//! built on them.
//!
//! Each test runs one profiling path on a few catalog applications at small
//! training windows and hashes (FNV-1a) every number it produces: category
//! vectors, retired-instruction and cycle counts, IPC, coefficients and
//! errors. The hashes cover the bit patterns of the floats, so a change in
//! the order of float operations, in the warm-up, in the windowing or in
//! the profile alignment moves a hash. Only numbers are hashed, never a
//! `Debug` rendering, so renaming or re-parameterising the sample types
//! leaves the pins valid.
//!
//! The constants were recorded once and are never re-recorded to make a
//! refactor pass: a refactor of the profiling code must reproduce them.

use synpa_apps::{characterize_isolated_with, spec, AppProfile};
use synpa_model::ablation::{fit_ten, ten_categories};
use synpa_model::training::{
    collect_all_samples, collect_all_samples_with, fit_from_samples, st_profile, TrainingConfig,
};
use synpa_model::{Categories, CategoryCoeffs, RevealsSplit};

/// FNV-1a over the little-endian bytes of every number fed to it.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64s(&mut self, vs: &[f64]) {
        for v in vs {
            self.u64(v.to_bits());
        }
    }

    fn cats(&mut self, c: &Categories) {
        self.f64s(&c.as_array());
    }

    fn coeffs(&mut self, c: &CategoryCoeffs) {
        self.f64s(&[c.alpha, c.beta, c.gamma, c.rho]);
    }
}

/// The training unit tests' small windows.
fn tiny_cfg() -> TrainingConfig {
    TrainingConfig {
        warmup: 20_000,
        quantum: 4_000,
        st_quanta: 10,
        smt_quanta: 6,
        ..Default::default()
    }
}

/// Four diverse applications: backend-bound, two mixed, frontend-heavy.
fn apps() -> Vec<AppProfile> {
    ["mcf", "nab_r", "gobmk", "hmmer"]
        .iter()
        .map(|n| spec::by_name(n).unwrap())
        .collect()
}

#[test]
fn isolated_characterization() {
    let cfg = tiny_cfg();
    let mut h = Fnv::new();
    for app in apps() {
        let r = characterize_isolated_with(&app, cfg.warmup, 40_000, &cfg.chip);
        h.bytes(r.name.as_bytes());
        let f = r.fractions;
        h.f64s(&[f.full_dispatch, f.frontend, f.backend]);
        h.u64(r.retired);
        h.u64(r.cycles);
        h.f64s(&[r.ipc]);
    }
    assert_eq!(h.0, 0x5f83_92a2_08da_e63b, "got {:#018x}", h.0);
}

#[test]
fn st_profiles() {
    let cfg = tiny_cfg();
    let mut h = Fnv::new();
    for app in apps() {
        let p = st_profile(&app, &cfg);
        h.bytes(p.name.as_bytes());
        for (inst, c) in &p.quanta {
            h.u64(*inst);
            h.cats(c);
        }
    }
    assert_eq!(h.0, 0x55dd_f08f_dbd4_b36a, "got {:#018x}", h.0);
}

/// Hash of the all-pairs samples and of the model fitted on them.
fn training_hash(split: RevealsSplit) -> u64 {
    let cfg = TrainingConfig {
        split,
        ..tiny_cfg()
    };
    let samples = collect_all_samples(&apps(), &cfg, 2);
    let report = fit_from_samples(&samples, &cfg).expect("diverse apps fit");
    let mut h = Fnv::new();
    for s in &samples {
        h.u64(s.app_i as u64);
        h.u64(s.app_j as u64);
        h.cats(&s.st_i);
        h.cats(&s.st_j);
        h.cats(&s.smt_ij);
    }
    for c in report.model.coeffs() {
        h.coeffs(&c);
    }
    h.f64s(&report.mse);
    h.u64(report.train_samples as u64);
    h.u64(report.test_samples as u64);
    h.0
}

#[test]
fn training_all_to_backend() {
    let got = training_hash(RevealsSplit::AllToBackend);
    assert_eq!(got, 0x9ce7_2986_7acb_584c, "got {got:#018x}");
}

/// Same hash as all-to-backend: the simulator dispatches in full-width
/// bursts, so the revealed horizontal waste that step 3 distributes is 0
/// in every window here. The pin still covers the split's code path.
#[test]
fn training_proportional() {
    let got = training_hash(RevealsSplit::Proportional);
    assert_eq!(got, 0x9ce7_2986_7acb_584c, "got {got:#018x}");
}

#[test]
fn ten_category_ablation() {
    let cfg = tiny_cfg();
    let samples = collect_all_samples_with(&apps(), &cfg, 2, ten_categories);
    let report = fit_ten(&samples, &cfg);
    let mut h = Fnv::new();
    for s in &samples {
        h.f64s(&s.st_i);
        h.f64s(&s.st_j);
        h.f64s(&s.smt_ij);
    }
    for c in &report.model.coeffs {
        h.coeffs(c);
    }
    h.f64s(&report.mse);
    h.f64s(&[report.cpi_mse]);
    assert_eq!(h.0, 0x1faa_68fb_7bc9_6c52, "got {:#018x}", h.0);
}
