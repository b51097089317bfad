//! Whole-output pins for the closed-batch manager and the open-system
//! service.
//!
//! Each case runs one small workload under `LinuxLike`, `RandomPairing`,
//! `Synpa`, `GreedySynpa` and `OracleSynpa` and hashes the complete
//! `Debug` rendering of the `RunResult` / `ServiceResult` (FNV-1a):
//! per-app outcomes, the full characterization trace, queue and occupancy
//! series, matcher, sample health and execution-fault accounting. Any
//! change to admission order, sampling order, the decision step or the
//! end-of-run accounting moves a hash. The SYNPA model and the oracle's ST table are hand-built (no
//! training runs), so the environment cannot change a decision.
//!
//! The cases cover every path of the per-quantum loop: staggered odd waves
//! whose first arrival is after cycle 0 (empty-chip quanta), an
//! oversubscribed capped batch, counter faults, core faults with
//! evacuation, a zero-capacity and a shedding queue, crash / hang /
//! watchdog / retry / failed on the service, and the SYNPA guardrail
//! fallback.

use synpa_apps::{spec, AppProfile};
use synpa_counters::FaultConfig;
use synpa_sched::{
    run_service, run_workload_with_arrivals, GreedySynpa, LinuxLike, ManagerConfig, OracleSynpa,
    Policy, RandomPairing, ServiceConfig, Synpa,
};
use synpa_sim::{ChipConfig, ChipFaultConfig};

fn model() -> synpa_model::SynpaModel {
    use synpa_model::CategoryCoeffs;
    synpa_model::SynpaModel {
        full_dispatch: CategoryCoeffs {
            alpha: 0.0,
            beta: 1.0,
            gamma: 0.0,
            rho: 0.0,
        },
        frontend: CategoryCoeffs {
            alpha: 0.03,
            beta: 1.0,
            gamma: 0.0,
            rho: 0.0,
        },
        backend: CategoryCoeffs {
            alpha: 0.1,
            beta: 1.0,
            gamma: 0.1,
            rho: 0.8,
        },
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Hand-built "true" ST categories (CPI components) for app ids 0..8,
/// every id the cases place: a mix of frontend- and backend-bound apps.
fn oracle_st() -> Vec<(usize, synpa_model::Categories)> {
    let table = [
        [0.25, 0.10, 1.60],
        [0.25, 0.60, 0.20],
        [0.25, 0.15, 0.90],
        [0.25, 0.45, 0.10],
        [0.25, 0.05, 0.40],
        [0.25, 0.30, 0.05],
        [0.25, 0.20, 1.20],
        [0.25, 0.50, 0.30],
    ];
    table
        .iter()
        .enumerate()
        .map(|(id, &c)| (id, synpa_model::Categories::from_array(c)))
        .collect()
}

/// The five policies every case runs under, in pin order.
fn policies() -> [Box<dyn Policy>; 5] {
    [
        Box::new(LinuxLike),
        Box::new(RandomPairing::new(7)),
        Box::new(Synpa::new(model())),
        Box::new(GreedySynpa::new(model())),
        Box::new(OracleSynpa::new(model(), oracle_st())),
    ]
}

fn apps(names: &[&str], length: u64) -> Vec<AppProfile> {
    names
        .iter()
        .map(|n| spec::by_name(n).unwrap().with_length(length))
        .collect()
}

const EIGHT: [&str; 8] = [
    "mcf",
    "xalancbmk_r",
    "gobmk",
    "perlbench",
    "nab_r",
    "hmmer",
    "leela_r",
    "astar",
];

/// Hashes of one closed-batch case under the five policies.
fn batch(apps: &[AppProfile], cfg: &ManagerConfig, arrivals: &[u64]) -> [u64; 5] {
    let solo = vec![1.0; apps.len()];
    policies().map(|mut p| {
        let r = run_workload_with_arrivals(apps, &solo, p.as_mut(), cfg, arrivals);
        fnv1a(format!("{r:?}").as_bytes())
    })
}

/// Hashes of one service case under the five policies.
fn service(apps: &[AppProfile], arrivals: &[u64], cfg: &ServiceConfig) -> [u64; 5] {
    policies().map(|mut p| {
        let r = run_service(apps, arrivals, p.as_mut(), cfg);
        fnv1a(format!("{r:?}").as_bytes())
    })
}

fn service_cfg(cores: u32, queue_capacity: usize) -> ServiceConfig {
    ServiceConfig {
        manager: ManagerConfig {
            chip: ChipConfig::thunderx2(cores),
            ..ManagerConfig::default()
        },
        queue_capacity,
    }
}

#[test]
fn batch_plain() {
    let got = batch(&apps(&EIGHT, 30_000), &ManagerConfig::default(), &[]);
    assert_eq!(
        got,
        [
            0x3749_81fc_51dc_29d2,
            0xd464_6735_6d08_57ee,
            0x70a1_1008_596b_9ad4,
            0xf0d9_f331_476f_9cb9,
            0x9a83_0701_3855_b49c,
        ],
        "{got:#x?}"
    );
}

#[test]
fn batch_staggered_odd_waves_after_cycle_zero() {
    // Waves of 3, 3 and 1; the first lands mid-quantum two quanta in, so
    // the chip is empty for the first two boundaries.
    let arrivals = [15_000, 15_000, 15_000, 40_000, 40_000, 40_000, 70_000];
    let got = batch(
        &apps(&EIGHT[..7], 30_000),
        &ManagerConfig::default(),
        &arrivals,
    );
    assert_eq!(
        got,
        [
            0xaa9a_fac1_91f5_cc80,
            0x51ae_113f_2792_136a,
            0x3a6e_f448_068e_1cf3,
            0xa4a7_6e28_ff5a_6fde,
            0x4990_4d39_06e3_e746,
        ],
        "{got:#x?}"
    );
}

#[test]
fn batch_oversubscribed_and_capped() {
    let cfg = ManagerConfig {
        chip: ChipConfig::thunderx2(2), // 4 slots for 6 apps
        max_quanta: 60,
        ..ManagerConfig::default()
    };
    let arrivals = [0, 0, 0, 0, 10_000, 10_000];
    let got = batch(&apps(&EIGHT[..6], 30_000), &cfg, &arrivals);
    assert_eq!(
        got,
        [
            0x50ec_8de8_9e89_49b3,
            0x5966_2b57_c544_badd,
            0x15a1_a8a3_d042_30ee,
            0xf467_6e4f_c9b8_48b9,
            0x39bb_72c8_d557_9146,
        ],
        "{got:#x?}"
    );
}

#[test]
fn batch_counter_faults() {
    let cfg = ManagerConfig {
        faults: Some(FaultConfig::parse("7:0.05").unwrap()),
        ..ManagerConfig::default()
    };
    let got = batch(&apps(&EIGHT, 30_000), &cfg, &[]);
    assert_eq!(
        got,
        [
            0x5ab1_3764_69b0_8ba8,
            0x7181_f539_7149_ed76,
            0x43bc_87b0_e39d_b08e,
            0x63b4_a273_3dfe_0cd3,
            0x01c8_6167_8589_7117,
        ],
        "{got:#x?}"
    );
}

#[test]
fn batch_chip_faults() {
    let cfg = ManagerConfig {
        chip_faults: Some(ChipFaultConfig::uniform(3, 1.0)),
        max_quanta: 400,
        ..ManagerConfig::default()
    };
    let got = batch(&apps(&EIGHT, 30_000), &cfg, &[]);
    assert_eq!(
        got,
        [
            0xeabb_021a_e8f0_9598,
            0x9c43_0dcf_c75c_dbf6,
            0xff1b_4c9b_031f_5d52,
            0xa196_e2e5_d0b1_d9a2,
            0x2881_0809_e287_77ba,
        ],
        "{got:#x?}"
    );
}

const SIX: [&str; 6] = ["nab_r", "hmmer", "leela_r", "astar", "gobmk", "mcf"];

#[test]
fn service_plain_drain() {
    let arrivals = [0, 0, 5_000, 40_000, 40_000, 200_000];
    let got = service(&apps(&SIX, 20_000), &arrivals, &service_cfg(2, 8));
    assert_eq!(
        got,
        [
            0x0be2_a159_3bca_d82c,
            0xeead_a59e_0895_cddd,
            0x041f_ca7a_7dcf_7286,
            0x559d_8431_7251_24b3,
            0x7992_d61a_5299_6690,
        ],
        "{got:#x?}"
    );
}

#[test]
fn service_zero_capacity_direct_attach() {
    let arrivals = [0, 0, 0, 0, 0, 0, 30_000, 30_000];
    let got = service(&apps(&EIGHT, 20_000), &arrivals, &service_cfg(2, 0));
    assert_eq!(
        got,
        [
            0x9205_ec96_6d66_5de3,
            0xbe85_879c_6c04_7c7a,
            0xde1a_653f_60c7_e452,
            0xc328_cadc_5934_6ca9,
            0x2513_461a_a009_b885,
        ],
        "{got:#x?}"
    );
}

#[test]
fn service_capacity_one_sheds() {
    let arrivals = [0; 8];
    let got = service(&apps(&EIGHT, 15_000), &arrivals, &service_cfg(2, 1));
    assert_eq!(
        got,
        [
            0x1db5_229c_8574_3341,
            0x6487_230e_328c_6a9e,
            0xa34c_1c94_1b98_3143,
            0x93cd_d242_4362_e341,
            0x2ce8_1e6c_1df9_9274,
        ],
        "{got:#x?}"
    );
}

#[test]
fn service_chip_faults_retry_and_fail() {
    let cfg = ServiceConfig {
        manager: ManagerConfig {
            chip_faults: Some(ChipFaultConfig::uniform(3, 1.0)),
            ..ManagerConfig::default()
        },
        queue_capacity: 8,
    };
    let arrivals = [0, 0, 20_000, 20_000, 40_000, 60_000];
    let apps = apps(&SIX, 200_000);
    // Every recovery path must actually fire in this case, or the pin
    // would not cover it.
    let mut p = RandomPairing::new(7);
    let r = run_service(&apps, &arrivals, &mut p, &cfg);
    let s = r.chip_faults;
    assert!(
        s.apps_evacuated > 0 && s.apps_crashed > 0 && s.apps_hung > 0,
        "{s:?}"
    );
    assert!(s.retries > 0 && s.failed > 0, "{s:?}");
    let got = service(&apps, &arrivals, &cfg);
    assert_eq!(
        got,
        [
            0xce25_383c_4203_9092,
            0xe2b2_2a6a_ce57_26ba,
            0xf72b_3e2d_45a5_684f,
            0x9898_901f_40d6_2a91,
            0x293d_327d_f9fd_cc97,
        ],
        "{got:#x?}"
    );
}

#[test]
fn service_counter_faults_trip_the_guardrails() {
    let cfg = ServiceConfig {
        manager: ManagerConfig {
            faults: Some(FaultConfig::uniform(5, 0.6)),
            ..ManagerConfig::default()
        },
        queue_capacity: 8,
    };
    let arrivals = [0, 0, 0, 0, 10_000, 10_000, 30_000, 50_000];
    let apps = apps(&EIGHT, 60_000);
    let mut p = Synpa::new(model());
    let r = run_service(&apps, &arrivals, &mut p, &cfg);
    assert!(r.degraded.fallback_entries > 0, "{:?}", r.degraded);
    let got = service(&apps, &arrivals, &cfg);
    assert_eq!(
        got,
        [
            0x7d61_8247_172a_f3e3,
            0x753d_8d3d_f6b8_d094,
            0x20eb_f20e_bf9d_f631,
            0x4cef_01e0_dc13_4174,
            0x84d7_04fb_d9f7_ad5b,
        ],
        "{got:#x?}"
    );
}
