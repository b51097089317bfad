//! The committed golden tables, asserted from `cargo test`.
//!
//! Runs each `tests/golden/check.sh` configuration once, on the default
//! engine, and compares the stripped table with its golden file byte for
//! byte. `check.sh` stays the owner of the engine × `SYNPA_THREADS`
//! matrix; this test makes the same pin part of the ordinary test run.
//!
//! Each binary runs in its own scratch directory (the binaries cache
//! under `./results`) with `SYNPA_FRESH=1` set on the child only, so every
//! `full_chip` cell is recomputed.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Runs `bin` with `args` and returns its stdout with check.sh's `sed`
/// strip rule applied: the banner line and the wall-time lines go.
fn stripped_table(name: &str, bin: &str, args: &[&str]) -> String {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("golden-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(bin)
        .args(args)
        .current_dir(&dir)
        .env("SYNPA_FRESH", "1")
        .output()
        .unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(
        out.status.success(),
        "{name}: {bin} {args:?} failed: {out:?}"
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    stdout
        .lines()
        .skip(1)
        .filter(|l| !l.contains("wall time"))
        .map(|l| format!("{l}\n"))
        .collect()
}

fn check(name: &str, bin: &str, args: &[&str]) {
    let golden: PathBuf = [env!("CARGO_MANIFEST_DIR"), "../../tests/golden"]
        .iter()
        .collect::<PathBuf>()
        .join(format!("{name}.txt"));
    let want = std::fs::read_to_string(&golden).unwrap();
    let got = stripped_table(name, bin, args);
    assert!(!got.is_empty(), "{name}: empty table");
    assert!(
        got == want,
        "golden mismatch: {name}\n--- {}\n{want}\n+++ got\n{got}",
        golden.display()
    );
}

const FULL_CHIP: &str = env!("CARGO_BIN_EXE_full_chip");
const OPEN_SYSTEM: &str = env!("CARGO_BIN_EXE_open_system");

#[test]
fn full_chip_smoke() {
    check("full_chip_smoke", FULL_CHIP, &["--smoke"]);
}

#[test]
fn full_chip_faults() {
    let args = ["--smoke", "--faults", "7:0.05"];
    check("full_chip_faults", FULL_CHIP, &args);
}

#[test]
fn full_chip_chip_faults() {
    let args = ["--smoke", "--chip-faults", "7:0.05"];
    check("full_chip_chip_faults", FULL_CHIP, &args);
}

#[test]
fn open_system_smoke() {
    check("open_system_smoke", OPEN_SYSTEM, &["--smoke"]);
}

#[test]
fn open_system_faults() {
    let args = ["--smoke", "--faults", "7:0.05"];
    check("open_system_faults", OPEN_SYSTEM, &args);
}

#[test]
fn open_system_chip_faults() {
    let args = ["--smoke", "--chip-faults", "7:0.05"];
    check("open_system_chip_faults", OPEN_SYSTEM, &args);
}

#[test]
fn open_system_queue_capacity_2() {
    let args = ["--smoke", "--queue-capacity", "2"];
    check("open_system_queue_capacity_2", OPEN_SYSTEM, &args);
}
