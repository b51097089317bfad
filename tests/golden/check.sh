#!/usr/bin/env bash
# Pins *what* the experiment binaries print, not only that the engines
# agree with each other. Runs `full_chip` and `open_system` in the CI
# configurations under every engine and SYNPA_THREADS in {1,4}, strips the
# banner and wall-time lines (and, in the faulted full_chip runs, the
# matcher accounting line) exactly as the CI byte-diff steps do, and diffs
# each table against its golden file in this directory.
#
# Usage, from anywhere, after `cargo build --release`:
#
#   tests/golden/check.sh
#
# The binaries cache under ./results, so they run in a temporary directory;
# SYNPA_FRESH=1 makes full_chip recompute every cell.
set -euo pipefail
golden="$(cd "$(dirname "$0")" && pwd)"
bin="$golden/../../target/release"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
cd "$work"

# check <golden name> <sed script> <binary> <args...>
check() {
    local name=$1 strip=$2
    shift 2
    for t in 1 4; do
        for e in reference percore; do
            SYNPA_FRESH=1 SYNPA_THREADS=$t "$bin/$1" "${@:2}" --engine "$e" |
                sed "$strip" >out.txt
            test -s out.txt # a crash must not diff as empty-vs-empty
            diff "$golden/$name.txt" out.txt || {
                echo "golden mismatch: $name, engine $e, SYNPA_THREADS=$t" >&2
                exit 1
            }
        done
    done
    echo "ok: $name"
}

check full_chip_smoke '1d;/wall time/d' full_chip --smoke
check full_chip_faults '1d;/wall time/d;/matcher/d' full_chip --smoke --faults 7:0.05
check full_chip_chip_faults '1d;/wall time/d;/matcher/d' full_chip --smoke --chip-faults 7:0.05
check open_system_smoke '1d;/wall time/d' open_system --smoke
check open_system_faults '1d;/wall time/d' open_system --smoke --faults 7:0.05
check open_system_chip_faults '1d;/wall time/d' open_system --smoke --chip-faults 7:0.05
check open_system_queue_capacity_2 '1d;/wall time/d' open_system --smoke --queue-capacity 2
