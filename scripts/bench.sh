#!/usr/bin/env bash
# Host-side self-benchmark: wall-clock, copy-ledger, and scheduler
# contention measurements of the simulator itself (not the virtual
# machine times the other bench binaries report). Runs the full
# selfbench matrix — 3 backends x small/large problem x 4/16 ranks x
# strict-checker on/off, each cell 3 reps reporting the median — plus
# an executor rank sweep (4 -> 1024 ranks), and writes
# BENCH_selfbench.json at the repo root.
#
# Usage:
#   scripts/bench.sh                  # full matrix + rank sweep
#                                     #   -> BENCH_selfbench.json
#   scripts/bench.sh --smoke          # 3-cell smoke subset (no sweep)
#   scripts/bench.sh --scale-smoke    # 16- and 256-rank cells: absolute
#                                     #   budget + host us/op ratio (CI
#                                     #   scaling gate)
#   scripts/bench.sh --embed-before OLD.json
#                                     # splice a previous run under "before"
#                                     # for a before/after comparison file
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -p amrio-bench --bin selfbench
exec cargo run --release -q -p amrio-bench --bin selfbench -- "$@"
