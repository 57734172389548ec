#!/usr/bin/env bash
# Entry point of the benchmark (see README.md next to this file).
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       one workload, one run; the last stdout line is the result JSON
#       (this is the form BENCHMARK.json's "command" names)
#   benchmark/run.sh run --seed <n> --out <file> [--seconds <s>] [--repeats <n>] [--smoke]
#       every workload untraced then traced, checks, one result file
#   benchmark/run.sh compare <base.json> <new.json>
#   benchmark/run.sh --selfcheck
#       cargo fmt --check, clippy -D warnings and the package's tests
#
# Builds the harness from source on first use. cargo runs from the repo
# root so that the root .cargo/config.toml (target-cpu=native: hardware
# FMA in the GEMM kernels) applies exactly as it does to the root build,
# and so that a relative CARGO_TARGET_DIR lands where the caller put it.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
manifest=benchmark/Cargo.toml

if [[ "${1:-}" == "--selfcheck" ]]; then
    cargo fmt --manifest-path "$manifest" -- --check
    cargo clippy --offline --manifest-path "$manifest" --all-targets -- -D warnings
    cargo test --offline --manifest-path "$manifest"
    exit 0
fi

exec cargo run --quiet --release --offline --manifest-path "$manifest" -- "$@"
