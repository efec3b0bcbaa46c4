#!/usr/bin/env bash
# Builds malisim-perf into build-perf/ (RelWithDebInfo) and runs it from the
# repository root; every argument is passed through. See README.md.
#   bench/perf/run.sh [--seed=N] [--out=FILE]          all workloads + layers
#   bench/perf/run.sh --workload W --seed N --seconds S --trace 0|1
#   bench/perf/run.sh --self-test
set -euo pipefail
cd "$(dirname "$0")/../.."
cmake -S bench/perf -B build-perf -DCMAKE_BUILD_TYPE=RelWithDebInfo >&2
cmake --build build-perf --target malisim-perf -j 4 >&2
exec build-perf/malisim-perf "$@"
