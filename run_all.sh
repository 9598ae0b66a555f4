#!/bin/sh
set -eu
# Full verification: tier-1, every gate at full size (which re-records
# the BENCH_<case>.json files), the perf selftest, then every
# table/figure benchmark. Each step logs to <name>_output.txt beside
# this script; the first step that fails ends the script with its status.
cd "$(dirname "$0")"
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

step() {
    log="$1_output.txt"; shift
    echo "== $* > $log"
    "$@" > "$log" 2>&1
}

step test python -m pytest tests/
step gates python benchmarks/gates.py
step bench_perf_selftest python benchmarks/perf/run.py --selftest
step bench python -m pytest benchmarks/ --benchmark-only
