#!/bin/sh
set -eu
# Full verification: tier-1, every gate at full size (which re-records
# the BENCH_<case>.json files), the perf selftest, then every
# table/figure/ablation sweep re-run from scratch on two workers and
# rendered by its benchmark. Each step logs to <name>_output.txt beside
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
step paper python -m repro.exp run --workers 2 --force \
    table2 table3 table4 table5 fig06 fig07 fig08 fig09 fig10 fig11 \
    fig12 fig13 fig14 ablation_grouping ablation_keepalive \
    ablation_migration ablation_overlay_datapath
step bench python -m pytest benchmarks/
