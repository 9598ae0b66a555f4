#!/bin/sh
# Full verification: every test, then every table/figure benchmark.
# Outputs land in test_output.txt / bench_output.txt and benchmarks/out/.
set -x
python -m pytest tests/ 2>&1 | tee /root/repo/test_output.txt
python benchmarks/perf/run.py --selftest 2>&1 | tee /root/repo/bench_perf_selftest_output.txt
python benchmarks/bench_churn_recovery.py --check 2>&1 | tee /root/repo/bench_churn_output.txt
python benchmarks/bench_sweep_parallel.py --check 2>&1 | tee /root/repo/bench_sweep_output.txt
python benchmarks/bench_fluid_agreement.py --check 2>&1 | tee /root/repo/bench_fluid_agreement_output.txt
python benchmarks/bench_fluid_scale.py --check 2>&1 | tee /root/repo/bench_fluid_scale_output.txt
python benchmarks/bench_scale_endpoints.py --check 2>&1 | tee /root/repo/bench_scale_output.txt
python benchmarks/bench_fairness.py --check 2>&1 | tee /root/repo/bench_fairness_output.txt
python benchmarks/bench_pdes_speedup.py --check 2>&1 | tee /root/repo/bench_pdes_output.txt
python benchmarks/bench_traversal.py --check 2>&1 | tee /root/repo/bench_traversal_output.txt
python -m pytest benchmarks/ --benchmark-only 2>&1 | tee /root/repo/bench_output.txt
