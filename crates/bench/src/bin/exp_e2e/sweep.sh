#!/usr/bin/env bash
# Runs every workload once per seed and appends each run to a record
# file that `exp_e2e compare` reads. Run it from the root of a checkout:
#
#   bash crates/bench/src/bin/exp_e2e/sweep.sh OUT.jsonl [TRACE] [SEED...]
#
# TRACE is 0 (end-to-end metrics, the default) or 1 (per-layer); the
# seeds default to 1..10. Each run measures for BENCHMARK.json's
# run_seconds (15).
set -uo pipefail
if [ $# -lt 1 ]; then
    echo "usage: $0 OUT.jsonl [TRACE] [SEED...]" >&2
    exit 2
fi
here=$(dirname "$0")
out=$1
trace=${2:-0}
shift $(($# < 2 ? $# : 2))
seeds=${*:-1 2 3 4 5 6 7 8 9 10}
status=0
for seed in $seeds; do
    for workload in paper600 dense600 scale6k-cached dirty3k-sanitize; do
        if ! bash "$here/run.sh" --workload "$workload" --seed "$seed" --trace "$trace" \
            --seconds 15 --record "$out" >/dev/null; then
            echo "run failed: $workload seed $seed" >&2
            status=1
        fi
    done
done
exit $status
