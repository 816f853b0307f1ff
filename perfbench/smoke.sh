#!/usr/bin/env bash
# Short smoke of all three workloads on the build seed and on the held-out
# seed. Fails unless every run reports correct outputs and no failed
# request. Run from the repository root:
#
#   bash perfbench/smoke.sh
set -euo pipefail

build_seed=1        # the seed the benchmark was developed and tuned on
heldout_seed=424242 # never used while tuning
for seed in "$build_seed" "$heldout_seed"; do
	for w in batch-full eco-tiled runt-filter; do
		line=$(bash perfbench/run.sh --workload "$w" --seed "$seed" --seconds 2 --trace 0 | tail -n 1)
		case $line in
		*'"correct":true,'*'"failed":0,'*) echo "ok   $w seed=$seed" ;;
		*) echo "FAIL $w seed=$seed: $line" >&2; exit 1 ;;
		esac
	done
done
