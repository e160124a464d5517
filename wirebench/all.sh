#!/usr/bin/env bash
# Runs every workload once untraced (end-to-end metrics) and once traced
# (per-layer metrics), printing each run's table, then the untraced
# score-same-length run, which shows that same-length series get the cached
# training scores. From the repository root:
#   bash wirebench/all.sh [seed] [seconds]
set -euo pipefail
seed="${1:-1}"
seconds="${2:-20}"
for trace in 0 1; do
    for workload in score-bulk fit-ingest stream-push; do
        bash wirebench/run.sh --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace"
    done
done
bash wirebench/run.sh --workload score-same-length --seed "$seed" --seconds "$seconds" --trace 0
