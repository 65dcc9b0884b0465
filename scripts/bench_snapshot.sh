#!/usr/bin/env bash
# Snapshot the round-pipeline, client-training, round-plane,
# robust-aggregation, buffered-aggregation, population-scaling and
# checkpoint-codec criterion benches into a machine-readable JSON file (default: BENCH_PR9.json at the
# repo root).
#
# The workspace's criterion shim appends one JSON line per benchmark to the
# file named by FEDCROSS_BENCH_JSON; this script runs the `aggregation`,
# `fl_round`, `client_training`, `round_plane`, `robust_aggregation`,
# `buffered_aggregation`, `population_scale` and `checkpoint_codec` benches
# with that hook enabled and wraps the lines into a JSON document. The
# `population_scale/*` group sweeps the sharded lazy data plane from 10^3 to
# 10^6 clients at fixed K=10 — per-round cost and cohort selection must stay
# flat in the population (see docs/SCALE.md). The `checkpoint_codec/*` group
# times checkpoint save (fsync included) and load at d = 10^5..10^7 and
# prints the file size at each d (see docs/PERFORMANCE.md).
# Note that since PR 3 the
# `fl_round/one_round/*` benchmarks measure *steady-state* rounds on the
# persistent worker plane (warm cached models), which is the cost a
# multi-round simulation actually pays per round; compare against
# `round_plane/fedcross_round_clone_per_round` for the historical cold cost.
set -euo pipefail

cd "$(dirname "$0")/.."
out="${1:-BENCH_PR9.json}"
lines="$(mktemp)"
trap 'rm -f "$lines"' EXIT

FEDCROSS_BENCH_JSON="$lines" cargo bench -p fedcross-bench --bench aggregation
FEDCROSS_BENCH_JSON="$lines" cargo bench -p fedcross-bench --bench fl_round
FEDCROSS_BENCH_JSON="$lines" cargo bench -p fedcross-bench --bench client_training
FEDCROSS_BENCH_JSON="$lines" cargo bench -p fedcross-bench --bench round_plane
FEDCROSS_BENCH_JSON="$lines" cargo bench -p fedcross-bench --bench robust_aggregation
FEDCROSS_BENCH_JSON="$lines" cargo bench -p fedcross-bench --bench buffered_aggregation
FEDCROSS_BENCH_JSON="$lines" cargo bench -p fedcross-bench --bench population_scale
FEDCROSS_BENCH_JSON="$lines" cargo bench -p fedcross-bench --bench checkpoint_codec

{
    printf '{\n'
    printf '  "schema": "fedcross-bench-snapshot-v1",\n'
    printf '  "command": "scripts/bench_snapshot.sh",\n'
    printf '  "host_cores": %s,\n' "$(nproc)"
    printf '  "benches": [\n'
    sed 's/^/    /' "$lines" | sed '$!s/$/,/'
    printf '  ]\n'
    printf '}\n'
} > "$out"

echo "wrote $out ($(grep -c '"bench"' "$out") benchmarks)"
