#!/usr/bin/env bash
# Budgeted fuzz smoke lane (target: under 60 seconds on the normal build):
#
#  1. the ctest `fuzz` label — generator determinism, the differential
#     corpus, forced-divergence minimization/repro round-trips, slices
#     of the fault-schedule and chaos explorers, and their sabotage
#     self-tests;
#  2. a fixed-seed 200-query differential campaign on both engines,
#     updating queries included (fails on any divergence, repro files
#     landing in $OUT);
#  3. a 400-schedule fault exploration at seeds 1-3 (file-backed WALs
#     included) asserting the four 2PC invariants (at-most-once,
#     all-or-nothing, no in-doubt leaks, serial equivalence);
#  4. a membership-chaos smoke at seeds 1-3: the full 384-cell grid plus a
#     sampled tail, so every seed runs writes (an all-copies 2PC update
#     mid-workload) and membership changes (kills, revives, joins,
#     rebalances, catalog bumps), asserting the nine chaos invariants
#     including no-lost-shard and replica-convergence (DESIGN.md §14).
#
# Long soak campaigns (thousands of queries/schedules, many seeds) run the
# same binaries by hand — see EXPERIMENTS.md.
#
# Usage: tools/check_fuzz.sh [build-dir]
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${1:-$ROOT/build}"
OUT="$(mktemp -d)"
trap 'rm -rf "$OUT"' EXIT

cmake -B "$BUILD" -S "$ROOT" > /dev/null
cmake --build "$BUILD" -j --target \
      fuzz_differential fuzz_schedules differential_corpus_test \
      fuzz_smoke_test > /dev/null

(cd "$BUILD" && ctest --output-on-failure -L fuzz -j"$(nproc)")

"$BUILD/tools/fuzz_differential" --seed 1 --count 200 --out-dir "$OUT"
for seed in 1 2 3; do
  "$BUILD/tools/fuzz_schedules" --seed "$seed" --count 400 --out-dir "$OUT" \
      --wal-dir "$OUT"
done
for seed in 1 2 3; do
  "$BUILD/tools/fuzz_schedules" --chaos --seed "$seed" --count 400 \
      --out-dir "$OUT"
done

echo "fuzz smoke: OK"
