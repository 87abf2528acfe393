#!/usr/bin/env bash
# Golden-output gate: reruns every reproduction bench (all of
# crates/bench/benches except the criterion `crit_*` timing benches) and
# fails if any CSV under bench_results/ changed.
#
# Two CSVs are exempt because they hold wall-clock columns that differ on
# every run:
#   region_scale.csv   ns-per-probe timings of the region scaling curve
#   kernels_scale.csv  per-kernel ns timings of the kernel scaling sweep
#
# The committed bench_results/ is restored on exit, pass or fail, so the
# working tree is left exactly as it was found.
set -euo pipefail
cd "$(dirname "$0")/.."

WALL_CLOCK_CSVS=(region_scale.csv kernels_scale.csv)

SNAPSHOT=$(mktemp -d)
cp -a bench_results/. "$SNAPSHOT/"
restore() {
  for f in bench_results/*; do
    [ -e "$SNAPSHOT/$(basename "$f")" ] || rm -f "$f"
  done
  cp -a "$SNAPSHOT/." bench_results/
  rm -rf "$SNAPSHOT" "$SNAPSHOT.err"
}
trap restore EXIT

for src in crates/bench/benches/*.rs; do
  bench=$(basename "$src" .rs)
  case "$bench" in crit_*) continue ;; esac
  echo "  bench $bench"
  if ! cargo bench -q -p bolt-bench --bench "$bench" > /dev/null 2> "$SNAPSHOT.err"; then
    cat "$SNAPSHOT.err"
    exit 1
  fi
done

excludes=()
for f in "${WALL_CLOCK_CSVS[@]}"; do excludes+=(--exclude="$f"); done
if ! diff -r "${excludes[@]}" "$SNAPSHOT" bench_results; then
  echo "golden: bench_results/ changed (see diff above)"
  exit 1
fi
echo "golden: every deterministic bench CSV regenerated byte-identical"
