#!/usr/bin/env bash
# Regenerate every artifact in results/ plus the top-level outputs.
# Usage: scripts/reproduce.sh [--paper]   (--paper adds the full
# 100x100k x30 Figure-8 sweeps; minutes of CPU)
set -euo pipefail
cd "$(dirname "$0")/.."

mkdir -p results
dune build @all

echo "== tests =="
dune runtest --force --no-buffer 2>&1 | tee test_output.txt | tail -2

echo "== quick experiment sweep =="
dune exec bin/mmfair.exe -- all --seed 42 > results/all_quick.txt
echo "  -> results/all_quick.txt"

if [ "${1:-}" = "--paper" ]; then
  echo "== paper-scale Figure 8 =="
  dune exec bin/mmfair.exe -- fig8 --shared 0.0001 --scale paper --seed 42 > results/fig8a_paper.txt
  dune exec bin/mmfair.exe -- fig8 --shared 0.05   --scale paper --seed 42 > results/fig8b_paper.txt
  echo "  -> results/fig8{a,b}_paper.txt"
fi

echo "== per-experiment CSV dumps =="
# One dump per committed results/csv/NAME.csv, the list CI checks.
for f in results/csv/*.csv; do
  cmd=$(basename "$f" .csv)
  dune exec bin/mmfair.exe -- "$cmd" --csv > "$f"
done
echo "  -> results/csv/*.csv"

echo "== benchmarks =="
dune exec bench/main.exe 2>&1 | tee bench_output.txt | tail -3
