#!/usr/bin/env bash
# Blow-up time table over the 3x3 (alpha, epsilon) grid, with the
# two-mode and asymptotic estimate errors per cell.
set -euo pipefail
OUT="${1:-results/table1}"
blowup-lab table1 --out "$OUT"
blowup-lab table1 --out "$OUT" --verify
