#!/usr/bin/env bash
# Post-blow-up continuation: noise-seeded real-time run, complex-time
# detour, and coefficient snapshots before/at/after t_c (read from the
# snapshots command's own blow-up solve and complex-time detour). Both
# continue commands leave their blow-up solve at t_c - r, r = 0.1 t_c;
# --seed picks the 1e-14-level imaginary seed added there.
# t_c ~ 0.162 for alpha = 0.25, epsilon = 0.1.
set -euo pipefail
ROOT="${1:-results}"
A=(--alpha 0.25 --epsilon 0.1)

blowup-lab continue  "${A[@]}" --t-end 0.5 --seed 0 --out "$ROOT/continue_seeded"
blowup-lab continue  "${A[@]}" --t-end 0.5 --method complex_path \
                     --out "$ROOT/continue_complex"
blowup-lab snapshots "${A[@]}" --out "$ROOT/snapshots"
