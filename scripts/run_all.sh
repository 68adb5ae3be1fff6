#!/usr/bin/env bash
# Regenerate every dataset under the directory given (default results/),
# with one blow-up solve at the command-line defaults, ending with the
# Table-1 grid and its manifest check; about 5.5 s on a 2-core machine
# at the default tolerances, about 0.2 s of it start-up in each of its
# 12 processes.
set -euo pipefail
if [ $# -gt 0 ]; then ROOT="$(realpath -m "$1")"; else ROOT=results; fi
cd "$(dirname "$0")/.."
bash scripts/make_figure_data.sh "$ROOT"
bash scripts/make_continuation_data.sh "$ROOT"
blowup-lab solve --out "$ROOT/solve"
bash scripts/make_table1.sh "$ROOT/table1"
