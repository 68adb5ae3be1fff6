#!/usr/bin/env bash
# Regenerate every dataset under the directory given (default results/),
# ending with the Table-1 grid and its manifest check; about 4 s on a
# 2-core machine at the default tolerances, about 1.2 s of it start-up
# over 11 processes.
set -euo pipefail
if [ $# -gt 0 ]; then ROOT="$(realpath -m "$1")"; else ROOT=results; fi
cd "$(dirname "$0")/.."
bash scripts/make_figure_data.sh "$ROOT"
bash scripts/make_continuation_data.sh "$ROOT"
bash scripts/make_table1.sh "$ROOT/table1"
