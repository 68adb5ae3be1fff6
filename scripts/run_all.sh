#!/usr/bin/env bash
# Regenerate every dataset under the directory given (default results/),
# ending with the Table-1 grid and its manifest check; about 12 s on a
# 2-core machine at the default tolerances, 11 processes of which about
# 0.3 s each is start-up.
set -euo pipefail
if [ $# -gt 0 ]; then ROOT="$(realpath -m "$1")"; else ROOT=results; fi
cd "$(dirname "$0")/.."
bash scripts/make_figure_data.sh "$ROOT"
bash scripts/make_continuation_data.sh "$ROOT"
bash scripts/make_table1.sh "$ROOT/table1"
