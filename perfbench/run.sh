#!/usr/bin/env bash
# Builds the server and perfbench.exe from source, then runs perfbench.exe
# with the given arguments, e.g.
#   bash perfbench/run.sh --workload browse-hot --seed 1 --seconds 10 --trace 0
# Build output goes to stderr; the last stdout line is the JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
# no shared build cache: the build writes only under ./_build
DUNE_CACHE=disabled dune build --root . ./bin/ssdql.exe ./perfbench/perfbench.exe 1>&2
exec ./_build/default/perfbench/perfbench.exe --ssdql ./_build/default/bin/ssdql.exe "$@"
