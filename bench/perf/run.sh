#!/usr/bin/env bash
# Build the benchmark and the spd daemon from source, then run the
# benchmark from the repository root with the given arguments, e.g.
#
#   bash bench/perf/run.sh --workload paper-cold --seed 1 --seconds 20 --trace 0
#
# Build output goes to stderr, so the last line of stdout is the
# benchmark's JSON result.  Everything the build and the run write
# stays in _build/ and _perf/ under the repository root.
set -euo pipefail
cd "$(dirname "$0")/../.."
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env)"
fi
# the shared dune cache lives outside the checkout
export DUNE_CACHE=disabled
dune build --root . --display quiet bench/perf/perf.exe bin/spd.exe 1>&2
exec ./_build/default/bench/perf/perf.exe "$@"
