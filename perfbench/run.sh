#!/usr/bin/env bash
# The campaign benchmark's single command. Builds the cobra CLI and the
# benchmark program from this checkout, then runs one workload:
#
#   bash perfbench/run.sh --workload sweep-expander|serve-expander|serve-tiny \
#       --seed N --seconds S --trace 0|1
#
# Run it from the root of a checkout. Everything it builds and writes
# lands under .bench_build/ (build tree, scratch campaigns, results).
# The last line of stdout is the JSON result; see perfbench/README.md.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -f bin/main.ml ] || [ ! -d lib ]; then
  echo "perfbench: run from the root of a cobra checkout (dune-project, bin/, lib/ not found)" >&2
  exit 2
fi

# No shared dune cache: the build stays inside the checkout.
export DUNE_CACHE=disabled
build="$PWD/.bench_build/dune"
mkdir -p .bench_build
dune build --root . --build-dir "$build" ./bin/main.exe ./perfbench/bench.exe >&2

commit=unknown
if [ -d .git ]; then
  commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)
fi

exec "$build/default/perfbench/bench.exe" --cobra "$build/default/bin/main.exe" \
  --commit "$commit" "$@"
