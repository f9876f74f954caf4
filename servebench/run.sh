#!/usr/bin/env bash
# Builds the serving benchmark from this source tree and runs it.
#   bash servebench/run.sh --workload hot-mix --seed 1 --seconds 25 --trace 0
# Build output goes to stderr; the benchmark's last stdout line is its
# JSON result.  See servebench/README.md.
set -eu
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib/serve ]; then
  echo "servebench: not inside a full source tree (dune-project, lib/ missing)" >&2
  exit 2
fi
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env)"
fi
export DUNE_CACHE=disabled
dune build --root . --display quiet ./servebench/main.exe 1>&2
exec ./_build/default/servebench/main.exe "$@"
