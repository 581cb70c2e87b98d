#!/bin/sh
# Build mmdb_bench from this checkout's sources, then run it with the
# given arguments (see README.md in this directory).  Build output goes
# to stderr, so standard output is the benchmark's alone.
set -e
cd "$(dirname "$0")/../.."
DUNE_CACHE=disabled dune build --root . --display quiet ./bench/perf/mmdb_bench.exe 1>&2
exec ./_build/default/bench/perf/mmdb_bench.exe "$@"
