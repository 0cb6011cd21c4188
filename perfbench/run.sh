#!/bin/sh
# Build selest and the harness from source in this checkout, then run the
# served-estimate benchmark.  Arguments go to the harness unchanged:
#   bash perfbench/run.sh --workload tb_hot --seed 1 --seconds 10 --trace 0
# Build output goes to stderr; the last line of stdout is the JSON result.
set -eu
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: no selest sources next to the benchmark" >&2
  exit 2
fi
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env)"
fi
# Keep every build artefact inside the checkout.
export DUNE_CACHE=disabled
dune build --root . --display quiet bin/selest_cli.exe perfbench/main.exe 1>&2
set -- ./_build/default/perfbench/main.exe --selest ./_build/default/bin/selest_cli.exe "$@"
# Client and server share one CPU (the server inherits the affinity).  On a
# shared 2-vCPU VM a lock-step round trip across CPUs waits for the other
# vCPU to wake, which the neighbours' load stretches 2-4x; on one CPU the
# round trip is the syscalls, a context switch and the server's work.
if command -v taskset >/dev/null 2>&1; then
  exec taskset -c "$(($(nproc) - 1))" "$@"
fi
echo "perfbench: taskset not found, client and server run unpinned" >&2
exec "$@"
