#!/bin/sh
# Usage: serve_smoke.sh <sse_cli> <vault dir>
# Runs `sse_cli <vault> serve 0` on a fresh vault with stdin at EOF; passes
# when it exits 0 after printing its `serving` banner. The environment
# passes through (SSE_REPL_ROLE=primary selects the replication node).
set -eu
rm -rf "$2"
out=$("$1" "$2" serve 0 </dev/null)
printf '%s\n' "$out"
printf '%s\n' "$out" | grep -q '^serving '
