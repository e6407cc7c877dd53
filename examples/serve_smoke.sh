#!/bin/sh
# Usage: serve_smoke.sh <sse_cli> <vault dir>
# Runs `sse_cli <vault> serve 0` with stdin at EOF, twice: on a fresh vault,
# then again after overwriting the vault's client.state with 7 garbage
# bytes (serving builds no client, so client state must not matter). Each
# run passes when it exits 0 after printing its `serving` banner. The
# environment passes through (SSE_REPL_ROLE=primary selects the
# replication node).
set -eu
rm -rf "$2"

serve_once() {
  out=$("$1" "$2" serve 0 </dev/null)
  printf '%s\n' "$out"
  printf '%s\n' "$out" | grep -q '^serving '
}

serve_once "$1" "$2"
printf 'garbage' > "$2/client.state"
serve_once "$1" "$2"
