#!/bin/sh
# Serving smoke test: starts camadd, waits for its port file, drives every
# endpoint once with `camad_load --smoke` and, when load arguments follow,
# runs camad_load once more with them; then sends SIGTERM and requires a
# clean drain: camadd exits 0 and its --report artifact says
# "status":"drained".
#
# Usage: tools/serve_smoke.sh CAMADD CAMAD_LOAD REPORT [LOAD_ARGS...]
#
#   REPORT     where camadd writes its --report; the port file is
#              REPORT.port
#   LOAD_ARGS  camad_load arguments after --port, e.g.
#              --clients 8 --requests 25 --check --json
#
# Exits 0 when every step passes, 1 otherwise (2 on a usage error).
set -u

if [ $# -lt 3 ]; then
  echo "usage: serve_smoke.sh CAMADD CAMAD_LOAD REPORT [LOAD_ARGS...]" >&2
  exit 2
fi
camadd=$1
load=$2
report=$3
shift 3
port_file=$report.port

rm -f "$port_file" "$report"
"$camadd" --port-file "$port_file" --report="$report" &
pid=$!
# Kill the daemon by its own pid on every early exit, so a failed step
# never leaves it running.
trap 'kill -TERM "$pid" 2>/dev/null' EXIT

i=0
while [ ! -s "$port_file" ] && [ "$i" -lt 100 ]; do
  sleep 0.1
  i=$((i + 1))
done
if [ ! -s "$port_file" ]; then
  echo "serve_smoke: camadd wrote no port file" >&2
  exit 1
fi
port=$(cat "$port_file")

"$load" --port "$port" --smoke || exit 1
if [ $# -gt 0 ]; then
  "$load" --port "$port" "$@" || exit 1
fi

kill -TERM "$pid"
trap - EXIT
if ! wait "$pid"; then
  echo "serve_smoke: camadd did not exit 0 after SIGTERM" >&2
  exit 1
fi
test -s "$report" && grep -q '"status":"drained"' "$report"
