#!/bin/sh
# CLI error probes: each command must exit with the given status and
# exactly one stderr line matching the given text -- never an uncaught
# exception. Run by `dune runtest`:
#   sh cli_errors.sh path/to/analog_place.exe path/to/ledger.jsonl
ap=$1
ledger=$2
status=0

probe() {
  want=$1
  text=$2
  shift 2
  "$ap" "$@" </dev/null >/dev/null 2>probe.err
  got=$?
  lines=$(wc -l <probe.err)
  if [ "$got" -ne "$want" ] || [ "$lines" -ne 1 ] \
    || ! grep -q "$text" probe.err || grep -q "exception" probe.err; then
    echo "FAIL: analog_place $*: exit $got (want $want), stderr:"
    cat probe.err
    status=1
  fi
}

probe 2 "error: cannot read missing/requests.jsonl" \
  batch missing/requests.jsonl
probe 2 "error: cannot write missing/out.jsonl" \
  batch - -o missing/out.jsonl
probe 2 "error: cannot write missing/p.txt" \
  serve --prom missing/p.txt
probe 2 "error: cannot read missing/requests.jsonl" \
  dashboard "$ledger" --out dashboard.html --requests missing/requests.jsonl
probe 1 "need --netlist FILE or --bench NAME" place
exit $status
