#!/bin/sh
# CLI error probes: each command must exit with the given status and
# exactly one stderr line matching the given text -- never an uncaught
# exception. An engine that cannot represent the circuit (TCG past 62
# modules) is rejected with AL013 before it places anything. Run by `dune runtest`:
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
probe 1 "input proven infeasible" \
  place --bench miller --infeasible-check --outline 10x10
probe 1 "input proven infeasible" \
  place --bench miller --infeasible-check --outline 10x10 --portfolio
probe 2 "AL013 error engine tcg" place --bench lnamixbias -e tcg
probe 2 "AL013 error engine tcg" \
  dashboard "$ledger" --out dashboard.html --bench biasynth -e tcg
exit $status
