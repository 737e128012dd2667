.PHONY: all check test bench perf qor report dashboard loc clean

all:
	dune build @all

# tier-1 verification: full build + every test suite
check:
	dune build && dune runtest

test: check

# regenerate every paper artefact (micro/perf excluded, ~2 min)
bench:
	dune exec bench/main.exe

# evaluation-engine throughput + parallel annealing scaling
# (writes BENCH_perf.json)
perf:
	dune exec bench/main.exe -- perf

# QoR regression gate: append a fresh run ledger (E18, deterministic
# seeds) and diff it against the committed baseline; non-zero exit on
# regression. Regenerate the baseline with:
#   ANALOG_LEDGER=bench/qor_baseline.jsonl dune exec bench/main.exe -- qor
qor:
	dune exec bench/main.exe -- qor
	dune exec bin/analog_place.exe -- report BENCH_ledger.jsonl \
	  --baseline bench/qor_baseline.jsonl --svg-dir qor-svg

# trend report over the local bench ledger (no baseline)
report:
	dune exec bin/analog_place.exe -- report BENCH_ledger.jsonl

# the flight recorder: one self-contained HTML page over the local
# bench ledger, with a live instrumented place-and-route for the
# convergence and congestion panels (writes flight-recorder.html)
dashboard:
	dune exec bin/analog_place.exe -- dashboard BENCH_ledger.jsonl \
	  --out flight-recorder.html --bench miller --engine sp --route

# line total of the tracked lib/ bin/ bench/ OCaml sources (.ml/.mli)
loc:
	@git ls-files -- lib bin bench | grep -E '\.mli?$$' | xargs cat | wc -l

clean:
	dune clean
