# Corundum-OCaml — top-level targets (the artifact's run.sh/results.sh).

.PHONY: all build test eval tables micro perf scale crash pmodel bench waste recovery-latency openloop doc loc clean

all: build

build:
	dune build @all

test:
	dune runtest

# Reproduce every table and figure; CSVs land in results/.
eval: tables micro perf scale crash

tables:
	dune exec bin/tables.exe -- all --csv

micro:
	dune exec bin/micro.exe

perf:
	dune exec bin/perf.exe

scale:
	dune exec bin/scale.exe -- --segments 300 --words 8000

crash:
	dune exec bin/crash_sweep.exe -- --samples 2

# Exhaustive crash-state model check + seeded-bug controls + trace conformance.
pmodel:
	dune exec bin/pmodel_check.exe -- check --baseline PMODEL_baseline.json
	dune exec bin/pmodel_check.exe -- controls
	dune exec bin/pmodel_check.exe -- conform transfer kvstore

bench:
	dune exec bench/main.exe

# Per-engine persist waste vs the minimal schedule, gated on the baseline.
waste:
	dune exec bench/main.exe -- --waste --waste-json pprof.waste.json --waste-baseline PPROF_baseline.json

recovery-latency:
	dune exec bench/main.exe -- recovery-latency --sweep

# Open-loop multi-domain latency harness, gated on the committed baseline.
openloop:
	dune exec bench/main.exe -- openloop --domains 2 --ops 5000 --json openloop.now.json --baseline OPENLOOP_baseline.json
	timeout 120 dune exec bench/main.exe -- openloop --shared --domains 4 --ops 2000 --psan --json openloop.shared.json --baseline OPENLOOP_baseline.json
	timeout 120 dune exec bench/main.exe -- openloop --shared --domains 2 --ops 10000 --json openloop.shared2.json --baseline OPENLOOP_baseline.json

doc:
	dune build @doc

# Net lines, the size metric ROADMAP tracks: the libraries (.ml + .mli),
# the tools (bench, bin, examples; bench/suite excluded) and their total,
# then each library directory on its own.
loc:
	@printf 'lib   %s\n' $$(cat lib/*/*.ml lib/*/*.mli | wc -l)
	@printf 'tools %s\n' $$(cat bench/*.ml bin/*.ml examples/*.ml | wc -l)
	@printf 'total %s\n' $$(cat lib/*/*.ml lib/*/*.mli bench/*.ml bin/*.ml examples/*.ml | wc -l)
	@for d in lib/*/; do printf '%-16s %s\n' $${d%/} $$(cat $$d*.ml $$d*.mli 2>/dev/null | wc -l); done

clean:
	dune clean
	rm -rf results *.pool
