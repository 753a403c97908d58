# Convenience targets; everything is plain dune underneath.

.PHONY: all build test check exp-determinism sweep-smoke sweep-smoke-bigarray serve-smoke bench \
	bench-standard bench-json bench-scale bench-scale-smoke bench-lanes \
	bench-lanes-smoke bench-compare examples clean

all: build

build:
	dune build @all

test:
	dune runtest

# CI gate: build, tests, then the quick-scale experiment suite with
# machine-readable artifacts — non-zero exit iff any verdict fails.
# _results is removed first: stale artifacts from an earlier run must
# not be able to mask a missing-output bug in this one.
check:
	rm -rf _results
	dune build @all
	dune runtest
	dune exec bin/main.exe -- exp --scale quick --check --format json --out _results

# Experiment artifacts must not depend on the domain count: the quick
# suite at COBRA_DOMAINS=1 and at COBRA_DOMAINS=2, each into its own
# directory, may differ only in the wall-clock and domain-count fields.
exp-determinism:
	rm -rf _results/det-1 _results/det-2
	COBRA_DOMAINS=1 dune exec bin/main.exe -- exp --scale quick --format json --out _results/det-1 > /dev/null
	COBRA_DOMAINS=2 dune exec bin/main.exe -- exp --scale quick --format json --out _results/det-2 > /dev/null
	diff -r -I '"elapsed_s"' -I '"domains"' _results/det-1 _results/det-2
	@echo "exp-determinism: artifacts identical at COBRA_DOMAINS 1 and 2"

# End-to-end crash/resume drill for the sweep subsystem: run a tiny
# campaign to completion, then the same campaign interrupted after 3
# cells and resumed, and require the manifest and every cell checkpoint
# to be byte-identical. Exercises the real CLI, not just the library.
SMOKE_GRID = name=smoke;graphs=cycle:12,complete:8,ba:24x2;kernels=cobra,bips,sis,seir;trials=3
sweep-smoke:
	rm -rf _results/smoke-a _results/smoke-b
	dune exec bin/main.exe -- sweep --grid '$(SMOKE_GRID)' --out _results/smoke-a --seed 5
	dune exec bin/main.exe -- sweep --grid '$(SMOKE_GRID)' --out _results/smoke-b --seed 5 --max-cells 3
	dune exec bin/main.exe -- sweep --grid '$(SMOKE_GRID)' --out _results/smoke-b --seed 5 --resume
	cmp _results/smoke-a/manifest.json _results/smoke-b/manifest.json
	for f in _results/smoke-a/cells/*.json; do \
	  cmp "$$f" "_results/smoke-b/cells/$$(basename $$f)" || exit 1; \
	done
	@echo "sweep-smoke: resumed campaign is byte-identical"

# The same drill through the off-heap Bigarray topology backend: the
# campaign meta carries backend=bigarray, the kill/resume must still be
# byte-identical, and — because the backend is part of the campaign
# identity — resuming those checkpoints under the default heap backend
# must refuse rather than silently mix representations.
SMOKE_GRID_BIG = $(SMOKE_GRID);backend=bigarray
sweep-smoke-bigarray:
	rm -rf _results/smoke-big-a _results/smoke-big-b
	dune exec bin/main.exe -- sweep --grid '$(SMOKE_GRID_BIG)' --out _results/smoke-big-a --seed 5
	dune exec bin/main.exe -- sweep --grid '$(SMOKE_GRID_BIG)' --out _results/smoke-big-b --seed 5 --max-cells 3
	dune exec bin/main.exe -- sweep --grid '$(SMOKE_GRID_BIG)' --out _results/smoke-big-b --seed 5 --resume
	cmp _results/smoke-big-a/manifest.json _results/smoke-big-b/manifest.json
	for f in _results/smoke-big-a/cells/*.json; do \
	  cmp "$$f" "_results/smoke-big-b/cells/$$(basename $$f)" || exit 1; \
	done
	! dune exec bin/main.exe -- sweep --grid '$(SMOKE_GRID)' --out _results/smoke-big-a --seed 5 --resume
	@echo "sweep-smoke-bigarray: bigarray campaign byte-identical; cross-backend resume refused"

# End-to-end drill for the campaign service: batch reference sweep,
# daemon killed with SIGKILL mid-campaign, restart + resume must be
# byte-identical to the batch artifacts, and a resubmission of the same
# work must be served 100% from the content-addressed result cache.
serve-smoke:
	sh scripts/serve_smoke.sh

# Quick-scale kernels + experiment tables (~30 s)
bench:
	dune exec bench/main.exe

# The EXPERIMENTS.md numbers (~10 min)
bench-standard:
	COBRA_SCALE=standard dune exec bench/main.exe

# Machine-readable kernel timings (a cobra.bench/1 file: benchmark name
# -> ns/run) for diffing perf across PRs; skips the experiment tables.
bench-json:
	dune exec bench/main.exe -- --kernels-only --json BENCH_$$(date +%Y-%m-%d).json

# Large-n scaling rows: generation + one full COBRA cover on random
# 4-regular and hypercube instances at n = 10^4, 10^5, 10^6 on the heap
# backend, then the backend rows — rr4 on off-heap Bigarray CSR
# (n = 10^7 full) and the implicit d = 24 hypercube with no materialised
# topology — with peak RSS reported. The smoke variant (n = 10^4,
# bigarray n = 10^4, implicit d = 14) is the CI gate.
bench-scale:
	dune exec bench/main.exe -- scale --json BENCH_$$(date +%Y-%m-%d).json

bench-scale-smoke:
	dune exec bench/main.exe -- scale --smoke --json BENCH_smoke.json

# Bit-sliced lane engine vs the scalar loop: the same 64-trial BIPS and
# SIS batches through both engines on random 4-regular and hypercube
# instances (n = 2^10, 2^14, 2^17; smoke keeps 2^10 only). Fails when
# the sliced speedup on the rr4 instances drops below the floor
# (8x full, 2x smoke); rows land in the "lanes/" section of the JSON.
bench-lanes:
	dune exec bench/main.exe -- lanes --json BENCH_lanes_$$(date +%Y-%m-%d).json

bench-lanes-smoke:
	dune exec bench/main.exe -- lanes --smoke --json BENCH_lanes_smoke.json

# Regression gate between two cobra.bench/1 files (legacy flat files are
# accepted too): fails when any section's median new/old time ratio
# exceeds +25%, or when a section disappears.
# Usage: make bench-compare OLD=BENCH_a.json NEW=BENCH_b.json
bench-compare:
	@test -n "$(OLD)" -a -n "$(NEW)" || \
	  { echo "usage: make bench-compare OLD=old.json NEW=new.json"; exit 3; }
	dune exec bench/compare.exe -- $(OLD) $(NEW)

# Runs every example (~1 min, half of it duality_check).
examples:
	dune exec examples/quickstart.exe
	dune exec examples/duality_check.exe
	dune exec examples/grid_scaling.exe
	dune exec examples/expander_zoo.exe
	dune exec examples/herd_outbreak.exe
	dune exec examples/broadcast_race.exe
	dune exec examples/growth_curves.exe

clean:
	dune clean
