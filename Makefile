# Convenience entry points; everything is plain dune underneath.

.PHONY: all build test analyze bench-smoke bench-diff soak explain loc check clean

all: build

build:
	dune build

test:
	dune runtest

# Quick end-to-end smoke: reduced-size paper experiments and ablations,
# then the bechamel micro-benchmarks (including the jobs=1 vs jobs=N pair
# and the recorder-only and full tracer runs). --jobs 0 = auto, so the
# WEAVER_JOBS environment variable (the CI matrix axis) picks the worker
# count.
bench-smoke: build
	dune exec bench/main.exe -- --jobs 0 --json _build/bench-quick.json quick

# Compare two saved perfbench outputs (stdout of perfbench/run.sh) on the
# end-to-end metrics of BENCHMARK.json: prints each relative change and
# fails if any metric got worse than its bound.
#   make bench-diff OLD=parent.out NEW=change.out
bench-diff:
	@test -n "$(OLD)" && test -n "$(NEW)" || \
	  { echo "usage: make bench-diff OLD=file NEW=file" >&2; exit 2; }
	@sh scripts/bench-diff.sh "$(OLD)" "$(NEW)"

# Robustness soak: the faults suite (storm soak under a token budget; the
# flip-storm sweep across no-integrity / verify / verify+checkpoint with
# its 100%/0% detection split and >=30% replay reduction) and the service
# suite (goodput flat from 0.5x to 4x admit capacity under storms, tokens
# within budget, zero leaks).
soak: build
	dune exec test/test_main.exe -- test '^(faults|service)$$'

# Static-analysis gate over every golden workload (micro-patterns
# (a)-(e), ab, Q1, Q21): exits nonzero on any gating diagnostic.
analyze: build
	dune exec bin/weaver_cli.exe -- analyze all > _build/analyze.json

# Per-operator EXPLAIN ANALYZE over the same golden set: the
# cost-attribution table (cycles, roofline, fusion counterfactual) in
# both text and JSON form. The renderer checks the conservation law per
# query; the grep asserts it held for all 8 goldens and nothing printed
# VIOLATED.
explain: build
	dune exec bin/weaver_cli.exe -- explain all > _build/explain.txt
	dune exec bin/weaver_cli.exe -- explain all --json > _build/explain.json
	@test "$$(grep -c 'conservation: exact' _build/explain.txt)" -eq 8
	@! grep -q 'conservation: VIOLATED' _build/explain.txt
	@echo "explain: conservation exact on all 8 golden workloads"

# Code size, tracked as a design measurement: lines per lib/ library, the
# bench/ harness, and the number of settable fields in Config.t and
# Service.config.
loc:
	@for d in lib/*/; do \
	  printf '%6d %s\n' "$$(cat $$d*.ml $$d*.mli | wc -l)" "$$d"; \
	done
	@printf '%6d total\n' "$$(cat lib/*/*.ml lib/*/*.mli | wc -l)"
	@printf '%6d bench/\n' "$$(cat bench/*.ml | wc -l)"
	@printf 'Config.t fields: %d\n' "$$(awk '/^type t = \{/ { f = 1; next } \
	  f && /^\}/ { f = 0 } f && /^  [a-z_]+ :/ { n++ } END { print n }' \
	  lib/weaver/config.ml)"
	@printf 'Service.config fields: %d\n' "$$(awk '/^type config = \{/ { f = 1; next } \
	  f && /^\}/ { f = 0 } f && /^  [a-z_]+ :/ { n++ } END { print n }' \
	  lib/weaver/service.ml)"

check: build test analyze explain bench-smoke

clean:
	dune clean
