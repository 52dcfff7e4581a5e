# Convenience targets; `make check` is the CI entry point: full build,
# the test suite, a 200-seed differential fuzz smoke, a table6_3 smoke
# run twice — the second pass must be served entirely from the warm
# _spd_cache/ (its --timings must read preparations 0 and simulations
# 0, or the check fails) — a telemetry smoke that lints the trace and JSON
# report output with the in-repo JSON reader, and a translation-
# validation smoke that certifies every SpD application on the paper
# grid with the symbolic equivalence checker.

DUNE ?= dune
SMOKE_DIR ?= /tmp

.PHONY: all check test bench bench-json fuzz-smoke telemetry-smoke \
	bench-diff-smoke perf-smoke serve-smoke chaos-smoke obs-smoke \
	validate-smoke golden-promote clean

all:
	$(DUNE) build

test:
	$(DUNE) runtest

# Differential fuzz oracle: 200 seeded random programs through the
# plain interpreter vs the SpD-transformed + scheduled pipeline.
fuzz-smoke:
	$(DUNE) exec test/fuzz_diff.exe -- --count 200 --seed 42

# Telemetry smoke: a traced machine-readable run, then both output
# files validated by test/json_lint.exe.
telemetry-smoke:
	$(DUNE) exec bin/spd.exe -- report table6_3 --jobs 2 --no-cache \
	  --trace $(SMOKE_DIR)/spd_trace.json --format json \
	  > $(SMOKE_DIR)/spd_report.json
	$(DUNE) exec bin/spd.exe -- explain matmul300 --format json \
	  > $(SMOKE_DIR)/spd_explain.json
	$(DUNE) exec bin/spd.exe -- why matmul300 --format json \
	  > $(SMOKE_DIR)/spd_why.json
	$(DUNE) exec bin/spd.exe -- cache stats --json \
	  > $(SMOKE_DIR)/spd_cache.json
	$(DUNE) exec test/json_lint.exe -- \
	  $(SMOKE_DIR)/spd_trace.json $(SMOKE_DIR)/spd_report.json \
	  $(SMOKE_DIR)/spd_explain.json $(SMOKE_DIR)/spd_why.json \
	  $(SMOKE_DIR)/spd_cache.json

# Regression-tracker smoke: generate the cycles artefact twice (the
# second run is served from the warm cache, so the reports agree and
# `spd bench diff` must exit 0), then inject a deterministic 10% cycle
# inflation via the Faults hooks and require diff to exit 2.  The diff
# JSON is linted against the spd-bench-diff/1 schema.
bench-diff-smoke:
	$(DUNE) exec bin/spd.exe -- report cycles --jobs 2 --format json \
	  > $(SMOKE_DIR)/spd_bench_a.json
	$(DUNE) exec bin/spd.exe -- report cycles --jobs 2 --format json \
	  > $(SMOKE_DIR)/spd_bench_b.json
	$(DUNE) exec bin/spd.exe -- bench diff \
	  $(SMOKE_DIR)/spd_bench_a.json $(SMOKE_DIR)/spd_bench_b.json
	$(DUNE) exec bin/spd.exe -- report cycles --jobs 2 --format json \
	  --inject-fault cycles-inflate:10 > $(SMOKE_DIR)/spd_bench_slow.json
	$(DUNE) exec bin/spd.exe -- bench diff --format json \
	  $(SMOKE_DIR)/spd_bench_a.json $(SMOKE_DIR)/spd_bench_slow.json \
	  > $(SMOKE_DIR)/spd_bench_diff.json; \
	  status=$$?; if [ $$status -ne 2 ]; then \
	    echo "bench-diff-smoke: expected exit 2 on injected slowdown, got $$status"; \
	    exit 1; fi
	$(DUNE) exec test/json_lint.exe -- $(SMOKE_DIR)/spd_bench_diff.json

# Hot-path throughput gate: measure matmul300 and fail (exit 2) if
# simulate throughput drops more than 25% below the committed
# spd-micro/1 baseline snapshot.  The emitted document is linted
# against the schema.  Re-bless with:
#   dune exec bin/spd.exe -- bench micro matmul300 --format json \
#     > bench/history/micro-baseline.json
perf-smoke:
	$(DUNE) exec bin/spd.exe -- bench micro matmul300 --format json \
	  --baseline bench/history/micro-baseline.json --max-drop 25 \
	  > $(SMOKE_DIR)/spd_micro.json
	$(DUNE) exec test/json_lint.exe -- $(SMOKE_DIR)/spd_micro.json

# Daemon smoke: start a real `spd serve`, check that a served report is
# byte-identical to the CLI's JSON output and that a 100-request
# duplicate burst records exactly one simulation, exercise `spd call`
# and `shutdown`, then lint the saved spd-serve/1 documents.
serve-smoke:
	$(DUNE) exec test/serve_smoke.exe -- $(SMOKE_DIR)
	$(DUNE) exec test/json_lint.exe -- \
	  $(SMOKE_DIR)/spd_serve_ping.json $(SMOKE_DIR)/spd_serve_query.json \
	  $(SMOKE_DIR)/spd_serve_run.json $(SMOKE_DIR)/spd_serve_stats.json \
	  $(SMOKE_DIR)/spd_serve_shutdown.json

# Crash-only chaos smoke: a real `spd serve` under torn frames, garbage
# headers, stalled connections and an injected worker-raise fault.
# Good requests must get byte-identical answers, the worker crew must
# recover (restart counter > 0, workers-alive back to full), SIGTERM
# must drain the in-flight request before exit 0, and a saturated
# daemon must refuse with `server busy` + retry_after_ms.
chaos-smoke:
	$(DUNE) exec test/chaos_smoke.exe -- $(SMOKE_DIR)
	$(DUNE) exec test/json_lint.exe -- \
	  $(SMOKE_DIR)/spd_chaos_health.json $(SMOKE_DIR)/spd_chaos_refused.json \
	  $(SMOKE_DIR)/spd_chaos_busy.json

# Observability smoke: a real `spd serve --log --trace --slow-ms`
# under a mixed RPC burst.  Asserts rid echoing on every envelope,
# exact per-method latency histogram counts with a sane p95, a
# monotone Prometheus exposition whose +Inf bucket equals _count, a
# served `why` decision ledger and `validate` verdict ledger
# byte-identical to the `spd why` / `spd validate` CLI documents, one
# `spd top` frame, and a structured log + trace profile that agree
# with the responses; then lints the spd-log/1 lines, the trace, the
# saved envelope and the spd-decisions/1 + spd-validate/1 ledgers with
# the in-repo reader.
obs-smoke:
	$(DUNE) exec test/obs_smoke.exe -- $(SMOKE_DIR)
	$(DUNE) exec test/json_lint.exe -- \
	  $(SMOKE_DIR)/spd_obs_log.jsonl $(SMOKE_DIR)/spd_obs_trace.json \
	  $(SMOKE_DIR)/spd_obs_envelope.json $(SMOKE_DIR)/spd_obs_why.json \
	  $(SMOKE_DIR)/spd_obs_validate.json

# Translation-validation smoke: certify the full paper grid with the
# symbolic equivalence checker (`spd report --validate` exits 2 on any
# refuted verdict or failed cell), then emit one per-workload
# spd-validate/1 document and lint it against the schema.
validate-smoke:
	$(DUNE) exec bin/spd.exe -- report --validate --jobs 2
	$(DUNE) exec bin/spd.exe -- validate matmul300 --format json \
	  > $(SMOKE_DIR)/spd_validate.json
	$(DUNE) exec test/json_lint.exe -- $(SMOKE_DIR)/spd_validate.json

# Regenerate the golden-schedule corpus under test/golden/ after an
# intentional scheduler or DDG change; review the grid diff and commit.
golden-promote:
	$(DUNE) exec test/golden_promote.exe

check: all
	$(DUNE) runtest
	$(MAKE) fuzz-smoke
	$(DUNE) exec bin/spd.exe -- report table6_3 --jobs 2
	$(DUNE) exec bin/spd.exe -- report table6_3 --jobs 2 --timings \
	  > $(SMOKE_DIR)/spd_warm_rerun.txt
	cat $(SMOKE_DIR)/spd_warm_rerun.txt
	@grep -Eq '^preparations +0$$' $(SMOKE_DIR)/spd_warm_rerun.txt \
	  && grep -Eq '^simulations +0$$' $(SMOKE_DIR)/spd_warm_rerun.txt \
	  || { echo "check: the table6_3 rerun was not served entirely" \
	    "from the warm _spd_cache/"; exit 1; }
	$(MAKE) telemetry-smoke
	$(MAKE) bench-diff-smoke
	$(MAKE) perf-smoke
	$(MAKE) serve-smoke
	$(MAKE) chaos-smoke
	$(MAKE) obs-smoke
	$(MAKE) validate-smoke

bench:
	$(DUNE) exec bin/spd.exe -- report all --timings

# The full report (paper artefacts + extensions) as one spd-report/1
# JSON document; see EXPERIMENTS.md for the schema.
bench-json:
	$(DUNE) exec bin/spd.exe -- report all --format json > BENCH_REPORT.json

clean:
	$(DUNE) clean
	rm -rf _spd_cache
