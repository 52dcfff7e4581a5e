# Convenience targets; `make check` is the CI entry point: full build,
# the test suite (its golden corpus pins the schedules, the validation
# ledger, every why/validate/explain document and every report artefact
# but the wall-clock timings), a 200-seed differential fuzz smoke, a
# table6_3 smoke run twice — the second pass must be served entirely
# from the warm _spd_cache/ (its --timings must read preparations 0 and
# simulations 0, or the check fails) — a zero --mem-latency or --width
# refused with exit 124 and the shared positive-integer wording, a
# telemetry smoke that lints the trace and JSON report output with the
# in-repo JSON reader, the daemon smokes, a translation-validation smoke
# that certifies every SpD application on the paper grid with the
# symbolic equivalence checker, and last the hot-path throughput gate
# (perf-smoke), so a failing gate does not keep the daemon and
# validation smokes from running.

DUNE ?= dune
SMOKE_DIR ?= /tmp

.PHONY: all check test bench bench-json fuzz-smoke telemetry-smoke \
	perf-smoke serve-smoke chaos-smoke obs-smoke validate-smoke \
	golden-promote clean

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
# served `explain` document, `why` decision ledger and `validate`
# verdict ledger byte-identical to the `spd explain` / `spd why` /
# `spd validate` CLI documents, one `spd top` frame, and a structured
# log + trace profile that agree with the responses; then lints the
# spd-log/1 lines, the trace, the saved envelope and the
# spd-explain/1, spd-decisions/1 + spd-validate/1 documents with the
# in-repo reader.
obs-smoke:
	$(DUNE) exec test/obs_smoke.exe -- $(SMOKE_DIR)
	$(DUNE) exec test/json_lint.exe -- \
	  $(SMOKE_DIR)/spd_obs_log.jsonl $(SMOKE_DIR)/spd_obs_trace.json \
	  $(SMOKE_DIR)/spd_obs_envelope.json $(SMOKE_DIR)/spd_obs_explain.json \
	  $(SMOKE_DIR)/spd_obs_why.json $(SMOKE_DIR)/spd_obs_validate.json

# Translation-validation smoke: certify the full paper grid with the
# symbolic equivalence checker (`spd report --validate` exits 2 on any
# refuted verdict or failed cell), then emit one per-workload
# spd-validate/1 document and lint it against the schema.  Both run
# without the disk cache, so the smoke runs the validator itself rather
# than reading verdicts an earlier build cached.
validate-smoke:
	$(DUNE) exec bin/spd.exe -- report --validate --jobs 2 --no-cache
	$(DUNE) exec bin/spd.exe -- validate matmul300 --format json --no-cache \
	  > $(SMOKE_DIR)/spd_validate.json
	$(DUNE) exec test/json_lint.exe -- $(SMOKE_DIR)/spd_validate.json

# Regenerate the golden corpus under test/golden/ (schedule grids,
# validate.txt and documents.txt, the digests of every why, validate and
# explain document) after an intentional change to the numbers; review
# the diff and commit.
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
	@for cmd in "why moment -m 0" "explain moment -w 0" \
	    "run examples/kernels/moment.c -w 0"; do \
	  $(DUNE) exec bin/spd.exe -- $$cmd 2> $(SMOKE_DIR)/spd_bad_flag.txt; \
	  status=$$?; \
	  if [ $$status -ne 124 ] \
	    || ! grep -q 'expects a positive integer' $(SMOKE_DIR)/spd_bad_flag.txt; \
	  then echo "check: spd $$cmd exited $$status without the" \
	    "positive-integer refusal"; cat $(SMOKE_DIR)/spd_bad_flag.txt; \
	    exit 1; fi; \
	done
	$(MAKE) telemetry-smoke
	$(MAKE) serve-smoke
	$(MAKE) chaos-smoke
	$(MAKE) obs-smoke
	$(MAKE) validate-smoke
	$(MAKE) perf-smoke

bench:
	$(DUNE) exec bin/spd.exe -- report all --timings

# The full report (paper artefacts + extensions) as one spd-report/1
# JSON document; see EXPERIMENTS.md for the schema.
bench-json:
	$(DUNE) exec bin/spd.exe -- report all --format json > BENCH_REPORT.json

clean:
	$(DUNE) clean
	rm -rf _spd_cache
