SOCKET ?= /tmp/selest-demo.sock
CLI = dune exec --no-build bin/selest_cli.exe --

.PHONY: build test bench bench-smoke serve-demo clean

build:
	dune build

test: build
	dune runtest

bench: build
	dune exec bench/main.exe

# The gated bench in one process: the engine figures and the accuracy
# figures 4a, 6a, 6b and 6c write their rows (figure, metric, unit, value, n,
# spread) to BENCH_ledger.json and the run exits 1 if any gate failed.
# Timing gates are judged on the median of interleaved A/B pairs; see
# bench/harness.ml.  The EXPLAIN/METRICS and HEALTH/SLOWLOG response
# shapes are then diffed against the goldens in test/golden/.
bench-smoke: build
	dune exec bench/main.exe -- --fig inference --fig learn --fig plan --fig obs --fig opt \
	  --fig exec --fig frontend --fig telemetry --fig 4a --fig 6a --fig 6b --fig 6c
	@python3 -m json.tool BENCH_ledger.json > /dev/null 2>&1 \
	  && echo "BENCH_ledger.json: valid" \
	  || { echo "BENCH_ledger.json: INVALID JSON"; exit 1; }
	@diff -u test/golden/obs_golden.txt BENCH_obs_golden.txt \
	  && echo "obs golden: match" \
	  || { echo "obs golden: EXPLAIN/METRICS shape changed (update test/golden/obs_golden.txt if intended)"; exit 1; }
	@diff -u test/golden/telemetry_golden.txt BENCH_telemetry_golden.txt \
	  && echo "telemetry golden: match" \
	  || { echo "telemetry golden: HEALTH/SLOWLOG shape changed (update test/golden/telemetry_golden.txt if intended)"; exit 1; }

# Smoke-test the estimation service end to end: start a server that learns
# a PRM over the TB dataset, exercise the whole protocol, shut it down.
serve-demo: build
	@rm -f $(SOCKET)
	@$(CLI) serve -d tb --learn -b 4096 --socket $(SOCKET) & \
	trap 'kill %1 2>/dev/null' EXIT; \
	$(CLI) ask --socket $(SOCKET) PING && \
	$(CLI) ask --socket $(SOCKET) "EST c=contact, p=patient ; c.patient=p ; p.USBorn=yes" && \
	$(CLI) ask --socket $(SOCKET) "EST p=patient, c=contact ; c.patient=p ; p.USBorn={yes}" && \
	$(CLI) ask --socket $(SOCKET) STATS && \
	$(CLI) ask --socket $(SOCKET) SHUTDOWN && \
	wait

clean:
	dune clean
