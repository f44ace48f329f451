.PHONY: all build test bench-smoke bench-json bench-diff serve-smoke check clean

all: build

build:
	dune build @all

test: build
	dune runtest

# A ~10 second end-to-end benchmark run: quick suite, capped calls, no
# Bechamel microbenchmarks, a small serve load-generation phase.
# Exercises capture, every minimizer, the table renderers, the engine
# statistics/GC path, the CBDD ablation and the daemon scheduler.
bench-smoke: build
	BDDMIN_BENCH_QUICK=1 BDDMIN_BENCH_SKIP_MICRO=1 BDDMIN_BENCH_CALLS=30 \
	BDDMIN_BENCH_SERVE_CLIENTS=2 BDDMIN_BENCH_SERVE_REQUESTS=20 \
		dune exec bench/main.exe

# Regenerate the committed perf baseline (schema bddmin-bench-engine/9;
# see Harness.Bench_json).  Deterministic apart from the wall-time
# fields and the serve section, at any -j.
bench-json: build
	dune exec -- bddmin bench -o BENCH_engine.json

# Fresh full capture into _build, diffed against the committed baseline
# (percentage thresholds on phase seconds, the engine work counters and
# the serve throughput/latency; see scripts/bench_diff.py).  Non-fatal
# by default; STRICT=1 gates.
bench-diff: build
	dune exec -- bddmin bench -o _build/BENCH_fresh.json
	python3 scripts/bench_diff.py BENCH_engine.json _build/BENCH_fresh.json \
		$(if $(STRICT),--strict)

# The serve daemon end to end as separate processes: start it on a
# throwaway unix socket with the Prometheus listener and flight
# recorder on, ping it, drive a small load with explain telemetry,
# scrape /metrics, trigger a SIGUSR1 flight dump, shut it down over
# the wire.
serve-smoke: build
	@rm -f _build/serve-smoke.sock _build/serve-smoke-flight.json
	dune exec -- bddmin serve --unix _build/serve-smoke.sock --workers 2 \
		--metrics-addr 127.0.0.1:9464 \
		--flight-dump _build/serve-smoke-flight.json & \
	pid=$$!; \
	for i in $$(seq 1 50); do \
		[ -S _build/serve-smoke.sock ] && break; sleep 0.1; done; \
	dune exec -- bddmin serve-ctl ping --connect _build/serve-smoke.sock && \
	dune exec -- bddmin serve-bench --connect _build/serve-smoke.sock \
		--clients 2 --requests 30 --explain && \
	curl -sf http://127.0.0.1:9464/metrics \
		| grep -q '^bddmin_serve_requests_total' && \
	kill -USR1 $$pid && \
	for i in $$(seq 1 50); do \
		[ -s _build/serve-smoke-flight.json ] && break; sleep 0.1; done; \
	[ -s _build/serve-smoke-flight.json ] && \
	dune exec -- bddmin serve-ctl metrics --connect _build/serve-smoke.sock \
		> /dev/null && \
	dune exec -- bddmin serve-ctl shutdown --connect _build/serve-smoke.sock; \
	status=$$?; wait; exit $$status

check: build test bench-smoke

clean:
	dune clean
