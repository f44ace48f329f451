.PHONY: all build test serve-smoke check clean

all: build

build:
	dune build @all

test: build
	dune runtest

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

check: build test

clean:
	dune clean
