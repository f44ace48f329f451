(** The machine-readable benchmark record ([BENCH_engine.json]).

    One JSON document per benchmark run, schema ["bddmin-bench-engine/13"],
    with every key always present:

    {v
    schema       string  "bddmin-bench-engine/13"
    jobs         int     worker domains used for the capture suite
    quick        bool    small sub-suite?
    max_calls    int     per-benchmark cap on measured calls
    image        string  image strategy used for capture
    limits       { node_budget, step_budget, time_budget, fail_fast }
                 (budgets are ints/seconds or null = unlimited)
    suite        { benches, calls, capture_seconds }
    dnf          [ { bench, reason } ]   benchmarks whose driver DNF'd
    phases       [ { name, seconds } ]   wall time, execution order
    minimizers   [ { name, total_size, total_seconds, mean_hit_rate,
                     dnf_calls } ]
    serve        { clients, requests, workers, seconds, requests_per_sec,
                   p50_ms, p95_ms, p99_ms, mean_ms, ok_replies,
                   dnf_replies, partial_replies, busy_replies,
                   error_replies, telemetry, server }
                 or null when the serve phase was skipped
    engine       every Bdd.Stats.fields counter, summed over the suite's
                 managers, then cache_hit_rate (hits per lookup)
    v}

    The serve [telemetry] object is
    [{ explained, queue_us_mean, exec_us_mean, write_us_mean }] —
    server-reported phase means over replies that carried telemetry
    (loadgen run with [explain]) — or [null] when none did.

    The serve [server] object is the end-of-run scrape of the daemon's
    own counters —
    [{ cache_hits, cache_canonical_hits, cache_misses, cache_collapsed,
    cache_evicted, sessions_opened, sessions_evicted, busy_replies }] —
    or [null] when the scrape connection failed.

    Schema history: [/2] added the [image] key and the
    [and_exists_recursions] / [interned_cubes] engine counters; [/3]
    added resource governance — the [limits] and [dnf] keys and the
    per-minimizer [dnf_calls] count; [/4] added the [serve] section —
    request throughput and tail latency of the [bddmin serve] load
    generator ([null] when that phase is disabled); [/5] split serve
    replies into per-status counts ([ok_replies] / [dnf_replies] /
    [partial_replies] / [error_replies]) and added the serve
    [telemetry] section of server-side phase timings; [/6] added the
    client-observed [busy_replies] count (backpressure refusals, not
    errors) and the [server] section of scraped daemon counters —
    result-cache traffic, session and batch activity, busy replies;
    [/7] added the [parallel] section — the shared-store concurrent
    manager tier's telemetry (unique-table stripes, intern lock
    retries, stop-the-world barrier waits) and the seq-vs-par timing
    and canonical-identity verdict of the parallel reachability
    workload ([null] when that phase is disabled); [/8] added the
    top-level [repr] field, the per-minimizer [total_chain_size]
    column (physical nodes — equal to [total_size] under ["bdd"]) and
    the chain-reduction ablation section; [/9] dropped the two batch counters
    from the serve [server] object, since the daemon no longer batches
    requests; [/10] dropped the [parallel] section — the shared-store
    tier's bit-identity and telemetry are checked by the test suite,
    and its timing is measured by the repo benchmark's verify
    workload; [/11] dropped the top-level [repr] field, the
    per-minimizer [total_chain_size] column and the chain-reduction
    ablation section, since plain ROBDDs are the only node
    representation; [/12] added the [vars] and [external_refs] engine
    counters (the section now lists every {!Bdd.Stats.fields} entry)
    and prints the document on one line; [/13] added the
    [agree_recursions] engine counter (the steps of [Bdd.agree], the
    containment and matching test that builds no BDD).

    The document is a record of one run, written by [bddmin bench];
    performance comparisons across changes belong to the repo
    benchmark ([benchmark/]), which repeats runs and reports spread. *)

val render :
  ?serve:Serve.Loadgen.stats ->
  jobs:int ->
  quick:bool ->
  max_calls:int ->
  image:string ->
  limits:Capture.limits_config ->
  benches:int ->
  capture_seconds:float ->
  phases:(string * float) list ->
  names:string list ->
  engine:(string * int) list ->
  dnf:(string * string) list ->
  Capture.call list ->
  string
(** Render the document.  [names] selects and orders the [minimizers]
    rows; [engine] and [dnf] are typically {!Capture.run_suite_stats}'s
    summed statistics and driver-exhaustion rows.  Non-finite floats
    render as JSON [null]; an omitted [serve] renders as [null]. *)

val write :
  ?serve:Serve.Loadgen.stats ->
  path:string ->
  jobs:int ->
  quick:bool ->
  max_calls:int ->
  image:string ->
  limits:Capture.limits_config ->
  benches:int ->
  capture_seconds:float ->
  phases:(string * float) list ->
  names:string list ->
  engine:(string * int) list ->
  dnf:(string * string) list ->
  Capture.call list ->
  unit
(** {!render} to a file (truncating). *)
