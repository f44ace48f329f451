(** The machine-readable benchmark baseline ([BENCH_engine.json]).

    One JSON document per benchmark run, schema ["bddmin-bench-engine/9"],
    with every key always present:

    {v
    schema       string  "bddmin-bench-engine/9"
    repr         string  "bdd" | "cbdd" — node representation of the run
    jobs         int     worker domains used for the capture suite
    quick        bool    small sub-suite?
    max_calls    int     per-benchmark cap on measured calls
    image        string  image strategy used for capture
    limits       { node_budget, step_budget, time_budget, fail_fast }
                 (budgets are ints/seconds or null = unlimited)
    suite        { benches, calls, capture_seconds }
    dnf          [ { bench, reason } ]   benchmarks whose driver DNF'd
    phases       [ { name, seconds } ]   wall time, execution order
    minimizers   [ { name, total_size, total_chain_size, total_seconds,
                     mean_hit_rate, dnf_calls } ]
    serve        { clients, requests, workers, seconds, requests_per_sec,
                   p50_ms, p95_ms, p99_ms, mean_ms, ok_replies,
                   dnf_replies, partial_replies, busy_replies,
                   error_replies, telemetry, server }
                 or null when the serve phase was skipped
    parallel     { jobs, stripes, views, live_nodes, interned_total,
                   intern_retries, gc_runs, gc_reclaimed,
                   gc_barrier_waits, gc_barrier_wait_ms, seq_seconds,
                   par_seconds, speedup, identical }
                 or null when the parallel-engine phase was skipped
    cbdd         { calls, plain_total, chain_total, compression, seconds,
                   verdicts_identical }
                 — the CBDD ablation row (the quick suite re-captured
                 under the chain-reduced representation, compared to
                 the plain run) — or null when that phase was skipped
    engine       Bdd.Stats.t counters (summed over the suite's managers)
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
    the [cbdd] ablation section; [/9] dropped the two batch counters
    from the serve [server] object, since the daemon no longer batches
    requests.

    Committed snapshots of this file are the perf trajectory: every
    change regenerates it ([make bench-json] or [bddmin bench]) and
    diffs against the predecessor. *)

type parallel_stats = {
  par_jobs : int;  (** worker domains of the parallel-engine phase *)
  par_stripes : int;  (** unique-table stripes of the shared store *)
  par_views : int;  (** views attached at scrape time *)
  par_live_nodes : int;
  par_interned_total : int;
  par_intern_retries : int;
      (** interns that found their stripe lock already held *)
  par_gc_runs : int;
  par_gc_reclaimed : int;
  par_barrier_waits : int;
      (** domains blocked at the stop-the-world GC barrier *)
  par_barrier_wait_ms : float;
  par_seq_seconds : float;  (** same workload, sequential, same store *)
  par_par_seconds : float;
  par_speedup : float;  (** seq / par; ≈ 1.0 on a single-CPU host *)
  par_identical : bool;
      (** parallel results were the same canonical edges as sequential *)
}
(** The [parallel] section — concurrent manager telemetry plus the
    seq-vs-par comparison of the phase's reachability workload. *)

type cbdd_stats = {
  cbdd_calls : int;  (** measured calls of the ablation capture *)
  cbdd_plain_total : int;
      (** total plain-equivalent [min] size over the ablation's calls *)
  cbdd_chain_total : int;
      (** total chain-aware (physical) [min] size over the same calls *)
  cbdd_seconds : float;  (** ablation capture wall time *)
  cbdd_verdicts_identical : bool;
      (** per-call [min_size]/[min_name] verdicts matched the plain run *)
}
(** The [cbdd] ablation section; [compression] is derived
    (plain/chain). *)

val render :
  ?serve:Serve.Loadgen.stats ->
  ?parallel:parallel_stats ->
  ?cbdd:cbdd_stats ->
  ?repr:Bdd.repr ->
  jobs:int ->
  quick:bool ->
  max_calls:int ->
  image:string ->
  limits:Capture.limits_config ->
  benches:int ->
  capture_seconds:float ->
  phases:(string * float) list ->
  names:string list ->
  engine:Bdd.Stats.t ->
  dnf:(string * string) list ->
  Capture.call list ->
  string
(** Render the document.  [names] selects and orders the [minimizers]
    rows; [engine] and [dnf] are typically {!Capture.run_suite_stats}'s
    summed statistics and driver-exhaustion rows.  Non-finite floats
    render as JSON [null]; an omitted [serve] or [parallel] renders as
    [null]. *)

val write :
  ?serve:Serve.Loadgen.stats ->
  ?parallel:parallel_stats ->
  ?cbdd:cbdd_stats ->
  ?repr:Bdd.repr ->
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
  engine:Bdd.Stats.t ->
  dnf:(string * string) list ->
  Capture.call list ->
  unit
(** {!render} to a file (truncating). *)
