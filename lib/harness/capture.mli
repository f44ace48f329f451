(** Instance capture: run the FSM-equivalence application over the
    benchmark suite, intercept every frontier-minimization call, apply
    every catalogued minimizer to it, and record sizes and runtimes —
    the paper's §4.1 experimental procedure.

    As in the paper: the application itself proceeds with [constrain]'s
    answer; calls where the care set is a cube or contains/excludes the
    onset are filtered out; operation caches are flushed before timing
    each minimizer.

    Resource governance: when the {!limits_config} carries budgets, each
    measured minimizer invocation runs under a fresh {!Bdd.Budget} and an
    exhausted run is recorded as a DNF entry instead of a size row, while
    the driving fixpoint itself runs under a benchmark-wide budget whose
    exhaustion yields a per-benchmark [DNF(reason)] row — the suite never
    aborts.  With no budgets configured, every code path and every
    recorded byte is identical to the ungoverned harness. *)

type origin =
  | Frontier  (** a frontier minimization instance [[U; U + ¬R]] *)
  | Image_cofactor
  (** a generalized-cofactor instance [[δ_j; S]] from the constrain-based
      image computation — the calls that dominate the paper's data and
      populate its [c_onset_size < 5 %] bucket *)

type call = {
  bench : string;
  iteration : int;
  origin : origin;
  f_size : int;  (** [|f|], the unminimized function's node count *)
  f_chain_size : int;
  (** a plain stand-in kept for the benchmark's callers: always
      [f_size] *)
  c_onset_fraction : float;  (** the paper's [c_onset_size], in [0, 1] *)
  sizes : (string * int) list;
  (** result node count per minimizer that completed within budget *)
  chain_sizes : (string * int) list;
  (** a plain stand-in kept for the benchmark's callers: always
      [sizes] *)
  times : (string * float) list;  (** seconds per completed minimizer *)
  hit_rates : (string * float) list;
  (** computed-cache hit rate ([0, 1]) observed while each minimizer ran
      (caches are flushed before each run, so this measures the
      heuristic's own locality) *)
  dnf : (string * string) list;
  (** minimizers that exhausted their budget on this call, with the
      {!Bdd.Budget.reason_label}; always [[]] when no budget is
      configured.  Names listed here are absent from [sizes], [times]
      and [hit_rates]. *)
  min_size : int;
  (** the paper's [min]: best size over the minimizers that completed *)
  min_name : string;
  low_bd : int;  (** the Theorem 7 cube lower bound *)
}

(** {1 Configuration}

    The configuration is three nested records — what to run ([engine]),
    how images are computed ([image]), and how much work is allowed
    ([limits]) — built by updating {!default_config} through the
    [with_*] builders:
    {[
      Capture.(default_config |> with_jobs 4 |> with_node_budget (Some 50_000))
    ]} *)

type engine_config = {
  entries : Minimize.Registry.entry list;
  repr : Bdd.repr;
  (** a plain stand-in kept for the benchmark's callers: always
      [`Bdd] *)
  lower_bound_cubes : int;
  self_product : bool;
  (** intercept inside the product-machine self-equivalence check (the
      paper's setup) rather than plain reachability; the image
      computation's cofactor calls are intercepted too, as the paper's
      instrumented [constrain] does *)
  jobs : int;
  (** worker domains for {!run_suite_stats}: with [jobs > 1] the
      benchmarks run concurrently on an [Exec.Pool], one private BDD
      manager per job, and the results are collected in submission
      order — the returned calls, the [progress] message stream and any
      merged trace are identical to the sequential run's (wall-clock
      readings in [times] aside).  Per-job trace buffers are forwarded
      to the calling domain's sink with worker domain ids as trace
      thread ids. *)
}

type image_config = {
  strategy : Fsm.Image.strategy;
  cluster_bound : int option;
  (** node bound for the {!Fsm.Image.Clustered} strategy's schedule
      ([None] = {!Fsm.Qsched.default_cluster_bound}; ignored by the
      other strategies) *)
}

type limits_config = {
  max_iterations : int;
  (** fixpoint iteration cap of the driving reachability (default
      100000) *)
  max_calls : int;  (** per-benchmark cap on measured calls *)
  node_budget : int option;
  (** per-manager live-node ceiling, enforced both on the driving
      fixpoint and on each measured minimizer run *)
  step_budget : int option;
  (** recursion-step ceiling for each measured minimizer run; the
      driving fixpoint is exempt (a per-operation bound makes no sense
      accumulated over a whole benchmark) *)
  time_budget : float option;
  (** wall-clock seconds, per measured minimizer run and per benchmark
      driver *)
  fail_fast : bool;
  (** cancel all remaining benchmarks after the first DNF anywhere in
      the suite (which sibling trips first under [jobs > 1] is
      schedule-dependent, so the cancelled tail is not deterministic) *)
}

type config = {
  engine : engine_config;
  image : image_config;
  limits : limits_config;
}

val default_config : config
(** All paper entries (plus the [sched] extension), 1000 lower-bound
    cubes, product-machine interception, the partitioned image strategy
    (the cofactor instances are emitted regardless of strategy),
    sequential ([jobs = 1]), at most 400 measured calls per
    benchmark, and no budgets. *)

(** {2 Builders} *)

val with_entries : Minimize.Registry.entry list -> config -> config
val with_lower_bound_cubes : int -> config -> config
val with_self_product : bool -> config -> config
val with_jobs : int -> config -> config
val with_image_strategy : Fsm.Image.strategy -> config -> config
val with_cluster_bound : int option -> config -> config
val with_max_calls : int -> config -> config
val with_node_budget : int option -> config -> config
val with_step_budget : int option -> config -> config
val with_time_budget : float option -> config -> config
val with_fail_fast : bool -> config -> config

(** {1 Running} *)

type bench_result = {
  calls : call list;
  stats : Bdd.Stats.t;
  (** the engine statistics of the benchmark's manager *)
  reclaimed : int;
  (** node count reclaimed by a final garbage collection (everything
      the run interned is dead once it finishes) *)
  dnf : string option;
  (** [Some reason_label] when the benchmark's driving fixpoint
      exhausted the driver budget (or was cancelled): [calls] then holds
      the calls captured before exhaustion *)
}

val run_bench :
  ?config:config -> Circuits.Registry.bench -> call list
(** Capture all non-trivial minimization instances of one benchmark. *)

val run_bench_stats :
  ?config:config ->
  ?cancel:Exec.Cancel.t ->
  Circuits.Registry.bench ->
  bench_result
(** Like {!run_bench} with the full {!bench_result}.  [cancel] is a
    cooperative cancellation token polled by the budgets (a benchmark
    whose token is already cancelled returns immediately with
    [dnf = Some "cancelled"] and no calls). *)

type suite = {
  suite_calls : call list;
  engine : Bdd.Stats.t;
  (** the field-wise {e sum} of every benchmark manager's final
      statistics — a totals view of the engine work the whole suite did
      (managers are disjoint, so occupancy figures add up too).  This is
      what the bench baseline's [engine] section records. *)
  suite_dnf : (string * string) list;
  (** benchmarks whose driver DNF'd, as [(bench, reason_label)] rows in
      suite order; [[]] when every fixpoint completed *)
}

val run_suite_stats :
  ?config:config ->
  ?progress:(string -> unit) ->
  Circuits.Registry.bench list ->
  suite

val run_suite :
  ?config:config ->
  ?progress:(string -> unit) ->
  Circuits.Registry.bench list ->
  call list
(** [progress] defaults to logging each message at [info] level on the
    ["bddmin.capture"] source; parallelism comes from the configuration's
    [jobs] field. *)

val origin_name : origin -> string
(** ["frontier"] or ["image_cofactor"] (table and trace labels). *)

val minimizer_names : config -> string list
(** The minimizer names of the configuration, in registry order. *)
