(** Breadth-first symbolic reachability with frontier minimization.

    This is the application of §1 and §4: at each iteration the frontier
    [U] may be replaced by any set [S] with [U ≤ S ≤ U + R] — an EBM
    instance [[U; U + ¬R]] — before computing its image.  The instances
    are exposed through [on_instance], which is how the experiment harness
    intercepts them (the analogue of the paper's instrumented [constrain]
    calls inside [verify_fsm]). *)

type fixpoint =
  | Complete  (** the frontier emptied: the returned set is exact *)
  | Partial of { frontier : Bdd.t; reason : Bdd.Budget.reason }
      (** an installed [Bdd.Budget] was exhausted: the returned set is a
          sound under-approximation of the reachable states, and
          [frontier] is the still-unexplored frontier — pass both back
          through [?resume] to continue *)

type stats = {
  iterations : int;
  reached_states : float;  (** satisfying assignments of the final [R] *)
  peak_frontier_nodes : int;
  (** 0 unless node statistics were collected — enable tracing or set
      the [bddmin.reach] log source to debug *)
  peak_reached_nodes : int;  (** likewise *)
  minimization_calls : int;
  fixpoint : fixpoint;
}

type minimizer = Bdd.man -> Minimize.Ispec.t -> Bdd.t

val constrain_minimizer : minimizer
(** The default used by the paper's application: [constrain f c]. *)

val no_minimizer : minimizer
(** Uses the frontier unchanged ([f_orig]). *)

val reachable :
  ?strategy:Image.strategy ->
  ?cluster_bound:int ->
  ?par:Image.par ->
  ?minimize:minimizer ->
  ?max_iterations:int ->
  ?on_instance:(iteration:int -> Minimize.Ispec.t -> unit) ->
  ?on_image_constrain:(iteration:int -> Minimize.Ispec.t -> unit) ->
  ?resume:Bdd.t * Bdd.t ->
  Symbolic.t ->
  Bdd.t * stats
(** Fixed-point reachability from the initial state.  The returned set is
    exact when [stats.fixpoint = Complete] (independent of the minimizer
    — any cover contains the frontier and only adds already-reached
    states).  [cluster_bound] tunes the {!Image.Clustered} strategy.
    [par] dispatches each iteration's image merges onto a worker pool
    (see {!Image.type-par}) — results are bit-identical to a sequential
    run; it requires the machine's manager to be a shared-store view.
    The per-iteration frontier/reached node counts behind the peak
    statistics cost a full traversal of both sets per iteration, so they
    are taken only when tracing or debug logging wants them.
    [on_image_constrain]
    observes the vector-cofactor instances [[δ_j; S]] that a
    constrain-based image computation hands to [constrain] (emitted for
    every strategy, so interception does not force the exponential-prone
    {!Image.Range} recursion).

    When the manager has a [Bdd.Budget] installed and it runs out, the
    fixpoint stops at the last completed iteration and returns a
    {!Partial} fixpoint instead of raising; [resume] (the [reached] set
    and [frontier] of a previous partial run) continues the traversal
    from there — [stats.iterations] then counts only the resumed
    segment's iterations.
    @raise Failure if [max_iterations] (default unlimited) is exceeded. *)
