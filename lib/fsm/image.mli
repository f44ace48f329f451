(** Image and preimage computation.

    Four implementations are provided:
    - {!image_monolithic}: [∃x,i. T(x,i,x')·S(x)] against the (memoized)
      monolithic transition relation;
    - {!image_partitioned}: conjoin-and-quantify over the per-latch
      conjuncts with each variable quantified at its last occurrence —
      the machine's precomputed {!Qsched} schedule at cluster bound 1;
    - {!image_clustered}: the same walk over IWLS95-style clusters merged
      under a node bound and greedily ordered for early quantification;
    - {!image_by_range}: Coudert–Madre output splitting over the
      next-state functions constrained by the state set — the technique
      (footnote 1 of the paper) whose correctness rests on the special
      property of [constrain].

    All four return the {e same} successor set (images are exact under
    any schedule), over {e current}-state variables. *)

type strategy = Monolithic | Partitioned | Clustered | Range

type par = Minimize.Par.t
(** Parallel execution context: an [Exec.Pool] plus the shared node
    store ({!Bdd.Shared.store}) the machine's manager is a view of.
    With a context, the scheduled conjoin-and-quantify walk runs as a
    pairwise merge tree whose [and_exists] merges are dispatched onto
    pool workers (each on a checked-out view of the store).  The merge
    tree quantifies each variable only once no conjunct outside the
    merged subtree mentions it, so the computed image is the {e same
    canonical edge} the sequential walk produces — parallelism never
    changes results, only wall time.  Worker views carry no budget;
    combine budgets with sequential images. *)

val par : pool:Exec.Pool.t -> store:Bdd.Shared.store -> par

val strategy_name : strategy -> string
(** ["monolithic"], ["partitioned"], ["clustered"] or ["range"] (CLI and
    trace labels). *)

val strategy_of_name : string -> strategy option
(** Inverse of {!strategy_name} (CLI parsing). *)

val image :
  ?strategy:strategy ->
  ?cluster_bound:int ->
  ?par:par ->
  Symbolic.t ->
  Bdd.t ->
  Bdd.t
(** Successors of the given state set (default {!Partitioned}).
    [cluster_bound] only affects {!Clustered} (default
    {!Qsched.default_cluster_bound}).  [par] parallelizes the
    {!Partitioned}/{!Clustered} walks over its pool (see {!type-par});
    it is ignored by the other strategies. *)

val image_monolithic : Symbolic.t -> Bdd.t -> Bdd.t
val image_partitioned : Symbolic.t -> Bdd.t -> Bdd.t

val image_clustered : ?cluster_bound:int -> Symbolic.t -> Bdd.t -> Bdd.t
(** Walk the machine's quantification schedule (computing it on first
    use), conjoining each cluster with the fused [and_exists] kernel. *)

val image_by_range : Symbolic.t -> Bdd.t -> Bdd.t
(** Coudert–Madre range computation: the image is the range of the
    next-state vector constrained by the state set. *)

val preimage : Symbolic.t -> Bdd.t -> Bdd.t
(** Predecessors of the given state set: [∃x',i. T(x,i,x')·S(x')]. *)
