(** Joint minimization of a vector of incompletely specified functions.

    FSM applications (the paper's §1) minimize whole next-state vectors;
    what matters there is the {e shared} BDD size, not the sum of
    individual sizes.  This module extends the sibling/level framework to
    vectors by the classical output-encoding construction: auxiliary
    selection variables are prepended to the order, the vector is folded
    into the single instance
    [[Σ_k sel=k · f_k ; Σ_k sel=k · c_k]], any scalar minimizer is
    applied, and the per-output covers are recovered by cofactoring.
    Matches made across outputs translate into node sharing between the
    recovered covers. *)

type result = {
  covers : Bdd.t list;  (** one cover per input instance, in order *)
  shared_before : int;  (** shared node count of the [f] parts *)
  shared_after : int;  (** shared node count of the covers *)
}

val minimize :
  Bdd.man ->
  minimizer:(Bdd.man -> Ispec.t -> Bdd.t) ->
  Ispec.t list ->
  result
(** [minimize man ~minimizer instances] jointly minimizes the vector.
    Every returned cover is a cover of its instance.  Requires every care
    set to be non-empty and at least one instance.

    The selection variables are allocated {e above} the instances'
    variables; because the instances' supports must sit strictly below
    them in the fixed order, this call requires all instance supports to
    use variables [>= ceil(log2 n)] where [n] is the vector length — the
    function raises [Invalid_argument] otherwise.  (FSM encodings from
    {!Fsm.Symbolic} satisfy this when built with a fresh manager whose
    low variables are reserved, or by renaming; see
    {!minimize_renamed}.) *)

val minimize_renamed :
  Bdd.man ->
  minimizer:(Bdd.man -> Ispec.t -> Bdd.t) ->
  Ispec.t list ->
  result
(** Like {!minimize} but first renames the instances' variables upward to
    make room for the selection variables, and renames the covers back —
    usable with any instances at the cost of the two renames. *)
