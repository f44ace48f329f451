(** Algebraic decision diagrams (MTBDDs) with integer terminals: maps
    from Boolean assignments to integers, hash-consed like {!Core_dd}
    (without complement edges — they have no canonical meaning over
    arbitrary terminals).

    Variables are shared conceptually with a BDD manager: variable [v]
    here means the same level-[v] decision.  The classic uses in this
    package are counting and distance maps (see {!Fsm.Depth}). *)

type man
type t

val new_man : unit -> man

val const : man -> int -> t
val is_const : t -> bool

val value : t -> int option
(** [Some k] for the constant [k]. *)

val equal : t -> t -> bool

val ite_var : man -> int -> t -> t -> t
(** [ite_var man v t e]: variable test at level [v]; requires [v] above
    the tops of [t] and [e]. *)

val of_bdd : man -> Core_dd.t -> high:int -> low:int -> t
(** Map a BDD to the ADD sending its onset to [high] and offset to
    [low]. *)

val to_bdd : man -> t -> pred:(int -> bool) -> Core_dd.man -> Core_dd.t
(** Threshold abstraction: the BDD (over the same variables) of the
    assignments whose value satisfies [pred]. *)

val apply2 : man -> (int -> int -> int) -> t -> t -> t
(** Pointwise combination (memoized per call). *)

val map : man -> (int -> int) -> t -> t
(** Pointwise transformation. *)

val add : man -> t -> t -> t
val min2 : man -> t -> t -> t
val max2 : man -> t -> t -> t

val eval : t -> (int -> bool) -> int

val min_value : man -> t -> int
val max_value : man -> t -> int
(** Extremal terminal values reachable in the ADD. *)

val size : man -> t -> int
(** Distinct nodes, terminals included. *)

val terminals : man -> t -> int list
(** Sorted distinct terminal values. *)
