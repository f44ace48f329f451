(** Parallel execution context for shared-store workloads.

    Bundles an [Exec.Pool] with the {!Bdd.Shared.store} the operands
    live in.  [Fsm.Image] takes an optional context and dispatches its
    independent [and_exists] merges onto the pool, each task on a view
    checked out with {!Bdd.Shared.with_view}.  Results are
    deterministic: task lists and submission order are fixed by the
    caller, and BDD results are canonical store-wide, so a parallel run
    returns the same edges as the sequential one. *)

type t = { pool : Exec.Pool.t; store : Bdd.Shared.store }

val make : pool:Exec.Pool.t -> store:Bdd.Shared.store -> t

val map : t -> (Bdd.man -> 'a -> 'b) -> 'a list -> 'b list
(** [map t f xs] runs [f view x] for each element on the pool, results
    in list order.  [f] must keep the view inside the call. *)
