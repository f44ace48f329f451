(** Minimization context: everything a registry entry needs besides the
    problem instance — the manager and an optional resource budget.

    The context is what lets new knobs reach every minimizer without
    registry-wide signature churn: [Registry.entry.run] takes a [Ctx.t],
    and callers build one with {!make} (or {!of_man} for the plain
    case). *)

type t = {
  man : Bdd.man;
  budget : Bdd.Budget.t option;
      (** installed around the entry by [Registry.run] *)
}

val make : ?budget:Bdd.Budget.t -> Bdd.man -> t
val of_man : Bdd.man -> t
(** A context with no budget. *)

val man : t -> Bdd.man
val budget : t -> Bdd.Budget.t option

val with_budget : Bdd.Budget.t -> t -> t

val protect : t -> (unit -> 'a) -> 'a
(** Run the thunk with the context's budget installed on the context's
    manager (restoring the previous budget on exit); the identity when
    the context carries no budget. *)
