(** Irredundant sum-of-products covers from BDD intervals
    (Minato–Morreale ISOP).

    Given an instance [[f; c]] — equivalently the interval
    [(f·c, f + ¬c)] — the algorithm produces a cube cover whose function
    lies in the interval and from which no cube can be dropped.  This is
    the classic two-level use of don't cares; as a BDD-size heuristic it
    is a natural extension baseline: the BDD of the recovered SOP is a
    cover of the instance, sometimes smaller than [f], and the cube list
    itself is the input to PLA-style synthesis. *)

type t = {
  cubes : Bdd.Cube.cube list;
  cover : Bdd.t;  (** the function of the cube cover *)
}

val compute : Bdd.man -> Ispec.t -> t
(** [compute man s] returns an irredundant SOP between [onset s] and
    [s.f + ¬s.c].  The empty interval yields the empty cover. *)

val of_interval : Bdd.man -> lower:Bdd.t -> upper:Bdd.t -> t
(** Direct interval form.  Requires [lower ≤ upper]. *)

val cover_only : Bdd.man -> Ispec.t -> Bdd.t
(** The cover function without materializing the cube list (the cube list
    can be exponentially larger than its BDD). *)

val literal_count : t -> int
(** Total number of literals over all cubes. *)

val is_irredundant : Bdd.man -> lower:Bdd.t -> t -> bool
(** Check that every cube is necessary: dropping any one uncovers part of
    [lower] (exposed for testing and for downstream assertions). *)
