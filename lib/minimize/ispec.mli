(** Incompletely specified Boolean functions [[f; c]].

    Following the paper's §2: [c] is the {e care} function — [f·c] is the
    onset, [¬f·c] the offset, and [¬c] the don't-care set.  A completely
    specified [g] is a {e cover} when [f·c ≤ g ≤ f + ¬c].  [[f1; c1]] is an
    {e i-cover} of [[f2; c2]] when every cover of the former covers the
    latter. *)

type t = { f : Bdd.t; c : Bdd.t }

val make : f:Bdd.t -> c:Bdd.t -> t

val of_interval : Bdd.man -> lower:Bdd.t -> upper:Bdd.t -> t
(** Reduce the interval-of-functions problem [(f_m, f_M)] to an EBM
    instance, as in §2: [c = f_m + ¬f_M] and [f = f_m].
    Requires [lower ≤ upper]. *)

val onset : Bdd.man -> t -> Bdd.t
val offset : Bdd.man -> t -> Bdd.t
val dc : Bdd.man -> t -> Bdd.t

val is_cover : Bdd.man -> t -> Bdd.t -> bool
(** [is_cover man s g] iff [g] is a cover of [s]. *)

val is_i_cover : Bdd.man -> t -> t -> bool
(** [is_i_cover man s1 s2] iff [s1] i-covers [s2], i.e. [c2 ≤ c1] and
    [f1 = f2] on [c2]. *)

val equal_ispec : Bdd.man -> t -> t -> bool
(** Semantic equality: same care set and same values on it. *)

val canonical_key : Bdd.man -> t -> int * int
(** A key identifying the {e semantic} function: two ispecs with equal keys
    are [equal_ispec].  (The pair of uids of [f·c] and [c].) *)

val compl : t -> t
(** The complement ispec [[¬f; c]]; covers are complements of covers. *)

val care_is_cube : t -> bool
val care_implies_onset : Bdd.man -> t -> bool
(** [c ≤ f]: the minimum cover is the constant 1 (when [c ≠ 0]). *)

val care_implies_offset : Bdd.man -> t -> bool
(** [c ≤ ¬f]: the minimum cover is the constant 0. *)

val trivial : Bdd.man -> t -> bool
(** The §4.1.2 filter: [c] is a cube, or [c ≤ f], or [c ≤ ¬f] — cases in
    which (almost) every heuristic finds a minimum. *)

val c_onset_fraction : Bdd.man -> t -> float
(** Fraction (in [0, 1]) of onset points of [c] over the space spanned by
    the union of the supports of [f] and [c] — the paper's
    [c_onset_size]. *)

val pp : Bdd.man -> Format.formatter -> t -> unit
(** Print as truth vectors in the paper's {0,1,d} leaf notation (only for
    small supports). *)
