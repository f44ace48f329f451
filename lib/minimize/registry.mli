(** The catalogue of minimizers compared in the paper's experiments
    (§4.1.2): the eight sibling-matching heuristics, the level-matching
    heuristic [opt_lv], the three reference "heuristics" [f_orig],
    [f_and_c], [f_or_nc] — plus, as an extension, the §3.4 schedule. *)

type kind =
  | Sibling_matching of Sibling.heuristic
  | Level_matching  (** [opt_lv] *)
  | Reference  (** [f_orig], [f_and_c], [f_or_nc] *)
  | Scheduled  (** the windowed schedule (this library's extension) *)
  | Two_level  (** the ISOP-based cover (extension baseline) *)

type entry = {
  name : string;
  kind : kind;
  run : Ctx.t -> Ispec.t -> Bdd.t;
      (** prefer {!run}, which honours the context's budget *)
}

val paper : entry list
(** The twelve minimizers of Table 3, in the paper's naming: [const],
    [restr], [osm_td], [osm_nv], [osm_cp], [osm_bt], [tsm_td], [tsm_cp],
    [opt_lv], [f_orig], [f_and_c], [f_or_nc]. *)

val all : entry list
(** [paper] plus the [sched] extension. *)

val extended : entry list
(** [all] plus the extension baselines ([isop]); not used by the
    paper-reproduction harness, whose [min] must range over the paper's
    own catalogue. *)

val proper : entry list
(** [all] without the [Reference] entries (the actual minimizers). *)

val find : string -> entry option
val names : entry list -> string list

val run : entry -> Ctx.t -> Ispec.t -> Bdd.t
(** Run one entry under a context: the context's budget (if any) is
    installed on the manager for the duration.
    @raise Bdd.Budget_exhausted when the budget trips. *)

val best : Ctx.t -> entry list -> Ispec.t -> string * Bdd.t
(** The paper's [min]: run every entry and keep a smallest result (first
    listed wins ties); returns its name and cover.  Entries that exhaust
    the context's budget are skipped; if {e every} entry exhausts it,
    the first [Bdd.Budget_exhausted] is re-raised. *)
