(** Textual serialization of shared BDD DAGs.

    Format (line-oriented, human-diffable):
    {v
      bdd 1                          header, format version
      node <id> <var> <hi> <lo>      one line per internal node,
                                     children before parents;
                                     edge syntax: <id> or !<id>, 0 = terminal
      root <name> <edge>             one line per named root
    v}
    Node ids are arbitrary positive integers unique within the file; the
    terminal is id 0 (so the constant one is edge [0] and zero is [!0]).
    The header must be the first non-blank line (blank lines are ignored
    anywhere).  Loading reconstructs the functions in any manager,
    re-establishing maximal sharing through the unique table. *)

val save : Core_dd.man -> (string * Core_dd.t) list -> string
(** Serialize the shared DAG of the named roots, children before
    parents, through {!Core_dd.iter_nodes_post} on the given manager
    (whose walker it uses, so it must not run inside another walk on
    that manager).
    @raise Invalid_argument on a root name that would not round-trip
    through {!load} — empty, containing whitespace (space, tab, newline,
    carriage return), or duplicated. *)

val save_file : string -> Core_dd.man -> (string * Core_dd.t) list -> unit

val load : Core_dd.man -> string -> ((string * Core_dd.t) list, string) result
(** Parse and rebuild in the given manager, in one pass over the text;
    each node is interned directly (it is already in order), so the
    load leaves nothing in the computed cache.  Fails on malformed input,
    a missing header, unknown ids, duplicate node ids or root names, a
    variable outside [[0, Core_dd.max_vars)], or order violations ([var]
    must be strictly smaller than the children's variables).  Never
    raises on malformed input: every syntax problem is an [Error]. *)

val load_file : Core_dd.man -> string -> ((string * Core_dd.t) list, string) result
