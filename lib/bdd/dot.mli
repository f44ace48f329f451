(** Graphviz export of BDDs (complement edges drawn as dotted lines). *)

val to_dot :
  ?name:string ->
  ?var_name:(int -> string) ->
  (string * Core_dd.t) list ->
  string
(** [to_dot roots] renders the shared DAG of the labelled [roots] as a
    Graphviz [digraph].  [var_name] maps levels to labels (default
    [x<level>]). *)

val dump_file :
  ?name:string ->
  ?var_name:(int -> string) ->
  string ->
  (string * Core_dd.t) list ->
  unit
(** Write {!to_dot} output to the given path. *)
