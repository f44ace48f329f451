(** Matching-graph solvers for the function matching minimization (FMM)
    problem of §3.3.2.

    For transitive, antisymmetric criteria ([osm], [osdm]) the matching
    graph is a DAG (the DMG) and FMM is solved exactly by collecting sink
    vertices (Proposition 10).  For [tsm] the graph is undirected (the UMG)
    and FMM reduces to minimum clique cover (Theorem 15), solved here by
    the paper's greedy heuristic with its two proposed optimizations:
    seeds processed in decreasing degree order, and candidate edges in
    ascending distance weight. *)

val dag_sinks : n:int -> edge:(int -> int -> bool) -> int list
(** Vertices with no outgoing edge.  [edge] must describe a DAG. *)

val dag_assignment : n:int -> edge:(int -> int -> bool) -> int array
(** Map every vertex to a sink reachable from it (sinks map to
    themselves).  Cycles — which cannot arise from a transitive
    antisymmetric relation over distinct functions — are broken defensively
    by treating the first revisited vertex as a sink. *)

val clique_cover :
  n:int ->
  adjacent:(int -> int -> bool) ->
  ?order_by_degree:bool ->
  ?edge_weight:(int -> int -> float) ->
  unit ->
  int list list
(** Partition the vertices into cliques of the given undirected adjacency.
    [adjacent] must be symmetric: it is called once per vertex pair, as
    [adjacent i j] with [i < j], and the answer stands for both
    directions (self-adjacency is never asked).  Greedy: repeatedly seed
    a clique with an uncovered vertex and grow it with uncovered vertices
    adjacent to every current member; candidate edges are tried in
    ascending [edge_weight] (insertion order when absent), and seeds in
    decreasing degree when [order_by_degree] (default [true]). *)
