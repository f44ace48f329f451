(** The §4.1.1 lower bound on the size of a minimum cover.

    By Theorem 7, for any cube [p ≤ c], [constrain f p] is a minimum cover
    of [[f; p]]; since every cover of [[f; c]] also covers [[f; p]], its
    size is at least [|constrain f p|].  Maximizing over cubes of [c]
    yields a lower bound on the EBM optimum. *)

val compute :
  Bdd.man -> ?cube_limit:int -> ?include_short_cube:bool -> Ispec.t -> int
(** [compute man s] enumerates up to [cube_limit] (default 1000) cubes of
    [s.c] in DFS order — plus, when [include_short_cube] (default [true]),
    one cube with the fewest literals, following the paper's suggestion to
    also look for large cubes — and returns the largest [|constrain f p|].
    Requires [s.c ≠ 0]. *)

val witness :
  Bdd.man -> ?cube_limit:int -> ?include_short_cube:bool -> Ispec.t ->
  int * Bdd.Cube.cube
(** The bound together with a maximizing cube. *)
