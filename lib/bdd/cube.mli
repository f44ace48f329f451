(** Cubes (conjunctions of literals) and cube enumeration over BDDs.

    Cube enumeration drives the paper's lower-bound computation (§4.1.1):
    cubes of the care set are produced by depth-first traversal, returning a
    cube each time the constant 1 is reached. *)

type literal = int * bool
(** A variable paired with its phase ([true] = positive). *)

type cube = literal list
(** A conjunction of literals, sorted by variable, each variable at most
    once.  The empty cube is the constant 1. *)

val of_cube : Core_dd.man -> cube -> Core_dd.t
(** BDD of the conjunction. *)

val to_cube : Core_dd.t -> cube option
(** [Some c] when the function is exactly the cube [c] (in particular
    [Some []] for the constant 1), [None] otherwise. *)

val is_cube : Core_dd.t -> bool
(** Whether the function is a non-zero cube (the constant 1 counts). *)

val any_cube : Core_dd.t -> cube option
(** Some satisfying path-cube of the function, [None] iff it is 0. *)

val iter_cubes : ?limit:int -> Core_dd.t -> (cube -> unit) -> unit
(** Apply the callback to the path-cubes of the function, in DFS order
    (then-branch first), stopping after [limit] cubes when given.  Each
    path-cube is implied by the function's onset and implies the function. *)

val all_cubes : ?limit:int -> Core_dd.t -> cube list
(** The path-cubes as a list, DFS order. *)

val short_cube : Core_dd.t -> cube option
(** A path-cube with the fewest literals (a "large" cube in the paper's
    sense — covering the most minterms), found by shortest-path search. *)

val literal_count : cube -> int

val pp : Format.formatter -> cube -> unit
(** Print as e.g. [x0·¬x2·x5]; the empty cube prints as [1]. *)
