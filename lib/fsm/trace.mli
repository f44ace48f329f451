(** Onion-ring trace generation: concrete input sequences leading from
    reset into a given set of states — the machinery behind
    {!Equiv.counterexample_trace}. *)

val to_states :
  ?max_iterations:int ->
  final_condition:Bdd.t ->
  Bdd.man ->
  Symbolic.t ->
  bad:Bdd.t ->
  (string * bool) list list option
(** [to_states man sym ~final_condition ~bad] finds a shortest-in-rings
    input trace driving the machine from reset into [bad] (a predicate
    over current-state variables), or [None] when [bad] is unreachable.

    The trace has one primary-input assignment per cycle: [k] entries
    reach a bad state (none when the initial state is already bad), and
    one more assignment is appended that satisfies [final_condition] — a
    predicate over state and input variables — in the reached bad state
    (e.g. an input exposing an output difference). *)
