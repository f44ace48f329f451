(** Synthesis of netlists back from BDDs: one 2:1 multiplexer per BDD
    node, with structural sharing (the mapping style of the paper's FPGA
    application [7]).

    Together with {!Symbolic.restrict_to_care_states} this closes the
    loop of the paper's second application: compute the reachable states,
    re-express the next-state and output logic with the unreachable
    states as don't cares, and rebuild a (often smaller) circuit that is
    sequentially equivalent to the original. *)

val signal_of_bdd :
  Netlist.builder ->
  var_signal:(int -> Netlist.signal) ->
  Bdd.t ->
  Netlist.signal
(** Build gates computing the function of the BDD inside the given
    builder; [var_signal] maps BDD levels to driver signals.  Nodes
    shared inside one call are shared structurally; pass the same memo
    across calls with {!make_shared}. *)

type shared
(** A synthesis context sharing gates across several {!shared_signal}
    calls within one builder. *)

val make_shared :
  Netlist.builder -> var_signal:(int -> Netlist.signal) -> shared

val shared_signal : shared -> Bdd.t -> Netlist.signal

val netlist_of_symbolic : ?name:string -> Symbolic.t -> Netlist.t
(** Rebuild a gate-level machine from a symbolic one: primary inputs and
    latch names (and initial values) are taken from the underlying
    netlist; the next-state and output functions are synthesized as a
    shared mux network.  The result is sequentially equivalent to the
    symbolic machine. *)

val resynthesize :
  ?name:string ->
  ?minimize:Reach.minimizer ->
  Bdd.man ->
  Netlist.t ->
  Netlist.t * Bdd.t
(** The full don't-care optimization flow: encode, compute the reachable
    set [R], minimize every function against care [R] (default minimizer:
    size-clamped [osm_bt]), synthesize back.  Returns the new netlist and
    [R].  The result is sequentially equivalent to the input (unreachable
    behaviour may differ, which no input sequence can expose). *)
