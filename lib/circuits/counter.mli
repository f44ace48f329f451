(** Binary up-counters: deep, regular reachable sets (every state
    reachable, diameter [2^width]), producing long breadth-first traversals
    with highly structured frontiers. *)

val make : width:int -> unit -> Fsm.Netlist.t
(** A [width]-bit synchronous up-counter.  Input: [en] (count enable).
    Outputs: [carry] (all ones, while enabled) and the counter bits
    [q0 … q{width-1}]. *)

val modulo : width:int -> modulus:int -> Fsm.Netlist.t
(** A counter that wraps at [modulus] (e.g. a BCD digit for
    [width = 4, modulus = 10]); part of the state space is unreachable,
    giving don't-care-rich instances. *)
