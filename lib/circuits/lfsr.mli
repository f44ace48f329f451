(** Fibonacci linear feedback shift registers: pseudo-random dense
    reachable sets (a maximal-period LFSR reaches all non-zero states). *)

val make : width:int -> unit -> Fsm.Netlist.t
(** [make ~width ()] builds an LFSR seeded at 1 with {!default_taps} as
    its feedback bit positions.  Outputs: [q0 … q{width-1}]. *)

val default_taps : int -> int list
(** Feedback taps of a maximal-length polynomial for widths up to 16,
    else [[0; width-1]]. *)
