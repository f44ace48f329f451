(** FSM substrate: gate-level netlists, BLIF I/O, symbolic encoding,
    image computation, reachability with frontier minimization, and
    product-machine equivalence checking. *)

module Netlist = Netlist
module Blif = Blif
module Symbolic = Symbolic
module Qsched = Qsched
module Image = Image
module Reach = Reach
module Equiv = Equiv
module Explicit = Explicit
module Synth = Synth
module Simcheck = Simcheck
module Trace = Trace
