(** Public face of the BDD substrate: the core engine plus cube and
    Graphviz helpers.  See {!Core_dd} for the engine documentation. *)

include Core_dd

(** The node representation: plain ROBDDs are the only one.  Kept only
    so [create ~repr] still compiles for the benchmark's callers. *)
type repr = [ `Bdd ]

(* The one front door for manager construction.  [repr] is a plain
   stand-in (see [repr] above). *)
let create ?nvars ?repr:(_ : repr option) ?cache_bits ?cache_bytes ?budget () =
  let man = Core_dd.new_man ?nvars ?cache_bits ?cache_budget:cache_bytes () in
  Core_dd.set_budget man budget;
  man

(** Plain stand-ins for the benchmark's size calls: both are {!size}. *)
module Metric = struct
  let nodes = size
  let plain_equivalent = size
end

module Cube = Cube
module Reorder = Reorder
module Store = Store
module Zdd = Zdd
module Add = Add
module Dot = Dot
