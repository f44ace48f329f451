(** Public face of the BDD substrate: the core engine plus cube and
    Graphviz helpers.  See {!Core_dd} for the engine documentation. *)

include Core_dd

(* The one front door for manager construction. *)
let create ?nvars ?(repr : Core_dd.repr = `Bdd) ?cache_bits ?cache_bytes
    ?auto_gc ?budget () =
  let man =
    Core_dd.new_man ?nvars ?cache_bits ?cache_budget:cache_bytes ?auto_gc
      ~chain:(repr = `Cbdd) ()
  in
  Core_dd.set_budget man budget;
  man

module Cube = Cube
module Reorder = Reorder
module Store = Store
module Zdd = Zdd
module Add = Add
module Dot = Dot
