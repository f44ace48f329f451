type verdict =
  | Equivalent of Reach.stats
  | Not_equivalent of {
      stats : Reach.stats;
      distinguishing_state : Bdd.Cube.cube;
    }

(* Copy [nl]'s gates into builder [b], resolving inputs through the shared
   [input_of] table and prefixing latch names; returns the signal map. *)
let copy_into b ~prefix ~input_of nl =
  let gates = Netlist.gates nl in
  let map = Array.make (Array.length gates) (Netlist.const_signal b false) in
  let latch_setters = ref [] in
  Array.iteri
    (fun i g ->
       map.(i) <-
         (match g with
          | Netlist.Input n -> input_of n
          | Netlist.Const v -> Netlist.const_signal b v
          | Netlist.Not a -> Netlist.not_gate b map.(Netlist.signal_index a)
          | Netlist.And (x, y) ->
            Netlist.and_gate b map.(Netlist.signal_index x) map.(Netlist.signal_index y)
          | Netlist.Or (x, y) ->
            Netlist.or_gate b map.(Netlist.signal_index x) map.(Netlist.signal_index y)
          | Netlist.Xor (x, y) ->
            Netlist.xor_gate b map.(Netlist.signal_index x) map.(Netlist.signal_index y)
          | Netlist.Latch { name; init; next } ->
            let q, set = Netlist.latch b ~name:(prefix ^ name) ~init () in
            latch_setters := (set, next) :: !latch_setters;
            q))
    gates;
  List.iter
    (fun (set, next) -> set map.(Netlist.signal_index next))
    !latch_setters;
  map

let product nl1 nl2 =
  let names l = List.sort compare (List.map fst l) in
  if names (Netlist.inputs nl1) <> names (Netlist.inputs nl2) then
    invalid_arg "Equiv.product: input sets differ";
  let common_outputs =
    List.filter
      (fun (n, _) -> List.mem_assoc n (Netlist.outputs nl2))
      (Netlist.outputs nl1)
  in
  if common_outputs = [] then
    invalid_arg "Equiv.product: no common outputs";
  let b =
    Netlist.create
      (Printf.sprintf "product(%s,%s)" (Netlist.name nl1) (Netlist.name nl2))
  in
  let input_table = Hashtbl.create 8 in
  let input_of n =
    match Hashtbl.find_opt input_table n with
    | Some s -> s
    | None ->
      let s = Netlist.input b n in
      Hashtbl.add input_table n s;
      s
  in
  let map1 = copy_into b ~prefix:"a." ~input_of nl1 in
  let map2 = copy_into b ~prefix:"b." ~input_of nl2 in
  let diffs =
    List.map
      (fun (n, s1) ->
         let s2 = List.assoc n (Netlist.outputs nl2) in
         Netlist.xor_gate b
           map1.(Netlist.signal_index s1)
           map2.(Netlist.signal_index s2))
      common_outputs
  in
  Netlist.output b "neq" (Netlist.or_list b diffs);
  Netlist.finalize b

let check ?strategy ?cluster_bound ?minimize ?max_iterations ?on_instance
    ?on_image_constrain man nl1 nl2 =
  let prod = product nl1 nl2 in
  let sym = Symbolic.of_netlist man prod in
  let reached, stats =
    Reach.reachable ?strategy ?cluster_bound ?minimize ?max_iterations
      ?on_instance ?on_image_constrain sym
  in
  (* A partial reached set cannot support a verdict in either direction
     (an unexplored state could still activate [neq]); surface the
     exhaustion instead of guessing. *)
  (match stats.Reach.fixpoint with
   | Reach.Partial { reason; _ } -> raise (Bdd.Budget_exhausted reason)
   | Reach.Complete -> ());
  let neq = List.assoc "neq" sym.output_fns in
  let bad_states = Bdd.exists man (Symbolic.input_support sym) neq in
  let witness = Bdd.dand man reached bad_states in
  if Bdd.is_zero witness then Equivalent stats
  else
    match Bdd.Cube.any_cube witness with
    | Some cube -> Not_equivalent { stats; distinguishing_state = cube }
    | None -> assert false

let check_self ?strategy ?cluster_bound ?minimize ?max_iterations ?on_instance
    ?on_image_constrain man nl =
  check ?strategy ?cluster_bound ?minimize ?max_iterations ?on_instance
    ?on_image_constrain man nl nl

(* ----- counterexample traces ----- *)

let counterexample_trace ?max_iterations man nl1 nl2 =
  let prod = product nl1 nl2 in
  let sym = Symbolic.of_netlist man prod in
  let neq = List.assoc "neq" sym.output_fns in
  let bad_states = Bdd.exists man (Symbolic.input_support sym) neq in
  Trace.to_states ?max_iterations ~final_condition:neq man sym
    ~bad:bad_states
