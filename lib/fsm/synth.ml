type shared = {
  builder : Netlist.builder;
  var_signal : int -> Netlist.signal;
  (* node id -> signal computing the node's REGULAR function *)
  memo : (int, Netlist.signal) Hashtbl.t;
  (* complemented signals already built, keyed by node id *)
  compl_memo : (int, Netlist.signal) Hashtbl.t;
}

let make_shared builder ~var_signal =
  {
    builder;
    var_signal;
    memo = Hashtbl.create 64;
    compl_memo = Hashtbl.create 64;
  }

let is_complemented e = Bdd.uid e land 1 = 1

(* Synthesize the regular (uncomplemented) function of [e]'s node. *)
let rec node_signal ctx e =
  let reg = if is_complemented e then Bdd.compl e else e in
  if Bdd.is_one reg then Netlist.const_signal ctx.builder true
  else
    let id = Bdd.node_id reg in
    match Hashtbl.find_opt ctx.memo id with
    | Some s -> s
    | None ->
      let v = Bdd.topvar reg in
      let t1 = shared_signal ctx (Bdd.hi reg) in
      let e0 = shared_signal ctx (Bdd.lo reg) in
      let s = Netlist.mux ctx.builder ~sel:(ctx.var_signal v) ~t1 ~e0 in
      Hashtbl.add ctx.memo id s;
      s

and shared_signal ctx e =
  let reg_signal = node_signal ctx e in
  if not (is_complemented e) then reg_signal
  else
    let id = Bdd.node_id e in
    match Hashtbl.find_opt ctx.compl_memo id with
    | Some s -> s
    | None ->
      let s = Netlist.not_gate ctx.builder reg_signal in
      Hashtbl.add ctx.compl_memo id s;
      s

let signal_of_bdd builder ~var_signal e =
  shared_signal (make_shared builder ~var_signal) e

let netlist_of_symbolic ?name (sym : Symbolic.t) =
  let nl = sym.netlist in
  let name =
    match name with Some n -> n | None -> Netlist.name nl ^ ".synth"
  in
  let b = Netlist.create name in
  (* Primary inputs, keeping names. *)
  let input_signals =
    List.map (fun (n, _) -> (n, Netlist.input b n)) (Netlist.inputs nl)
  in
  (* Latches, keeping names and initial values. *)
  let latches =
    List.map
      (fun (n, s) ->
         match Netlist.gate_of nl s with
         | Netlist.Latch { init; _ } ->
           let q, set = Netlist.latch b ~name:n ~init () in
           (q, set)
         | _ -> assert false)
      (Netlist.latches nl)
  in
  let latch_q = Array.of_list (List.map fst latches) in
  let var_signal v =
    (* state variable? *)
    let rec find_state j =
      if j >= Array.length sym.state_vars then None
      else if sym.state_vars.(j) = v then Some latch_q.(j)
      else find_state (j + 1)
    in
    match find_state 0 with
    | Some s -> s
    | None -> (
        match List.find_opt (fun (_, iv) -> iv = v) sym.input_vars with
        | Some (n, _) -> List.assoc n input_signals
        | None ->
          invalid_arg
            (Printf.sprintf
               "Synth.netlist_of_symbolic: function depends on variable %d \
                which is neither a current-state variable nor an input"
               v))
  in
  let ctx = make_shared b ~var_signal in
  List.iteri
    (fun j (_, set) -> set (shared_signal ctx sym.next_fns.(j)))
    latches;
  List.iter
    (fun (n, g) -> Netlist.output b n (shared_signal ctx g))
    sym.output_fns;
  Netlist.finalize b

let default_minimizer man (i : Minimize.Ispec.t) =
  Minimize.Sibling.run_clamped man
    (Minimize.Sibling.config_of_heuristic Minimize.Sibling.Osm_bt)
    i

let resynthesize ?name ?(minimize = default_minimizer) man nl =
  let sym = Symbolic.of_netlist man nl in
  let reached, _ = Reach.reachable sym in
  let sym' = Symbolic.restrict_to_care_states sym ~care:reached ~minimize in
  let name = match name with Some n -> n | None -> Netlist.name nl ^ ".opt" in
  (netlist_of_symbolic ~name sym', reached)
