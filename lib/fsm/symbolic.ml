type ordering = Interleaved | Topological | Inputs_first

type t = {
  man : Bdd.man;
  netlist : Netlist.t;
  state_vars : int array;
  next_vars : int array;
  input_vars : (string * int) list;
  next_fns : Bdd.t array;
  output_fns : (string * Bdd.t) list;
  init : Bdd.t;
  (* memoized derived structures, rooted against GC on first use *)
  mutable rel_parts : Bdd.t array option;
  mutable rel_mono : Bdd.t option;
  mutable qsched : (int * Qsched.t) option;     (* (cluster bound, schedule) *)
}

(* First-visit order of latches in a DFS through the next-state logic:
   latches feeding common cones end up adjacent in the order. *)
let topological_rank nl =
  let lats = Netlist.latches nl in
  let nlat = List.length lats in
  let latch_of_index = Hashtbl.create 16 in
  List.iteri
    (fun j (_, s) -> Hashtbl.add latch_of_index (Netlist.signal_index s) j)
    lats;
  let rank = Array.make nlat (-1) in
  let next_rank = ref 0 in
  let seen = Hashtbl.create 64 in
  let rec visit i =
    if not (Hashtbl.mem seen i) then begin
      Hashtbl.add seen i ();
      match Netlist.gate_of nl (Netlist.signal_of_index nl i) with
      | Netlist.Input _ | Netlist.Const _ -> ()
      | Netlist.Not a -> visit (Netlist.signal_index a)
      | Netlist.And (a, b) | Netlist.Or (a, b) | Netlist.Xor (a, b) ->
        visit (Netlist.signal_index a);
        visit (Netlist.signal_index b)
      | Netlist.Latch _ ->
        let j = Hashtbl.find latch_of_index i in
        if rank.(j) < 0 then begin
          rank.(j) <- !next_rank;
          incr next_rank
        end
    end
  in
  (* Seed the DFS from each latch's next-state cone, in declaration
     order, then from the primary outputs. *)
  List.iter
    (fun (_, s) ->
       match Netlist.gate_of nl s with
       | Netlist.Latch { next; _ } -> visit (Netlist.signal_index next)
       | _ -> assert false)
    lats;
  List.iter (fun (_, s) -> visit (Netlist.signal_index s)) (Netlist.outputs nl);
  (* Unvisited latches (dead state) keep declaration order at the end. *)
  Array.iteri
    (fun j r ->
       if r < 0 then begin
         rank.(j) <- !next_rank;
         incr next_rank
       end)
    rank;
  rank

let latch_rank nl = function
  | Interleaved | Inputs_first ->
    Array.init (List.length (Netlist.latches nl)) Fun.id
  | Topological -> topological_rank nl

let of_netlist ?(ordering = Interleaved) man nl =
  let lats = Netlist.latches nl in
  let nlat = List.length lats in
  let nin = List.length (Netlist.inputs nl) in
  let base = Bdd.nvars man in
  let rank = latch_rank nl ordering in
  let state_base =
    match ordering with Inputs_first -> base + nin | Interleaved | Topological -> base
  in
  let state_vars = Array.init nlat (fun j -> state_base + (2 * rank.(j))) in
  let next_vars = Array.init nlat (fun j -> state_base + (2 * rank.(j)) + 1) in
  let input_base =
    match ordering with
    | Inputs_first -> base
    | Interleaved | Topological -> base + (2 * nlat)
  in
  let input_vars =
    List.mapi (fun k (n, _) -> (n, input_base + k)) (Netlist.inputs nl)
  in
  (* Map each latch gate index to its current-state variable. *)
  let latch_var = Hashtbl.create 16 in
  List.iteri
    (fun j (_, s) -> Hashtbl.add latch_var (Netlist.signal_index s) j)
    lats;
  let gates = Netlist.gates nl in
  let values = Array.make (Array.length gates) (Bdd.zero man) in
  let value s = values.(Netlist.signal_index s) in
  Array.iteri
    (fun i g ->
       values.(i) <-
         (match g with
          | Netlist.Input n -> Bdd.ithvar man (List.assoc n input_vars)
          | Netlist.Const true -> Bdd.one man
          | Netlist.Const false -> Bdd.zero man
          | Netlist.Not a -> Bdd.compl (value a)
          | Netlist.And (a, b) -> Bdd.dand man (value a) (value b)
          | Netlist.Or (a, b) -> Bdd.dor man (value a) (value b)
          | Netlist.Xor (a, b) -> Bdd.dxor man (value a) (value b)
          | Netlist.Latch _ ->
            Bdd.ithvar man state_vars.(Hashtbl.find latch_var i)))
    gates;
  let next_fns =
    Array.of_list
      (List.map
         (fun (_, s) ->
            match Netlist.gate_of nl s with
            | Netlist.Latch { next; _ } -> value next
            | _ -> assert false)
         lats)
  in
  let output_fns =
    List.map (fun (n, s) -> (n, values.(Netlist.signal_index s))) (Netlist.outputs nl)
  in
  let init =
    List.fold_left
      (fun acc (j, (_, s)) ->
         let v = Bdd.ithvar man state_vars.(j) in
         let lit =
           match Netlist.gate_of nl s with
           | Netlist.Latch { init = true; _ } -> v
           | Netlist.Latch { init = false; _ } -> Bdd.compl v
           | _ -> assert false
         in
         Bdd.dand man acc lit)
      (Bdd.one man)
      (List.mapi (fun j l -> (j, l)) lats)
  in
  { man; netlist = nl; state_vars; next_vars; input_vars; next_fns;
    output_fns; init; rel_parts = None; rel_mono = None; qsched = None }

let state_support t = Array.to_list t.state_vars
let input_support t = List.map snd t.input_vars

(* The derived relation structures are machine constants, but image
   computation used to rebuild them on every call.  They are built on
   first use, rooted (so a caller's [gc] between images keeps them), and
   cached in the record. *)
let partitioned_relation t =
  match t.rel_parts with
  | Some parts -> parts
  | None ->
    let parts =
      Array.mapi
        (fun j delta ->
           Bdd.dxnor t.man (Bdd.ithvar t.man t.next_vars.(j)) delta)
        t.next_fns
    in
    Array.iter (Bdd.ref_ t.man) parts;
    t.rel_parts <- Some parts;
    parts

let transition_relation t =
  match t.rel_mono with
  | Some rel -> rel
  | None ->
    let rel =
      Array.fold_left (Bdd.dand t.man) (Bdd.one t.man)
        (partitioned_relation t)
    in
    Bdd.ref_ t.man rel;
    t.rel_mono <- Some rel;
    rel

let schedule ?(cluster_bound = Qsched.default_cluster_bound) t =
  match t.qsched with
  | Some (bound, sched) when bound = cluster_bound -> sched
  | prev ->
    let sched =
      Qsched.build t.man
        ~parts:(partitioned_relation t)
        ~quantified:(state_support t @ input_support t)
        ~cluster_bound
    in
    Array.iter
      (fun (c : Qsched.cluster) -> Bdd.ref_ t.man c.Qsched.rel)
      sched.Qsched.clusters;
    (match prev with
     | Some (_, old) ->
       Array.iter
         (fun (c : Qsched.cluster) -> Bdd.deref t.man c.Qsched.rel)
         old.Qsched.clusters
     | None -> ());
    t.qsched <- Some (cluster_bound, sched);
    sched

let next_to_current t =
  Array.to_list (Array.mapi (fun j y -> (y, t.state_vars.(j))) t.next_vars)

let current_to_next t =
  Array.to_list (Array.mapi (fun j y -> (t.state_vars.(j), y)) t.next_vars)

let num_state_vars t = Array.length t.state_vars

let restrict_to_care_states t ~care ~minimize =
  let shrink g = minimize t.man (Minimize.Ispec.make ~f:g ~c:care) in
  let next_fns = Array.map shrink t.next_fns in
  let output_fns = List.map (fun (n, g) -> (n, shrink g)) t.output_fns in
  {
    t with
    next_fns;
    output_fns;
    (* the memoized relations describe the old next-state functions *)
    rel_parts = None;
    rel_mono = None;
    qsched = None;
  }

let shared_node_count t =
  Bdd.shared_size t.man
    (Array.to_list t.next_fns @ List.map snd t.output_fns)

let state_cube_of_ints t bits =
  if Array.length bits <> Array.length t.state_vars then
    invalid_arg "Symbolic.state_cube_of_ints";
  let acc = ref (Bdd.one t.man) in
  Array.iteri
    (fun j b ->
       let v = Bdd.ithvar t.man t.state_vars.(j) in
       acc := Bdd.dand t.man !acc (if b then v else Bdd.compl v))
    bits;
  !acc
