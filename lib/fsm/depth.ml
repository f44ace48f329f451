type t = {
  map : Bdd.Add.t;
  add_man : Bdd.Add.man;
  diameter : int;
  unreachable : int;
}

let unreachable_sentinel = max_int / 2

let compute ?max_iterations (sym : Symbolic.t) =
  let man = sym.man in
  let add_man = Bdd.Add.new_man () in
  let depth_map = ref (Bdd.Add.const add_man unreachable_sentinel) in
  let diameter = ref 0 in
  let record ~iteration frontier =
    (* first-visit: min with (frontier ? iteration : ∞) *)
    let layer =
      Bdd.Add.of_bdd add_man frontier ~high:iteration
        ~low:unreachable_sentinel
    in
    depth_map := Bdd.Add.min2 add_man !depth_map layer;
    diameter := max !diameter iteration
  in
  (* Re-run the BFS, recording each frontier. *)
  let rec go iteration reached frontier =
    if Bdd.is_zero frontier then ()
    else begin
      (match max_iterations with
       | Some m when iteration >= m ->
         failwith "Depth.compute: max_iterations exceeded"
       | _ -> ());
      record ~iteration frontier;
      let successors = Image.image sym frontier in
      let frontier' = Bdd.diff man successors reached in
      let reached' = Bdd.dor man reached successors in
      go (iteration + 1) reached' frontier'
    end
  in
  go 0 sym.init sym.init;
  {
    map = !depth_map;
    add_man;
    diameter = !diameter;
    unreachable = unreachable_sentinel;
  }

let depth_of_state t bits (sym : Symbolic.t) =
  if Array.length bits <> Array.length sym.state_vars then
    invalid_arg "Depth.depth_of_state";
  let assign v =
    let rec find j =
      if j >= Array.length sym.state_vars then false
      else if sym.state_vars.(j) = v then bits.(j)
      else find (j + 1)
    in
    find 0
  in
  let d = Bdd.Add.eval t.map assign in
  if d >= t.unreachable then None else Some d

let ring t (sym : Symbolic.t) k =
  Bdd.Add.to_bdd t.add_man t.map ~pred:(fun v -> v = k) sym.man
