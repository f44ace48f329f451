(* Complete a path cube over [vars] into a full assignment (missing
   variables pulled low) and return its characteristic cube. *)
let complete_state man vars cube =
  let assign v =
    match List.assoc_opt v cube with Some b -> b | None -> false
  in
  List.fold_left
    (fun acc v ->
       let lit = Bdd.ithvar man v in
       Bdd.dand man acc (if assign v then lit else Bdd.compl lit))
    (Bdd.one man) vars

let pick_full man vars set =
  match Bdd.Cube.any_cube set with
  | None -> None
  | Some cube -> Some (complete_state man vars cube)

let input_assignment (sym : Symbolic.t) condition =
  let cube =
    match Bdd.Cube.any_cube condition with Some c -> c | None -> []
  in
  List.map
    (fun (name, v) ->
       (name, match List.assoc_opt v cube with Some b -> b | None -> false))
    sym.input_vars

let to_states ?(max_iterations = max_int) ~final_condition man
    (sym : Symbolic.t) ~bad =
  let state_vars = Symbolic.state_support sym in
  (* Forward rings until one touches a bad state. *)
  let rec forward rings reached frontier n =
    if Bdd.is_zero frontier || n > max_iterations then None
    else if not (Bdd.agree man frontier bad (Bdd.zero man)) then
      Some (List.rev (frontier :: rings))
    else
      let successors = Image.image sym frontier in
      let frontier' = Bdd.diff man successors reached in
      let reached' = Bdd.dor man reached successors in
      forward (frontier :: rings) reached' frontier' (n + 1)
  in
  match forward [] sym.init sym.init 0 with
  | None -> None
  | Some rings ->
    let rings = Array.of_list rings in
    let k = Array.length rings - 1 in
    (* Concrete states backwards from the failing ring. *)
    let states = Array.make (k + 1) (Bdd.zero man) in
    (match pick_full man state_vars (Bdd.dand man rings.(k) bad) with
     | Some s -> states.(k) <- s
     | None -> assert false);
    let trans = Symbolic.transition_relation sym in
    for j = k - 1 downto 0 do
      let succ_next =
        Bdd.rename man states.(j + 1) (Symbolic.current_to_next sym)
      in
      let preds =
        Bdd.and_exists man
          (Array.to_list sym.next_vars @ Symbolic.input_support sym)
          trans succ_next
      in
      match pick_full man state_vars (Bdd.dand man preds rings.(j)) with
      | Some s -> states.(j) <- s
      | None -> assert false
    done;
    (* Inputs along the spine. *)
    let step_input j =
      let succ_next =
        Bdd.rename man states.(j + 1) (Symbolic.current_to_next sym)
      in
      let condition =
        Bdd.exists man
          (state_vars @ Array.to_list sym.next_vars)
          (Bdd.conj man [ trans; states.(j); succ_next ])
      in
      input_assignment sym condition
    in
    let spine = List.init k step_input in
    let final =
      input_assignment sym
        (Bdd.exists man state_vars (Bdd.dand man final_condition states.(k)))
    in
    Some (spine @ [ final ])
