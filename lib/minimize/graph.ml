let dag_sinks ~n ~edge =
  let is_sink v =
    let rec no_edge w = w >= n || ((w = v || not (edge v w)) && no_edge (w + 1)) in
    no_edge 0
  in
  List.filter is_sink (List.init n (fun v -> v))

let dag_assignment ~n ~edge =
  let assigned = Array.make n (-1) in
  let visiting = Array.make n false in
  let rec rep v =
    if assigned.(v) >= 0 then assigned.(v)
    else if visiting.(v) then v (* defensive cycle break *)
    else begin
      visiting.(v) <- true;
      let rec first_succ w =
        if w >= n then v
        else if w <> v && edge v w then rep w
        else first_succ (w + 1)
      in
      let r = first_succ 0 in
      visiting.(v) <- false;
      assigned.(v) <- r;
      r
    end
  in
  Array.init n rep

let clique_cover ~n ~adjacent ?(order_by_degree = true) ?edge_weight () =
  let adj = Array.make_matrix n n false in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let b = adjacent i j in
      adj.(i).(j) <- b;
      adj.(j).(i) <- b
    done
  done;
  let degree =
    Array.map (Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0) adj
  in
  let seeds =
    let vs = List.init n (fun v -> v) in
    if order_by_degree then
      List.stable_sort (fun a b -> compare degree.(b) degree.(a)) vs
    else vs
  in
  let covered = Array.make n false in
  let weight u w = match edge_weight with Some f -> f u w | None -> 0.0 in
  let grow_clique seed =
    covered.(seed) <- true;
    let cur = ref [ seed ] in
    let adjacent_to_all w = List.for_all (fun u -> adj.(u).(w)) !cur in
    let changed = ref true in
    while !changed do
      changed := false;
      (* Outgoing edges of the current clique to uncovered vertices, in
         ascending weight. *)
      let candidates =
        List.concat_map
          (fun u ->
             let rec collect w acc =
               if w < 0 then acc
               else
                 collect (w - 1)
                   (if adj.(u).(w) && not covered.(w) then (weight u w, w) :: acc
                    else acc)
             in
             collect (n - 1) [])
          !cur
        |> List.stable_sort (fun (a, _) (b, _) -> compare a b)
      in
      List.iter
        (fun (_, w) ->
           if (not covered.(w)) && adjacent_to_all w then begin
             covered.(w) <- true;
             cur := w :: !cur;
             changed := true
           end)
        candidates
    done;
    List.rev !cur
  in
  List.filter_map
    (fun seed -> if covered.(seed) then None else Some (grow_clique seed))
    seeds
