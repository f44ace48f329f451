let union_support man fs =
  List.sort_uniq compare (List.concat_map (Core_dd.support man) fs)

let check_placement placement vars =
  let seen = Hashtbl.create 16 in
  List.iter
    (fun v ->
       if v >= Array.length placement then
         invalid_arg "Reorder: placement too short for the support";
       let p = placement.(v) in
       if p < 0 then invalid_arg "Reorder: negative level in placement";
       if Hashtbl.mem seen p then
         invalid_arg "Reorder: placement is not injective on the support";
       Hashtbl.add seen p ())
    vars

(* Rebuild each function in [target] with variable [v] living at level
   [placement.(v)].  The target manager's ITE performs the actual
   reordering work; memoized per source edge.  Every memoized result is
   rooted in [target] while the rebuild runs (and the final results stay
   rooted), so a garbage collection of the target manager — automatic or
   explicit — cannot sweep the intermediate cones out from under us. *)
let rebuild_into target man ~placement fs =
  check_placement placement (union_support man fs);
  let memo = Hashtbl.create 1024 in
  let rooted = ref [] in
  let rec go e =
    if Core_dd.is_one e then Core_dd.one target
    else if Core_dd.is_zero e then Core_dd.zero target
    else
      match Hashtbl.find_opt memo (Core_dd.uid e) with
      | Some r -> r
      | None ->
        let v = Core_dd.topvar e in
        let t = go (Core_dd.hi man e) and l = go (Core_dd.lo man e) in
        let r = Core_dd.ite target (Core_dd.ithvar target placement.(v)) t l in
        Core_dd.ref_ target r;
        rooted := r :: !rooted;
        Hashtbl.add memo (Core_dd.uid e) r;
        r
  in
  let out = List.map go fs in
  List.iter (Core_dd.ref_ target) out;
  List.iter (Core_dd.deref target) !rooted;
  out

let rebuild man ~placement fs =
  (* The rebuilt manager keeps the source representation: a chain
     manager's functions re-absorb into chains under the new order. *)
  let target = Core_dd.new_man ~chain:(Core_dd.repr man = `Cbdd) () in
  (target, rebuild_into target man ~placement fs)

let shared_size_under man ~placement fs =
  let target, rebuilt = rebuild man ~placement fs in
  Core_dd.shared_size target rebuilt

(* Placement induced by an order (list of variables, topmost first). *)
let placement_of_order n order =
  let placement = Array.make n 0 in
  List.iteri (fun level v -> placement.(v) <- level) order;
  placement

(* Sifting reads the whole source cone over and over while other domains
   of a shared store may be interning and triggering collections; with
   more than one registered view the measurement walks would race the
   collector's sweeps.  Refuse loudly instead of corrupting anything:
   the caller must quiesce to a single attached view first. *)
let check_siftable man =
  match Core_dd.Shared.store_of man with
  | None -> ()
  | Some store ->
    let views = Core_dd.Shared.view_count store in
    if views > 1 then
      invalid_arg
        (Printf.sprintf
           "Reorder.sift: manager is a view of a shared store with %d \
            registered views; detach down to one before reordering"
           views)

let sift ?(max_rounds = 2) man fs =
  check_siftable man;
  let vars = union_support man fs in
  match vars with
  | [] | [ _ ] ->
    let n = List.fold_left max (-1) vars + 1 in
    (Array.init (max n 1) Fun.id, Core_dd.shared_size man fs)
  | _ ->
    let n = List.fold_left max 0 vars + 1 in
    (* Variables not in the support keep identity positions; only the
       support participates in the order being permuted.  Each distinct
       order is measured (one full rebuild) at most once. *)
    let size_cache = Hashtbl.create 64 in
    let size_of order =
      match Hashtbl.find_opt size_cache order with
      | Some s -> s
      | None ->
        let s =
          shared_size_under man ~placement:(placement_of_order n order) fs
        in
        Hashtbl.add size_cache order s;
        s
    in
    (* level population, to process the most populous variables first *)
    let population = Hashtbl.create 16 in
    List.iter
      (fun f ->
         Core_dd.iter_nodes man f (fun _ v ->
             if v <> Core_dd.const_var then
               Hashtbl.replace population v
                 (1 + Option.value ~default:0 (Hashtbl.find_opt population v))))
      fs;
    let by_population =
      List.stable_sort
        (fun a b ->
           compare
             (Option.value ~default:0 (Hashtbl.find_opt population b))
             (Option.value ~default:0 (Hashtbl.find_opt population a)))
        vars
    in
    let best_order = ref vars in
    let best_size = ref (size_of vars) in
    let improved = ref true in
    let round = ref 0 in
    while !improved && !round < max_rounds do
      improved := false;
      incr round;
      List.iter
        (fun v ->
           let base = !best_order in
           let rest = List.filter (( <> ) v) base in
           (* try inserting v at every position of the current order;
              re-inserting it where it already sits reproduces [base],
              whose size is known — skip that rebuild *)
           let m = List.length rest in
           for pos = 0 to m do
             let candidate =
               List.concat
                 [
                   List.filteri (fun i _ -> i < pos) rest;
                   [ v ];
                   List.filteri (fun i _ -> i >= pos) rest;
                 ]
             in
             if candidate <> base then begin
               let sz = size_of candidate in
               if sz < !best_size then begin
                 best_size := sz;
                 best_order := candidate;
                 improved := true
               end
             end
           done)
        by_population
    done;
    (placement_of_order n !best_order, !best_size)
