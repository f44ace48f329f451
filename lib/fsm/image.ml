type strategy = Monolithic | Partitioned | Clustered | Range

(* Parallel execution context: a worker pool plus the shared node store
   the machine's manager is a view of (see [Minimize.Par]).  Worker
   tasks check out idle views of the same store, so every edge they
   produce is canonical across the whole machine. *)
type par = Minimize.Par.t

let par ~pool ~store = Minimize.Par.make ~pool ~store

let strategy_name = function
  | Monolithic -> "monolithic"
  | Partitioned -> "partitioned"
  | Clustered -> "clustered"
  | Range -> "range"

let strategy_of_name = function
  | "monolithic" -> Some Monolithic
  | "partitioned" -> Some Partitioned
  | "clustered" -> Some Clustered
  | "range" -> Some Range
  | _ -> None

let image_monolithic (sym : Symbolic.t) s =
  let man = sym.man in
  let t = Symbolic.transition_relation sym in
  let quantified = Symbolic.state_support sym @ Symbolic.input_support sym in
  let img_next = Bdd.and_exists man quantified t s in
  Bdd.rename man img_next (Symbolic.next_to_current sym)

(* Conjoin clusters into the accumulated product in schedule order,
   existentially quantifying each current-state/input variable at its
   last occurrence via the fused [and_exists] kernel.  The schedule —
   clusters, supports, per-cluster quantification lists — is memoized in
   the machine, so a call does no support recomputation at all. *)
let image_scheduled ?cluster_bound (sym : Symbolic.t) s =
  let man = sym.man in
  let sched = Symbolic.schedule ?cluster_bound sym in
  let acc =
    match sched.Qsched.pre_quantify with
    | [] -> s
    | vars -> Bdd.exists man vars s
  in
  let img_next =
    Array.fold_left
      (fun acc (c : Qsched.cluster) ->
         Bdd.and_exists man c.Qsched.quantify acc c.Qsched.rel)
      acc sched.Qsched.clusters
  in
  Bdd.rename man img_next (Symbolic.next_to_current sym)

(* A cluster bound of 1 keeps every per-latch conjunct separate: the
   historical partitioned strategy, now driven by the same schedule. *)
let image_partitioned sym s = image_scheduled ~cluster_bound:1 sym s
let image_clustered ?cluster_bound sym s = image_scheduled ?cluster_bound sym s

(* ----- parallel conjoin-and-quantify ----- *)

(* Sorted-int-list set helpers (supports are small). *)
let iset_union a b = List.sort_uniq compare (List.rev_append a b)
let iset_mem v l = List.mem v l
let iset_diff a b = List.filter (fun v -> not (List.mem v b)) a

(* Pairwise tree reduction of the quantification schedule.  The
   sequential walk computes [∃Q. S · ∧ rels] by folding left; any merge
   tree computes the same function provided a variable is only
   quantified once no conjunct {e outside} the merged subtree still
   mentions it.  Each round pairs adjacent items, derives every pair's
   sound quantification set from the tracked supports of all other
   items, and dispatches the [and_exists] merges onto pool workers, each
   on a checked-out view of the shared store.  Tracked supports are
   over-approximations (quantified variables are removed, vanished ones
   are not) — that only ever {e delays} a quantification, never loses
   one, so the result is the exact image; a final [exists] sweeps any
   variables still pending when one item remains.

   Determinism: the pairing, the quantification sets and the
   submission order are all functions of the schedule alone, and BDD
   results are canonical store-wide, so the computed image is the same
   edge the sequential walk produces. *)
let image_scheduled_par ~(par : par) ?cluster_bound (sym : Symbolic.t) s =
  let man = sym.man in
  let sched = Symbolic.schedule ?cluster_bound sym in
  let acc =
    match sched.Qsched.pre_quantify with
    | [] -> s
    | vars -> Bdd.exists man vars s
  in
  let clusters = sched.Qsched.clusters in
  if Array.length clusters = 0 then
    Bdd.rename man acc (Symbolic.next_to_current sym)
  else begin
    let quantifiable =
      Array.fold_left
        (fun q (c : Qsched.cluster) -> iset_union q c.Qsched.quantify)
        [] clusters
    in
    let items =
      ref
        ((acc, Bdd.support man acc)
         :: Array.to_list
              (Array.map
                 (fun (c : Qsched.cluster) -> (c.Qsched.rel, c.Qsched.support))
                 clusters))
    in
    while List.length !items > 1 do
      let arr = Array.of_list !items in
      let m = Array.length arr in
      let rec pairs k acc =
        if (2 * k) + 1 >= m then List.rev acc else pairs (k + 1) (k :: acc)
      in
      let pair_ids = pairs 0 [] in
      let merge_plan =
        List.map
          (fun k ->
             let i = 2 * k in
             let a, sa = arr.(i) and b, sb = arr.(i + 1) in
             let combined = iset_union sa sb in
             let elsewhere = ref [] in
             Array.iteri
               (fun j (_, sj) ->
                  if j <> i && j <> i + 1 then
                    elsewhere := iset_union !elsewhere sj)
               arr;
             let q =
               List.filter
                 (fun v ->
                    iset_mem v quantifiable && not (iset_mem v !elsewhere))
                 combined
             in
             (a, b, q, iset_diff combined q))
          pair_ids
      in
      let merged =
        Minimize.Par.map par
          (fun view (a, b, q, _) -> Bdd.and_exists view q a b)
          merge_plan
      in
      let leftover = if m land 1 = 1 then [ arr.(m - 1) ] else [] in
      items :=
        List.map2 (fun r (_, _, _, sup) -> (r, sup)) merged merge_plan
        @ leftover
    done;
    let result, sup = List.hd !items in
    let pending = List.filter (fun v -> iset_mem v sup) quantifiable in
    let img_next =
      match pending with [] -> result | vars -> Bdd.exists man vars result
    in
    Bdd.rename man img_next (Symbolic.next_to_current sym)
  end

(* Coudert–Madre range computation: the image of S under the function
   vector δ is the range of the vector (δ_j constrained by S).  Recursive
   output splitting; sound precisely because [constrain] distributes over
   vector composition. *)
let image_by_range (sym : Symbolic.t) s =
  let man = sym.man in
  if Bdd.is_zero s then Bdd.zero man
  else begin
    let constrained =
      Array.to_list (Array.map (fun d -> Bdd.constrain man d s) sym.next_fns)
    in
    let vars = Array.to_list sym.state_vars in
    let rec range fns vars =
      match (fns, vars) with
      | ([], _) -> Bdd.one man
      | (f :: rest, v :: vrest) ->
        let var = Bdd.ithvar man v in
        if Bdd.is_one f then Bdd.dand man var (range rest vrest)
        else if Bdd.is_zero f then
          Bdd.dand man (Bdd.compl var) (range rest vrest)
        else begin
          let on = List.map (fun g -> Bdd.constrain man g f) rest in
          let off =
            List.map (fun g -> Bdd.constrain man g (Bdd.compl f)) rest
          in
          Bdd.dor man
            (Bdd.dand man var (range on vrest))
            (Bdd.dand man (Bdd.compl var) (range off vrest))
        end
      | (_ :: _, []) -> assert false
    in
    range constrained vars
  end

let image ?(strategy = Partitioned) ?cluster_bound ?par sym s =
  Obs.Trace.with_span "fsm.image"
    ~attrs:[ ("strategy", Obs.Trace.Str (strategy_name strategy)) ]
  @@ fun sp ->
  let r =
    match (strategy, par) with
    | (Monolithic, _) -> image_monolithic sym s
    | (Partitioned, None) -> image_partitioned sym s
    | (Partitioned, Some par) ->
      image_scheduled_par ~par ~cluster_bound:1 sym s
    | (Clustered, None) -> image_clustered ?cluster_bound sym s
    | (Clustered, Some par) -> image_scheduled_par ~par ?cluster_bound sym s
    | (Range, _) -> image_by_range sym s
  in
  if Obs.Trace.enabled () then begin
    Obs.Trace.add sp "source_nodes"
      (Obs.Trace.Int (Bdd.size sym.Symbolic.man s));
    Obs.Trace.add sp "image_nodes"
      (Obs.Trace.Int (Bdd.size sym.Symbolic.man r))
  end;
  r

let preimage (sym : Symbolic.t) s =
  let man = sym.man in
  let t = Symbolic.transition_relation sym in
  let s_next = Bdd.rename man s (Symbolic.current_to_next sym) in
  let next_and_inputs =
    Array.to_list sym.next_vars @ Symbolic.input_support sym
  in
  Bdd.and_exists man next_and_inputs t s_next
