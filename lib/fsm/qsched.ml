(* IWLS95-style quantification scheduling (Ranjan, Aziz, Brayton,
   Plessier, Pixley: "Efficient BDD algorithms for FSM synthesis and
   verification").  The per-latch conjuncts of the transition relation
   are merged into clusters under a node-count bound, the clusters are
   ordered greedily by an early-quantification benefit metric, and each
   quantifiable variable is assigned to the cluster of its last
   occurrence — so the conjoin-and-quantify image walk abstracts every
   variable at the earliest exact point.  The schedule depends only on
   the machine, never on the state set, so it is computed once and
   memoized in [Symbolic.t]. *)

type cluster = {
  rel : Bdd.t;
  support : int list;
  quantify : int list;
}

type t = {
  clusters : cluster array;
  pre_quantify : int list;
  cluster_bound : int;
  vars_early : int;
}

let default_cluster_bound = 2000

(* Fixed-width bitsets over variable levels: support membership tests in
   the ordering loop are O(1) instead of [List.mem]. *)
let bits_create words = Array.make (max 1 words) 0
let bits_set b v = b.(v / 63) <- b.(v / 63) lor (1 lsl (v mod 63))
let bits_mem b v = b.(v / 63) land (1 lsl (v mod 63)) <> 0

let clusters_hist =
  Obs.Metrics.(
    handle
      (histogram ~help:"Clusters per quantification schedule (log2 buckets)"
         "bddmin_fsm_qsched_clusters"))

let vars_early_hist =
  Obs.Metrics.(
    handle
      (histogram
         ~help:
           "Variables quantified before the last cluster, per schedule \
            (log2 buckets)"
         "bddmin_fsm_qsched_vars_early"))

let build man ~parts ~quantified ~cluster_bound =
  Obs.Trace.with_span "fsm.qsched" @@ fun sp ->
  let quantified = List.sort_uniq compare quantified in
  (* 1. Merge conjuncts in declaration order while the running product
     stays under the node bound; a bound of [<= 1] keeps them apart
     (that is exactly the partitioned strategy). *)
  let rels =
    if cluster_bound <= 1 then Array.copy parts
    else begin
      let closed = ref [] in
      let cur = ref None in
      Array.iter
        (fun part ->
           match !cur with
           | None -> cur := Some part
           | Some c ->
             let cand = Bdd.dand man c part in
             if Bdd.size man cand <= cluster_bound then cur := Some cand
             else begin
               closed := c :: !closed;
               cur := Some part
             end)
        parts;
      (match !cur with Some c -> closed := c :: !closed | None -> ());
      Array.of_list (List.rev !closed)
    end
  in
  let n = Array.length rels in
  let supports = Array.map (Bdd.support man) rels in
  let width =
    let m = List.fold_left max (-1) quantified in
    1 + Array.fold_left (fun m s -> List.fold_left max m s) m supports
  in
  let words = (width + 62) / 63 in
  let bits_of l =
    let b = bits_create words in
    List.iter (bits_set b) l;
    b
  in
  let qbits = bits_of quantified in
  let sup_bits = Array.map bits_of supports in
  (* 2. Greedy ordering: pick next the cluster whose conjunction lets the
     most quantifiable variables die (they occur in no other remaining
     cluster) while introducing the fewest variables new to the product;
     ties break on the lowest original index, so the schedule is
     deterministic for a given machine. *)
  let selected = Array.make n false in
  let product = Array.copy qbits in
  let order = Array.make n 0 in
  for k = 0 to n - 1 do
    let best = ref (-1) and best_score = ref min_int in
    for i = 0 to n - 1 do
      if not selected.(i) then begin
        let dead = ref 0 and fresh = ref 0 in
        List.iter
          (fun v ->
             if bits_mem qbits v then begin
               let elsewhere = ref false in
               for j = 0 to n - 1 do
                 if j <> i && not selected.(j) && bits_mem sup_bits.(j) v then
                   elsewhere := true
               done;
               if not !elsewhere then incr dead
             end
             else if not (bits_mem product v) then incr fresh)
          supports.(i);
        let score = (2 * !dead) - !fresh in
        if score > !best_score then begin
          best_score := score;
          best := i
        end
      end
    done;
    selected.(!best) <- true;
    List.iter (bits_set product) supports.(!best);
    order.(k) <- !best
  done;
  (* 3. Assign every quantifiable variable to the position of its last
     occurrence; variables no cluster mentions are abstracted from the
     state set before the walk even starts. *)
  let occurs = bits_create words in
  Array.iter
    (fun s -> List.iter (fun v -> if bits_mem qbits v then bits_set occurs v) s)
    supports;
  let pre_quantify = List.filter (fun v -> not (bits_mem occurs v)) quantified in
  let later = bits_create words in
  let quantify_at = Array.make n [] in
  for k = n - 1 downto 0 do
    let s = supports.(order.(k)) in
    quantify_at.(k) <-
      List.filter (fun v -> bits_mem qbits v && not (bits_mem later v)) s;
    List.iter (bits_set later) s
  done;
  let vars_early =
    let total = ref (List.length pre_quantify) in
    for k = 0 to n - 2 do
      total := !total + List.length quantify_at.(k)
    done;
    !total
  in
  let clusters =
    Array.init n (fun k ->
        let i = order.(k) in
        { rel = rels.(i); support = supports.(i); quantify = quantify_at.(k) })
  in
  Obs.Trace.add sp "clusters" (Obs.Trace.Int n);
  Obs.Trace.add sp "cluster_bound" (Obs.Trace.Int cluster_bound);
  Obs.Trace.add sp "vars_early" (Obs.Trace.Int vars_early);
  Obs.Metrics.observe clusters_hist n;
  Obs.Metrics.observe vars_early_hist vars_early;
  { clusters; pre_quantify; cluster_bound; vars_early }
