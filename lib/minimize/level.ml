type params = {
  set_limit : int option;
  only_rooted_at_next : bool;
  order_by_degree : bool;
  use_distance_weights : bool;
}

let default_params =
  {
    set_limit = None;
    only_rooted_at_next = false;
    order_by_degree = true;
    use_distance_weights = true;
  }

let gather man ~level ~only_rooted_at_next (s : Ispec.t) =
  ignore man;
  (* Tables start small enough for the minor heap (a 512-bucket array
     is a major-heap allocation): most passes gather few pairs. *)
  let visited = Hashtbl.create 64 in
  let out = ref [] in
  let rec go f c path =
    let key = (Bdd.uid f, Bdd.uid c) in
    if not (Hashtbl.mem visited key) then begin
      Hashtbl.add visited key ();
      let top = min (Bdd.topvar f) (Bdd.topvar c) in
      if top > level then begin
        if (not only_rooted_at_next) || Bdd.topvar f = level + 1 then
          out := (Ispec.make ~f ~c, List.rev path) :: !out
      end
      else begin
        let ft, fe = Bdd.branches f top and ct, ce = Bdd.branches c top in
        go ft ct ((top, true) :: path);
        go fe ce ((top, false) :: path)
      end
    end
  in
  go s.Ispec.f s.Ispec.c [];
  List.rev !out

let distance ~level pg ph =
  let bits p =
    let a = Array.make (level + 1) (-1) in
    List.iter (fun (v, b) -> if v <= level then a.(v) <- Bool.to_int b) p;
    a
  in
  let bg = bits pg and bh = bits ph in
  let d = ref 0.0 in
  for v = 0 to level do
    if bg.(v) >= 0 && bh.(v) >= 0 && bg.(v) <> bh.(v) then
      d := !d +. (2.0 ** float_of_int (level - v))
  done;
  !d

(* Split [xs] into chunks of at most [k] elements, preserving order (the
   §3.3.1 set-limit method: nearby subfunctions stay grouped). *)
let chunk k xs =
  let rec go acc cur n = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: rest ->
      if n = k then go (List.rev cur :: acc) [ x ] 1 rest
      else go acc (x :: cur) (n + 1) rest
  in
  go [] [] 0 xs

(* Matching-graph statistics accumulated across the chunks of one
   level pass, for the "level.pass" trace span and the registry.  The
   edge counters wrap the criterion closures handed to [Graph]:
   [clique_cover] probes each vertex pair once (tsm is symmetric), so
   for the UMG the probed count is the exact pair count, m(m-1)/2; the
   DMG sink-assignment evaluates edges lazily, so for osm/osdm the
   counts cover only the edges actually examined. *)
type graph_stats = {
  mutable vertices : int;  (** graph vertices (deduplicated groups) *)
  mutable edges_probed : int;
  mutable edges_matched : int;
  mutable cliques : int;
}

let fresh_graph_stats () =
  { vertices = 0; edges_probed = 0; edges_matched = 0; cliques = 0 }

let clique_size_hist =
  Obs.Metrics.(
    handle
      (histogram
         ~help:"Sizes of the multi-vertex cliques covering a UMG (log2 buckets)"
         "bddmin_minimize_level_clique_size"))

let graph_vertices_hist =
  Obs.Metrics.(
    handle
      (histogram ~help:"Matching-graph vertices per level pass (log2 buckets)"
         "bddmin_minimize_level_graph_vertices"))

let edges_probed_total =
  Obs.Metrics.(
    handle
      (counter
         ~help:
           "Matching-graph edges evaluated by level passes (a UMG edge once \
            per vertex pair)"
         "bddmin_minimize_level_edges_probed_total"))

(* Solve FMM on one chunk of gathered pairs and record the replacements in
   [subst] (keyed by the (f, c) edge uids of each original pair). *)
let solve_chunk man crit params ~level ~gstats subst pairs =
  (* Semantic deduplication: the matching graphs are defined over distinct
     incompletely specified functions, and BDD pairs differing only on
     don't-care values of [f] denote the same function (keeping duplicates
     would create the two-cycles excluded by Proposition 10).  [index]
     maps a canonical key straight to its group's member list. *)
  let index = Hashtbl.create 64 in
  let groups = ref [] in
  List.iter
    (fun ((sp : Ispec.t), path) ->
       let key = Ispec.canonical_key man sp in
       match Hashtbl.find_opt index key with
       | Some members -> members := sp :: !members
       | None ->
         let members = ref [ sp ] in
         Hashtbl.add index key members;
         groups := (sp, path, members) :: !groups)
    pairs;
  let groups = Array.of_list (List.rev !groups) in
  let m = Array.length groups in
  let rep i = let (sp, _, _) = groups.(i) in sp in
  let rep_path i = let (_, p, _) = groups.(i) in p in
  let members i = let (_, _, ms) = groups.(i) in List.rev !ms in
  let add_subst (sp : Ispec.t) (cover : Ispec.t) =
    if not (Bdd.equal sp.f cover.f && Bdd.equal sp.c cover.c) then
      Hashtbl.replace subst (Bdd.uid sp.f, Bdd.uid sp.c) cover
  in
  (* Replace every member of group [i] by [target].  Members denote the
     same function as the representative, so the replacement is itself a
     match under any reflexive criterion; under [osdm] it is only a match
     when the care set is empty. *)
  let merge_group i target =
    if Matching.reflexive crit || Bdd.is_zero (rep i).Ispec.c then
      List.iter (fun sp -> add_subst sp target) (members i)
  in
  gstats.vertices <- gstats.vertices + m;
  let probe j k =
    gstats.edges_probed <- gstats.edges_probed + 1;
    let r = Matching.matches man crit (rep j) (rep k) in
    if r then gstats.edges_matched <- gstats.edges_matched + 1;
    r
  in
  if m > 1 then
    match crit with
    | Matching.Osdm | Matching.Osm ->
      let edge j k = j <> k && probe j k in
      let assignment = Graph.dag_assignment ~n:m ~edge in
      for i = 0 to m - 1 do
        merge_group i (rep assignment.(i))
      done
    | Matching.Tsm ->
      let adjacent = probe in
      let edge_weight =
        if params.use_distance_weights then
          Some (fun j k -> distance ~level (rep_path j) (rep_path k))
        else None
      in
      let cliques =
        Graph.clique_cover ~n:m ~adjacent
          ~order_by_degree:params.order_by_degree ?edge_weight ()
      in
      gstats.cliques <- gstats.cliques + List.length cliques;
      let solve_clique = function
        | [ i ] -> merge_group i (rep i)
        | clique ->
          Obs.Metrics.observe clique_size_hist (List.length clique);
          (* Maximal-DC common i-cover of the whole clique (Lemma 14). *)
          let cover =
            List.fold_left
              (fun acc i ->
                 Ispec.make
                   ~f:(Bdd.dor man acc.Ispec.f (Ispec.onset man (rep i)))
                   ~c:(Bdd.dor man acc.Ispec.c (rep i).Ispec.c))
              (Ispec.make ~f:(Bdd.zero man) ~c:(Bdd.zero man))
              clique
          in
          List.iter (fun i -> merge_group i cover) clique
      in
      List.iter solve_clique cliques
  else if m = 1 then merge_group 0 (rep 0)

let rebuild man ~level subst (s : Ispec.t) =
  let memo = Hashtbl.create 64 in
  let rec go f c =
    let top = min (Bdd.topvar f) (Bdd.topvar c) in
    if top > level then
      match Hashtbl.find_opt subst (Bdd.uid f, Bdd.uid c) with
      | Some (s' : Ispec.t) -> (s'.f, s'.c)
      | None -> (f, c)
    else
      let key = (Bdd.uid f, Bdd.uid c) in
      match Hashtbl.find_opt memo key with
      | Some r -> r
      | None ->
        let ft, fe = Bdd.branches f top and ct, ce = Bdd.branches c top in
        let tf, tc = go ft ct in
        let ef, ec = go fe ce in
        let v = Bdd.ithvar man top in
        let r = (Bdd.ite man v tf ef, Bdd.ite man v tc ec) in
        Hashtbl.add memo key r;
        r
  in
  let f, c = go s.Ispec.f s.Ispec.c in
  Ispec.make ~f ~c

let minimize_at_level man ?(params = default_params) crit ~level
    (s : Ispec.t) =
  Obs.Trace.with_span "level.pass"
    ~attrs:
      [
        ("level", Obs.Trace.Int level);
        ("criterion", Obs.Trace.Str (Matching.name crit));
        (* the matching graph of §3.3: directed (DMG) for the one-sided
           criteria, undirected (UMG) for tsm *)
        ( "graph",
          Obs.Trace.Str (match crit with Matching.Tsm -> "umg" | _ -> "dmg")
        );
      ]
  @@ fun sp ->
  let gathered =
    gather man ~level ~only_rooted_at_next:params.only_rooted_at_next s
  in
  Obs.Trace.add sp "pairs_gathered" (Obs.Trace.Int (List.length gathered));
  match gathered with
  | [] | [ _ ] -> s
  | _ ->
    let chunks =
      match params.set_limit with
      | None -> [ gathered ]
      | Some k -> chunk k gathered
    in
    let gstats = fresh_graph_stats () in
    let subst = Hashtbl.create 64 in
    List.iter
      (fun ch -> solve_chunk man crit params ~level ~gstats subst ch)
      chunks;
    Obs.Trace.add sp "graph_vertices" (Obs.Trace.Int gstats.vertices);
    Obs.Trace.add sp "edges_probed" (Obs.Trace.Int gstats.edges_probed);
    Obs.Trace.add sp "edges_matched" (Obs.Trace.Int gstats.edges_matched);
    if gstats.cliques > 0 then
      Obs.Trace.add sp "cliques" (Obs.Trace.Int gstats.cliques);
    Obs.Trace.add sp "replacements" (Obs.Trace.Int (Hashtbl.length subst));
    Obs.Metrics.observe graph_vertices_hist gstats.vertices;
    Obs.Metrics.add edges_probed_total gstats.edges_probed;
    if Hashtbl.length subst = 0 then s else rebuild man ~level subst s

let support man (s : Ispec.t) =
  List.sort_uniq compare (Bdd.support man s.f @ Bdd.support man s.c)

(* A level no node of [f] or [c] sits at cuts the instance exactly where
   the level above it does, so a pass there would only repeat that
   matching: visit the support levels alone.  A pass adds no variables,
   so the initial support bounds every later one. *)
let minimize_all_levels man ?params crit (s : Ispec.t) =
  List.fold_left
    (fun spec level -> minimize_at_level man ?params crit ~level spec)
    s (support man s)

let opt_lv man ?params (s : Ispec.t) =
  if Bdd.is_zero s.Ispec.c then invalid_arg "Level.opt_lv: empty care set";
  (minimize_all_levels man ?params Matching.Tsm s).Ispec.f
