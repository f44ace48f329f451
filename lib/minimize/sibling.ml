type config = {
  criterion : Matching.criterion;
  match_compl : bool;
  no_new_vars : bool;
}

type heuristic =
  | Constrain
  | Restrict
  | Osm_td
  | Osm_nv
  | Osm_cp
  | Osm_bt
  | Tsm_td
  | Tsm_cp

let all_heuristics =
  [ Constrain; Restrict; Osm_td; Osm_nv; Osm_cp; Osm_bt; Tsm_td; Tsm_cp ]

let heuristic_name = function
  | Constrain -> "const"
  | Restrict -> "restr"
  | Osm_td -> "osm_td"
  | Osm_nv -> "osm_nv"
  | Osm_cp -> "osm_cp"
  | Osm_bt -> "osm_bt"
  | Tsm_td -> "tsm_td"
  | Tsm_cp -> "tsm_cp"

let heuristic_of_name = function
  | "const" | "constrain" -> Some Constrain
  | "restr" | "restrict" -> Some Restrict
  | "osm_td" -> Some Osm_td
  | "osm_nv" -> Some Osm_nv
  | "osm_cp" -> Some Osm_cp
  | "osm_bt" -> Some Osm_bt
  | "tsm_td" -> Some Tsm_td
  | "tsm_cp" -> Some Tsm_cp
  | _ -> None

let config_of_heuristic h =
  let mk criterion match_compl no_new_vars =
    { criterion; match_compl; no_new_vars }
  in
  match h with
  | Constrain -> mk Matching.Osdm false false
  | Restrict -> mk Matching.Osdm false true
  | Osm_td -> mk Matching.Osm false false
  | Osm_nv -> mk Matching.Osm false true
  | Osm_cp -> mk Matching.Osm true false
  | Osm_bt -> mk Matching.Osm true true
  | Tsm_td -> mk Matching.Tsm false false
  | Tsm_cp -> mk Matching.Tsm true false

(* The paper's [is_match] on the two siblings: try the criterion in both
   directions; with [compl] set, match the then-sibling against the
   complement of the else-sibling (the caller then rebuilds the parent as
   [top·t + ¬top·¬t]). *)
let sibling_match man crit ~compl st se =
  let target = if compl then Ispec.compl se else se in
  Matching.match_either man crit st target

(* Trace attributes shared by [run] and [transform_window]: both emit a
   "sibling.pass" span so profiles aggregate standalone and windowed
   passes per criterion. *)
let pass_attrs cfg =
  [
    ("criterion", Obs.Trace.Str (Matching.name cfg.criterion));
    ("match_compl", Obs.Trace.Bool cfg.match_compl);
    ("no_new_vars", Obs.Trace.Bool cfg.no_new_vars);
  ]

let matches_total =
  Obs.Metrics.(
    handle
      (counter ~help:"Sibling matches made, complemented ones included"
         "bddmin_minimize_sibling_matches_total"))

let depth_hist =
  Obs.Metrics.(
    handle
      (histogram ~help:"Deepest recursion per sibling pass (log2 buckets)"
         "bddmin_minimize_sibling_recursion_depth"))

let finish_pass sp ~matches ~compl_matches ~recursions ~max_depth =
  Obs.Trace.add sp "matches" (Obs.Trace.Int matches);
  Obs.Trace.add sp "compl_matches" (Obs.Trace.Int compl_matches);
  Obs.Trace.add sp "recursions" (Obs.Trace.Int recursions);
  Obs.Metrics.add matches_total (matches + compl_matches);
  Obs.Metrics.observe depth_hist max_depth

(* [generic_td] of Figure 2.  The recursion maintains [c ≠ 0]: whenever a
   child's care set is 0, every criterion matches the siblings, so the
   no-match branch only ever recurses on non-empty care sets. *)
let run man cfg (s : Ispec.t) =
  if Bdd.is_zero s.c then invalid_arg "Sibling.run: empty care set";
  Obs.Trace.with_span "sibling.pass" ~attrs:(pass_attrs cfg) @@ fun sp ->
  (* 64 buckets keep the table in the minor heap (a 512-bucket array is
     a major-heap allocation); most passes are small. *)
  let cache = Hashtbl.create 64 in
  let matches = ref 0 and compl_matches = ref 0 in
  let recursions = ref 0 and max_depth = ref 0 in
  let rec go depth f c =
    if depth > !max_depth then max_depth := depth;
    if Bdd.is_one c || Bdd.is_const f then f
    else
      let key = (Bdd.uid f, Bdd.uid c) in
      match Hashtbl.find_opt cache key with
      | Some r -> r
      | None ->
        incr recursions;
        let fid = Bdd.topvar f and cid = Bdd.topvar c in
        let top = min fid cid in
        let ft, fe = Bdd.branches f top and ct, ce = Bdd.branches c top in
        let r =
          if cfg.no_new_vars && fid > cid then
            go (depth + 1) f (Bdd.dor man ct ce)
          else begin
            let st = Ispec.make ~f:ft ~c:ct and se = Ispec.make ~f:fe ~c:ce in
            match sibling_match man cfg.criterion ~compl:false st se with
            | Some m ->
              incr matches;
              go (depth + 1) m.Ispec.f m.Ispec.c
            | None ->
              let compl_match =
                if cfg.match_compl then
                  sibling_match man cfg.criterion ~compl:true st se
                else None
              in
              (match compl_match with
               | Some m ->
                 incr compl_matches;
                 let tmp = go (depth + 1) m.Ispec.f m.Ispec.c in
                 Bdd.ite man (Bdd.ithvar man top) tmp (Bdd.compl tmp)
               | None ->
                 let tt = go (depth + 1) ft ct in
                 let te = go (depth + 1) fe ce in
                 Bdd.ite man (Bdd.ithvar man top) tt te)
          end
        in
        Hashtbl.add cache key r;
        r
  in
  let r = go 0 s.f s.c in
  finish_pass sp ~matches:!matches ~compl_matches:!compl_matches
    ~recursions:!recursions ~max_depth:!max_depth;
  r

let run_heuristic man h s = run man (config_of_heuristic h) s

let run_clamped man cfg s =
  let r = run man cfg s in
  if Bdd.size man r > Bdd.size man s.Ispec.f then s.Ispec.f else r

let transform_window man cfg ~lo ~hi (s : Ispec.t) =
  if Bdd.is_zero s.Ispec.c then
    invalid_arg "Sibling.transform_window: empty care set";
  Obs.Trace.with_span "sibling.pass"
    ~attrs:
      (pass_attrs cfg
       @ [ ("lo", Obs.Trace.Int lo); ("hi", Obs.Trace.Int hi) ])
  @@ fun sp ->
  let cache = Hashtbl.create 64 in
  let matches = ref 0 and compl_matches = ref 0 in
  let recursions = ref 0 and max_depth = ref 0 in
  let rec go depth f c =
    if depth > !max_depth then max_depth := depth;
    if Bdd.is_one c || Bdd.is_const f then (f, c)
    else
      let fid = Bdd.topvar f and cid = Bdd.topvar c in
      let top = min fid cid in
      if top >= hi then (f, c)
      else
        let key = (Bdd.uid f, Bdd.uid c) in
        match Hashtbl.find_opt cache key with
        | Some r -> r
        | None ->
          incr recursions;
          let ft, fe = Bdd.branches f top and ct, ce = Bdd.branches c top in
          let rebuild () =
            let tf, tc = go (depth + 1) ft ct in
            let ef, ec = go (depth + 1) fe ce in
            let v = Bdd.ithvar man top in
            (Bdd.ite man v tf ef, Bdd.ite man v tc ec)
          in
          let r =
            if top < lo then rebuild ()
            else if cfg.no_new_vars && fid > cid then
              go (depth + 1) f (Bdd.dor man ct ce)
            else begin
              let st = Ispec.make ~f:ft ~c:ct
              and se = Ispec.make ~f:fe ~c:ce in
              match sibling_match man cfg.criterion ~compl:false st se with
              | Some m ->
                incr matches;
                go (depth + 1) m.Ispec.f m.Ispec.c
              | None ->
                let compl_match =
                  if cfg.match_compl then
                    sibling_match man cfg.criterion ~compl:true st se
                  else None
                in
                (match compl_match with
                 | Some m ->
                   incr compl_matches;
                   let tf, tc = go (depth + 1) m.Ispec.f m.Ispec.c in
                   (Bdd.ite man (Bdd.ithvar man top) tf (Bdd.compl tf), tc)
                 | None -> rebuild ())
            end
          in
          Hashtbl.add cache key r;
          r
  in
  let f, c = go 0 s.Ispec.f s.Ispec.c in
  finish_pass sp ~matches:!matches ~compl_matches:!compl_matches
    ~recursions:!recursions ~max_depth:!max_depth;
  Ispec.make ~f ~c
