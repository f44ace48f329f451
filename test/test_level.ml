(* Level matching (§3.3): gathering, FMM solving, rebuild soundness,
   Theorem 12, opt_lv, and the distance measure. *)

module I = Minimize.Ispec
module L = Minimize.Level
module M = Minimize.Matching

let man = Util.man
let nvars = 5

let gather_terminates_below_level =
  Util.qtest ~count:200 "gathered pairs lie below the level, superstructure above"
    QCheck2.Gen.(
      let* desc = Util.gen_instance in
      let* level = int_range 0 4 in
      return (desc, level))
    (fun (desc, level) ->
       let s = Util.build_ispec_nonzero desc in
       let pairs = L.gather man ~level ~only_rooted_at_next:false s in
       List.for_all
         (fun ((p : I.t), path) ->
            min (Bdd.topvar p.I.f) (Bdd.topvar p.I.c) > level
            && List.for_all (fun (v, _) -> v <= level) path)
         pairs)

let gather_rooted_at_next =
  Util.qtest ~count:200 "only_rooted_at_next keeps f rooted at level+1"
    QCheck2.Gen.(
      let* desc = Util.gen_instance in
      let* level = int_range 0 4 in
      return (desc, level))
    (fun (desc, level) ->
       let s = Util.build_ispec_nonzero desc in
       let pairs = L.gather man ~level ~only_rooted_at_next:true s in
       List.for_all
         (fun ((p : I.t), _) -> Bdd.topvar p.I.f = level + 1)
         pairs)

let gather_unique =
  Util.qtest ~count:200 "gathered pairs are unique"
    Util.gen_instance
    (fun desc ->
       let s = Util.build_ispec_nonzero desc in
       let pairs = L.gather man ~level:2 ~only_rooted_at_next:false s in
       let keys =
         List.map (fun ((p : I.t), _) -> (Bdd.uid p.I.f, Bdd.uid p.I.c)) pairs
       in
       List.length keys = List.length (List.sort_uniq compare keys))

let minimize_at_level_sound =
  Util.qtest ~count:250 "minimize_at_level yields an i-cover, any criterion"
    QCheck2.Gen.(
      let* desc = Util.gen_instance in
      let* level = int_range 0 4 in
      return (desc, level))
    (fun (desc, level) ->
       let s = Util.build_ispec_nonzero desc in
       List.for_all
         (fun crit ->
            let s' = L.minimize_at_level man crit ~level s in
            I.is_i_cover man s' s
            && Util.tt_is_cover ~nvars s (Bdd.constrain man s'.I.f s'.I.c))
         M.all)

let care_only_grows =
  Util.qtest ~count:250 "care set grows monotonically"
    QCheck2.Gen.(
      let* desc = Util.gen_instance in
      let* level = int_range 0 4 in
      return (desc, level))
    (fun (desc, level) ->
       let s = Util.build_ispec_nonzero desc in
       List.for_all
         (fun crit ->
            let s' = L.minimize_at_level man crit ~level s in
            Bdd.leq man s.I.c s'.I.c)
         M.all)

let opt_lv_covers =
  Util.qtest ~count:250 "opt_lv returns a cover" Util.gen_instance
    (fun desc ->
       let s = Util.build_ispec_nonzero desc in
       Util.tt_is_cover ~nvars s (L.opt_lv man s))

let opt_lv_chunked_covers =
  Util.qtest ~count:150 "opt_lv with a set limit still returns a cover"
    Util.gen_instance
    (fun desc ->
       let s = Util.build_ispec_nonzero desc in
       let params = { L.default_params with L.set_limit = Some 3 } in
       Util.tt_is_cover ~nvars s (L.opt_lv man ~params s))

let opt_lv_variants_cover =
  Util.qtest ~count:150 "opt_lv parameter variants all return covers"
    Util.gen_instance
    (fun desc ->
       let s = Util.build_ispec_nonzero desc in
       List.for_all
         (fun params -> Util.tt_is_cover ~nvars s (L.opt_lv man ~params s))
         [
           { L.default_params with L.only_rooted_at_next = true };
           { L.default_params with L.order_by_degree = false };
           { L.default_params with L.use_distance_weights = false };
         ])

(* Theorem 12: after a set of osm matchings at level i, some cover of the
   result attains the minimum node count below level i.  We verify on
   exhaustively-minimizable instances: min over covers of N_i is computed
   from the exact enumeration of both the original and the transformed
   instance. *)
let min_below man ~level (s : I.t) =
  (* Enumerate all covers via truth tables (small n only). *)
  let module Tt = Logic.Truth_table in
  let vars =
    List.sort_uniq compare (Bdd.support man s.I.f @ Bdd.support man s.I.c)
  in
  ignore vars;
  let n = nvars in
  let f = Tt.of_bdd man ~nvars:n s.I.f and c = Tt.of_bdd man ~nvars:n s.I.c in
  let dc = List.filter (fun m -> not (Tt.get c m)) (List.init (1 lsl n) Fun.id) in
  let d = List.length dc in
  if d > 10 then None
  else begin
    let dc = Array.of_list dc in
    let best = ref max_int in
    for mask = 0 to (1 lsl d) - 1 do
      let value m =
        if Tt.get c m then Tt.get f m && Tt.get c m
        else
          let rec idx i = if dc.(i) = m then i else idx (i + 1) in
          (mask lsr idx 0) land 1 = 1
      in
      let g = Tt.to_bdd man (Tt.create n value) in
      best := min !best (Bdd.count_below man g level)
    done;
    Some !best
  end

let theorem12 =
  Util.qtest ~count:40
    "Theorem 12: osm level matching preserves the optimum below the level"
    QCheck2.Gen.(
      let* desc = Util.gen_instance in
      let* level = int_range 0 3 in
      return (desc, level))
    (fun (desc, level) ->
       let s = Util.build_ispec_nonzero desc in
       let s' = L.minimize_at_level man M.Osm ~level s in
       match (min_below man ~level s, min_below man ~level s') with
       | (Some before, Some after) -> after = before
       | _ -> true)

let distance_siblings () =
  (* siblings at the deepest position differ only at the level itself *)
  let pg = [ (0, true); (2, false); (3, true) ] in
  let ph = [ (0, true); (2, false); (3, false) ] in
  Alcotest.(check (float 1e-9)) "siblings" 1.0 (L.distance ~level:3 pg ph)

let distance_paper_example () =
  (* Paper's example: path 1000210 vs 1201111 (7 variables, "2" = absent):
     differences at positions 2, 4 (0-based: indices where both defined and
     bits differ), distance 9 with weights 2^(k-i-1). *)
  let parse s =
    List.filteri (fun _ _ -> true)
      (List.concat
         (List.mapi
            (fun i ch ->
               match ch with
               | '0' -> [ (i, false) ]
               | '1' -> [ (i, true) ]
               | _ -> [])
            (List.init (String.length s) (String.get s))))
  in
  let pg = parse "1000210" and ph = parse "1201111" in
  Alcotest.(check (float 1e-9)) "paper distance" 9.0
    (L.distance ~level:6 pg ph)

(* opt_lv passes only at the levels the instance uses: a 3-node
   instance whose support ends at the last legal variable costs three
   level passes, not one per index below it. *)
let opt_lv_passes_per_support_level () =
  let man = Bdd.create () in
  let v = Bdd.max_vars - 1 in
  let x = Bdd.ithvar man in
  let s = I.make ~f:(Bdd.ite man (x 0) (x (v - 1)) (x v)) ~c:(x v) in
  let sink = Obs.Trace.memory () in
  let g = Obs.Trace.with_sink sink (fun () -> L.opt_lv man s) in
  let passes =
    List.filter
      (fun (e : Obs.Trace.event) ->
         e.name = "level.pass" && e.phase = Obs.Trace.Begin)
      (Obs.Trace.events sink)
  in
  Util.checki "one level.pass span per support level" 3 (List.length passes);
  Util.checkb "the result covers the instance" (I.is_cover man s g)

let suite =
  [
    gather_terminates_below_level;
    gather_rooted_at_next;
    gather_unique;
    minimize_at_level_sound;
    care_only_grows;
    opt_lv_covers;
    opt_lv_chunked_covers;
    opt_lv_variants_cover;
    theorem12;
    Alcotest.test_case "distance of siblings" `Quick distance_siblings;
    Alcotest.test_case "distance paper example" `Quick distance_paper_example;
    Alcotest.test_case "opt_lv passes per support level" `Quick
      opt_lv_passes_per_support_level;
  ]
