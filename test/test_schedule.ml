(* The §3.4 windowed schedule and the minimizer registry. *)

module I = Minimize.Ispec
module Sch = Minimize.Schedule
module R = Minimize.Registry

let man = Util.man
let nvars = 5

let schedule_covers =
  Util.qtest ~count:250 "schedule returns a cover (default parameters)"
    Util.gen_instance
    (fun desc ->
       let s = Util.build_ispec_nonzero desc in
       Util.tt_is_cover ~nvars s (Sch.run man s))

let schedule_param_space =
  Util.qtest ~count:100 "schedule returns covers across parameter space"
    QCheck2.Gen.(
      let* desc = Util.gen_instance in
      let* window = int_range 1 6 in
      let* stop = int_range 0 8 in
      let* levels = bool in
      return (desc, window, stop, levels))
    (fun (desc, window, stop, levels) ->
       let s = Util.build_ispec_nonzero desc in
       let params =
         {
           Sch.default_params with
           Sch.window_size = window;
           stop_top_down = stop;
           use_level_matching = levels;
         }
       in
       Util.tt_is_cover ~nvars s (Sch.run man ~params s))

let schedule_rejects_bad_params () =
  let s = Util.random_ispec_nonzero 3 in
  Alcotest.check_raises "window_size 0"
    (Invalid_argument "Schedule.run: window_size")
    (fun () ->
       ignore
         (Sch.run man
            ~params:{ Sch.default_params with Sch.window_size = 0 }
            s));
  let s0 = I.make ~f:(Bdd.ithvar man 0) ~c:(Bdd.zero man) in
  Alcotest.check_raises "empty care"
    (Invalid_argument "Schedule.run: empty care set")
    (fun () -> ignore (Sch.run man s0))

let registry_complete () =
  let names = R.names R.paper in
  Alcotest.(check (list string)) "paper entries"
    [ "const"; "restr"; "osm_td"; "osm_nv"; "osm_cp"; "osm_bt"; "tsm_td";
      "tsm_cp"; "opt_lv"; "f_orig"; "f_and_c"; "f_or_nc" ]
    names;
  Util.checki "all = paper + sched" (List.length R.paper + 1)
    (List.length R.all);
  Util.checkb "find" (R.find "osm_bt" <> None);
  Util.checkb "find unknown" (R.find "nope" = None);
  Util.checkb "proper excludes references"
    (List.for_all
       (fun (e : R.entry) -> e.R.kind <> R.Reference)
       R.proper)

let registry_runs_cover =
  Util.qtest ~count:150 "every registry entry returns a cover"
    Util.gen_instance
    (fun desc ->
       let s = Util.build_ispec_nonzero desc in
       List.for_all
         (fun (e : R.entry) -> Util.tt_is_cover ~nvars s (e.run (Minimize.Ctx.of_man man) s))
         R.all)

let best_is_minimal =
  Util.qtest ~count:150 "Registry.best returns the smallest entry"
    Util.gen_instance
    (fun desc ->
       let s = Util.build_ispec_nonzero desc in
       let _, g = R.best (Minimize.Ctx.of_man man) R.all s in
       let sz = Bdd.size man g in
       List.for_all
         (fun (e : R.entry) -> Bdd.size man (e.run (Minimize.Ctx.of_man man) s) >= sz)
         R.all)

let restr_uses_engine_kernel () =
  (* The registry's [restr] entry must dispatch to the engine's restrict
     kernel (and so be visible in [restrict_recursions]) — it used to go
     through the generic sibling matcher, which computes the same
     function without ever touching the kernel, leaving the counter at 0
     while the bench charged seconds to "restr". *)
  let man = Bdd.create () in
  let st = Random.State.make [| 0x7e57 |] in
  let tt () =
    Logic.Truth_table.create 6 (fun _ -> Random.State.bool st)
  in
  let f = Logic.Truth_table.to_bdd man (tt ()) in
  let c = Bdd.dor man (Logic.Truth_table.to_bdd man (tt ())) (Bdd.ithvar man 0) in
  let s = I.make ~f ~c in
  let entry = Option.get (R.find "restr") in
  let before = (Bdd.snapshot man).Bdd.Stats.restrict_recursions in
  let g = entry.R.run (Minimize.Ctx.of_man man) s in
  let after = (Bdd.snapshot man).Bdd.Stats.restrict_recursions in
  Util.checkb "restrict kernel recursions counted" (after > before);
  Util.checkb "still computes Bdd.restrict"
    (Bdd.equal g (Bdd.restrict man f c));
  Util.checkb "still agrees with the generic matcher"
    (Bdd.equal g
       (Minimize.Sibling.run_heuristic man Minimize.Sibling.Restrict s))

let reference_entries () =
  let f = Util.random_bdd 4 and c = Util.random_bdd 4 in
  let s = I.make ~f ~c in
  let run name =
    (Option.get (R.find name)).R.run (Minimize.Ctx.of_man man) s
  in
  Util.checkb "f_orig" (Bdd.equal (run "f_orig") f);
  Util.checkb "f_and_c" (Bdd.equal (run "f_and_c") (Bdd.dand man f c));
  Util.checkb "f_or_nc"
    (Bdd.equal (run "f_or_nc") (Bdd.dor man f (Bdd.compl c)))

(* [sched] on a fresh manager loaded from Store text: the cover's size,
   the windows it transformed and the computed-cache lookups it made. *)
let sched_cost text =
  let man = Bdd.create () in
  let s =
    match Bdd.Store.load man text with
    | Ok roots -> I.make ~f:(List.assoc "f" roots) ~c:(List.assoc "c" roots)
    | Error msg -> Alcotest.failf "load: %s" msg
  in
  let lookups () = (Bdd.snapshot man).Bdd.Stats.cache_lookups in
  let before = lookups () in
  let sink = Obs.Trace.memory () in
  let g = Obs.Trace.with_sink sink (fun () -> Sch.run man s) in
  let windows =
    List.length
      (List.filter
         (fun (e : Obs.Trace.event) ->
            e.name = "schedule.window" && e.phase = Obs.Trace.Begin)
         (Obs.Trace.events sink))
  in
  (Bdd.size man g, windows, lookups () - before)

(* Store text with every node's variable moved down by [shift]. *)
let shift_text shift text =
  String.split_on_char '\n' text
  |> List.map (fun line ->
      match String.split_on_char ' ' line with
      | [ "node"; id; var; hi; lo ] ->
        String.concat " "
          [ "node"; id; string_of_int (int_of_string var + shift); hi; lo ]
      | _ -> line)
  |> String.concat "\n"

(* Shifting every variable by a multiple of the window size aligns the
   windows the same way, so [sched] returns a cover of the same size
   after the same windows at the same cache cost: the windows above the
   shifted support are never walked. *)
let schedule_shift_invariant =
  Util.qtest ~count:100 "sched is invariant under a 4k variable shift"
    QCheck2.Gen.(pair Util.gen_instance (int_range 1 16_000))
    (fun (desc, k) ->
       let s = Util.build_ispec_nonzero desc in
       let text = Bdd.Store.save man [ ("f", s.I.f); ("c", s.I.c) ] in
       let shift = k * Sch.default_params.Sch.window_size in
       sched_cost text = sched_cost (shift_text shift text))

(* The 3-node instance [f = x0 ? x(v-1) : x(v)], [c = x(v)] costs the
   same windows and lookups with its top variable at the last legal
   index as at v = 100. *)
let schedule_cost_by_payload () =
  let twin v =
    let man = Bdd.create () in
    let x = Bdd.ithvar man in
    sched_cost
      (Bdd.Store.save man
         [ ("f", Bdd.ite man (x 0) (x (v - 1)) (x v)); ("c", x v) ])
  in
  let size, windows, lookups = twin 100 in
  let size', windows', lookups' = twin (Bdd.max_vars - 1) in
  Util.checki "same cover size" size size';
  Util.checki "same windows" windows windows';
  Util.checkb
    (Printf.sprintf "lookups within 2x (%d at v = 100, %d at v = 65535)"
       lookups lookups')
    (lookups' <= 2 * lookups)

let suite =
  [
    schedule_covers;
    schedule_shift_invariant;
    Alcotest.test_case "sched costs the payload, not the top index" `Quick
      schedule_cost_by_payload;
    schedule_param_space;
    Alcotest.test_case "schedule parameter validation" `Quick
      schedule_rejects_bad_params;
    Alcotest.test_case "registry completeness" `Quick registry_complete;
    registry_runs_cover;
    best_is_minimal;
    Alcotest.test_case "restr drives the engine kernel" `Quick
      restr_uses_engine_kernel;
    Alcotest.test_case "reference entries" `Quick reference_entries;
  ]
