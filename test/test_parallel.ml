(* Concurrent manager tier and the parallel hot loops: shared-store
   interning from several domains, collection once they join, and the
   bit-identity contract — every parallel code path must return the same
   canonical edges as its sequential twin. *)

module Tt = Logic.Truth_table

(* Build the same random function on any view of a shared store. *)
let random_fn view n seed =
  let st = Random.State.make [| seed; n; 0x5eed |] in
  Tt.to_bdd view (Tt.create n (fun _ -> Random.State.bool st))

(* ----- shared-store basics ----- *)

let shared_canonicity () =
  let store = Bdd.Shared.create () in
  let v1 = Bdd.Shared.attach store in
  let v2 = Bdd.Shared.attach store in
  (* the same function built through two different views must intern to
     the same edge: the unique table is store-wide *)
  for seed = 0 to 19 do
    let f1 = random_fn v1 5 seed and f2 = random_fn v2 5 seed in
    Util.checkb "same function, same edge across views" (Bdd.equal f1 f2)
  done;
  Util.checki "both views registered" 2 (Bdd.Shared.view_count store);
  ignore (Bdd.self_check v1);
  Bdd.Shared.detach v2;
  Util.checki "detach deregisters" 1 (Bdd.Shared.view_count store)

(* ----- a collection empties every view's cache ----- *)

let shared_gc_resets_view_caches () =
  let store = Bdd.Shared.create () in
  let v1 = Bdd.Shared.attach store in
  let v2 = Bdd.Shared.attach store in
  let entries view = (Bdd.snapshot view).Bdd.Stats.cache_entries in
  let n = 6 in
  let f = random_fn v1 n 11 and g = random_fn v1 n 12 in
  Bdd.ref_ v1 f;
  Bdd.ref_ v1 g;
  (* both views cache results nothing roots *)
  let derived view = [ Bdd.xor view f g; Bdd.and_ view f (Bdd.compl g) ] in
  ignore (derived v1);
  ignore (derived v2);
  Util.checkb "both views cached results" (entries v1 > 0 && entries v2 > 0);
  Util.checkb "the collection swept them" (Bdd.gc v1 > 0);
  Util.checki "requesting view emptied" 0 (entries v1);
  Util.checki "other view emptied" 0 (entries v2);
  ignore (Bdd.self_check v1);
  (* a swept node served from a stale slot would not be the store's
     canonical edge for its function *)
  List.iter
    (fun view ->
       List.iter
         (fun r ->
            Util.checkb "recomputed result is a live canonical edge"
              (Bdd.equal r (Tt.to_bdd view (Tt.of_bdd view ~nvars:n r))))
         (derived view))
    [ v1; v2 ];
  ignore (Bdd.self_check v2)

(* ----- Par.map bit-identity (qcheck differential) ----- *)

let par_map_differential =
  Util.qtest ~count:25 "Par.map returns the sequential edges"
    QCheck2.Gen.(
      let* n = int_range 1 5 in
      let* seeds = list_size (int_range 1 12) (int_bound 0xFFFF) in
      return (n, seeds))
    (fun (n, seeds) ->
       let store = Bdd.Shared.create () in
       let man = Bdd.Shared.attach store in
       Exec.Pool.with_pool ~jobs:4 @@ fun pool ->
       let par = Minimize.Par.make ~pool ~store in
       let fns = List.map (fun s -> random_fn man n s) seeds in
       let g = random_fn man n 0xCAFE in
       let seq = List.map (fun f -> Bdd.dand man f g) fns in
       let parr = Minimize.Par.map par (fun view f -> Bdd.dand view f g) fns in
       (* canonical roots must be bit-identical, not just equivalent *)
       List.for_all2 Bdd.equal seq parr)

(* ----- parallel reachability differential, -j 2 and -j 4 ----- *)

let reach_par_differential () =
  List.iter
    (fun name ->
       let b = Option.get (Circuits.Registry.find name) in
       let store = Bdd.Shared.create () in
       let man = Bdd.Shared.attach store in
       let sym = Fsm.Symbolic.of_netlist man (b.Circuits.Registry.build ()) in
       let seq, seq_st =
         Fsm.Reach.reachable ~strategy:Fsm.Image.Clustered sym
       in
       List.iter
         (fun jobs ->
            Exec.Pool.with_pool ~jobs @@ fun pool ->
            let par = Fsm.Image.par ~pool ~store in
            let r, st =
              Fsm.Reach.reachable ~strategy:Fsm.Image.Clustered ~par sym
            in
            Util.checkb
              (Printf.sprintf "%s: -j %d reached set is the same edge" name
                 jobs)
              (Bdd.equal seq r);
            Util.checki
              (Printf.sprintf "%s: -j %d iterations" name jobs)
              seq_st.Fsm.Reach.iterations st.Fsm.Reach.iterations)
         [ 2; 4 ];
       ignore (Bdd.self_check man);
       (* the concurrent tier actually ran: striped table, interned
          nodes, at least the attached view *)
       let t = Bdd.Shared.telemetry store in
       Util.checkb (name ^ ": stripes") (t.Bdd.Shared.stripes > 0);
       Util.checkb (name ^ ": interned") (t.Bdd.Shared.interned_total > 0);
       Util.checkb (name ^ ": views") (t.Bdd.Shared.views >= 1))
    [ "tlc"; "gray6"; "minmax4"; "rnd344" ]

(* ----- shared-store table growth is traced ----- *)

(* A stripe that doubles under [Reach.reachable ~par] publishes the
   same [bdd.table_grow] instant a private table does; workers' events
   reach the caller's sink through the pool's per-job buffers. *)
let shared_table_grow_traced () =
  let b = Option.get (Circuits.Registry.find "minmax4") in
  let store = Bdd.Shared.create ~stripes:1 () in
  let man = Bdd.Shared.attach store in
  let sym = Fsm.Symbolic.of_netlist man (b.Circuits.Registry.build ()) in
  let sink = Obs.Trace.memory () in
  Exec.Pool.with_pool ~jobs:2 (fun pool ->
      let par = Fsm.Image.par ~pool ~store in
      Obs.Trace.with_sink sink (fun () ->
          ignore
            (Fsm.Reach.reachable ~strategy:Fsm.Image.Clustered ~par sym)));
  let grows =
    List.filter
      (fun (e : Obs.Trace.event) -> e.Obs.Trace.name = "bdd.table_grow")
      (Obs.Trace.events sink)
  in
  Util.checkb "bdd.table_grow traced" (grows <> []);
  List.iter
    (fun (e : Obs.Trace.event) ->
       let cap k =
         match List.assoc_opt k e.Obs.Trace.attrs with
         | Some (Obs.Trace.Int i) -> i
         | _ -> -1
       in
       Util.checkb "stripe doubles"
         (cap "new_capacity" = 2 * cap "old_capacity"))
    grows

(* ----- suite CSV bytes at -j 1 / 2 / 4 ----- *)

let suite_csv_jobs_differential () =
  let base =
    Harness.Capture.(
      default_config |> with_max_calls 4 |> with_lower_bound_cubes 30)
  in
  let benches = [ Option.get (Circuits.Registry.find "tlc") ] in
  let names = Harness.Capture.minimizer_names base in
  let run jobs =
    let calls =
      Harness.Capture.run_suite
        ~config:(Harness.Capture.with_jobs jobs base)
        benches
    in
    Harness.Tables.calls_to_csv ~names calls
  in
  let csv1 = run 1 in
  Util.checkb "captured something" (String.length csv1 > 0);
  Util.check Alcotest.string "CSV identical at -j 2" csv1 (run 2);
  Util.check Alcotest.string "CSV identical at -j 4" csv1 (run 4)

(* ----- multi-domain intern stress, then GC, then audit ----- *)

let stress_domains = 4
let stress_applies = 10_000

(* Domain [d]'s random build on [view].  The accumulator is rooted at
   each step (the new edge ref'd before the old one is deref'd), each
   partial result for the duration of its use.  Once rooted, each new
   accumulator is re-interned from its cofactors: under concurrent
   interning it must come back as the very same node.  Returns the final
   accumulator, still rooted on [view], and the count of results that
   did not. *)
let stress_build view d =
  let st = Random.State.make [| d; 0xabcd |] in
  let nvars = 12 in
  let acc = ref (Bdd.ithvar view (d mod nvars)) in
  let stale = ref 0 in
  Bdd.ref_ view !acc;
  for _ = 1 to stress_applies do
    let v = Bdd.ithvar view (Random.State.int st nvars) in
    let w = Bdd.ithvar view (Random.State.int st nvars) in
    let part =
      match Random.State.int st 4 with
      | 0 -> Bdd.dand view v w
      | 1 -> Bdd.dor view (Bdd.compl v) w
      | 2 -> Bdd.dxor view v w
      | _ -> Bdd.ite view v w (Bdd.compl !acc)
    in
    let next =
      Bdd.with_root view part @@ fun part ->
      match Random.State.int st 3 with
      | 0 -> Bdd.dand view !acc part
      | 1 -> Bdd.dor view !acc part
      | _ -> Bdd.dxor view !acc part
    in
    Bdd.ref_ view next;
    if not (Bdd.is_const next) then begin
      let again =
        Bdd.ite view
          (Bdd.ithvar view (Bdd.topvar next))
          (Bdd.hi next) (Bdd.lo next)
      in
      if not (Bdd.equal again next) then incr stale
    end;
    Bdd.deref view !acc;
    acc := next
  done;
  (!acc, !stale)

let multi_domain_stress () =
  let store = Bdd.Shared.create () in
  let man = Bdd.Shared.attach store in
  (* every domain hammers the same store with random applies on its own
     view, rooting its accumulator at every step, so the collection after
     the domains join has real roots to preserve *)
  let built =
    Exec.map ~jobs:stress_domains
      (fun d ->
         Bdd.Shared.with_view store @@ fun view -> (d, stress_build view d))
      (List.init stress_domains Fun.id)
  in
  let t = Bdd.Shared.telemetry store in
  Util.checki "every result was still interned when rooted" 0
    (List.fold_left (fun acc (_, (_, stale)) -> acc + stale) 0 built);
  let kept = List.map (fun (d, (f, _)) -> (d, f)) built in
  let live_before = t.Bdd.Shared.live_nodes in
  Util.checkb "stress interned nodes" (live_before > 0);
  ignore (Bdd.self_check man);
  let reclaimed = Bdd.gc man in
  Util.checkb "gc ran" (reclaimed >= 0);
  (* the audit re-verifies canonical form, level order and store-wide
     uniqueness after collection rebuilt every stripe *)
  ignore (Bdd.self_check man);
  (* kept roots survive and rebuilding them yields the very same edges *)
  List.iter
    (fun (d, f) ->
       Bdd.Shared.with_view store @@ fun view ->
       let replayed, _ = stress_build view d in
       Util.checkb "replayed build returns the kept edge" (Bdd.equal f replayed);
       Bdd.deref view replayed)
    kept

let suite =
  [
    Alcotest.test_case "shared-store canonicity across views" `Quick
      shared_canonicity;
    par_map_differential;
    Alcotest.test_case "parallel reach is bit-identical (-j 2/4)" `Quick
      reach_par_differential;
    Alcotest.test_case "shared table growth is traced" `Quick
      shared_table_grow_traced;
    Alcotest.test_case "suite CSV identical at -j 1/2/4" `Quick
      suite_csv_jobs_differential;
    Alcotest.test_case "multi-domain intern stress + gc + audit" `Slow
      multi_domain_stress;
    Alcotest.test_case "shared gc empties every view's cache" `Quick
      shared_gc_resets_view_caches;
  ]
