(* capture: the paper's §4.1 experiment as [bddmin tables] runs it —
   intercept every minimization call of a self-equivalence check and run
   every catalogued minimizer, the lower bound and the size metric on
   it.  One operation is one captured call; its latency is the time its
   minimizers took, the quantity the paper tabulates. *)

module C = Harness.Capture

let config = C.(default_config |> with_max_calls 40)

let benches ~seed =
  List.map
    (fun (name, nl) ->
       { Circuits.Registry.name; paper_analog = ""; description = "";
         build = (fun () -> nl) })
    (Gen.capture_machines ~seed)

let latency (c : C.call) = Stat.sum (List.map snd c.times)

type pass = {
  calls : C.call list;
  machines_s : float list;  (** per machine, oracle time excluded *)
  traced : bool;
  stats : (int * Bdd.Stats.t) list;  (** traced passes only *)
  iterations : int;
  faults : string list;  (** non-covers and failed self-checks *)
}

let wall p = Stat.sum p.machines_s

let untraced benches =
  let runs =
    List.map
      (fun b ->
         Measure.segment (fun () ->
             (C.run_suite_stats ~config ~progress:ignore [ b ]).suite_calls))
      benches
  in
  { calls = List.concat_map fst runs; machines_s = List.map snd runs;
    traced = false; stats = []; iterations = 0; faults = [] }

(* The harness loop of [Capture.run_bench_stats], replayed over the same
   public calls with a span around each; it must produce the same call
   rows.  Every result is also checked to be a cover, inside an oracle
   span whose time and engine work are taken out again. *)
let replay sp benches =
  let stats = ref [] and faults = ref [] and iterations = ref 0 in
  let oracle_s = ref 0.0 in
  let record ~layer name f = Span.record sp ~layer name f in
  let bench (b : Circuits.Registry.bench) =
    let man = Bdd.create ~repr:config.engine.repr () in
    let nl = b.build () in
    let calls = ref [] and ncalls = ref 0 in
    let check_cover (e : Minimize.Registry.entry) inst g =
      record ~layer:Span.oracle_layer "is_cover" @@ fun () ->
      let before = Bdd.snapshot man in
      let verdict, dt = Measure.timed (fun () -> Oracle.cover man inst g) in
      oracle_s := !oracle_s +. dt;
      Option.iter
        (fun r -> faults := Printf.sprintf "%s/%s: %s" b.name e.name r :: !faults)
        verdict;
      stats := (-1, Bdd.Stats.delta ~before ~after:(Bdd.snapshot man)) :: !stats
    in
    let measure ~iteration ~origin (inst : Minimize.Ispec.t) =
      sp.Span.op <- sp.Span.op + 1;
      let run_entry (e : Minimize.Registry.entry) =
        record ~layer:"bdd" "clear_caches" (fun () -> Bdd.clear_caches man);
        let s0 = Bdd.snapshot man in
        let g, dt =
          record ~layer:"minimize" e.name (fun () ->
              Obs.Clock.timed (fun () ->
                  Minimize.Registry.run e (Minimize.Ctx.of_man man) inst))
        in
        let s1 = Bdd.snapshot man in
        check_cover e inst g;
        let plain, nodes =
          record ~layer:"bdd" "metric" (fun () ->
              (Bdd.Metric.plain_equivalent man g, Bdd.Metric.nodes man g))
        in
        let lookups = s1.cache_lookups - s0.cache_lookups in
        let hits = s1.cache_hits - s0.cache_hits in
        let rate =
          if lookups = 0 then 0.0 else float_of_int hits /. float_of_int lookups
        in
        (e.name, plain, nodes, dt, rate)
      in
      let results = List.map run_entry config.engine.entries in
      let min_name, min_size =
        List.fold_left
          (fun (bn, bs) (n, s, _, _, _) -> if s < bs then (n, s) else (bn, bs))
          ("", max_int) results
      in
      let low_bd =
        record ~layer:"minimize" "lower_bound" (fun () ->
            Minimize.Lower_bound.compute man
              ~cube_limit:config.engine.lower_bound_cubes inst)
      in
      let f_size, f_chain_size =
        record ~layer:"bdd" "metric" (fun () ->
            (Bdd.Metric.plain_equivalent man inst.f, Bdd.Metric.nodes man inst.f))
      in
      let c_onset_fraction =
        record ~layer:"minimize" "c_onset" (fun () ->
            Minimize.Ispec.c_onset_fraction man inst)
      in
      {
        C.bench = b.name; iteration; origin; f_size; f_chain_size;
        c_onset_fraction;
        sizes = List.map (fun (n, s, _, _, _) -> (n, s)) results;
        chain_sizes = List.map (fun (n, _, cs, _, _) -> (n, cs)) results;
        times = List.map (fun (n, _, _, t, _) -> (n, t)) results;
        hit_rates = List.map (fun (n, _, _, _, h) -> (n, h)) results;
        dnf = []; min_size; min_name; low_bd;
      }
    in
    let consider origin ~iteration inst =
      if
        !ncalls < config.limits.max_calls
        && not
             (record ~layer:"minimize" "trivial" (fun () ->
                  Minimize.Ispec.trivial man inst))
      then begin
        incr ncalls;
        calls := measure ~iteration ~origin inst :: !calls
      end
    in
    let verdict =
      record ~layer:"fsm" "driver" (fun () ->
          Fsm.Equiv.check_self man ~strategy:config.image.strategy
            ~max_iterations:config.limits.max_iterations
            ~on_instance:(consider C.Frontier)
            ~on_image_constrain:(consider C.Image_cofactor) nl)
    in
    (match verdict with
     | Fsm.Equiv.Equivalent st -> iterations := !iterations + st.iterations
     | Fsm.Equiv.Not_equivalent _ ->
       faults := (b.name ^ ": not equivalent to itself") :: !faults);
    record ~layer:"bdd" "gc" (fun () -> ignore (Bdd.gc man));
    stats := (1, Bdd.snapshot man) :: !stats;
    List.rev !calls
  in
  sp.Span.on <- true;
  let runs =
    List.map
      (fun b ->
         let before = !oracle_s in
         let calls, dt = Measure.segment (fun () -> bench b) in
         (calls, dt -. (!oracle_s -. before)))
      benches
  in
  sp.Span.on <- false;
  { calls = List.concat_map fst runs; machines_s = List.map snd runs; traced = true;
    stats = !stats; iterations = !iterations; faults = !faults }

let proper = Minimize.Registry.names Minimize.Registry.proper

let run ~seed ~seconds ~trace =
  let benches, setup_s = Measure.setup ~release:ignore (fun () -> benches ~seed) in
  let sp = Span.create () in
  let passes =
    Measure.passes ~seconds ~min_passes:(if trace then 2 else 1) (fun k ->
        if trace && k mod 2 = 1 then replay sp benches else untraced benches)
  in
  let peak_rss_mb = Proc.peak_rss_mb () in
  (* oracles, outside the measured body *)
  let first = List.hd passes in
  let failures =
    List.concat_map
      (fun p ->
         let rows =
           if List.length p.calls <> List.length first.calls then
             [ "a pass captured a different number of calls" ]
           else
             List.concat
               (List.map2
                  (fun a b ->
                     if Oracle.same_call a b then []
                     else [ a.C.bench ^ ": call row differs between passes" ])
                  first.calls p.calls)
         in
         List.filter_map Oracle.capture_call p.calls @ rows @ p.faults)
      passes
  in
  let attempted = List.fold_left (fun a p -> a + List.length p.calls) 0 passes in
  let notes =
    Printf.sprintf "capture: %d machines, %d passes of %d calls" (List.length benches)
      (List.length passes) (List.length first.calls)
    :: List.filteri (fun i _ -> i < 20) failures
  in
  let metrics, more =
    if not trace then
      let body_s, latencies_s =
        Measure.best_of_passes
          (List.map (fun p -> (p.machines_s, List.map latency p.calls)) passes)
      in
      let m, note =
        Measure.end_to_end ~setup_s
          ~ops_per_s:(float_of_int (List.length first.calls) /. body_s)
          ~groups:[ latencies_s ] ~peak_rss_mb
      in
      (m, [ note ])
    else begin
      let traced = List.filter (fun p -> p.traced) passes in
      let plain = List.filter (fun p -> not p.traced) passes in
      let med ps = Stat.median (List.map wall ps) in
      let cover_nodes =
        List.fold_left
          (fun a (c : C.call) ->
             List.fold_left
               (fun a (n, s) -> if List.mem n proper then a + s else a)
               a c.sizes)
          0 first.calls
      in
      let t1 = List.hd traced in
      Proc.ensure_out_dir ();
      Span.write_chrome
        (Printf.sprintf "%s/trace-capture-%d.json" Proc.out_dir seed)
        sp.spans;
      Measure.per_layer ~spans:sp.spans
        ~wall_s:(Stat.sum (List.map wall traced))
        ~overhead_pct:(100.0 *. (med traced -. med plain) /. med plain)
        (Measure.engine_counts t1.stats
         @ [ ("minimize.calls", float_of_int (List.length first.calls));
             ("minimize.cover_nodes", float_of_int cover_nodes);
             ("fsm.iterations", float_of_int t1.iterations) ])
    end
  in
  { Report.attempted; failed = List.length failures; metrics; notes = notes @ more }
