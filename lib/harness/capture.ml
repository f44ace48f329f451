type origin = Frontier | Image_cofactor

let src = Logs.Src.create "bddmin.capture" ~doc:"experiment capture"

module Log = (val Logs.src_log src)

type call = {
  bench : string;
  iteration : int;
  origin : origin;
  f_size : int;
  f_chain_size : int;
  c_onset_fraction : float;
  sizes : (string * int) list;
  chain_sizes : (string * int) list;
  times : (string * float) list;
  hit_rates : (string * float) list;
  dnf : (string * string) list;
  min_size : int;
  min_name : string;
  low_bd : int;
}

type engine_config = {
  entries : Minimize.Registry.entry list;
  repr : Bdd.repr;
  lower_bound_cubes : int;
  self_product : bool;
  jobs : int;
}

type image_config = {
  strategy : Fsm.Image.strategy;
  cluster_bound : int option;
}

type limits_config = {
  max_iterations : int;
  max_calls : int;
  node_budget : int option;
  step_budget : int option;
  time_budget : float option;
  fail_fast : bool;
}

type config = {
  engine : engine_config;
  image : image_config;
  limits : limits_config;
}

let default_config =
  {
    engine =
      {
        entries = Minimize.Registry.all;
        repr = `Bdd;
        lower_bound_cubes = 1000;
        self_product = true;
        jobs = 1;
      };
    image = { strategy = Fsm.Image.Partitioned; cluster_bound = None };
    limits =
      {
        max_iterations = 100_000;
        max_calls = 400;
        node_budget = None;
        step_budget = None;
        time_budget = None;
        fail_fast = false;
      };
  }

let with_lower_bound_cubes lower_bound_cubes c =
  { c with engine = { c.engine with lower_bound_cubes } }

let with_self_product self_product c =
  { c with engine = { c.engine with self_product } }

let with_jobs jobs c = { c with engine = { c.engine with jobs } }
let with_image_strategy strategy c = { c with image = { c.image with strategy } }

let with_cluster_bound cluster_bound c =
  { c with image = { c.image with cluster_bound } }

let with_max_calls max_calls c = { c with limits = { c.limits with max_calls } }

let with_node_budget node_budget c =
  { c with limits = { c.limits with node_budget } }

let with_step_budget step_budget c =
  { c with limits = { c.limits with step_budget } }

let with_time_budget time_budget c =
  { c with limits = { c.limits with time_budget } }

let with_fail_fast fail_fast c = { c with limits = { c.limits with fail_fast } }

let minimizer_names config = Minimize.Registry.names config.engine.entries

let origin_name = function
  | Frontier -> "frontier"
  | Image_cofactor -> "image_cofactor"

(* A budget value from optional limits: [None] when nothing is limited
   and no cancellation token is in play, so the unbudgeted path stays
   exactly the pre-governance one. *)
let opt_budget ?cancelled ~max_nodes ~max_steps ~timeout_s () =
  match (max_nodes, max_steps, timeout_s, cancelled) with
  | None, None, None, None -> None
  | _ ->
    Some (Bdd.Budget.create ?max_nodes ?max_steps ?timeout_s ?cancelled ())

let measure_call config ?cancelled man ~bench ~iteration ~origin
    (inst : Minimize.Ispec.t) =
  Obs.Trace.with_span "capture.call"
    ~attrs:
      [
        ("bench", Obs.Trace.Str bench);
        ("iteration", Obs.Trace.Int iteration);
        ("origin", Obs.Trace.Str (origin_name origin));
      ]
  @@ fun _call_sp ->
  (* Each minimizer runs under a fresh budget built from the limits —
     the budgets govern one operation each, so an expensive entry DNFs
     on its own while the cheap ones still produce their exact rows. *)
  let run_entry (e : Minimize.Registry.entry) =
    Bdd.clear_caches man;
    let budget =
      opt_budget ?cancelled ~max_nodes:config.limits.node_budget
        ~max_steps:config.limits.step_budget
        ~timeout_s:config.limits.time_budget ()
    in
    let ctx =
      match budget with
      | None -> Minimize.Ctx.of_man man
      | Some b -> Minimize.Ctx.make ~budget:b man
    in
    let s0 = Bdd.snapshot man in
    match
      Obs.Trace.with_span ("min:" ^ e.name) @@ fun sp ->
      let r =
        Obs.Clock.timed (fun () -> Minimize.Registry.run e ctx inst)
      in
      let s1 = Bdd.snapshot man in
      if Obs.Trace.enabled () then begin
        let d get = get s1 - get s0 in
        Obs.Trace.add sp "result_nodes"
          (Obs.Trace.Int (Bdd.size man (fst r)));
        Obs.Trace.add sp "cache_lookups"
          (Obs.Trace.Int (d (fun s -> s.Bdd.Stats.cache_lookups)));
        Obs.Trace.add sp "cache_hits"
          (Obs.Trace.Int (d (fun s -> s.Bdd.Stats.cache_hits)));
        Obs.Trace.add sp "interned_nodes"
          (Obs.Trace.Int (d (fun s -> s.Bdd.Stats.interned_total)));
        Obs.Trace.add sp "gc_runs"
          (Obs.Trace.Int (d (fun s -> s.Bdd.Stats.gc_runs)));
        Obs.Trace.add sp "cache_evictions"
          (Obs.Trace.Int (d (fun s -> s.Bdd.Stats.cache_evictions)))
      end;
      (r, s1)
    with
    | exception Bdd.Budget_exhausted reason ->
      Error (e.name, Bdd.Budget.reason_label reason)
    | (g, dt), s1 -> (
        match Option.map Bdd.Budget.exhausted budget with
        | Some (Some reason) ->
          (* anytime entries (the schedule) trap exhaustion internally
             and return a degraded cover; record them as DNF so budgeted
             rows never silently differ from unbudgeted ones *)
          Error (e.name, Bdd.Budget.reason_label reason)
        | _ ->
          let lookups =
            s1.Bdd.Stats.cache_lookups - s0.Bdd.Stats.cache_lookups
          in
          let hits = s1.Bdd.Stats.cache_hits - s0.Bdd.Stats.cache_hits in
          let hit_rate =
            if lookups = 0 then 0.0
            else float_of_int hits /. float_of_int lookups
          in
          Ok (e.name, Bdd.size man g, dt, hit_rate))
  in
  let results = List.map run_entry config.engine.entries in
  let completed =
    List.filter_map (function Ok r -> Some r | Error _ -> None) results
  in
  let dnf =
    List.filter_map (function Error d -> Some d | Ok _ -> None) results
  in
  match completed with
  | [] ->
    (* every minimizer exhausted its budget: there is no [min] to anchor
       a row, so the call is dropped (it still counts against
       [max_calls] at the call site) *)
    None
  | _ ->
    let min_name, min_size =
      List.fold_left
        (fun (bn, bs) (n, s, _, _) -> if s < bs then (n, s) else (bn, bs))
        ("", max_int) completed
    in
    let low_bd =
      Minimize.Lower_bound.compute man
        ~cube_limit:config.engine.lower_bound_cubes inst
    in
    let f_size = Bdd.size man inst.Minimize.Ispec.f in
    let sizes = List.map (fun (n, s, _, _) -> (n, s)) completed in
    Some
      {
        bench;
        iteration;
        origin;
        f_size;
        f_chain_size = f_size;
        c_onset_fraction = Minimize.Ispec.c_onset_fraction man inst;
        sizes;
        chain_sizes = sizes;
        times = List.map (fun (n, _, t, _) -> (n, t)) completed;
        hit_rates = List.map (fun (n, _, _, h) -> (n, h)) completed;
        dnf;
        min_size;
        min_name;
        low_bd;
      }

type bench_result = {
  calls : call list;
  stats : Bdd.Stats.t;
  reclaimed : int;
  dnf : string option;
}

let run_bench_stats ?(config = default_config) ?cancel
    (b : Circuits.Registry.bench) =
  let man = Bdd.create () in
  let cancelled =
    Option.map (fun t () -> Exec.Cancel.cancelled t) cancel
  in
  if match cancel with Some t -> Exec.Cancel.cancelled t | None -> false
  then
    (* a sibling already failed fast: don't even start *)
    { calls = []; stats = Bdd.snapshot man; reclaimed = 0; dnf = Some "cancelled" }
  else begin
    let nl = b.build () in
    let calls = ref [] in
    let ncalls = ref 0 in
    let consider ~iteration ~origin inst =
      (* §4.1.2 filter: skip cube care sets and care sets contained in f or
         its complement (most heuristics find a minimum there). *)
      if
        !ncalls < config.limits.max_calls
        && not (Minimize.Ispec.trivial man inst)
      then begin
        incr ncalls;
        match
          measure_call config ?cancelled man ~bench:b.name ~iteration ~origin
            inst
        with
        | Some call ->
          Log.debug (fun m ->
              m "%s call %d (iter %d): |f| = %d, c_onset = %.3f, min = %d (%s)"
                b.name !ncalls iteration call.f_size call.c_onset_fraction
                call.min_size call.min_name);
          calls := call :: !calls
        | None ->
          Log.debug (fun m ->
              m "%s call %d (iter %d): every minimizer DNF" b.name !ncalls
                iteration)
      end
    in
    let on_instance ~iteration inst =
      consider ~iteration ~origin:Frontier inst
    in
    let on_image_constrain ~iteration inst =
      consider ~iteration ~origin:Image_cofactor inst
    in
    (* The driver (netlist elaboration + the reachability fixpoint) runs
       under its own budget.  The step limit is deliberately left out:
       it bounds a single operation, while the node ceiling and the
       deadline are manager- and wall-scale, i.e. benchmark-wide. *)
    let driver_budget =
      opt_budget ?cancelled ~max_nodes:config.limits.node_budget
        ~max_steps:None ~timeout_s:config.limits.time_budget ()
    in
    Bdd.set_budget man driver_budget;
    let dnf =
      match
        if config.engine.self_product then begin
          match
            Fsm.Equiv.check_self man ~strategy:config.image.strategy
              ?cluster_bound:config.image.cluster_bound
              ~max_iterations:config.limits.max_iterations ~on_instance
              ~on_image_constrain nl
          with
          | Fsm.Equiv.Equivalent _ -> ()
          | Fsm.Equiv.Not_equivalent _ ->
            failwith ("self-equivalence failed on " ^ b.name)
        end
        else begin
          let sym = Fsm.Symbolic.of_netlist man nl in
          let _, st =
            Fsm.Reach.reachable ~strategy:config.image.strategy
              ?cluster_bound:config.image.cluster_bound
              ~max_iterations:config.limits.max_iterations ~on_instance
              ~on_image_constrain sym
          in
          match st.Fsm.Reach.fixpoint with
          | Fsm.Reach.Partial { reason; _ } ->
            raise (Bdd.Budget_exhausted reason)
          | Fsm.Reach.Complete -> ()
        end
      with
      | () -> None
      | exception Bdd.Budget_exhausted reason ->
        Some (Bdd.Budget.reason_label reason)
    in
    Bdd.set_budget man None;
    (* The run is over and nothing is retained, so a collection from the
       permanent roots alone shows how much of the table was dead. *)
    let reclaimed = Bdd.gc man in
    { calls = List.rev !calls; stats = Bdd.snapshot man; reclaimed; dnf }
  end

let run_bench ?config b = (run_bench_stats ?config b).calls

let default_progress msg = Log.info (fun m -> m "%s" msg)

let summary_messages (b : Circuits.Registry.bench) (r : bench_result) =
  [
    Printf.sprintf "  %s: %d non-trivial calls" b.name (List.length r.calls);
    Printf.sprintf
      "  engine: %d peak nodes, cache hit rate %.1f%%, final gc reclaimed \
       %d dead nodes"
      r.stats.Bdd.Stats.peak_live_nodes
      (100.0 *. Bdd.Stats.hit_rate r.stats)
      r.reclaimed;
  ]
  @
  match r.dnf with
  | None -> []
  | Some reason -> [ Printf.sprintf "  DNF(%s)" reason ]

type suite = {
  suite_calls : call list;
  engine : (string * int) list;
  suite_dnf : (string * string) list;
}

let run_suite_stats ?(config = default_config) ?(progress = default_progress)
    benches =
  let jobs = config.engine.jobs in
  let cancel =
    if config.limits.fail_fast then Some (Exec.Cancel.create ()) else None
  in
  let run (b : Circuits.Registry.bench) =
    let r = run_bench_stats ~config ?cancel b in
    (match cancel with
     | Some t
       when r.dnf <> None
            || List.exists (fun (c : call) -> c.dnf <> []) r.calls ->
       (* fail fast: the first DNF anywhere cancels every sibling *)
       Exec.Cancel.cancel t
     | _ -> ());
    r
  in
  let results =
    if jobs <= 1 then
      List.map
        (fun (b : Circuits.Registry.bench) ->
           progress b.name;
           let r = run b in
           List.iter progress (summary_messages b r);
           r)
        benches
    else begin
      (* One pool job per benchmark.  Every job builds its own manager
         (in [run_bench_stats]); nothing manager-related crosses domains,
         so the captured calls are element-wise identical to the
         sequential run's.  [Exec.map] returns in submission order and
         merges the workers' trace buffers in that same order, and
         progress messages are replayed here, also in submission order —
         the observable output is byte-identical to [jobs:1] (timings
         aside; and fail-fast cancellation, which depends on which
         sibling trips first, is inherently schedule-dependent). *)
      let results = Exec.map ~jobs run benches in
      List.iter2
        (fun (b : Circuits.Registry.bench) r ->
           progress b.name;
           List.iter progress (summary_messages b r))
        benches results;
      results
    end
  in
  {
    suite_calls = List.concat_map (fun r -> r.calls) results;
    (* the managers are disjoint, so occupancy figures add up too *)
    engine =
      (match List.map (fun r -> Bdd.Stats.fields r.stats) results with
       | [] -> []
       | first :: rest ->
         List.fold_left
           (List.map2 (fun (k, a) (_, b) -> (k, a + b)))
           first rest);
    suite_dnf =
      List.concat
        (List.map2
           (fun (b : Circuits.Registry.bench) r ->
              match r.dnf with
              | Some reason -> [ (b.name, reason) ]
              | None -> [])
           benches results);
  }

let run_suite ?config ?progress benches =
  (run_suite_stats ?config ?progress benches).suite_calls
