(* bddmin: command-line front end.

   Subcommands: minimize (one instance from Boolean expressions), equiv
   (product-machine equivalence of benchmark circuits or BLIF files),
   reach (reachability statistics), tables (reproduce the paper's
   exhibits), lower-bound, and dot (Graphviz export). *)

open Cmdliner

let ( let* ) r f = Result.bind r f

(* Common verbosity handling (-v / -vv / --verbosity). *)
let setup_logs level =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level level

let logs_term = Term.(const setup_logs $ Logs_cli.level ())

(* ----- shared helpers ----- *)

let parse_pair fexpr cexpr =
  let* f_ast =
    Result.map_error (fun e -> "parsing f: " ^ e) (Logic.Bexpr.parse fexpr)
  in
  let* c_ast =
    Result.map_error (fun e -> "parsing c: " ^ e) (Logic.Bexpr.parse cexpr)
  in
  let man = Bdd.create () in
  (* Shared variable environment across both expressions. *)
  let vars =
    List.sort_uniq compare (Logic.Bexpr.vars f_ast @ Logic.Bexpr.vars c_ast)
  in
  let mapping = List.mapi (fun i v -> (v, i)) vars in
  let env name = Bdd.ithvar man (List.assoc name mapping) in
  let f = Logic.Bexpr.to_bdd man ~env f_ast in
  let c = Logic.Bexpr.to_bdd man ~env c_ast in
  Ok (man, mapping, Minimize.Ispec.make ~f ~c)

let pp_cover mapping g =
  let var_name v =
    match List.find_opt (fun (_, i) -> i = v) mapping with
    | Some (n, _) -> n
    | None -> Printf.sprintf "x%d" v
  in
  if Bdd.is_one g then "1"
  else if Bdd.is_zero g then "0"
  else
    let cubes = Bdd.Cube.all_cubes ~limit:64 g in
    let cube_str c =
      String.concat " & "
        (List.map
           (fun (v, ph) -> (if ph then "" else "!") ^ var_name v)
           c)
    in
    let s = String.concat " | " (List.map cube_str cubes) in
    if List.length cubes >= 64 then s ^ " | ..." else s

let load_netlist spec =
  match Circuits.Registry.find spec with
  | Some b -> Ok (b.Circuits.Registry.build ())
  | None ->
    if Sys.file_exists spec then Fsm.Blif.parse_file spec
    else
      Error
        (Printf.sprintf
           "unknown benchmark %S (known: %s) and no such file" spec
           (String.concat ", "
              (Circuits.Registry.names Circuits.Registry.all)))

(* Like [load_netlist], but keep the bench record (the capture harness
   wants a name and a build thunk); BLIF files get a synthetic record. *)
let load_bench spec =
  match Circuits.Registry.find spec with
  | Some b -> Ok b
  | None -> (
      match load_netlist spec with
      | Error e -> Error e
      | Ok nl ->
        Ok
          {
            Circuits.Registry.name = Filename.basename spec;
            paper_analog = "-";
            description = "BLIF file " ^ spec;
            build = (fun () -> nl);
          })

(* ----- tracing (--trace FILE) ----- *)

let trace_term =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Write a Chrome trace-event JSON file of the run; load it \
                 in Perfetto or chrome://tracing.")

let with_trace file k =
  match file with
  | None -> k ()
  | Some path ->
    let oc = open_out path in
    let sink = Obs.Trace.chrome_channel oc in
    Obs.Trace.set_sink sink;
    Fun.protect
      ~finally:(fun () ->
        Obs.Trace.set_sink Obs.Trace.null;
        Obs.Trace.close sink;
        close_out oc)
      k

(* ----- worker-domain count (-j N) ----- *)

let jobs_term =
  Arg.(value & opt int 1
       & info [ "j"; "jobs" ] ~docv:"N"
           ~doc:"Run on $(docv) worker domains (default 1).  Results are \
                 byte-identical at any $(docv): each worker uses a \
                 private BDD manager and outputs are collected in \
                 submission order.")

(* ----- frontier-minimizer selection (--minimize NAME) ----- *)

let minimizer_term =
  Arg.(value & opt (some string) None
       & info [ "minimize" ] ~docv:"NAME"
           ~doc:"Minimize each reachability frontier with this registry \
                 heuristic (e.g. $(b,const), $(b,restr), $(b,sched), \
                 $(b,opt_lv)) instead of plain constrain.")

(* Unknown names print the valid catalogue and exit 2 (usage error), so
   scripted sweeps over minimizer names fail loudly and fixably. *)
let catalogue_exit name =
  Printf.eprintf "unknown minimizer %S; valid minimizers are:\n  %s\n" name
    (String.concat ", "
       (Minimize.Registry.names Minimize.Registry.extended));
  exit 2

let find_entry name =
  match Minimize.Registry.find name with
  | Some e -> e
  | None -> catalogue_exit name

let resolve_minimizer = function
  | None -> None
  | Some name ->
    let e = find_entry name in
    Some
      (fun man s -> Minimize.Registry.run e (Minimize.Ctx.of_man man) s)

(* ----- resource budgets (--node-budget, --step-budget, --time-budget) ----- *)

let budget_spec_term =
  let node =
    Arg.(value & opt (some int) None
         & info [ "node-budget" ] ~docv:"N"
             ~doc:"Give up when the BDD manager holds more than $(docv) \
                   live nodes.")
  in
  let step =
    Arg.(value & opt (some int) None
         & info [ "step-budget" ] ~docv:"N"
             ~doc:"Give up when an operation budget exceeds $(docv) \
                   recursion steps.")
  in
  let time =
    Arg.(value & opt (some float) None
         & info [ "time-budget" ] ~docv:"SECONDS"
             ~doc:"Give up after $(docv) seconds of wall clock.")
  in
  Term.(const (fun n s t -> (n, s, t)) $ node $ step $ time)

let make_budget (node, step, time) =
  match (node, step, time) with
  | None, None, None -> None
  | _ ->
    Some
      (Bdd.Budget.create ?max_nodes:node ?max_steps:step ?timeout_s:time ())

(* ----- image-strategy selection (--image S, --cluster-bound N) ----- *)

let image_term ?(names = [ "image" ]) default =
  Arg.(value & opt string default
       & info names ~docv:"S"
           ~doc:"Image strategy: $(b,monolithic), $(b,partitioned), \
                 $(b,clustered) or $(b,range).")

let cluster_bound_term =
  Arg.(value & opt (some int) None
       & info [ "cluster-bound" ] ~docv:"N"
           ~doc:"Node bound for the clustered image schedule (default \
                 2000; only the $(b,clustered) strategy reads it).")

let resolve_image_strategy s =
  match Fsm.Image.strategy_of_name s with
  | Some strategy -> strategy
  | None ->
    Printf.eprintf
      "unknown image strategy %s (expected monolithic, partitioned, \
       clustered or range)\n"
      s;
    exit 1

(* ----- minimize ----- *)

let minimize_cmd =
  let run fexpr cexpr heuristic exact =
    match parse_pair fexpr cexpr with
    | Error e ->
      Printf.eprintf "error: %s\n" e;
      1
    | Ok (man, mapping, inst) ->
      if Bdd.is_zero inst.Minimize.Ispec.c then begin
        Printf.eprintf "error: empty care set\n";
        1
      end
      else begin
        let entries =
          match heuristic with
          | "all" -> Minimize.Registry.all
          | name -> [ find_entry name ]
        in
        let ctx = Minimize.Ctx.of_man man in
        Printf.printf "|f| = %d   c_onset = %.1f%%   lower bound = %d\n"
          (Bdd.size man inst.Minimize.Ispec.f)
          (100.0 *. Minimize.Ispec.c_onset_fraction man inst)
          (Minimize.Lower_bound.compute man inst);
        List.iter
          (fun (e : Minimize.Registry.entry) ->
             let g = Minimize.Registry.run e ctx inst in
             Printf.printf "%-8s size %-4d  %s\n" e.name (Bdd.size man g)
               (pp_cover mapping g))
          entries;
        if exact then begin
          match Minimize.Exact.minimize man inst with
          | Some r ->
            Printf.printf "%-8s size %-4d  %s   (%d covers tried)\n" "exact"
              r.Minimize.Exact.size
              (pp_cover mapping r.Minimize.Exact.cover)
              r.Minimize.Exact.covers_tried
          | None ->
            Printf.printf "exact: instance too large for exhaustive search\n"
        end;
        0
      end
  in
  let fexpr =
    Arg.(required & opt (some string) None
         & info [ "f" ] ~docv:"EXPR" ~doc:"Function (e.g. \"a & b | !c\").")
  in
  let cexpr =
    Arg.(required & opt (some string) None
         & info [ "c" ] ~docv:"EXPR" ~doc:"Care set.")
  in
  let heuristic =
    Arg.(value & opt string "all"
         & info [ "heuristic"; "H" ] ~docv:"NAME"
             ~doc:"Heuristic name, or $(b,all).")
  in
  let exact =
    Arg.(value & flag & info [ "exact" ] ~doc:"Also run the exact minimizer.")
  in
  Cmd.v
    (Cmd.info "minimize"
       ~doc:"Minimize one incompletely specified function [f; c]")
    Term.(const run $ fexpr $ cexpr $ heuristic $ exact)

(* ----- lower-bound ----- *)

let lower_bound_cmd =
  let run fexpr cexpr cubes =
    match parse_pair fexpr cexpr with
    | Error e ->
      Printf.eprintf "error: %s\n" e;
      1
    | Ok (man, _, inst) ->
      let bound, cube =
        Minimize.Lower_bound.witness man ~cube_limit:cubes inst
      in
      Format.printf "lower bound = %d   (witness cube %a)@." bound
        Bdd.Cube.pp cube;
      0
  in
  let fexpr =
    Arg.(required & opt (some string) None & info [ "f" ] ~docv:"EXPR" ~doc:"Function.")
  in
  let cexpr =
    Arg.(required & opt (some string) None & info [ "c" ] ~docv:"EXPR" ~doc:"Care set.")
  in
  let cubes =
    Arg.(value & opt int 1000
         & info [ "cubes" ] ~docv:"N" ~doc:"Cube enumeration limit.")
  in
  Cmd.v
    (Cmd.info "lower-bound" ~doc:"Theorem 7 lower bound for an instance")
    Term.(const run $ fexpr $ cexpr $ cubes)

(* ----- equiv ----- *)

let equiv_cmd =
  let run spec1 spec2 strategy cluster_bound minimizer budget trace =
    let strategy = resolve_image_strategy strategy in
    let minimize = resolve_minimizer minimizer in
    match
      let* nl1 = load_netlist spec1 in
      let* nl2 =
        match spec2 with Some s -> load_netlist s | None -> Ok nl1
      in
      Ok (nl1, nl2)
    with
    | Error e ->
      Printf.eprintf "error: %s\n" e;
      1
    | Ok (nl1, nl2) ->
      let man = Bdd.create () in
      Bdd.set_budget man (make_budget budget);
      with_trace trace @@ fun () ->
      (match
         Fsm.Equiv.check ~strategy ?cluster_bound ?minimize man nl1 nl2
       with
       | Fsm.Equiv.Equivalent st ->
         Printf.printf
           "EQUIVALENT  (%d iterations, %.0f product states, %d minimization calls)\n"
           st.Fsm.Reach.iterations st.Fsm.Reach.reached_states
           st.Fsm.Reach.minimization_calls;
         0
       | Fsm.Equiv.Not_equivalent { stats; distinguishing_state } ->
         Format.printf
           "NOT EQUIVALENT after %d iterations; distinguishing state %a@."
           stats.Fsm.Reach.iterations Bdd.Cube.pp distinguishing_state;
         1
       | exception Bdd.Budget_exhausted reason ->
         (* no verdict either way: the traversal was cut short *)
         Printf.printf "DNF(%s): %s\n"
           (Bdd.Budget.reason_label reason)
           (Bdd.Budget.reason_message reason);
         3)
  in
  let spec1 =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"MACHINE1" ~doc:"Benchmark name or BLIF file.")
  in
  let spec2 =
    Arg.(value & pos 1 (some string) None
         & info [] ~docv:"MACHINE2"
             ~doc:"Second machine (default: MACHINE1 against itself).")
  in
  let strategy = image_term ~names:[ "strategy"; "image" ] "range" in
  Cmd.v
    (Cmd.info "equiv" ~doc:"Check product-machine equivalence")
    Term.(
      const (fun () a b c d e f g -> run a b c d e f g)
      $ logs_term $ spec1 $ spec2 $ strategy $ cluster_bound_term
      $ minimizer_term $ budget_spec_term $ trace_term)

(* ----- reach ----- *)

let reach_cmd =
  let run spec image cluster_bound jobs minimizer budget trace =
    match load_netlist spec with
    | Error e ->
      Printf.eprintf "error: %s\n" e;
      1
    | Ok nl ->
      let strategy = resolve_image_strategy image in
      let minimize = resolve_minimizer minimizer in
      (* -j N > 1 swaps the private manager for a view of a shared node
         store plus a worker pool: the fixpoint's image merges fan out
         across the pool, each worker on its own view, and the result is
         bit-identical to -j 1 (BDDs are canonical store-wide) *)
      let with_engine k =
        if jobs <= 1 then k (Bdd.create ()) None
        else begin
          let store = Bdd.Shared.create () in
          let man = Bdd.Shared.attach store in
          Exec.Pool.with_pool ~jobs @@ fun pool ->
          k man (Some (Fsm.Image.par ~pool ~store))
        end
      in
      with_engine @@ fun man par ->
      let sym = Fsm.Symbolic.of_netlist man nl in
      (* budget the traversal, not the netlist-to-BDD build: the
         fixpoint traps exhaustion and reports a partial result *)
      Bdd.set_budget man (make_budget budget);
      let reached, st =
        with_trace trace @@ fun () ->
        Fsm.Reach.reachable ~strategy ?cluster_bound ?par ?minimize sym
      in
      Printf.printf "%s\n" (Fsm.Netlist.stats nl);
      Printf.printf
        "reachable states: %.0f of %.0f   iterations: %d   |R| = %d nodes\n"
        st.Fsm.Reach.reached_states
        (2.0 ** float_of_int (Fsm.Symbolic.num_state_vars sym))
        st.Fsm.Reach.iterations (Bdd.size man reached);
      (match st.Fsm.Reach.fixpoint with
       | Fsm.Reach.Complete -> 0
       | Fsm.Reach.Partial { reason; _ } ->
         Printf.printf "PARTIAL(%s): %s; the count is a lower bound\n"
           (Bdd.Budget.reason_label reason)
           (Bdd.Budget.reason_message reason);
         3)
  in
  let spec =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"MACHINE" ~doc:"Benchmark name or BLIF file.")
  in
  Cmd.v
    (Cmd.info "reach" ~doc:"Symbolic reachability statistics")
    Term.(
      const (fun () a b c d e f g -> run a b c d e f g)
      $ logs_term $ spec $ image_term "partitioned" $ cluster_bound_term
      $ jobs_term $ minimizer_term $ budget_spec_term $ trace_term)

(* ----- stats ----- *)

let stats_cmd =
  let analyze cache_bits strategy cluster_bound budget nl =
    let buf = Buffer.create 1024 in
    let out fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
    let man = Bdd.create ?cache_bits () in
    let sym = Fsm.Symbolic.of_netlist man nl in
    (* one budget per machine, installed after the netlist-to-BDD build:
       budgets are stateful, managers private, and only the fixpoint
       traps exhaustion into a partial result *)
    Bdd.set_budget man (make_budget budget);
    let reached, st = Fsm.Reach.reachable ~strategy ?cluster_bound sym in
    out "%s\n" (Fsm.Netlist.stats nl);
    let partial =
      match st.Fsm.Reach.fixpoint with
      | Fsm.Reach.Complete -> None
      | Fsm.Reach.Partial { reason; _ } ->
        Some (Bdd.Budget.reason_label reason)
    in
    out "reachability: %.0f states in %d iterations, |R| = %d nodes%s\n\n"
      st.Fsm.Reach.reached_states st.Fsm.Reach.iterations
      (Bdd.size man reached)
      (match partial with
       | None -> ""
       | Some label -> Printf.sprintf "  [PARTIAL(%s)]" label);
    out "engine statistics after reachability:\n";
    out "%s" (Format.asprintf "%a@.@." Bdd.Stats.pp (Bdd.snapshot man));
    (* Collect everything except the reached set to show how much of
       the table the fixed point no longer needs. *)
    let reclaimed = Bdd.gc ~roots:[ reached ] man in
    let s = Bdd.snapshot man in
    out
      "gc (rooting only the reached set): reclaimed %d dead nodes, %d live\n"
      reclaimed s.Bdd.Stats.live_nodes;
    (Buffer.contents buf, partial <> None)
  in
  let run specs cache_bits image cluster_bound jobs budget trace =
    let strategy = resolve_image_strategy image in
    let loaded =
      List.fold_right
        (fun spec acc ->
           let* rest = acc in
           let* nl = load_netlist spec in
           Ok ((spec, nl) :: rest))
        specs (Ok [])
    in
    match loaded with
    | Error e ->
      Printf.eprintf "error: %s\n" e;
      1
    | Ok machines ->
      with_trace trace @@ fun () ->
      (* Each machine's run is independent (private manager), so with
         [-j N] they proceed on a worker pool; the reports come back in
         argument order and the single-machine output is unchanged. *)
      let reports =
        Exec.map ~jobs
          (fun (_, nl) ->
             analyze cache_bits strategy cluster_bound budget nl)
          machines
      in
      (match reports with
       | [ (one, _) ] -> print_string one
       | many ->
         List.iteri
           (fun i ((spec, _), (report, _)) ->
              if i > 0 then print_newline ();
              Printf.printf "== %s ==\n%s" spec report)
           (List.combine machines many));
      if List.exists snd reports then 3 else 0
  in
  let specs =
    Arg.(non_empty & pos_all string []
         & info [] ~docv:"MACHINE"
             ~doc:"Benchmark names or BLIF files (one report each).")
  in
  let cache_bits =
    Arg.(value & opt (some int) None
         & info [ "cache-bits" ] ~docv:"N"
             ~doc:"log2 of the initial computed-cache size (default 15).")
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Engine statistics (cache, GC, recursion counters) for a \
             reachability run")
    Term.(
      const (fun () a b c d e f g -> run a b c d e f g)
      $ logs_term $ specs $ cache_bits $ image_term "partitioned"
      $ cluster_bound_term $ jobs_term $ budget_spec_term $ trace_term)

(* ----- tables ----- *)

let tables_cmd =
  let run quick out_dir max_calls image cluster_bound jobs budget trace =
    let benches =
      if quick then Circuits.Registry.quick else Circuits.Registry.all
    in
    let image_strategy = resolve_image_strategy image in
    let node_budget, step_budget, time_budget = budget in
    let config =
      Harness.Capture.(
        default_config |> with_max_calls max_calls
        |> with_image_strategy image_strategy
        |> with_cluster_bound cluster_bound
        |> with_jobs jobs |> with_node_budget node_budget
        |> with_step_budget step_budget |> with_time_budget time_budget)
    in
    let suite =
      with_trace trace @@ fun () ->
      Harness.Capture.run_suite_stats ~config
        ~progress:(fun m -> Printf.eprintf "%s\n%!" m)
        benches
    in
    let calls = suite.Harness.Capture.suite_calls in
    let names = Harness.Capture.minimizer_names config in
    print_endline (Harness.Tables.render_table1 ());
    print_endline (Harness.Tables.render_table2 ());
    print_endline (Harness.Tables.render_table3 ~names calls);
    print_endline (Harness.Tables.render_table4 calls);
    print_endline (Harness.Tables.render_figure3 calls);
    print_endline (Harness.Tables.render_lower_bound_summary ~names calls);
    (* DNF(reason) rows for budget-exhausted machines, as in the paper's
       tables; absent (and the output unchanged) without budgets. *)
    List.iter
      (fun (bench, reason) -> Printf.printf "%-10s DNF(%s)\n" bench reason)
      suite.Harness.Capture.suite_dnf;
    (match out_dir with
     | Some dir ->
       if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
       let write name contents =
         let oc = open_out (Filename.concat dir name) in
         output_string oc contents;
         close_out oc
       in
       write "calls.csv" (Harness.Tables.calls_to_csv ~names calls);
       write "per_bench.txt"
         (Harness.Tables.render_per_bench
            ~dnf:suite.Harness.Capture.suite_dnf calls);
       write "figure3.csv"
         (Harness.Tables.curve_to_csv
            ~names:[ "f_orig"; "opt_lv"; "const"; "restr"; "tsm_td" ]
            calls);
       Printf.eprintf "CSV data written to %s/\n" dir
     | None -> ());
    0
  in
  let quick =
    Arg.(value & flag & info [ "quick" ] ~doc:"Use the small sub-suite.")
  in
  let out_dir =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"DIR" ~doc:"Also write CSV data here.")
  in
  let max_calls =
    Arg.(value & opt int 400
         & info [ "max-calls" ] ~docv:"N"
             ~doc:"Per-benchmark cap on measured calls.")
  in
  Cmd.v
    (Cmd.info "tables" ~doc:"Reproduce the paper's tables and figure")
    Term.(
      const (fun () a b c d e f g h -> run a b c d e f g h)
      $ logs_term $ quick $ out_dir $ max_calls $ image_term "partitioned"
      $ cluster_bound_term $ jobs_term $ budget_spec_term $ trace_term)

(* ----- bench: capture suite + machine-readable baseline ----- *)

let bench_cmd =
  let run quick max_calls image cluster_bound jobs budget fail_fast
      serve_clients serve_requests out trace =
    let benches =
      if quick then Circuits.Registry.quick else Circuits.Registry.all
    in
    let image_strategy = resolve_image_strategy image in
    let node_budget, step_budget, time_budget = budget in
    let config =
      Harness.Capture.(
        default_config |> with_max_calls max_calls
        |> with_image_strategy image_strategy
        |> with_cluster_bound cluster_bound
        |> with_jobs jobs |> with_node_budget node_budget
        |> with_step_budget step_budget |> with_time_budget time_budget
        |> with_fail_fast fail_fast)
    in
    Printf.eprintf "capturing %d machines (<=%d calls each, %d job%s)\n%!"
      (List.length benches) max_calls jobs (if jobs = 1 then "" else "s");
    let suite, dt =
      with_trace trace @@ fun () ->
      Obs.Clock.timed @@ fun () ->
      Harness.Capture.run_suite_stats ~config
        ~progress:(fun m -> Printf.eprintf "%s\n%!" m)
        benches
    in
    let calls = suite.Harness.Capture.suite_calls in
    let serve, phases =
      if serve_requests <= 0 then (None, [ ("capture", dt) ])
      else begin
        Printf.eprintf "serve phase: %d requests over %d clients\n%!"
          serve_requests serve_clients;
        let stats, serve_dt =
          Obs.Clock.timed @@ fun () ->
          Serve.Loadgen.run ~clients:serve_clients ~requests:serve_requests
            ~explain:true ()
        in
        (Some stats, [ ("capture", dt); ("serve", serve_dt) ])
      end
    in
    Harness.Bench_json.write ?serve ~path:out ~jobs ~quick ~max_calls
      ~image:(Fsm.Image.strategy_name image_strategy)
      ~limits:config.Harness.Capture.limits
      ~benches:(List.length benches) ~capture_seconds:dt ~phases
      ~names:(Harness.Capture.minimizer_names config)
      ~engine:suite.Harness.Capture.engine
      ~dnf:suite.Harness.Capture.suite_dnf calls;
    Printf.printf "captured %d calls in %.1fs%s\nwrote %s\n"
      (List.length calls) dt
      (match suite.Harness.Capture.suite_dnf with
       | [] -> ""
       | dnf -> Printf.sprintf " (%d machines DNF)" (List.length dnf))
      out;
    0
  in
  let quick =
    Arg.(value & flag & info [ "quick" ] ~doc:"Use the small sub-suite.")
  in
  let max_calls =
    Arg.(value & opt int 400
         & info [ "max-calls" ] ~docv:"N"
             ~doc:"Per-benchmark cap on measured calls.")
  in
  let fail_fast =
    Arg.(value & flag
         & info [ "fail-fast" ]
             ~doc:"Cancel the remaining machines after the first budget \
                   exhaustion anywhere in the suite.")
  in
  let serve_clients =
    Arg.(value & opt int 4
         & info [ "serve-clients" ] ~docv:"N"
             ~doc:"Concurrent clients for the serve phase (default 4).")
  in
  let serve_requests =
    Arg.(value & opt int 150
         & info [ "serve-requests" ] ~docv:"N"
             ~doc:"Requests for the serve throughput phase (default \
                   150; 0 disables the phase and writes a null serve \
                   section).")
  in
  let out =
    Arg.(value & opt string "BENCH_engine.json"
         & info [ "o"; "out" ] ~docv:"FILE"
             ~doc:"Where to write the JSON baseline.")
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:"Run the capture suite and write the BENCH_engine.json baseline"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Runs the paper's capture experiment over the benchmark \
              machines (optionally on several worker domains; the \
              result data is byte-identical at any $(b,-j)) and writes \
              a machine-readable JSON record: schema \
              $(b,bddmin-bench-engine/11) with per-minimizer size/time \
              totals, capture wall time, the image strategy, the \
              resource limits with any DNF rows they produced, a serve \
              throughput/latency section (see $(b,--serve-requests)), \
              and the summed engine counters of every benchmark \
              manager.  Under \
              $(b,--node-budget), $(b,--step-budget) or \
              $(b,--time-budget) the run still exits 0: exhausted \
              minimizer runs and machines degrade to DNF rows instead \
              of aborting the suite.";
         ])
    Term.(
      const (fun () a b c d e f g h i j k -> run a b c d e f g h i j k)
      $ logs_term $ quick $ max_calls $ image_term "partitioned"
      $ cluster_bound_term $ jobs_term $ budget_spec_term $ fail_fast $ serve_clients $ serve_requests $ out $ trace_term)

(* ----- profile ----- *)

let profile_cmd =
  let run spec max_calls self_product =
    match load_bench spec with
    | Error e ->
      Printf.eprintf "error: %s\n" e;
      1
    | Ok b ->
      (* Capture into a memory ring sized for a full bench run, then fold
         the span stream into a self/total-time table. *)
      let sink = Obs.Trace.memory ~capacity:2_000_000 () in
      Obs.Probe.reset ();
      let config =
        Harness.Capture.(
          default_config |> with_max_calls max_calls
          |> with_self_product self_product)
      in
      let calls =
        Obs.Trace.with_sink sink @@ fun () ->
        Harness.Capture.run_bench ~config b
      in
      Printf.printf "%s: %d measured minimization calls (max %d)\n\n"
        b.Circuits.Registry.name (List.length calls) max_calls;
      Format.printf "%a@." Obs.Report.pp
        (Obs.Report.of_events (Obs.Trace.events sink));
      Printf.printf
        "trace drops: %d from this ring%s, %d process-wide\n"
        (Obs.Trace.dropped sink)
        (if Obs.Trace.dropped sink > 0 then
           " (earliest spans are partial)"
         else "")
        (Obs.Trace.total_dropped ());
      Format.printf "@.%a" Obs.Probe.pp ();
      0
  in
  let spec =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"MACHINE" ~doc:"Benchmark name or BLIF file.")
  in
  let max_calls =
    Arg.(value & opt int 50
         & info [ "max-calls" ] ~docv:"N"
             ~doc:"Per-benchmark cap on measured calls.")
  in
  let self_product =
    Arg.(value & opt bool true
         & info [ "self-product" ] ~docv:"BOOL"
             ~doc:"Profile the product-machine self-equivalence run \
                   (default); $(b,false) profiles plain reachability.")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Per-phase self/total-time profile of a capture run"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Runs the capture harness over one machine with an in-memory \
              trace sink and prints where the time went, per span name \
              (schedule windows, sibling and level passes, reachability \
              iterations, each registry minimizer), followed by the \
              engine probes (counters and histograms).";
         ])
    Term.(
      const (fun () a b c -> run a b c)
      $ logs_term $ spec $ max_calls $ self_product)

(* ----- optimize: the paper's second application as a flow ----- *)

let optimize_cmd =
  let run spec heuristic out =
    match load_netlist spec with
    | Error e ->
      Printf.eprintf "error: %s\n" e;
      1
    | Ok nl ->
      let minimize =
        match heuristic with
        | "clamped-osm_bt" -> None
        | name ->
          let e = find_entry name in
          Some
            (fun man s ->
               Minimize.Registry.run e (Minimize.Ctx.of_man man) s)
      in
      let man = Bdd.create () in
      let nl2, reached = Fsm.Synth.resynthesize ?minimize man nl in
      let shared nl =
        let m = Bdd.create () in
        Fsm.Symbolic.shared_node_count (Fsm.Symbolic.of_netlist m nl)
      in
      Printf.printf "%s\n%s\n" (Fsm.Netlist.stats nl) (Fsm.Netlist.stats nl2);
      Printf.printf
        "reachable states: %.0f   symbolic size: %d -> %d nodes\n"
        (Bdd.sat_count man reached
           ~nvars:(List.length (Fsm.Netlist.latches nl)))
        (shared nl) (shared nl2);
      (match out with
       | Some path ->
         Fsm.Blif.write_file path nl2;
         Printf.printf "wrote %s\n" path
       | None -> ());
      0
  in
  let spec =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"MACHINE" ~doc:"Benchmark name or BLIF file.")
  in
  let heuristic =
    Arg.(value & opt string "clamped-osm_bt"
         & info [ "heuristic"; "H" ] ~docv:"NAME"
             ~doc:"Minimizer for the transition logic (default: size-clamped osm_bt).")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "o" ] ~docv:"FILE" ~doc:"Write the optimized machine as BLIF.")
  in
  Cmd.v
    (Cmd.info "optimize"
       ~doc:"Minimize a machine's logic against its unreachable states and resynthesize")
    Term.(const run $ spec $ heuristic $ out)

(* ----- pla: espresso-lite two-level minimization ----- *)

let pla_cmd =
  let run path out =
    match Logic.Pla.parse_file path with
    | Error e ->
      Printf.eprintf "error: %s\n" e;
      1
    | exception Sys_error e ->
      Printf.eprintf "error: %s\n" e;
      1
    | Ok pla ->
      let man = Bdd.create () in
      let fns = Logic.Pla.functions man pla in
      Printf.printf "%d inputs, %d outputs, %d rows (type %s)\n"
        pla.Logic.Pla.num_inputs pla.Logic.Pla.num_outputs
        (List.length pla.Logic.Pla.rows)
        pla.Logic.Pla.typ;
      let covers =
        List.map
          (fun (name, (f, c)) ->
             let inst = Minimize.Ispec.make ~f ~c in
             let isop = Minimize.Isop.compute man inst in
             let _, best =
               Minimize.Registry.best (Minimize.Ctx.of_man man)
                 Minimize.Registry.all inst
             in
             Printf.printf
               "%-8s |f| = %-4d best BDD cover = %-4d isop: %d cubes, %d literals\n"
               name (Bdd.size man f) (Bdd.size man best)
               (List.length isop.Minimize.Isop.cubes)
               (Minimize.Isop.literal_count isop);
             (name, isop.Minimize.Isop.cubes))
          fns
      in
      (match out with
       | Some path' ->
         let minimized =
           Logic.Pla.of_covers ~num_inputs:pla.Logic.Pla.num_inputs
             ~input_labels:pla.Logic.Pla.input_labels covers
         in
         let oc = open_out path' in
         output_string oc (Logic.Pla.print minimized);
         close_out oc;
         Printf.printf "wrote %s (%d rows)\n" path'
           (List.fold_left (fun acc (_, c) -> acc + List.length c) 0 covers)
       | None -> ());
      0
  in
  let path =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"FILE" ~doc:"PLA file (espresso format).")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "o" ] ~docv:"FILE"
             ~doc:"Write the don't-care-minimized ISOP covers as a PLA.")
  in
  Cmd.v
    (Cmd.info "pla"
       ~doc:"Minimize the incompletely specified outputs of a PLA")
    Term.(const run $ path $ out)

(* ----- bench list ----- *)

let benches_cmd =
  let run () =
    List.iter
      (fun (b : Circuits.Registry.bench) ->
         Printf.printf "%-10s %-28s %s\n" b.name b.paper_analog b.description)
      Circuits.Registry.all;
    0
  in
  Cmd.v
    (Cmd.info "benches" ~doc:"List the benchmark machines and their paper analogues")
    Term.(const run $ const ())

(* ----- dot ----- *)

let dot_cmd =
  let run fexpr cexpr out =
    match parse_pair fexpr (Option.value cexpr ~default:"1") with
    | Error e ->
      Printf.eprintf "error: %s\n" e;
      1
    | Ok (_, mapping, inst) ->
      let var_name v =
        match List.find_opt (fun (_, i) -> i = v) mapping with
        | Some (n, _) -> n
        | None -> Printf.sprintf "x%d" v
      in
      let roots =
        if cexpr = None then [ ("f", inst.Minimize.Ispec.f) ]
        else
          [ ("f", inst.Minimize.Ispec.f); ("c", inst.Minimize.Ispec.c) ]
      in
      let text = Bdd.Dot.to_dot ~var_name roots in
      (match out with
       | Some path ->
         let oc = open_out path in
         output_string oc text;
         close_out oc
       | None -> print_string text);
      0
  in
  let fexpr =
    Arg.(required & opt (some string) None & info [ "f" ] ~docv:"EXPR" ~doc:"Function.")
  in
  let cexpr =
    Arg.(value & opt (some string) None & info [ "c" ] ~docv:"EXPR" ~doc:"Optional care set.")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "o" ] ~docv:"FILE" ~doc:"Output path (default stdout).")
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"Export BDDs as Graphviz")
    Term.(const run $ fexpr $ cexpr $ out)

(* ----- serve: the request-scheduling daemon ----- *)

let connect_doc =
  "Server address: $(b,HOST:PORT) for TCP or a unix-socket path."

let connect_opt_term =
  Arg.(value & opt (some string) None
       & info [ "connect" ] ~docv:"ADDR" ~doc:connect_doc)

let connect_req_term =
  Arg.(required & opt (some string) None
       & info [ "connect" ] ~docv:"ADDR" ~doc:connect_doc)

(* --metrics-addr accepts a bare port, HOST:PORT (the host is ignored —
   the listener binds loopback, like the wire port), or a unix-socket
   path. *)
let parse_metrics_addr s =
  match int_of_string_opt s with
  | Some port -> Serve.Server.Tcp port
  | None -> begin
      match String.rindex_opt s ':' with
      | Some i -> begin
          match
            int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1))
          with
          | Some port -> Serve.Server.Tcp port
          | None -> Serve.Server.Unix_path s
        end
      | None -> Serve.Server.Unix_path s
    end

let serve_cmd =
  let run port unix_path workers metrics_addr flight_capacity flight_dump
      queue_cap max_sessions cache_capacity trace =
    let listen =
      match unix_path with
      | Some path -> Serve.Server.Unix_path path
      | None -> Serve.Server.Tcp port
    in
    let workers =
      match workers with
      | Some w -> w
      | None -> max 2 (Exec.recommended_jobs () - 1)
    in
    let metrics = Option.map parse_metrics_addr metrics_addr in
    with_trace trace @@ fun () ->
    let trace_sink =
      match Obs.Trace.sink () with
      | s when s == Obs.Trace.null -> None
      | s -> Some s
    in
    match
      Serve.Server.start ~workers ?trace:trace_sink ?metrics ~flight_capacity
        ~flight_dump ~queue_cap ~max_sessions ~cache_capacity listen
    with
    | exception Unix.Unix_error (e, _, _) ->
      Printf.eprintf "error: cannot listen on %s: %s\n"
        (match listen with
         | Serve.Server.Tcp p -> Printf.sprintf "127.0.0.1:%d" p
         | Serve.Server.Unix_path p -> p)
        (Unix.error_message e);
      1
    | srv ->
      Printf.printf "bddmin serve: listening on %s (%d workers)%s\n%!"
        (Serve.Server.address srv) workers
        (match Serve.Server.metrics_address srv with
         | Some a -> Printf.sprintf ", metrics on http://%s/metrics" a
         | None -> "");
      let stop_requested = Atomic.make false in
      let dump_requested = Atomic.make false in
      let on_signal _ = Atomic.set stop_requested true in
      List.iter
        (fun s ->
           try Sys.set_signal s (Sys.Signal_handle on_signal)
           with Invalid_argument _ | Sys_error _ -> ())
        [ Sys.sigint; Sys.sigterm ];
      (* SIGUSR1: dump the flight recorder.  The handler only flips a
         flag; the poll loop below does the file I/O, since signal
         handlers must stay async-safe. *)
      (try
         Sys.set_signal Sys.sigusr1
           (Sys.Signal_handle (fun _ -> Atomic.set dump_requested true))
       with Invalid_argument _ | Sys_error _ -> ());
      (* poll so signal handlers get to run; the shutdown op flips the
         server's own flag *)
      while not (Atomic.get stop_requested) && not (Serve.Server.stopping srv)
      do
        (try Unix.sleepf 0.2 with Unix.Unix_error (Unix.EINTR, _, _) -> ());
        if Atomic.exchange dump_requested false then
          match Serve.Server.dump_flight srv with
          | Some path ->
            Printf.eprintf "bddmin serve: flight recorder dumped to %s\n%!"
              path
          | None ->
            Printf.eprintf "bddmin serve: flight dump failed\n%!"
      done;
      Serve.Server.request_stop srv;
      Serve.Server.wait srv;
      Printf.printf "bddmin serve: stopped\n%!";
      0
  in
  let port =
    Arg.(value & opt int 4224
         & info [ "port" ] ~docv:"PORT"
             ~doc:"TCP port on 127.0.0.1 (default 4224; 0 picks a free \
                   one).  Ignored when $(b,--unix) is given.")
  in
  let unix_path =
    Arg.(value & opt (some string) None
         & info [ "unix" ] ~docv:"PATH"
             ~doc:"Listen on a unix-domain socket at $(docv) instead of \
                   TCP.")
  in
  let workers =
    Arg.(value & opt (some int) None
         & info [ "workers" ] ~docv:"N"
             ~doc:"Compute worker domains (default: cores - 1, at least \
                   2).  Each request runs on a private BDD manager under \
                   its own budget.")
  in
  let metrics_addr =
    Arg.(value & opt (some string) None
         & info [ "metrics-addr" ] ~docv:"ADDR"
             ~doc:"Also serve the Prometheus text exposition over HTTP \
                   at $(docv) (a port, $(b,HOST:PORT), or a unix-socket \
                   path); scrape $(b,/metrics).")
  in
  let flight_capacity =
    Arg.(value & opt int 256
         & info [ "flight-capacity" ] ~docv:"N"
             ~doc:"Keep the last $(docv) request records in the flight \
                   recorder ring (default 256).")
  in
  let flight_dump =
    Arg.(value & opt string "bddmin-flight.json"
         & info [ "flight-dump" ] ~docv:"FILE"
             ~doc:"Where the flight recorder is dumped — on request \
                   errors, on SIGUSR1, and for $(b,serve-ctl dump) \
                   (default $(b,bddmin-flight.json)).")
  in
  let queue_cap =
    Arg.(value & opt int 512
         & info [ "queue-cap" ] ~docv:"N"
             ~doc:"Bound on admitted-but-unfinished compute requests \
                   (default 512; 0 = unbounded).  Past it the daemon \
                   answers $(b,busy) with a $(b,retry_after_ms) hint \
                   instead of queueing.")
  in
  let max_sessions =
    Arg.(value & opt int 64
         & info [ "max-sessions" ] ~docv:"N"
             ~doc:"Live warm-manager sessions kept across all \
                   connections (default 64); opening past it evicts \
                   the least recently used.")
  in
  let cache_capacity =
    Arg.(value & opt int 1024
         & info [ "cache-capacity" ] ~docv:"N"
             ~doc:"Entries in the canonical result cache (default \
                   1024; 0 disables caching).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the minimization daemon"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Accepts minimize / reach / equiv / ping / metrics / dump / \
              shutdown requests as length-prefixed JSON frames (4-byte \
              big-endian length, then the JSON document; see \
              docs/TUTORIAL.md §11 for the message schema).  Each \
              request is scheduled onto a pool of worker domains with a \
              per-request budget; deadlines are fixed at arrival, so \
              time spent queued counts and expired requests return a \
              structured $(b,dnf) reply with reason $(b,time) without \
              disturbing other in-flight work.  SIGINT/SIGTERM (or a \
              client $(b,shutdown) request) stop the daemon: queued \
              jobs are aborted with $(b,dnf cancelled) replies, running \
              jobs drain.";
           `P
             "Telemetry: $(b,--metrics-addr) exposes the typed metrics \
              registry in Prometheus text format; SIGUSR1 dumps the \
              flight recorder (the last $(b,--flight-capacity) request \
              records) to $(b,--flight-dump); requests carrying \
              $(b,\\\"explain\\\": true) receive per-request phase \
              timings, budget consumption and engine stats deltas on \
              the reply; $(b,--trace FILE) streams per-request spans as \
              Chrome trace-event JSON (see docs/TUTORIAL.md §12).";
           `P
             "Throughput: requests are dispatched earliest-deadline-\
              first with per-connection fairness; admitted work is \
              bounded by $(b,--queue-cap) (overload answers $(b,busy) \
              with a $(b,retry_after_ms) hint); repeated payloads hit \
              a canonical result cache ($(b,--cache-capacity)) with \
              in-flight duplicates collapsed onto one execution; every \
              other sessionless request runs on a manager of its own; \
              and $(b,session_open) pins a warm manager for a client \
              ($(b,--max-sessions)).  See docs/TUTORIAL.md §13.";
         ])
    Term.(const (fun () a b c d e f g h i j -> run a b c d e f g h i j)
          $ logs_term $ port $ unix_path $ workers $ metrics_addr
          $ flight_capacity $ flight_dump $ queue_cap $ max_sessions
          $ cache_capacity $ trace_term)

let serve_bench_cmd =
  let run connect clients requests workers heuristic seed max_steps
      timeout_ms explain sessions duplicate_rate =
    let connect = Option.map Serve.Client.parse_addr connect in
    match
      Serve.Loadgen.run ~clients ~requests ?connect ?workers ~heuristic ~seed
        ?max_steps ?timeout_ms ~explain ~sessions ~duplicate_rate ()
    with
    | exception Unix.Unix_error (e, _, _) ->
      Printf.eprintf "error: %s\n" (Unix.error_message e);
      1
    | stats ->
      Format.printf "%a@." Serve.Loadgen.pp stats;
      if stats.Serve.Loadgen.errors > 0 then 1 else 0
  in
  let clients =
    Arg.(value & opt int 4
         & info [ "clients" ] ~docv:"N"
             ~doc:"Concurrent client connections (default 4).")
  in
  let requests =
    Arg.(value & opt int 200
         & info [ "requests" ] ~docv:"N"
             ~doc:"Total minimize requests across all clients (default \
                   200).")
  in
  let workers =
    Arg.(value & opt (some int) None
         & info [ "workers" ] ~docv:"N"
             ~doc:"Worker domains for the in-process server (ignored \
                   with $(b,--connect)).")
  in
  let heuristic =
    Arg.(value & opt string "sched"
         & info [ "heuristic" ] ~docv:"NAME"
             ~doc:"Registry heuristic each request asks for (default \
                   $(b,sched)).")
  in
  let seed =
    Arg.(value & opt int 1
         & info [ "seed" ] ~docv:"N"
             ~doc:"Payload generator seed (default 1).")
  in
  let max_steps =
    Arg.(value & opt (some int) None
         & info [ "max-steps" ] ~docv:"N"
             ~doc:"Per-request recursion-step budget (requests past it \
                   return $(b,dnf) replies).")
  in
  let timeout_ms =
    Arg.(value & opt (some int) None
         & info [ "timeout-ms" ] ~docv:"MS"
             ~doc:"Per-request deadline in milliseconds, fixed at \
                   arrival ($(b,0) = already expired: every request \
                   returns $(b,dnf) with reason $(b,time)).")
  in
  let explain =
    Arg.(value & flag
         & info [ "explain" ]
             ~doc:"Ask the server to attach per-request telemetry to \
                   every reply and report the mean server-side \
                   queue/exec/write phase timings.")
  in
  let sessions =
    Arg.(value & flag
         & info [ "sessions" ]
             ~doc:"Each client opens a warm-manager session once and \
                   runs every minimize against it, measuring the \
                   re-intern-free path.")
  in
  let duplicate_rate =
    Arg.(value & opt float 0.0
         & info [ "duplicate-rate" ] ~docv:"FRACTION"
             ~doc:"Replay one designated payload for this fraction of \
                   requests (default 0), exercising the result cache \
                   and single-flight collapse.")
  in
  Cmd.v
    (Cmd.info "serve-bench"
       ~doc:"Measure serve throughput and tail latency"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Drives deterministic minimize requests at a serve daemon \
              from concurrent clients and reports requests/sec, \
              p50/p95/p99 latency, and per-status reply counts (ok / \
              dnf / partial / error as separate columns).  Without \
              $(b,--connect) an in-process server on a throwaway unix \
              socket is measured (the same load generator backs the \
              $(b,serve) phase of $(b,bddmin bench)).  $(b,--sessions) \
              and $(b,--duplicate-rate) aim the same deterministic \
              traffic at the daemon's warm-session and result-cache \
              fast paths; the report then includes the server's own \
              cache / session / busy counters scraped at the \
              end of the run.";
         ])
    Term.(const (fun () a b c d e f g h i j k -> run a b c d e f g h i j k)
          $ logs_term $ connect_opt_term $ clients $ requests
          $ workers $ heuristic $ seed $ max_steps $ timeout_ms $ explain
          $ sessions $ duplicate_rate)

(* ----- serve-ctl watch: a refreshing terminal view of the registry ----- *)

let json_series f =
  match Serve.Json.mem "series" f with
  | Some (Serve.Json.Arr xs) -> xs
  | _ -> []

let json_label_suffix s =
  match Serve.Json.mem "labels" s with
  | Some (Serve.Json.Obj []) | None -> ""
  | Some (Serve.Json.Obj kvs) ->
    "{"
    ^ String.concat ","
        (List.map
           (fun (k, v) ->
              Printf.sprintf "%s=%s" k
                (Option.value ~default:"?" (Serve.Json.to_string v)))
           kvs)
    ^ "}"
  | Some _ -> ""

let json_buckets s =
  match Serve.Json.mem "buckets" s with
  | Some (Serve.Json.Arr xs) ->
    Array.of_list (List.filter_map Serve.Json.to_int xs)
  | _ -> [||]

(* The smallest log2-bucket upper bound below which at least a [q]
   fraction of observations fall — the same le scheme the exposition
   uses (bucket i <= 2^(i+1)-1, last bucket +Inf). *)
let approx_quantile buckets count q =
  if count = 0 then "-"
  else begin
    let target =
      max 1 (int_of_float (ceil (q *. float_of_int count)))
    in
    let cum = ref 0 and result = ref "+Inf" and found = ref false in
    Array.iteri
      (fun i c ->
         cum := !cum + c;
         if (not !found) && !cum >= target then begin
           found := true;
           if i < Array.length buckets - 1 then
             result := string_of_int ((1 lsl (i + 1)) - 1)
         end)
      buckets;
    !result
  end

let watch_render result =
  let fams =
    match Serve.Json.mem "families" result with
    | Some (Serve.Json.Arr fs) -> fs
    | _ -> []
  in
  let fname f = Option.value ~default:"?" (Serve.Json.string_field "name" f) in
  Printf.printf "bddmin serve  uptime %.0f s  in_flight %d  queue %d  connections %d\n\n"
    (Option.value ~default:0.0 (Serve.Json.float_field "uptime_s" result))
    (Option.value ~default:0 (Serve.Json.int_field "in_flight" result))
    (Option.value ~default:0 (Serve.Json.int_field "queue_depth" result))
    (Option.value ~default:0 (Serve.Json.int_field "connections" result));
  Printf.printf "%-48s %12s\n" "gauge" "value";
  List.iter
    (fun f ->
       if Serve.Json.string_field "kind" f = Some "gauge" then
         List.iter
           (fun s ->
              match Serve.Json.int_field "value" s with
              | Some v ->
                Printf.printf "%-48s %12d\n" (fname f ^ json_label_suffix s) v
              | None -> ())
           (json_series f))
    fams;
  Printf.printf "\n%-48s %8s %10s %8s %8s\n" "histogram" "count" "mean"
    "~p50" "~p95";
  List.iter
    (fun f ->
       if Serve.Json.string_field "kind" f = Some "histogram" then
         List.iter
           (fun s ->
              let count =
                Option.value ~default:0 (Serve.Json.int_field "count" s)
              in
              let sum =
                Option.value ~default:0 (Serve.Json.int_field "sum" s)
              in
              let buckets = json_buckets s in
              Printf.printf "%-48s %8d %10.0f %8s %8s\n"
                (fname f ^ json_label_suffix s)
                count
                (if count = 0 then 0.0
                 else float_of_int sum /. float_of_int count)
                (approx_quantile buckets count 0.50)
                (approx_quantile buckets count 0.95))
           (json_series f))
    fams

let serve_ctl_cmd =
  let print_ok_or_fail reply =
    match reply with
    | Ok { Serve.Protocol.status = "ok"; result; _ } ->
      print_endline (Serve.Json.print result);
      0
    | Ok r ->
      Printf.eprintf "error: status %s%s\n" r.Serve.Protocol.status
        (match r.Serve.Protocol.message with
         | Some m -> ": " ^ m
         | None -> "");
      1
    | Error msg ->
      Printf.eprintf "error: %s\n" msg;
      1
  in
  (* Watch owns its connection: one connection is reused across
     refreshes, and a transport error (daemon restart, ECONNRESET, a
     torn frame) drops it and reconnects with exponential backoff
     instead of exiting.  A failed refresh does not consume a --count
     tick; with --count set we give up after enough consecutive
     failures so scripted runs cannot hang forever. *)
  let watch_loop ~connect ~interval ~count =
    let addr = Serve.Client.parse_addr connect in
    let conn = ref None in
    let backoff = ref 0.5 in
    let sleep s =
      try Unix.sleepf s with Unix.Unix_error (Unix.EINTR, _, _) -> ()
    in
    let drop () =
      (match !conn with Some c -> Serve.Client.close c | None -> ());
      conn := None
    in
    let rec go i failures =
      if count > 0 && failures >= 10 then begin
        Printf.eprintf
          "error: gave up on %s after %d consecutive failures\n" connect
          failures;
        1
      end
      else begin
        let retry msg =
          Printf.eprintf
            "bddmin serve-ctl: %s; retrying %s in %.1fs\n%!" msg connect
            !backoff;
          drop ();
          sleep !backoff;
          backoff := Float.min 8.0 (!backoff *. 2.0);
          go i (failures + 1)
        in
        match
          match !conn with
          | Some c -> Ok c
          | None ->
            (match Serve.Client.connect addr with
             | c -> conn := Some c; Ok c
             | exception Unix.Unix_error (e, _, _) ->
               Error (Unix.error_message e))
        with
        | Error msg -> retry ("cannot connect: " ^ msg)
        | Ok c ->
          (match Serve.Client.metrics c with
           | Ok { Serve.Protocol.status = "ok"; result; _ } ->
             backoff := 0.5;
             (* clear screen + home, then redraw *)
             print_string "\027[2J\027[H";
             watch_render result;
             flush stdout;
             if count > 0 && i + 1 >= count then 0
             else begin
               sleep interval;
               go (i + 1) 0
             end
           | Ok r ->
             (* the daemon answered — a bad status is not a transport
                failure, report it and stop *)
             Printf.eprintf "error: status %s\n" r.Serve.Protocol.status;
             1
           | Error msg -> retry ("connection lost (" ^ msg ^ ")"))
      end
    in
    Fun.protect ~finally:drop @@ fun () -> go 0 0
  in
  let run action connect interval count =
    match action with
    | `Watch -> watch_loop ~connect ~interval ~count
    | (`Ping | `Metrics | `Dump | `Shutdown) as action ->
      (match Serve.Client.connect (Serve.Client.parse_addr connect) with
       | exception Unix.Unix_error (e, _, _) ->
         Printf.eprintf "error: cannot connect to %s: %s\n" connect
           (Unix.error_message e);
         1
       | c ->
         Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
         (match action with
          | `Ping -> print_ok_or_fail (Serve.Client.ping c)
          | `Metrics -> print_ok_or_fail (Serve.Client.metrics c)
          | `Dump -> print_ok_or_fail (Serve.Client.dump c)
          | `Shutdown -> print_ok_or_fail (Serve.Client.shutdown c)))
  in
  let action =
    let actions =
      [ ("ping", `Ping); ("metrics", `Metrics); ("dump", `Dump);
        ("watch", `Watch); ("shutdown", `Shutdown) ]
    in
    Arg.(required & pos 0 (some (enum actions)) None
         & info [] ~docv:"ACTION"
             ~doc:"$(b,ping), $(b,metrics), $(b,dump) (print the \
                   server's flight recorder as JSON), $(b,watch) \
                   (refreshing terminal view of gauges and latency \
                   histograms) or $(b,shutdown).")
  in
  let interval =
    Arg.(value & opt float 2.0
         & info [ "interval" ] ~docv:"SECONDS"
             ~doc:"Refresh period for $(b,watch) (default 2).")
  in
  let count =
    Arg.(value & opt int 0
         & info [ "count" ] ~docv:"N"
             ~doc:"Stop $(b,watch) after $(docv) refreshes (default: \
                   run until interrupted).")
  in
  Cmd.v
    (Cmd.info "serve-ctl"
       ~doc:"Ping, inspect, dump or watch a running serve daemon")
    Term.(const (fun () a b c d -> run a b c d)
          $ logs_term $ action $ connect_req_term $ interval $ count)

let main =
  Cmd.group
    (Cmd.info "bddmin" ~version:"1.0.0"
       ~doc:"Heuristic minimization of BDDs using don't cares (DAC'94)")
    [ minimize_cmd; lower_bound_cmd; equiv_cmd; reach_cmd; stats_cmd;
      tables_cmd; bench_cmd; profile_cmd; optimize_cmd; pla_cmd; benches_cmd;
      dot_cmd; serve_cmd; serve_bench_cmd; serve_ctl_cmd ]

let () = exit (Cmd.eval' main)
