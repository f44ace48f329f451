(* Resource governance: Budget semantics, abort consistency, graceful
   degradation in the schedule/registry/reachability/capture layers. *)

module Tt = Logic.Truth_table
module I = Minimize.Ispec
module R = Minimize.Registry
module B = Bdd.Budget

(* A 5-variable instance that forces plenty of kernel recursion: parity
   onset against a non-cube care set. *)
let deep_instance man =
  let v = Bdd.ithvar man in
  let f =
    List.fold_left (fun acc i -> Bdd.dxor man acc (v i)) (v 0) [ 1; 2; 3; 4 ]
  in
  let c =
    Bdd.dor man
      (Bdd.dand man (v 0) (v 2))
      (Bdd.dor man (Bdd.dand man (v 1) (v 3)) (Bdd.dand man (v 2) (v 4)))
  in
  I.make ~f ~c

(* ----- Budget unit semantics ----- *)

let budget_basics () =
  let b = B.create ~max_steps:1000 () in
  Util.checki "fresh budget has no steps" 0 (B.steps b);
  Util.checkb "fresh budget not exhausted" (B.exhausted b = None);
  Util.checkb "create rejects non-positive nodes"
    (try ignore (B.create ~max_nodes:0 ()); false
     with Invalid_argument _ -> true);
  Util.checkb "create rejects non-positive steps"
    (try ignore (B.create ~max_steps:(-1) ()); false
     with Invalid_argument _ -> true);
  Util.checkb "create rejects negative timeout"
    (try ignore (B.create ~timeout_s:(-1.0) ()); false
     with Invalid_argument _ -> true);
  List.iter
    (fun (r, label) -> Util.check Alcotest.string "label" label (B.reason_label r))
    [
      (B.Nodes { limit = 1; live = 2 }, "nodes");
      (B.Steps { limit = 1 }, "steps");
      (B.Time { seconds = 1.0 }, "time");
      (B.Cancelled, "cancelled");
    ]

let step_budget_trips () =
  let man = Bdd.create () in
  let s = deep_instance man in
  let b = B.create ~max_steps:2 () in
  (match Bdd.with_budget man b (fun () -> Bdd.constrain man s.I.f s.I.c) with
   | _ -> Alcotest.fail "expected Budget_exhausted"
   | exception Bdd.Budget_exhausted (B.Steps { limit }) ->
     Util.checki "reason carries the limit" 2 limit);
  Util.checkb "budget is sticky-exhausted"
    (match B.exhausted b with Some (B.Steps _) -> true | _ -> false);
  Util.checkb "steps were counted" (B.steps b > 2);
  Util.checkb "with_budget uninstalled the budget on the way out"
    (Bdd.current_budget man = None)

let cancellation_trips () =
  let man = Bdd.create () in
  let s = deep_instance man in
  let t = Exec.Cancel.create () in
  Exec.Cancel.cancel t;
  let b = B.create ~cancelled:(fun () -> Exec.Cancel.cancelled t) () in
  Util.checkb "cancelled token aborts the first polled step"
    (match Bdd.with_budget man b (fun () -> Bdd.dand man s.I.f s.I.c) with
     | _ -> false
     | exception Bdd.Budget_exhausted B.Cancelled -> true)

let time_budget_trips () =
  let man = Bdd.create () in
  let s = deep_instance man in
  (* An already-expired deadline: the first polled step trips it. *)
  let b = B.create ~timeout_s:1e-9 () in
  Util.checkb "expired deadline aborts"
    (match Bdd.with_budget man b (fun () -> Bdd.dand man s.I.f s.I.c) with
     | _ -> false
     | exception Bdd.Budget_exhausted (B.Time _) -> true)

let deadline_checked_at_entry () =
  (* The entry-point poll: an expired deadline aborts the very next
     public operation even when that operation would do no cache-missing
     recursion at all (terminal rule or warm cache), which is what keeps
     a server's deadline latency bounded by one operation. *)
  let man = Bdd.create () in
  let x = Bdd.ithvar man 0 and y = Bdd.ithvar man 1 in
  let b = B.create ~timeout_s:0.005 () in
  Bdd.with_budget man b (fun () ->
      ignore (Bdd.and_ man x y) (* warm the cache while within budget *);
      let t0 = Obs.Clock.now_ns () in
      while Int64.to_float (Int64.sub (Obs.Clock.now_ns ()) t0) < 7e6 do
        ()
      done;
      (* fully-cached repeat: no recursion step will ever poll *)
      (match Bdd.and_ man x y with
       | _ -> Alcotest.fail "cached op must trip the entry deadline poll"
       | exception Bdd.Budget_exhausted (B.Time _) -> ());
      (* terminal-rule op: likewise no recursion *)
      match Bdd.and_ man x x with
      | _ -> Alcotest.fail "terminal op must trip the entry deadline poll"
      | exception Bdd.Budget_exhausted (B.Time _) -> ())

let cancel_checked_at_entry () =
  let man = Bdd.create () in
  let x = Bdd.ithvar man 0 in
  let flag = ref false in
  let b = B.create ~cancelled:(fun () -> !flag) () in
  Bdd.with_budget man b (fun () ->
      ignore (Bdd.or_ man x x);
      flag := true;
      match Bdd.or_ man x x with
      | _ -> Alcotest.fail "cancellation must trip at operation entry"
      | exception Bdd.Budget_exhausted B.Cancelled -> ())

let node_budget_trips () =
  let man = Bdd.create () in
  let s = deep_instance man in
  (* The instance already interned more nodes than the ceiling, so the
     first budgeted step sees live > limit. *)
  let b = B.create ~max_nodes:2 () in
  Util.checkb "node ceiling aborts"
    (match
       Bdd.with_budget man b (fun () ->
           Bdd.dand man s.I.f (Bdd.compl s.I.c))
     with
     | _ -> false
     | exception Bdd.Budget_exhausted (B.Nodes { limit = 2; live }) ->
       live > 2)

let unlimited_budget_never_trips () =
  let man = Bdd.create () in
  let s = deep_instance man in
  let b = B.create () in
  let g = Bdd.with_budget man b (fun () -> Bdd.constrain man s.I.f s.I.c) in
  Util.checkb "result computed" (Bdd.equal g (Bdd.constrain man s.I.f s.I.c));
  Util.checkb "not exhausted" (B.exhausted b = None)

(* ----- abort consistency: the tentpole's core guarantee -----

   Exhaustion may only surface at clean recursion boundaries, so an
   aborted operation must leave the manager fully consistent: retrying
   without a budget yields the canonical result (bit-identical truth
   table to a fresh manager's), and the unique table survives a GC. *)

let consistency_after_abort =
  Util.qtest ~count:100 "abort -> unbudgeted retry is canonical"
    Util.gen_instance
    (fun (n, fseed, cseed) ->
       let build man =
         let st = Random.State.make [| fseed; cseed; n |] in
         let f = Tt.to_bdd man (Tt.create n (fun _ -> Random.State.bool st)) in
         let c =
           Tt.to_bdd man (Tt.create n (fun _ -> Random.State.int st 4 > 0))
         in
         (* constrain/restrict reject an empty care set *)
         let c = if Bdd.is_zero c then Bdd.one man else c in
         (f, c)
       in
       let man = Bdd.create () in
       let f, c = build man in
       (* Abort a few different kernels mid-recursion. *)
       List.iter
         (fun op ->
            try
              ignore
                (Bdd.with_budget man (B.create ~max_steps:1 ()) (fun () ->
                     op ()))
            with Bdd.Budget_exhausted _ -> ())
         [
           (fun () -> Bdd.constrain man f c);
           (fun () -> Bdd.dand man f c);
           (fun () -> Bdd.dxor man f c);
           (fun () -> Bdd.restrict man f c);
         ];
       (* The unique table passes the audit, and the manager still GCs
          cleanly, after the aborts. *)
       ignore (Bdd.self_check man);
       ignore (Bdd.gc man);
       (* Unbudgeted retries on the aborted manager vs. a fresh manager. *)
       let man2 = Bdd.create () in
       let f2, c2 = build man2 in
       let same op op2 =
         Tt.equal (Tt.of_bdd man ~nvars:n (op f c))
           (Tt.of_bdd man2 ~nvars:n (op2 f2 c2))
       in
       same (Bdd.constrain man) (Bdd.constrain man2)
       && same (Bdd.dand man) (Bdd.dand man2)
       && same (Bdd.dxor man) (Bdd.dxor man2)
       && same (Bdd.restrict man) (Bdd.restrict man2))

(* ----- schedule: anytime behaviour ----- *)

let schedule_best_so_far =
  Util.qtest ~count:100 "budgeted schedule still returns a cover"
    Util.gen_instance
    (fun desc ->
       let s = Util.build_ispec_nonzero desc in
       let nvars = 5 in
       let run budget =
         match budget with
         | None -> Minimize.Schedule.run Util.man s
         | Some b ->
           Bdd.with_budget Util.man b (fun () -> Minimize.Schedule.run Util.man s)
       in
       let unbudgeted = run None in
       (* Even a 1-step budget must produce a cover (the window that
          trips is discarded, keeping the best-so-far spec). *)
       let starved = run (Some (B.create ~max_steps:1 ())) in
       let roomy = run (Some (B.create ~max_steps:10_000_000 ())) in
       Util.tt_is_cover ~nvars s starved
       && Util.tt_is_cover ~nvars s unbudgeted
       && Bdd.equal roomy unbudgeted)

(* ----- registry: run installs the context budget; best skips DNFs ----- *)

let registry_run_installs_budget () =
  let man = Bdd.create () in
  let s = deep_instance man in
  let e = Option.get (R.find "const") in
  let b = B.create ~max_steps:2 () in
  let ctx = Minimize.Ctx.make ~budget:b man in
  Util.checkb "entry aborts under the context budget"
    (match R.run e ctx s with
     | _ -> false
     | exception Bdd.Budget_exhausted (B.Steps _) -> true);
  (* A context without a budget runs to completion on the same manager. *)
  let g = R.run e (Minimize.Ctx.of_man man) s in
  Util.checkb "unbudgeted retry matches constrain"
    (Bdd.equal g (Bdd.constrain man s.I.f s.I.c))

let best_skips_exhausted () =
  let man = Bdd.create () in
  let s = deep_instance man in
  (* f_orig performs no kernel work, so it always completes: best must
     return even under a 1-step budget. *)
  let b = B.create ~max_steps:1 () in
  let ctx = Minimize.Ctx.make ~budget:b man in
  let name, g = R.best ctx R.all s in
  Util.checkb "winner is a completed entry" (R.find name <> None);
  Util.checkb "winner is a cover"
    (let nvars = 5 in
     let tt_f = Tt.of_bdd man ~nvars s.I.f
     and tt_c = Tt.of_bdd man ~nvars s.I.c
     and tt_g = Tt.of_bdd man ~nvars g in
     Tt.leq (Tt.band tt_f tt_c) tt_g
     && Tt.leq tt_g (Tt.bor tt_f (Tt.bnot tt_c)));
  Util.checkb "budget recorded the exhaustion" (B.exhausted b <> None)

let best_raises_when_all_exhaust () =
  let man = Bdd.create () in
  let s = deep_instance man in
  let b = B.create ~max_steps:1 () in
  let ctx = Minimize.Ctx.make ~budget:b man in
  (* Only proper minimizers (every one does kernel work on this
     instance): all exhaust, so the first reason is re-raised. *)
  let entries = [ Option.get (R.find "const"); Option.get (R.find "restr") ] in
  Util.checkb "all-DNF re-raises"
    (match R.best ctx entries s with
     | _ -> false
     | exception Bdd.Budget_exhausted _ -> true)

(* ----- reachability: partial fixpoints and resume ----- *)

let reach_partial_resume () =
  let nl =
    (Option.get (Circuits.Registry.find "gray6")).Circuits.Registry.build ()
  in
  (* Reference traversal on its own manager. *)
  let man_full = Bdd.create () in
  let _, st_full =
    Fsm.Reach.reachable (Fsm.Symbolic.of_netlist man_full nl)
  in
  Util.checkb "unbudgeted run completes"
    (st_full.Fsm.Reach.fixpoint = Fsm.Reach.Complete);
  (* Starve a cold traversal on a fresh manager (ticks fire on cache
     misses, so a warm manager might never trip): it stops somewhere in
     the middle with an explicit frontier. *)
  let man = Bdd.create () in
  let sym = Fsm.Symbolic.of_netlist man nl in
  Bdd.set_budget man (Some (B.create ~max_steps:25 ()));
  let partial, st_partial = Fsm.Reach.reachable sym in
  (match st_partial.Fsm.Reach.fixpoint with
   | Fsm.Reach.Complete -> Alcotest.fail "25 steps should not complete gray6"
   | Fsm.Reach.Partial { frontier; reason } ->
     Util.check Alcotest.string "reason" "steps" (B.reason_label reason);
     Util.checkb "stopped before the fixpoint"
       (st_partial.Fsm.Reach.iterations < st_full.Fsm.Reach.iterations);
     (* The exhausted budget keeps raising on every subsequent tick, so
        it must be cleared before resuming. *)
     Bdd.set_budget man None;
     let resumed, st_resumed =
       Fsm.Reach.reachable ~resume:(partial, frontier) sym
     in
     Util.checkb "resumed run completes"
       (st_resumed.Fsm.Reach.fixpoint = Fsm.Reach.Complete);
     Util.checkb "partial is an under-approximation"
       (Bdd.leq man partial resumed);
     Util.check (Alcotest.float 0.0) "resume reaches the same state count"
       st_full.Fsm.Reach.reached_states st_resumed.Fsm.Reach.reached_states;
     Util.checkb "iterations split across the two segments"
       (st_partial.Fsm.Reach.iterations + st_resumed.Fsm.Reach.iterations
        >= st_full.Fsm.Reach.iterations))

let equiv_refuses_partial_verdict () =
  let man = Bdd.create () in
  let nl =
    (Option.get (Circuits.Registry.find "tlc")).Circuits.Registry.build ()
  in
  Bdd.set_budget man (Some (B.create ~max_steps:10 ()));
  let r =
    match Fsm.Equiv.check_self man nl with
    | _ -> false
    | exception Bdd.Budget_exhausted _ -> true
  in
  Bdd.set_budget man None;
  Util.checkb "no verdict on a partial traversal" r;
  (* Unbudgeted, the same manager still reaches the right verdict. *)
  Util.checkb "clean retry is Equivalent"
    (match Fsm.Equiv.check_self man nl with
     | Fsm.Equiv.Equivalent _ -> true
     | _ -> false)

(* ----- capture: DNF rows instead of aborts ----- *)

let capture_dnf_differential () =
  let bench = Option.get (Circuits.Registry.find "gray6") in
  let base =
    Harness.Capture.(
      default_config |> with_max_calls 12 |> with_lower_bound_cubes 50)
  in
  let free = Harness.Capture.run_bench ~config:base bench in
  (* A 1-step budget starves every minimizer that does kernel work; the
     references (f_orig at least) always complete, so every call is
     still recorded — with DNF entries in place of the starved rows. *)
  let starved_cfg = Harness.Capture.with_step_budget (Some 1) base in
  let starved = Harness.Capture.run_bench ~config:starved_cfg bench in
  Util.checki "same calls captured" (List.length free) (List.length starved);
  Util.checkb "something DNF'd"
    (List.exists
       (fun (c : Harness.Capture.call) -> c.Harness.Capture.dnf <> [])
       starved);
  Util.checkb "nothing DNFs without a budget"
    (List.for_all
       (fun (c : Harness.Capture.call) -> c.Harness.Capture.dnf = [])
       free);
  List.iter2
    (fun (a : Harness.Capture.call) (b : Harness.Capture.call) ->
       Util.check Alcotest.string "bench" a.bench b.bench;
       Util.checki "iteration" a.iteration b.iteration;
       Util.checki "f_size" a.f_size b.f_size;
       (* every name is accounted for: a size row or a DNF row *)
       List.iter
         (fun (name, size) ->
            match List.assoc_opt name b.sizes with
            | Some s ->
              (* completed rows are byte-identical to the free run's *)
              Util.checki ("size of " ^ name) size s
            | None ->
              Util.checkb (name ^ " is a DNF row")
                (List.mem_assoc name b.dnf))
         a.sizes;
       Util.checki "rows + DNFs = catalogue"
         (List.length a.sizes)
         (List.length b.sizes + List.length b.dnf))
    free starved;
  (* Aggregation, rendering and the JSON baseline all tolerate DNFs. *)
  let names = Harness.Capture.minimizer_names base in
  let t = Harness.Stats.aggregate ~names Harness.Stats.All starved in
  Util.checkb "aggregate counts DNFs"
    (List.exists (fun (r : Harness.Stats.row) -> r.Harness.Stats.dnf > 0)
       t.Harness.Stats.rows);
  Util.checkb "table3 marks DNFs"
    (Util.contains (Harness.Tables.render_table3 ~names starved) "DNF:");
  Util.checkb "csv marks DNFs"
    (Util.contains (Harness.Tables.calls_to_csv ~names starved) ",DNF")

let capture_driver_dnf () =
  let bench = Option.get (Circuits.Registry.find "gray6") in
  let config =
    Harness.Capture.(
      default_config |> with_lower_bound_cubes 50
      |> with_node_budget (Some 16))
  in
  let r = Harness.Capture.run_bench_stats ~config bench in
  Util.checkb "driver DNF recorded"
    (r.Harness.Capture.dnf = Some "nodes");
  (* The suite keeps going and reports the row instead of aborting. *)
  let suite = Harness.Capture.run_suite_stats ~config [ bench ] in
  Util.checkb "suite DNF row"
    (suite.Harness.Capture.suite_dnf = [ ("gray6", "nodes") ])

let capture_unbudgeted_identical () =
  (* The no-budget acceptance criterion: a configuration with the
     budgets left at None produces byte-identical CSV to the seed
     harness path (same code path, no budget objects installed). *)
  let bench = Option.get (Circuits.Registry.find "bcd2") in
  let config =
    Harness.Capture.(
      default_config |> with_max_calls 10 |> with_lower_bound_cubes 50)
  in
  let names = Harness.Capture.minimizer_names config in
  let a = Harness.Capture.run_bench ~config bench in
  let b = Harness.Capture.run_bench ~config bench in
  Util.check Alcotest.string "two runs, same CSV"
    (Harness.Tables.calls_to_csv ~names a)
    (Harness.Tables.calls_to_csv ~names b)

let cancelled_bench_short_circuits () =
  let bench = Option.get (Circuits.Registry.find "gray6") in
  let t = Exec.Cancel.create () in
  Exec.Cancel.cancel t;
  let r = Harness.Capture.run_bench_stats ~cancel:t bench in
  Util.checkb "no calls" (r.Harness.Capture.calls = []);
  Util.checkb "marked cancelled" (r.Harness.Capture.dnf = Some "cancelled")

let suite =
  [
    Alcotest.test_case "budget basics" `Quick budget_basics;
    Alcotest.test_case "step budget trips" `Quick step_budget_trips;
    Alcotest.test_case "cancellation trips" `Quick cancellation_trips;
    Alcotest.test_case "time budget trips" `Quick time_budget_trips;
    Alcotest.test_case "deadline checked at entry" `Quick
      deadline_checked_at_entry;
    Alcotest.test_case "cancellation checked at entry" `Quick
      cancel_checked_at_entry;
    Alcotest.test_case "node budget trips" `Quick node_budget_trips;
    Alcotest.test_case "unlimited budget inert" `Quick
      unlimited_budget_never_trips;
    consistency_after_abort;
    schedule_best_so_far;
    Alcotest.test_case "registry run installs budget" `Quick
      registry_run_installs_budget;
    Alcotest.test_case "best skips exhausted entries" `Quick
      best_skips_exhausted;
    Alcotest.test_case "best re-raises when all exhaust" `Quick
      best_raises_when_all_exhaust;
    Alcotest.test_case "reach partial + resume" `Quick reach_partial_resume;
    Alcotest.test_case "equiv refuses partial verdicts" `Quick
      equiv_refuses_partial_verdict;
    Alcotest.test_case "capture DNF differential" `Quick
      capture_dnf_differential;
    Alcotest.test_case "capture driver DNF" `Quick capture_driver_dnf;
    Alcotest.test_case "capture unbudgeted identical" `Quick
      capture_unbudgeted_identical;
    Alcotest.test_case "cancelled bench short-circuits" `Quick
      cancelled_bench_short_circuits;
  ]
