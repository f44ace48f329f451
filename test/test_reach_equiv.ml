(* Reachability and product-machine equivalence. *)

module N = Fsm.Netlist
module Sym = Fsm.Symbolic

let reached_count name build expected () =
  let man = Bdd.create () in
  let sym = Sym.of_netlist man (build ()) in
  let _, st = Fsm.Reach.reachable sym in
  Alcotest.(check (float 0.01)) name expected st.Fsm.Reach.reached_states

let tlc_safety () =
  (* the traffic-light controller never shows green both ways:
     AG ¬(hl_green ∧ fl_green) over the symbolic outputs *)
  let nl = Circuits.Tlc.make () in
  let man = Bdd.create () in
  let sym = Sym.of_netlist man nl in
  let hg = List.assoc "hl_green" sym.Sym.output_fns in
  let fg = List.assoc "fl_green" sym.Sym.output_fns in
  let both = Bdd.dand man hg fg in
  let bad = Bdd.exists man (Sym.input_support sym) both in
  let reached, _ = Fsm.Reach.reachable sym in
  Util.checkb "never both green" (Bdd.is_zero (Bdd.dand man reached bad))

let minimizer_independent =
  (* The reached set must not depend on the frontier minimizer. *)
  Util.qtest ~count:15 "reached set independent of the minimizer"
    QCheck2.Gen.(int_bound 1000)
    (fun seed ->
       let nl =
         Circuits.Random_fsm.make
           { Circuits.Random_fsm.latches = 5; inputs = 2; depth = 3; seed }
       in
       let run minimize =
         let man = Bdd.create () in
         let sym = Sym.of_netlist man nl in
         let _, st = Fsm.Reach.reachable ~minimize sym in
         st.Fsm.Reach.reached_states
       in
       let reference = run Fsm.Reach.constrain_minimizer in
       List.for_all
         (fun m -> run m = reference)
         [
           Fsm.Reach.no_minimizer;
           (fun man (i : Minimize.Ispec.t) ->
              Bdd.restrict man i.Minimize.Ispec.f i.Minimize.Ispec.c);
           (fun man i ->
              Minimize.Sibling.run_heuristic man Minimize.Sibling.Tsm_cp i);
           (fun man i -> Minimize.Schedule.run man i);
         ])

let strategy_independent =
  Util.qtest ~count:15
    "reached set and iteration count independent of the image strategy"
    QCheck2.Gen.(int_bound 1000)
    (fun seed ->
       let nl =
         Circuits.Random_fsm.make
           { Circuits.Random_fsm.latches = 5; inputs = 2; depth = 3; seed }
       in
       let run ?cluster_bound strategy =
         let man = Bdd.create () in
         let sym = Sym.of_netlist man nl in
         let _, st = Fsm.Reach.reachable ~strategy ?cluster_bound sym in
         (st.Fsm.Reach.reached_states, st.Fsm.Reach.iterations)
       in
       let a = run Fsm.Image.Monolithic in
       a = run Fsm.Image.Partitioned
       && a = run Fsm.Image.Range
       && a = run Fsm.Image.Clustered
       && a = run ~cluster_bound:8 Fsm.Image.Clustered)

let max_iterations_enforced () =
  let man = Bdd.create () in
  let sym = Sym.of_netlist man (Circuits.Counter.make ~width:6 ()) in
  Alcotest.check_raises "bounded"
    (Failure "Reach.reachable: max_iterations exceeded")
    (fun () -> ignore (Fsm.Reach.reachable ~max_iterations:5 sym))

let frontier_instances_sound () =
  (* Each reported instance satisfies f = U <= c and DC = previously
     reached minus the frontier. *)
  let man = Bdd.create () in
  let sym = Sym.of_netlist man (Circuits.Gray.make ~width:4) in
  let ok = ref true in
  let _ =
    Fsm.Reach.reachable
      ~on_instance:(fun ~iteration:_ (i : Minimize.Ispec.t) ->
          if not (Bdd.leq man i.Minimize.Ispec.f i.Minimize.Ispec.c) then
            ok := false)
      sym
  in
  Util.checkb "U <= U + !R" !ok

let self_equivalence () =
  List.iter
    (fun name ->
       let b = Option.get (Circuits.Registry.find name) in
       let man = Bdd.create () in
       match Fsm.Equiv.check_self man (b.Circuits.Registry.build ()) with
       | Fsm.Equiv.Equivalent _ -> ()
       | Fsm.Equiv.Not_equivalent _ -> Alcotest.fail (name ^ " != itself"))
    [ "bcd2"; "tlc"; "arbiter4"; "rnd344" ]

let latch_init_difference_detected () =
  (* Two counters differing in initial value are inequivalent. *)
  let mk init =
    let b = N.create "c" in
    let en = N.input b "en" in
    let q, set = N.word_latch b ~name:"q" ~width:3 ~init () in
    let inc, _ = N.word_inc b q in
    set (N.word_mux b ~sel:en ~t1:inc ~e0:q);
    Array.iteri (fun i qi -> N.output b (Printf.sprintf "q%d" i) qi) q;
    N.finalize b
  in
  let man = Bdd.create () in
  match Fsm.Equiv.check man (mk 0) (mk 1) with
  | Fsm.Equiv.Not_equivalent _ -> ()
  | Fsm.Equiv.Equivalent _ -> Alcotest.fail "should differ"

let product_rejects_mismatched_inputs () =
  let a = Circuits.Counter.make ~width:2 () in
  let b = Circuits.Lfsr.make ~width:4 () in
  (* counter has input en; lfsr has none *)
  Util.checkb "raises"
    (match Fsm.Equiv.product a b with
     | exception Invalid_argument _ -> true
     | _ -> false)

(* The paper's second application: minimizing a machine's functions with
   the unreachable states as don't cares. *)
let transition_minimization =
  Util.qtest ~count:12 "restrict_to_care_states preserves reachable behaviour"
    QCheck2.Gen.(int_bound 1000)
    (fun seed ->
       let nl =
         Circuits.Random_fsm.make
           { Circuits.Random_fsm.latches = 5; inputs = 2; depth = 3; seed }
       in
       let man = Bdd.create () in
       let sym = Sym.of_netlist man nl in
       let reached, _ = Fsm.Reach.reachable sym in
       let sym' =
         Sym.restrict_to_care_states sym ~care:reached
           ~minimize:Fsm.Reach.constrain_minimizer
       in
       (* functions agree on the reachable states *)
       let agree =
         List.for_all2
           (fun d d' ->
              Bdd.is_zero (Bdd.dand man (Bdd.dxor man d d') reached))
           (Array.to_list sym.Sym.next_fns)
           (Array.to_list sym'.Sym.next_fns)
       in
       (* hence the restricted machine explores the same state space *)
       let reached', _ = Fsm.Reach.reachable sym' in
       agree && Bdd.equal reached reached')

let transition_minimization_shrinks () =
  (* On a machine with a very sparse reachable set, minimization helps. *)
  let man = Bdd.create () in
  let sym = Sym.of_netlist man (Circuits.Johnson.make ~width:8) in
  let reached, _ = Fsm.Reach.reachable sym in
  let clamped man (i : Minimize.Ispec.t) =
    Minimize.Sibling.run_clamped man
      (Minimize.Sibling.config_of_heuristic Minimize.Sibling.Osm_bt) i
  in
  let sym' = Sym.restrict_to_care_states sym ~care:reached ~minimize:clamped in
  Util.checkb "no growth"
    (Sym.shared_node_count sym' <= Sym.shared_node_count sym)

let suite =
  [
    Alcotest.test_case "counter4 reaches 16 states" `Quick
      (reached_count "counter4" (fun () -> Circuits.Counter.make ~width:4 ()) 16.0);
    Alcotest.test_case "johnson6 reaches 12 states" `Quick
      (reached_count "johnson6" (fun () -> Circuits.Johnson.make ~width:6) 12.0);
    Alcotest.test_case "lfsr6 reaches 63 states" `Quick
      (reached_count "lfsr6" (fun () -> Circuits.Lfsr.make ~width:6 ()) 63.0);
    Alcotest.test_case "bcd reaches 10 states" `Quick
      (reached_count "bcd" (fun () -> Circuits.Counter.modulo ~width:4 ~modulus:10) 10.0);
    Alcotest.test_case "tlc never both green" `Quick tlc_safety;
    minimizer_independent;
    strategy_independent;
    Alcotest.test_case "max_iterations" `Quick max_iterations_enforced;
    Alcotest.test_case "frontier instances sound" `Quick frontier_instances_sound;
    Alcotest.test_case "self equivalence" `Quick self_equivalence;
    Alcotest.test_case "latch init difference" `Quick latch_init_difference_detected;
    Alcotest.test_case "mismatched inputs rejected" `Quick
      product_rejects_mismatched_inputs;
    transition_minimization;
    Alcotest.test_case "transition minimization shrinks (johnson8)" `Quick
      transition_minimization_shrinks;
  ]
