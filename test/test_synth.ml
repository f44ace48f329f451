(* BDD -> netlist synthesis and the full don't-care resynthesis flow. *)

let man_for () = Bdd.create ()

let combinational_roundtrip =
  Util.qtest ~count:60 "signal_of_bdd computes the BDD's function"
    QCheck2.Gen.(
      let* n = int_range 1 5 in
      let* seed = int_bound 0xFFFFF in
      return (n, seed))
    (fun (n, seed) ->
       let man = man_for () in
       let st = Random.State.make [| seed; n |] in
       let tt = Logic.Truth_table.create n (fun _ -> Random.State.bool st) in
       let g = Logic.Truth_table.to_bdd man tt in
       let b = Fsm.Netlist.create "comb" in
       let ins =
         Array.init n (fun i -> Fsm.Netlist.input b (Printf.sprintf "x%d" i))
       in
       let s = Fsm.Synth.signal_of_bdd b ~var_signal:(fun v -> ins.(v)) g in
       Fsm.Netlist.output b "o" s;
       let nl = Fsm.Netlist.finalize b in
       List.for_all
         (fun m ->
            let env name =
              let idx = int_of_string (String.sub name 1 (String.length name - 1)) in
              (m lsr idx) land 1 = 1
            in
            let outs, _ =
              Fsm.Netlist.sim_step nl (Fsm.Netlist.sim_initial nl) env
            in
            List.assoc "o" outs = Logic.Truth_table.get tt m)
         (List.init (1 lsl n) Fun.id))

let synth_equivalent =
  Util.qtest ~count:12 "netlist_of_symbolic is sequentially equivalent"
    QCheck2.Gen.(int_bound 2000)
    (fun seed ->
       let nl =
         Circuits.Random_fsm.make
           { Circuits.Random_fsm.latches = 4; inputs = 2; depth = 3; seed }
       in
       let man = man_for () in
       let sym = Fsm.Symbolic.of_netlist man nl in
       let nl2 = Fsm.Synth.netlist_of_symbolic sym in
       let man2 = man_for () in
       match Fsm.Equiv.check man2 nl nl2 with
       | Fsm.Equiv.Equivalent _ -> true
       | Fsm.Equiv.Not_equivalent _ -> false)

let resynthesize_equivalent =
  Util.qtest ~count:8 "resynthesize preserves sequential behaviour"
    QCheck2.Gen.(int_bound 2000)
    (fun seed ->
       let nl =
         Circuits.Random_fsm.make
           { Circuits.Random_fsm.latches = 5; inputs = 2; depth = 3; seed }
       in
       let man = man_for () in
       let nl2, _ = Fsm.Synth.resynthesize man nl in
       let man2 = man_for () in
       match Fsm.Equiv.check man2 nl nl2 with
       | Fsm.Equiv.Equivalent _ -> true
       | Fsm.Equiv.Not_equivalent _ -> false)

let resynthesize_shrinks_sparse_machines () =
  (* johnson8 has 16 of 256 states reachable: resynthesis against the
     reachable care set must not increase the symbolic representation *)
  let nl = Circuits.Johnson.make ~width:8 in
  let man = man_for () in
  let nl2, reached = Fsm.Synth.resynthesize man nl in
  Util.checkb "reached is 16 states"
    (Bdd.sat_count man reached ~nvars:8 = 16.0);
  let m1 = man_for () and m2 = man_for () in
  let s1 = Fsm.Symbolic.shared_node_count (Fsm.Symbolic.of_netlist m1 nl) in
  let s2 = Fsm.Symbolic.shared_node_count (Fsm.Symbolic.of_netlist m2 nl2) in
  Util.checkb "no growth in symbolic size" (s2 <= s1)

let resynthesized_blif_roundtrip () =
  let nl = Circuits.Counter.modulo ~width:4 ~modulus:10 in
  let man = man_for () in
  let nl2, _ = Fsm.Synth.resynthesize man nl in
  let text = Fsm.Blif.print nl2 in
  match Fsm.Blif.parse text with
  | Error e -> Alcotest.fail e
  | Ok nl3 ->
    let man2 = man_for () in
    (match Fsm.Equiv.check man2 nl nl3 with
     | Fsm.Equiv.Equivalent _ -> ()
     | Fsm.Equiv.Not_equivalent _ -> Alcotest.fail "flow broke the machine")

let suite =
  [
    combinational_roundtrip;
    synth_equivalent;
    resynthesize_equivalent;
    Alcotest.test_case "resynthesis shrinks sparse machines" `Quick
      resynthesize_shrinks_sparse_machines;
    Alcotest.test_case "optimize + BLIF round trip" `Quick
      resynthesized_blif_roundtrip;
  ]
