(* ADDs and the BFS depth-map application. *)

module A = Bdd.Add
module Tt = Logic.Truth_table

let aman = A.new_man ()
let man = Util.man

let gen_tt =
  QCheck2.Gen.(
    let* n = int_range 0 5 in
    let* seed = int_bound 0xFFFFF in
    return (n, seed))

let tt_of (n, seed) =
  let st = Random.State.make [| seed; n |] in
  Tt.create n (fun _ -> Random.State.bool st)

let of_bdd_semantics =
  Util.qtest ~count:200 "of_bdd maps onset/offset to high/low" gen_tt
    (fun desc ->
       let tt = tt_of desc in
       let f = Tt.to_bdd man tt in
       let a = A.of_bdd aman f ~high:7 ~low:(-3) in
       List.for_all
         (fun m ->
            A.eval a (fun v -> (m lsr v) land 1 = 1)
            = if Tt.get tt m then 7 else -3)
         (List.init (Tt.points tt) Fun.id))

let apply2_pointwise =
  Util.qtest ~count:200 "apply2 is pointwise"
    QCheck2.Gen.(
      let* a = gen_tt in
      let* b = gen_tt in
      return (a, b))
    (fun (d1, d2) ->
       let n = max (fst d1) (fst d2) in
       let t1 = tt_of d1 and t2 = tt_of d2 in
       let a1 = A.of_bdd aman (Tt.to_bdd man t1) ~high:3 ~low:1 in
       let a2 = A.of_bdd aman (Tt.to_bdd man t2) ~high:5 ~low:2 in
       let sum = A.add aman a1 a2 in
       let mn = A.min2 aman a1 a2 in
       List.for_all
         (fun m ->
            let assign v = (m lsr v) land 1 = 1 in
            A.eval sum assign = A.eval a1 assign + A.eval a2 assign
            && A.eval mn assign = min (A.eval a1 assign) (A.eval a2 assign))
         (List.init (1 lsl n) Fun.id))

let canonicity =
  Util.qtest ~count:200 "equal maps share handles" gen_tt
    (fun desc ->
       let tt = tt_of desc in
       let f = Tt.to_bdd man tt in
       let a1 = A.of_bdd aman f ~high:1 ~low:0 in
       (* same function built via apply on a trivially-rebuilt pair *)
       let a2 =
         A.apply2 aman max
           (A.of_bdd aman f ~high:1 ~low:0)
           (A.const aman 0)
       in
       A.equal a1 a2)

let roundtrip_threshold =
  Util.qtest ~count:200 "to_bdd inverts of_bdd" gen_tt
    (fun desc ->
       let tt = tt_of desc in
       let f = Tt.to_bdd man tt in
       let a = A.of_bdd aman f ~high:9 ~low:0 in
       Bdd.equal f (A.to_bdd aman a ~pred:(fun v -> v > 0) man))

let map_and_terminals () =
  let f = Bdd.dxor man (Bdd.ithvar man 0) (Bdd.ithvar man 1) in
  let a = A.of_bdd aman f ~high:10 ~low:20 in
  Alcotest.(check (list int)) "terminals" [ 10; 20 ] (A.terminals aman a);
  Util.checki "min" 10 (A.min_value aman a);
  Util.checki "max" 20 (A.max_value aman a);
  let doubled = A.map aman (fun v -> 2 * v) a in
  Alcotest.(check (list int)) "mapped" [ 20; 40 ] (A.terminals aman doubled);
  (* map collapsing all values yields a constant *)
  let collapsed = A.map aman (fun _ -> 5) a in
  Util.checkb "constant" (A.value collapsed = Some 5)

(* depth maps *)

let depth_matches_explicit =
  Util.qtest ~count:15 "ADD depth map diameter = explicit BFS depth"
    QCheck2.Gen.(int_bound 3000)
    (fun seed ->
       let nl =
         Circuits.Random_fsm.make
           { Circuits.Random_fsm.latches = 5; inputs = 2; depth = 3; seed }
       in
       let man = Bdd.create () in
       let sym = Fsm.Symbolic.of_netlist man nl in
       let d = Fsm.Depth.compute sym in
       let explicit = Fsm.Explicit.reachable nl in
       d.Fsm.Depth.diameter = explicit.Fsm.Explicit.depth)

let counter_depths () =
  let man = Bdd.create () in
  let sym = Fsm.Symbolic.of_netlist man (Circuits.Counter.make ~width:4 ()) in
  let d = Fsm.Depth.compute sym in
  Util.checki "diameter 15" 15 d.Fsm.Depth.diameter;
  (* state k is at depth k *)
  List.iter
    (fun k ->
       let bits = Array.init 4 (fun i -> (k lsr i) land 1 = 1) in
       Util.checkb
         (Printf.sprintf "state %d at depth %d" k k)
         (Fsm.Depth.depth_of_state d bits sym = Some k))
    [ 0; 1; 7; 15 ]

let rings_partition () =
  let man = Bdd.create () in
  let sym = Fsm.Symbolic.of_netlist man (Circuits.Gray.make ~width:4) in
  let d = Fsm.Depth.compute sym in
  let reached, _ = Fsm.Reach.reachable sym in
  (* rings are disjoint and union to the reachable set *)
  let union = ref (Bdd.zero man) in
  for k = 0 to d.Fsm.Depth.diameter do
    let r = Fsm.Depth.ring d sym k in
    Util.checkb "disjoint" (Bdd.is_zero (Bdd.dand man r !union));
    union := Bdd.dor man !union r
  done;
  Util.checkb "union = reachable" (Bdd.equal !union reached)

let suite =
  [
    of_bdd_semantics;
    apply2_pointwise;
    canonicity;
    roundtrip_threshold;
    Alcotest.test_case "map and terminals" `Quick map_and_terminals;
    depth_matches_explicit;
    Alcotest.test_case "counter depths" `Quick counter_depths;
    Alcotest.test_case "rings partition the reachable set" `Quick
      rings_partition;
  ]
