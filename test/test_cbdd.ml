(* Differential tests for the chain-reduced representation.

   A `Cbdd manager compresses OR-chains into single physical nodes but
   must stay observationally identical to a plain `Bdd manager: every
   kernel computes the same boolean function, [sat_count] the same
   density, ISOP the same cover, and {!Bdd.Metric.plain_equivalent} the
   same representation-independent size — that metric is what every
   minimization verdict is judged on. *)

module Tt = Logic.Truth_table
module I = Minimize.Ispec
module Isop = Minimize.Isop

let plain () = Bdd.create ()
let chained () = Bdd.create ~repr:`Cbdd ()

(* Pointwise agreement over the whole [n]-cube.  [eval] needs no
   manager, so this compares edges living in different managers. *)
let agree n a b =
  List.for_all
    (fun m ->
       let assign v = (m lsr v) land 1 = 1 in
       Bdd.eval a assign = Bdd.eval b assign)
    (List.init (1 lsl n) Fun.id)

let random_tt st n p = Tt.create n (fun _ -> Random.State.int st 100 < p)

(* Every kernel, one random instance, both representations: identical
   functions, sat counts and plain-equivalent sizes. *)
let ops_differential =
  Util.qtest ~count:120 "every kernel agrees between `Bdd and `Cbdd"
    QCheck2.Gen.(
      let* n = int_range 1 6 in
      let* seed = int_bound 0xFFFFF in
      return (n, seed))
    (fun (n, seed) ->
       let st = Random.State.make [| seed; n; 0xcb |] in
       let tf = random_tt st n 50
       and tg = random_tt st n 50
       and th = random_tt st n 50 in
       let vars =
         List.filter (fun _ -> Random.State.bool st) (List.init n Fun.id)
       in
       let run man =
         let f = Tt.to_bdd man tf
         and g = Tt.to_bdd man tg
         and h = Tt.to_bdd man th in
         let rs =
           [ Bdd.dand man f g; Bdd.dor man f g; Bdd.xor man f g;
             Bdd.ite man f g h; Bdd.compl f; Bdd.exists man vars f;
             Bdd.and_exists man vars f g ]
         in
         (* restrict requires a nonzero care set *)
         (man, if Bdd.is_zero g then rs else rs @ [ Bdd.restrict man f g ])
       in
       let mp, rp = run (plain ()) in
       let mc, rc = run (chained ()) in
       List.for_all2
         (fun a b ->
            agree n a b
            && Bdd.sat_count mp a ~nvars:n = Bdd.sat_count mc b ~nvars:n
            && Bdd.Metric.plain_equivalent mp a
               = Bdd.Metric.plain_equivalent mc b)
         rp rc)

(* ISOP end to end: same cube list, same cover function, same verdict
   metric — the property the bench-level CBDD ablation gates on. *)
let isop_differential =
  Util.qtest ~count:80 "ISOP covers and verdicts agree between reprs"
    QCheck2.Gen.(
      let* n = int_range 2 6 in
      let* seed = int_bound 0xFFFFF in
      return (n, seed))
    (fun (n, seed) ->
       let st = Random.State.make [| seed; n; 0x150b |] in
       let tf = random_tt st n 50 and tc = random_tt st n 75 in
       let run man =
         let s = I.make ~f:(Tt.to_bdd man tf) ~c:(Tt.to_bdd man tc) in
         (man, s, Isop.compute man s)
       in
       let mp, sp, rp = run (plain ()) in
       if Bdd.is_zero sp.I.c then true (* empty care set: nothing to do *)
       else begin
         let mc, _, rc = run (chained ()) in
         rp.Isop.cubes = rc.Isop.cubes
         && agree n rp.Isop.cover rc.Isop.cover
         && Bdd.Metric.plain_equivalent mp rp.Isop.cover
            = Bdd.Metric.plain_equivalent mc rc.Isop.cover
       end)

(* The §4.1.1 lower bound is compared against plain-equivalent sizes, so
   it must be counted in that unit too: the same bound and the same
   witness cube on both representations.  Dense onsets make the
   constrained functions OR-chain-heavy, where physical and plain counts
   part ways. *)
let lower_bound_differential =
  Util.qtest ~count:120 "lower bound agrees between reprs"
    QCheck2.Gen.(
      let* n = int_range 2 6 in
      let* p = int_range 50 90 in
      let* seed = int_bound 0xFFFFF in
      return (n, p, seed))
    (fun (n, p, seed) ->
       let st = Random.State.make [| seed; n; 0x1b |] in
       let tf = random_tt st n p and tc = random_tt st n 60 in
       let run man =
         let s = I.make ~f:(Tt.to_bdd man tf) ~c:(Tt.to_bdd man tc) in
         if Bdd.is_zero s.I.c then None
         else Some (Minimize.Lower_bound.witness man s)
       in
       run (plain ()) = run (chained ()))

(* Chains must actually pay: a long disjunction is the worst case for a
   plain BDD (one node per variable) and a single chain node here. *)
let chains_compress () =
  let k = 24 in
  let mc = chained () and mp = plain () in
  let chain = Bdd.disj mc (List.init k (fun i -> Bdd.ithvar mc i)) in
  let flat = Bdd.disj mp (List.init k (fun i -> Bdd.ithvar mp i)) in
  Util.checkb "physical nodes < plain equivalent"
    (Bdd.Metric.nodes mc chain < Bdd.Metric.plain_equivalent mc chain);
  Util.checkb "chain nodes present" (Bdd.Metric.chain_nodes mc chain > 0);
  Util.checki "plain equivalent matches an actual plain manager"
    (Bdd.size mp flat)
    (Bdd.Metric.plain_equivalent mc chain);
  (* complement edges: the negated chain (a cube of negative literals)
     compresses identically *)
  Util.checki "complement compresses identically"
    (Bdd.Metric.nodes mc chain)
    (Bdd.Metric.nodes mc (Bdd.compl chain));
  (* on a plain manager all metrics collapse onto [size] *)
  Util.checki "plain manager: nodes = size" (Bdd.size mp flat)
    (Bdd.Metric.nodes mp flat);
  Util.checki "plain manager: plain_equivalent = size" (Bdd.size mp flat)
    (Bdd.Metric.plain_equivalent mp flat);
  Util.checki "plain manager: no chain nodes" 0 (Bdd.Metric.chain_nodes mp flat);
  (* shared variants agree with the single-root ones on one root *)
  Util.checki "shared_plain_equivalent"
    (Bdd.Metric.plain_equivalent mc chain)
    (Bdd.Metric.shared_plain_equivalent mc [ chain ])

(* The chain expansion behind [plain_equivalent], rebuilt from the public
   API: one key [(level, bot, then id, else uid)] per level of every
   reachable node, plus the terminal.  Valid on plain managers, where the
   cofactors of a regular edge are the node's stored children. *)
let keyed_plain_equivalent man fs =
  let keys = Hashtbl.create 64 and seen = Hashtbl.create 64 in
  let rec go e =
    let e = if Bdd.uid e land 1 = 1 then Bdd.compl e else e in
    if (not (Bdd.is_const e)) && not (Hashtbl.mem seen (Bdd.uid e)) then begin
      Hashtbl.add seen (Bdd.uid e) ();
      let h = Bdd.hi man e and l = Bdd.lo man e in
      for i = Bdd.topvar e to Bdd.bot e do
        Hashtbl.replace keys (i, Bdd.bot e, Bdd.node_id h, Bdd.uid l) ()
      done;
      go h;
      go l
    end
  in
  List.iter go fs;
  Hashtbl.length keys + 1

(* Plain managers skip the expansion and count physical nodes; pin that
   shortcut to the formula it replaces. *)
let plain_metric_shortcut =
  Util.qtest ~count:100 "plain managers: plain_equivalent = chain expansion"
    QCheck2.Gen.(
      let* n = int_range 1 7 in
      let* seeds = list_size (int_range 0 4) (int_bound 0xFFFFF) in
      return (n, seeds))
    (fun (n, seeds) ->
       let man = plain () in
       let fs =
         List.map
           (fun s ->
              let st = Random.State.make [| s; n; 0x9e7 |] in
              Tt.to_bdd man (random_tt st n 50))
           seeds
       in
       Bdd.Metric.shared_plain_equivalent man fs = keyed_plain_equivalent man fs
       && List.for_all
            (fun f ->
               Bdd.Metric.plain_equivalent man f
               = keyed_plain_equivalent man [ f ])
            fs)

let suite =
  [
    ops_differential;
    isop_differential;
    lower_bound_differential;
    Alcotest.test_case "chains compress" `Quick chains_compress;
    plain_metric_shortcut;
  ]
