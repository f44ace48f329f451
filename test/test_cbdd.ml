(* Differential tests for the chain-reduced representation.

   A `Cbdd manager compresses OR-chains into single physical nodes but
   must stay observationally identical to a plain `Bdd manager: every
   kernel computes the same boolean function, [sat_count] the same
   density, ISOP the same cover, and {!Bdd.Metric.plain_equivalent} the
   same representation-independent size — that metric is what every
   minimization verdict is judged on.  Also covered here: the
   event-driven {!Bdd.Reorder.Policy} (armed by table growth, run only
   at the clean [check] boundary) and the {!Bdd.Reorder.remap_cube}
   contract for interned quantification cubes carried across a sift. *)

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

(* The On_growth policy: a doubling unique table arms the pending flag
   (from inside interning — listeners must not sift there), and the
   sift runs only when [check] is called at a clean boundary.  The
   rebuilt manager inherits representation and policy, with one pass
   spent. *)
let on_growth_policy repr () =
  let policy = Bdd.Reorder.Policy.On_growth { factor = 2; max_passes = 1 } in
  let man = Bdd.create ~repr ~reorder_policy:policy () in
  Util.checkb "installed" (Bdd.Reorder.Policy.installed man = policy);
  Util.checkb "not pending on creation"
    (not (Bdd.Reorder.Policy.pending man));
  Util.checkb "check before any growth is a no-op"
    (Bdd.Reorder.Policy.check man [] = None);
  (* a dense random 16-var function interns enough nodes to double the
     4096-entry initial table twice, crossing the 2x growth factor *)
  let n = 16 in
  let st = Random.State.make [| 0xcb; 0xdd; n |] in
  let tt = random_tt st n 50 in
  let f = Tt.to_bdd man tt in
  Util.checkb "table growth armed the policy"
    (Bdd.Reorder.Policy.pending man);
  match Bdd.Reorder.Policy.check ~max_rounds:1 man [ f ] with
  | None -> Alcotest.fail "armed policy did not sift"
  | Some (placement, target, rebuilt) ->
    let g = match rebuilt with [ g ] -> g | _ -> Alcotest.fail "arity" in
    Util.checkb "representation inherited" (Bdd.repr target = repr);
    Util.checkb "policy survives the rebuild"
      (Bdd.Reorder.Policy.installed target = policy);
    Util.checkb "pending consumed" (not (Bdd.Reorder.Policy.pending man));
    Util.checkb "sift never worse" (Bdd.size target g <= Bdd.size man f);
    (* the pass allowance is spent: a second growth cannot re-arm *)
    Util.checkb "allowance spent"
      (Bdd.Reorder.Policy.check target [ g ] = None);
    (* semantics preserved modulo the placement, spot-checked; invert
       the placement on the support only (non-support variables all
       collapse onto level 0) *)
    let inverse = Array.make (Array.length placement) (-1) in
    List.iter (fun v -> inverse.(placement.(v)) <- v) (Bdd.support man f);
    for _ = 1 to 200 do
      let m = Random.State.int st (1 lsl n) in
      let assign v = (m lsr v) land 1 = 1 in
      Util.checkb "rebuilt function agrees"
        (Bdd.eval g (fun level ->
             inverse.(level) >= 0 && assign inverse.(level))
         = Tt.get tt m)
    done

(* Regression for the sift/cube interaction: an interned quantification
   cube is a variable-NAME set in the source manager; carrying it across
   a sift without [remap_cube] quantifies the wrong variables.  The
   remapped, re-interned cube must reproduce the pre-sift quantification
   modulo the placement. *)
let remap_cube_after_sift =
  Util.qtest ~count:60 "cubes survive sift_apply via remap_cube"
    QCheck2.Gen.(
      let* n = int_range 2 6 in
      let* seed = int_bound 0xFFFFF in
      let* chain = bool in
      return (n, seed, chain))
    (fun (n, seed, chain) ->
       let man = if chain then chained () else plain () in
       let st = Random.State.make [| seed; n; 0x5f |] in
       let f = Tt.to_bdd man (random_tt st n 50) in
       (* quantify only over the support: sifting permutes support
          levels, so remap_cube is only defined there *)
       let support = Bdd.support man f in
       let vars = List.filter (fun _ -> Random.State.bool st) support in
       let before = Bdd.exists man vars f in
       let placement, target, rebuilt = Bdd.Reorder.sift_apply man [ f ] in
       let f' = List.hd rebuilt in
       let vars' = Bdd.Reorder.remap_cube ~placement vars in
       (* re-interning under the new names must be accepted *)
       let _ = Bdd.cube_id target vars' in
       let after = Bdd.exists target vars' f' in
       (* the placement is only meaningful on the support (non-support
          variables all collapse onto level 0), so invert it there *)
       let inverse = Array.make (Array.length placement) (-1) in
       List.iter (fun v -> inverse.(placement.(v)) <- v) support;
       List.for_all
         (fun m ->
            let assign v = (m lsr v) land 1 = 1 in
            Bdd.eval after (fun level ->
                inverse.(level) >= 0 && assign inverse.(level))
            = Bdd.eval before assign)
         (List.init (1 lsl n) Fun.id))

let remap_cube_rejects_out_of_range () =
  Util.checkb "out-of-placement variable rejected"
    (match Bdd.Reorder.remap_cube ~placement:[| 1; 0 |] [ 2 ] with
     | exception Invalid_argument _ -> true
     | _ -> false)

let suite =
  [
    ops_differential;
    isop_differential;
    Alcotest.test_case "chains compress" `Quick chains_compress;
    Alcotest.test_case "On_growth policy (plain)" `Quick
      (on_growth_policy `Bdd);
    Alcotest.test_case "On_growth policy (cbdd)" `Quick
      (on_growth_policy `Cbdd);
    remap_cube_after_sift;
    Alcotest.test_case "remap_cube rejects out-of-range" `Quick
      remap_cube_rejects_out_of_range;
    plain_metric_shortcut;
  ]
