(* Deterministic ablations beyond the paper's exhibits, pinned to exact
   totals: the §3.4 schedule parameters, the §3.3.2 clique-cover
   toggles, the static variable orderings, the §1 resynthesis flow and
   sifting.  Every number is a node count of a canonical result, so any
   change to one of them is a change in what the algorithms compute. *)

(* The instance pool: the first 60 non-trivial instances intercepted
   during self-equivalence of tlc, gray6 and rnd344 (transition-relation
   minimizations and image constrains alike), rooted on one manager. *)
let pool =
  lazy
    (let man = Bdd.create () in
     let pool = ref [] in
     let keep inst =
       if (not (Minimize.Ispec.trivial man inst)) && List.length !pool < 60
       then begin
         Bdd.ref_ man inst.Minimize.Ispec.f;
         Bdd.ref_ man inst.Minimize.Ispec.c;
         pool := inst :: !pool
       end
     in
     List.iter
       (fun name ->
          let b = Option.get (Circuits.Registry.find name) in
          match
            Fsm.Equiv.check_self man
              ~on_instance:(fun ~iteration:_ i -> keep i)
              ~on_image_constrain:(fun ~iteration:_ i -> keep i)
              (b.Circuits.Registry.build ())
          with
          | Fsm.Equiv.Equivalent _ -> ()
          | Fsm.Equiv.Not_equivalent _ -> Alcotest.fail (name ^ " not self-equivalent"))
       [ "tlc"; "gray6"; "rnd344" ];
     (man, !pool))

let total run =
  let man, instances = Lazy.force pool in
  List.fold_left (fun acc s -> acc + Bdd.size man (run man s)) 0 instances

let pool_size () =
  Util.checki "pool instances" 60 (List.length (snd (Lazy.force pool)))

(* §3.4: every window/stop/level-matching setting lands on the same total
   as plain constrain on this pool. *)
let schedule_params () =
  Util.checki "constrain" 480
    (total (fun man s -> Bdd.constrain man s.Minimize.Ispec.f s.Minimize.Ispec.c));
  List.iter
    (fun (w, stop, levels) ->
       let params =
         {
           Minimize.Schedule.default_params with
           Minimize.Schedule.window_size = w;
           stop_top_down = stop;
           use_level_matching = levels;
         }
       in
       Util.checki
         (Printf.sprintf "schedule w=%d stop=%d levels=%b" w stop levels)
         480
         (total (fun man s -> Minimize.Schedule.run man ~params s)))
    [ (2, 4, false); (4, 6, false); (8, 8, false); (4, 6, true) ]

(* §3.3.2: the degree ordering and distance weights of the clique cover. *)
let opt_lv_toggles () =
  List.iter
    (fun (degree, dist) ->
       let params =
         {
           Minimize.Level.default_params with
           Minimize.Level.order_by_degree = degree;
           use_distance_weights = dist;
           set_limit = Some 512;
         }
       in
       Util.checki
         (Printf.sprintf "opt_lv degree_order=%b dist_weights=%b" degree dist)
         514
         (total (fun man s -> Minimize.Level.opt_lv man ~params s)))
    [ (true, true); (false, true); (true, false); (false, false) ]

let netlist name =
  (Option.get (Circuits.Registry.find name)).Circuits.Registry.build ()

let symbolic_size ?ordering nl =
  Fsm.Symbolic.shared_node_count
    (Fsm.Symbolic.of_netlist ?ordering (Bdd.create ()) nl)

(* Static variable orderings: (interleaved, topological, inputs_first). *)
let orderings () =
  List.iter
    (fun (name, expected) ->
       let nl = netlist name in
       let size ordering = symbolic_size ~ordering nl in
       Alcotest.(check (triple int int int))
         ("ordering " ^ name) expected
         ( size Fsm.Symbolic.Interleaved,
           size Fsm.Symbolic.Topological,
           size Fsm.Symbolic.Inputs_first ))
    [
      ("tlc", (41, 41, 34));
      ("minmax4", (462, 409, 233));
      ("rnd344", (73, 74, 62));
      ("mult4b", (1650, 1654, 1585));
    ]

(* The §1 flow: symbolic size before and after re-synthesis with the
   unreachable states as don't cares. *)
let resynthesis () =
  List.iter
    (fun (name, expected) ->
       let nl = netlist name in
       let nl2, _ = Fsm.Synth.resynthesize (Bdd.create ()) nl in
       Alcotest.(check (pair int int))
         ("resynthesis " ^ name) expected
         (symbolic_size nl, symbolic_size nl2))
    [
      ("bcd2", (24, 19));
      ("tlc", (41, 39));
      ("johnson8", (34, 34));
      ("rnd344", (73, 65));
    ]

(* Sifting the next-state and output functions. *)
let sifting () =
  List.iter
    (fun (name, expected) ->
       let m = Bdd.create () in
       let sym = Fsm.Symbolic.of_netlist m (netlist name) in
       let fns =
         Array.to_list sym.Fsm.Symbolic.next_fns
         @ List.map snd sym.Fsm.Symbolic.output_fns
       in
       let before = Bdd.shared_size m fns in
       let _, after = Bdd.Reorder.sift m fns in
       Alcotest.(check (pair int int)) ("sifting " ^ name) expected
         (before, after))
    [
      ("tlc", (41, 23));
      ("bcd2", (24, 18));
      ("rnd344", (73, 58));
      ("minmax4", (462, 76));
    ]

let suite =
  [
    Alcotest.test_case "pool of 60 instances" `Quick pool_size;
    Alcotest.test_case "§3.4 schedule parameters" `Quick schedule_params;
    Alcotest.test_case "§3.3.2 opt_lv toggles" `Quick opt_lv_toggles;
    Alcotest.test_case "static orderings" `Quick orderings;
    Alcotest.test_case "resynthesis" `Quick resynthesis;
    Alcotest.test_case "sifting" `Quick sifting;
  ]
