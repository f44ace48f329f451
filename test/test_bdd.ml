(* BDD engine tests: canonicity, Boolean algebra, cofactors, quantifiers,
   composition, generalized cofactors, traversals, cubes. *)

module Tt = Logic.Truth_table

let man = Util.man

let x i = Bdd.ithvar man i

let canonicity () =
  (* Same function built two ways yields the same edge. *)
  let a =
    Bdd.dor man (Bdd.dand man (x 0) (x 1)) (Bdd.dand man (Bdd.compl (x 0)) (x 2))
  in
  let b = Bdd.ite man (x 0) (x 1) (x 2) in
  Util.checkb "ite = or-of-ands" (Bdd.equal a b);
  Util.checkb "not not f = f" (Bdd.equal (Bdd.compl (Bdd.compl a)) a);
  Util.checkb "physically equal uids" (Bdd.uid a = Bdd.uid b)

let canonicity_random =
  Util.qtest ~count:300 "random canonicity: equal tables <=> equal edges"
    QCheck2.Gen.(
      let* n = int_range 1 5 in
      let* s1 = int_bound 0xFFFF in
      let* s2 = int_bound 0xFFFF in
      return (n, s1, s2))
    (fun (n, s1, s2) ->
       let mk s =
         let st = Random.State.make [| s; n |] in
         Tt.create n (fun _ -> Random.State.bool st)
       in
       let t1 = mk s1 and t2 = mk s2 in
       let b1 = Tt.to_bdd man t1 and b2 = Tt.to_bdd man t2 in
       Bdd.equal b1 b2 = Tt.equal t1 t2)

let boolean_algebra =
  Util.qtest ~count:300 "random Boolean algebra laws" Util.gen_instance
    (fun desc ->
       let f, g = Util.build_instance desc in
       let open Bdd in
       equal (dand man f g) (compl (dor man (compl f) (compl g)))
       && equal (dxor man f g) (dor man (diff man f g) (diff man g f))
       && equal (dxnor man f g) (compl (dxor man f g))
       && equal (imply man f g) (dor man (compl f) g)
       && equal (dnand man f g) (compl (dand man f g))
       && equal (dnor man f g) (compl (dor man f g))
       && equal (ite man f g g) g
       && leq man (dand man f g) f
       && leq man f (dor man f g))

let cofactor_shannon =
  Util.qtest ~count:200 "Shannon expansion via cofactor" Util.gen_instance
    (fun desc ->
       let f, _ = Util.build_instance desc in
       let v = 0 in
       let fv = Bdd.cofactor man f ~var:v true
       and fnv = Bdd.cofactor man f ~var:v false in
       Bdd.equal f (Bdd.ite man (x v) fv fnv))

let quantifiers =
  Util.qtest ~count:200 "exists = or of cofactors; forall dual"
    Util.gen_instance
    (fun desc ->
       let f, _ = Util.build_instance desc in
       let v = 1 in
       let fv = Bdd.cofactor man f ~var:v true
       and fnv = Bdd.cofactor man f ~var:v false in
       Bdd.equal (Bdd.exists man [ v ] f) (Bdd.dor man fv fnv)
       && Bdd.equal (Bdd.forall man [ v ] f) (Bdd.dand man fv fnv)
       && Bdd.equal
            (Bdd.forall man [ v ] f)
            (Bdd.compl (Bdd.exists man [ v ] (Bdd.compl f))))

let and_exists_law =
  Util.qtest ~count:200 "and_exists f g = exists (f & g)" Util.gen_instance
    (fun desc ->
       let f, g = Util.build_instance desc in
       Bdd.equal
         (Bdd.and_exists man [ 0; 2 ] f g)
         (Bdd.exists man [ 0; 2 ] (Bdd.dand man f g)))

let compose_law =
  Util.qtest ~count:200 "compose = ite expansion" Util.gen_instance
    (fun desc ->
       let f, g = Util.build_instance desc in
       let v = 1 in
       let direct = Bdd.compose man f ~var:v g in
       let expected =
         Bdd.ite man g
           (Bdd.cofactor man f ~var:v true)
           (Bdd.cofactor man f ~var:v false)
       in
       Bdd.equal direct expected)

let vector_compose_simultaneous () =
  (* Swap x0 and x1 simultaneously: f(x0,x1) -> f(x1,x0). *)
  let f = Bdd.diff man (x 0) (x 1) in
  let swapped = Bdd.vector_compose man f [ (0, x 1); (1, x 0) ] in
  Util.checkb "swap" (Bdd.equal swapped (Bdd.diff man (x 1) (x 0)))

let rename_updown () =
  let f = Bdd.dand man (x 0) (Bdd.compl (x 3)) in
  let up = Bdd.rename man f [ (0, 5); (3, 7) ] in
  Util.checkb "rename up"
    (Bdd.equal up (Bdd.dand man (x 5) (Bdd.compl (x 7))));
  let down = Bdd.rename man up [ (5, 0); (7, 3) ] in
  Util.checkb "rename back" (Bdd.equal down f)

let constrain_is_cover =
  Util.qtest ~count:300 "constrain and restrict return covers"
    Util.gen_instance
    (fun desc ->
       let s = Util.build_ispec_nonzero desc in
       let n = 5 in
       Util.tt_is_cover ~nvars:n s (Bdd.constrain man s.f s.c)
       && Util.tt_is_cover ~nvars:n s (Bdd.restrict man s.f s.c))

let restrict_no_new_vars =
  Util.qtest ~count:300 "restrict never adds variables to f's support"
    Util.gen_instance
    (fun desc ->
       let s = Util.build_ispec_nonzero desc in
       let r = Bdd.restrict man s.f s.c in
       let sub a b = List.for_all (fun v -> List.mem v b) a in
       sub (Bdd.support man r) (Bdd.support man s.f))

let constrain_cube_is_cofactor =
  Util.qtest ~count:200 "constrain by a cube = Shannon cofactor"
    QCheck2.Gen.(
      let* desc = Util.gen_instance in
      let* v = int_range 0 4 in
      let* phase = bool in
      return (desc, v, phase))
    (fun (desc, v, phase) ->
       let f, _ = Util.build_instance desc in
       let cube = if phase then x v else Bdd.compl (x v) in
       Bdd.equal (Bdd.constrain man f cube) (Bdd.cofactor man f ~var:v phase))

let size_counts () =
  Util.checki "const" 1 (Bdd.size man (Bdd.one man));
  Util.checki "var" 2 (Bdd.size man (x 0));
  Util.checki "xor3" 4
    (Bdd.size man (Bdd.dxor man (x 0) (Bdd.dxor man (x 1) (x 2))));
  (* shared_size of f and its complement = size of f *)
  let f = Bdd.dor man (x 0) (Bdd.dand man (x 1) (x 2)) in
  Util.checki "shared with complement" (Bdd.size man f)
    (Bdd.shared_size man [ f; Bdd.compl f ])

let sat_count_checks =
  Util.qtest ~count:200 "sat_count matches truth table" Util.gen_instance
    (fun desc ->
       let f, _ = Util.build_instance desc in
       let n = 5 in
       let expected = Tt.count_ones (Tt.of_bdd man ~nvars:n f) in
       abs_float (Bdd.sat_count man f ~nvars:n -. float_of_int expected)
       < 1e-6)

let support_checks () =
  let f = Bdd.dand man (x 1) (Bdd.dor man (x 3) (x 4)) in
  Alcotest.(check (list int)) "support" [ 1; 3; 4 ] (Bdd.support man f);
  Alcotest.(check (list int)) "const support" [] (Bdd.support man (Bdd.one man))

let levels () =
  let f = Bdd.ite man (x 0) (x 1) (Bdd.compl (x 1)) in
  Util.checki "level 0" 1 (Bdd.nodes_at_level man f 0);
  Util.checki "level 1" 1 (Bdd.nodes_at_level man f 1);
  Util.checki "below 0" 2 (Bdd.count_below man f 0);
  Util.checki "below 5" 1 (Bdd.count_below man f 5)

let cube_roundtrip =
  Util.qtest ~count:200 "cube of_cube/to_cube round trip"
    QCheck2.Gen.(
      let* n = int_range 1 6 in
      let* mask = int_bound ((1 lsl n) - 1) in
      let* phases = int_bound ((1 lsl n) - 1) in
      return (n, mask, phases))
    (fun (n, mask, phases) ->
       let cube =
         List.filter_map
           (fun v ->
              if (mask lsr v) land 1 = 1 then
                Some (v, (phases lsr v) land 1 = 1)
              else None)
           (List.init n Fun.id)
       in
       let g = Bdd.Cube.of_cube man cube in
       Bdd.Cube.to_cube g = Some cube && Bdd.Cube.is_cube g)

let cube_enumeration () =
  let f = Bdd.dor man (Bdd.dand man (x 0) (x 1)) (Bdd.compl (x 0)) in
  let cubes = Bdd.Cube.all_cubes f in
  Util.checki "two paths" 2 (List.length cubes);
  (* every enumerated cube implies f *)
  List.iter
    (fun c -> Util.checkb "cube implies f" (Bdd.leq man (Bdd.Cube.of_cube man c) f))
    cubes;
  (* disjunction of all path cubes equals f *)
  let disj =
    Bdd.disj man (List.map (Bdd.Cube.of_cube man) cubes)
  in
  Util.checkb "cubes cover f" (Bdd.equal disj f)

let cube_limit () =
  let f = Bdd.dxor man (x 0) (Bdd.dxor man (x 1) (x 2)) in
  Util.checki "limit respected" 2
    (List.length (Bdd.Cube.all_cubes ~limit:2 f));
  Util.checkb "zero has no cube" (Bdd.Cube.any_cube (Bdd.zero man) = None);
  Util.checkb "one has empty cube" (Bdd.Cube.any_cube (Bdd.one man) = Some [])

let short_cube_shortest () =
  (* f = x0 + x1·x2·x3: shortest path cube has 1 literal *)
  let f =
    Bdd.dor man (x 0) (Bdd.dand man (x 1) (Bdd.dand man (x 2) (x 3)))
  in
  match Bdd.Cube.short_cube f with
  | Some c -> Util.checki "shortest" 1 (Bdd.Cube.literal_count c)
  | None -> Alcotest.fail "expected a cube"

let eval_checks =
  Util.qtest ~count:200 "eval agrees with truth table" Util.gen_instance
    (fun desc ->
       let f, _ = Util.build_instance desc in
       let t = Tt.of_bdd man ~nvars:5 f in
       List.for_all
         (fun m -> Bdd.eval f (fun v -> (m lsr v) land 1 = 1) = Tt.get t m)
         (List.init 32 Fun.id))

let dot_output () =
  let f = Bdd.ite man (x 0) (x 1) (Bdd.compl (x 2)) in
  let s = Bdd.Dot.to_dot [ ("f", f) ] in
  Util.checkb "digraph" (String.length s > 0 && String.sub s 0 7 = "digraph");
  Util.checkb "has terminal" (Util.contains s "t1")

let suite =
  [
    Alcotest.test_case "canonicity basic" `Quick canonicity;
    canonicity_random;
    boolean_algebra;
    cofactor_shannon;
    quantifiers;
    and_exists_law;
    compose_law;
    Alcotest.test_case "vector_compose swap" `Quick vector_compose_simultaneous;
    Alcotest.test_case "rename up and back" `Quick rename_updown;
    constrain_is_cover;
    restrict_no_new_vars;
    constrain_cube_is_cofactor;
    Alcotest.test_case "size counts" `Quick size_counts;
    sat_count_checks;
    Alcotest.test_case "support" `Quick support_checks;
    Alcotest.test_case "levels" `Quick levels;
    cube_roundtrip;
    Alcotest.test_case "cube enumeration" `Quick cube_enumeration;
    Alcotest.test_case "cube limits" `Quick cube_limit;
    Alcotest.test_case "short cube" `Quick short_cube_shortest;
    eval_checks;
    Alcotest.test_case "dot output" `Quick dot_output;
  ]
