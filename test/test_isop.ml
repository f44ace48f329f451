(* The Minato-Morreale ISOP extension: interval containment,
   irredundancy, agreement between the cube list and its function. *)

module I = Minimize.Ispec
module Isop = Minimize.Isop

let man = Util.man
let nvars = 5

let in_interval =
  Util.qtest ~count:250 "ISOP function lies in the interval (is a cover)"
    Util.gen_instance
    (fun desc ->
       let s = Util.build_ispec_nonzero desc in
       let r = Isop.compute man s in
       Util.tt_is_cover ~nvars s r.Isop.cover
       && Bdd.equal r.Isop.cover (Isop.cover_only man s))

let cubes_match_function =
  Util.qtest ~count:250 "the cube list's disjunction equals the function"
    Util.gen_instance
    (fun desc ->
       let s = Util.build_ispec_nonzero desc in
       let r = Isop.compute man s in
       let disj =
         Bdd.disj man (List.map (Bdd.Cube.of_cube man) r.Isop.cubes)
       in
       Bdd.equal disj r.Isop.cover)

let irredundant =
  Util.qtest ~count:250 "the cover is irredundant" Util.gen_instance
    (fun desc ->
       let s = Util.build_ispec_nonzero desc in
       let r = Isop.compute man s in
       Isop.is_irredundant man ~lower:(I.onset man s) r)

let prime_cubes =
  Util.qtest ~count:150 "every cube is prime with respect to the upper bound"
    Util.gen_instance
    (fun desc ->
       let s = Util.build_ispec_nonzero desc in
       let upper = Bdd.dor man s.I.f (Bdd.compl s.I.c) in
       let r = Isop.compute man s in
       List.for_all
         (fun cube ->
            (* dropping any literal must leave the interval *)
            List.for_all
              (fun lit ->
                 let expanded =
                   Bdd.Cube.of_cube man (List.filter (( <> ) lit) cube)
                 in
                 not (Bdd.leq man expanded upper))
              cube)
         r.Isop.cubes)

let exact_on_full_care =
  Util.qtest ~count:150 "c = 1: the cover is f itself" Util.gen_instance
    (fun desc ->
       let f, _ = Util.build_instance desc in
       let s = I.make ~f ~c:(Bdd.one man) in
       Bdd.equal (Isop.compute man s).Isop.cover f)

let degenerate_cases () =
  let zero = Bdd.zero man and one = Bdd.one man in
  let r = Isop.of_interval man ~lower:zero ~upper:zero in
  Util.checki "empty interval: no cubes" 0 (List.length r.Isop.cubes);
  Util.checkb "empty cover" (Bdd.is_zero r.Isop.cover);
  let r = Isop.of_interval man ~lower:one ~upper:one in
  Alcotest.(check (list (list (pair int bool)))) "tautology" [ [] ] r.Isop.cubes;
  Util.checkb "reversed interval rejected"
    (match Isop.of_interval man ~lower:one ~upper:zero with
     | exception Invalid_argument _ -> true
     | _ -> false)

let bcd_example () =
  (* Segment 'e' of the 7-segment decoder: with BCD don't cares the ISOP
     needs very few cubes. *)
  let on = [ 0; 2; 6; 8 ] in
  let f =
    Logic.Truth_table.to_bdd man
      (Logic.Truth_table.create 4 (fun m -> List.mem m on))
  in
  let c =
    Logic.Truth_table.to_bdd man (Logic.Truth_table.create 4 (fun m -> m < 10))
  in
  let s = I.make ~f ~c in
  let r = Isop.compute man s in
  Util.checkb "is cover" (I.is_cover man s r.Isop.cover);
  Util.checkb "few cubes" (List.length r.Isop.cubes <= 3)

let registry_entry =
  Util.qtest ~count:100 "the isop registry entry returns covers"
    Util.gen_instance
    (fun desc ->
       let s = Util.build_ispec_nonzero desc in
       match Minimize.Registry.find "isop" with
       | None -> false
       | Some e ->
         Util.tt_is_cover ~nvars s
           (e.Minimize.Registry.run (Minimize.Ctx.of_man man) s))

let suite =
  [
    in_interval;
    cubes_match_function;
    irredundant;
    prime_cubes;
    exact_on_full_care;
    Alcotest.test_case "degenerate intervals" `Quick degenerate_cases;
    Alcotest.test_case "BCD decoder segment" `Quick bcd_example;
    registry_entry;
  ]
