(* Incompletely specified functions: cover/i-cover algebra, the trivial
   filter, onset fractions, printing. *)

module I = Minimize.Ispec
module Tt = Logic.Truth_table

let man = Util.man
let nvars = 5

let cover_definition =
  Util.qtest ~count:300 "is_cover matches the truth-table definition"
    QCheck2.Gen.(
      let* a = Util.gen_instance in
      let* g = int_bound 0xFFFFF in
      return (a, g))
    (fun (desc, gseed) ->
       let s = Util.build_ispec_nonzero desc in
       let st = Random.State.make [| gseed |] in
       let g = Tt.to_bdd man (Tt.create nvars (fun _ -> Random.State.bool st)) in
       I.is_cover man s g = Util.tt_is_cover ~nvars s g)

let f_is_always_cover =
  Util.qtest ~count:200 "f, onset and f + !c all cover [f; c]"
    Util.gen_instance
    (fun desc ->
       let s = Util.build_ispec_nonzero desc in
       I.is_cover man s s.I.f
       && I.is_cover man s (I.onset man s)
       && I.is_cover man s (Bdd.dor man s.I.f (Bdd.compl s.I.c)))

let i_cover_reflexive_transitive =
  Util.qtest ~count:200 "i-cover is reflexive and transitive"
    QCheck2.Gen.(
      let* a = Util.gen_instance in
      let* b = Util.gen_instance in
      let* c = Util.gen_instance in
      return (a, b, c))
    (fun (a, b, c) ->
       let s1 = Util.build_ispec_nonzero a
       and s2 = Util.build_ispec_nonzero b
       and s3 = Util.build_ispec_nonzero c in
       I.is_i_cover man s1 s1
       && ((not (I.is_i_cover man s1 s2 && I.is_i_cover man s2 s3))
           || I.is_i_cover man s1 s3))

let i_cover_means_covers_transfer =
  Util.qtest ~count:200 "covers of an i-cover cover the i-covered"
    QCheck2.Gen.(
      let* a = Util.gen_instance in
      let* b = Util.gen_instance in
      let* g = int_bound 0xFFFFF in
      return (a, b, g))
    (fun (a, b, gseed) ->
       let s1 = Util.build_ispec_nonzero a
       and s2 = Util.build_ispec_nonzero b in
       if not (I.is_i_cover man s1 s2) then true
       else begin
         let st = Random.State.make [| gseed; 11 |] in
         (* a random cover of s1: onset plus random DC points *)
         let dc = I.dc man s1 in
         let noise =
           Tt.to_bdd man (Tt.create nvars (fun _ -> Random.State.bool st))
         in
         let g =
           Bdd.dor man (I.onset man s1) (Bdd.dand man dc noise)
         in
         I.is_cover man s1 g && I.is_cover man s2 g
       end)

let equal_ispec_and_keys =
  Util.qtest ~count:300 "canonical keys identify semantic equality"
    QCheck2.Gen.(
      let* a = Util.gen_instance in
      let* b = Util.gen_instance in
      return (a, b))
    (fun (a, b) ->
       let s1 = Util.build_ispec_nonzero a
       and s2 = Util.build_ispec_nonzero b in
       (I.canonical_key man s1 = I.canonical_key man s2)
       = I.equal_ispec man s1 s2)

let compl_covers =
  Util.qtest ~count:200 "covers of the complement are complements of covers"
    Util.gen_instance
    (fun desc ->
       let s = Util.build_ispec_nonzero desc in
       let g = Bdd.constrain man s.I.f s.I.c in
       I.is_cover man (I.compl s) (Bdd.compl g))

let interval_reduction =
  Util.qtest ~count:200 "of_interval: covers are exactly the interval members"
    QCheck2.Gen.(
      let* a = Util.gen_instance in
      let* b = Util.gen_instance in
      return (a, b))
    (fun (a, b) ->
       let f1, _ = Util.build_instance a and f2, _ = Util.build_instance b in
       let lower = Bdd.dand man f1 f2 and upper = Bdd.dor man f1 f2 in
       let s = I.of_interval man ~lower ~upper in
       I.is_cover man s lower && I.is_cover man s upper
       && I.is_cover man s f1 && I.is_cover man s f2
       && ((not (Bdd.is_zero (Bdd.diff man upper lower)))
           || Bdd.equal lower upper))

let interval_rejects_empty () =
  let v = Bdd.ithvar man 0 in
  Util.checkb "empty interval"
    (match I.of_interval man ~lower:v ~upper:(Bdd.compl v) with
     | exception Invalid_argument _ -> true
     | _ -> false)

let trivial_filter =
  Util.qtest ~count:300 "trivial = cube care or contained care"
    Util.gen_instance
    (fun desc ->
       let s = Util.build_ispec_nonzero desc in
       I.trivial man s
       = (Bdd.Cube.is_cube s.I.c
          || Bdd.leq man s.I.c s.I.f
          || Bdd.leq man s.I.c (Bdd.compl s.I.f)))

let onset_fraction =
  Util.qtest ~count:200 "c_onset_fraction counts care minterms over the support"
    Util.gen_instance
    (fun desc ->
       let s = Util.build_ispec_nonzero desc in
       let vars =
         List.sort_uniq compare
           (Bdd.support man s.I.f @ Bdd.support man s.I.c)
       in
       let n = List.length vars in
       if n = 0 then true
       else
         let expected =
           Bdd.sat_count man s.I.c ~nvars:n /. (2.0 ** float_of_int n)
         in
         abs_float (I.c_onset_fraction man s -. expected) < 1e-9)

let pp_small () =
  let f, c = Tt.paper_instance "d1 01" in
  let s = I.make ~f:(Tt.to_bdd man f) ~c:(Tt.to_bdd man c) in
  Alcotest.(check string) "round trip" "d101"
    (Format.asprintf "%a" (I.pp man) s)

let suite =
  [
    cover_definition;
    f_is_always_cover;
    i_cover_reflexive_transitive;
    i_cover_means_covers_transfer;
    equal_ispec_and_keys;
    compl_covers;
    interval_reduction;
    Alcotest.test_case "interval rejects empty" `Quick interval_rejects_empty;
    trivial_filter;
    onset_fraction;
    Alcotest.test_case "paper-notation printing" `Quick pp_small;
  ]
