(* Rebuild-based variable reordering and sifting. *)

module Tt = Logic.Truth_table

let fresh () = Bdd.create ()

(* The classic order-sensitive family: x0·x_k + x1·x_{k+1} + ... is linear
   under the interleaved order and exponential under the separated one. *)
let conjunction_pairs man k ~interleaved =
  let pair i =
    if interleaved then
      Bdd.dand man (Bdd.ithvar man (2 * i)) (Bdd.ithvar man ((2 * i) + 1))
    else Bdd.dand man (Bdd.ithvar man i) (Bdd.ithvar man (k + i))
  in
  Bdd.disj man (List.init k pair)

let rebuild_preserves_semantics =
  Util.qtest ~count:100 "rebuild: new function = old function modulo levels"
    QCheck2.Gen.(
      let* n = int_range 1 6 in
      let* seed = int_bound 0xFFFFF in
      let* pseed = int_bound 0xFFFF in
      return (n, seed, pseed))
    (fun (n, seed, pseed) ->
       let man = fresh () in
       let st = Random.State.make [| seed; n |] in
       let tt = Tt.create n (fun _ -> Random.State.bool st) in
       let f = Tt.to_bdd man tt in
       (* random permutation of 0..n-1 *)
       let placement = Array.init n Fun.id in
       let pst = Random.State.make [| pseed |] in
       for i = n - 1 downto 1 do
         let j = Random.State.int pst (i + 1) in
         let tmp = placement.(i) in
         placement.(i) <- placement.(j);
         placement.(j) <- tmp
       done;
       let target, rebuilt = Bdd.Reorder.rebuild man ~placement [ f ] in
       ignore (Bdd.self_check target);
       match rebuilt with
       | [ g ] ->
         List.for_all
           (fun m ->
              let old_assign v = (m lsr v) land 1 = 1 in
              let new_assign level =
                (* find the variable placed at this level *)
                let rec find v =
                  if placement.(v) = level then old_assign v else find (v + 1)
                in
                find 0
              in
              ignore target;
              Bdd.eval g new_assign = Tt.get tt m)
           (List.init (1 lsl n) Fun.id)
       | _ -> false)

let separated_vs_interleaved () =
  let k = 6 in
  let man = fresh () in
  let bad = conjunction_pairs man k ~interleaved:false in
  let good = conjunction_pairs man k ~interleaved:true in
  let bad_size = Bdd.size man bad and good_size = Bdd.size man good in
  Util.checkb "separated order blows up" (bad_size > 3 * good_size);
  (* sifting recovers (close to) the interleaved size *)
  let _, sifted_size = Bdd.Reorder.sift man [ bad ] in
  Util.checkb
    (Printf.sprintf "sifting recovers linear size (%d -> %d, target %d)"
       bad_size sifted_size good_size)
    (sifted_size <= good_size + 2)

let sift_never_worse =
  Util.qtest ~count:60 "sifting never increases the shared size"
    QCheck2.Gen.(
      let* n = int_range 1 6 in
      let* seed = int_bound 0xFFFFF in
      return (n, seed))
    (fun (n, seed) ->
       let man = fresh () in
       let st = Random.State.make [| seed; n; 3 |] in
       let fs =
         List.init 2 (fun _ ->
             Tt.to_bdd man (Tt.create n (fun _ -> Random.State.bool st)))
       in
       let before = Bdd.shared_size man fs in
       let placement, after = Bdd.Reorder.sift man fs in
       after <= before
       && after = Bdd.Reorder.shared_size_under man ~placement fs)

let sift_rebuild_consistent =
  Util.qtest ~count:40 "sift + rebuild yields the promised size"
    QCheck2.Gen.(
      let* n = int_range 1 5 in
      let* seed = int_bound 0xFFFFF in
      return (n, seed))
    (fun (n, seed) ->
       let man = fresh () in
       let st = Random.State.make [| seed; n; 7 |] in
       let f = Tt.to_bdd man (Tt.create n (fun _ -> Random.State.bool st)) in
       let placement, expected = Bdd.Reorder.sift man [ f ] in
       let target, rebuilt = Bdd.Reorder.rebuild man ~placement [ f ] in
       Bdd.shared_size target rebuilt = expected)

let bad_placements_rejected () =
  let man = fresh () in
  let f = Bdd.dand man (Bdd.ithvar man 0) (Bdd.ithvar man 1) in
  Util.checkb "non-injective"
    (match Bdd.Reorder.rebuild man ~placement:[| 0; 0 |] [ f ] with
     | exception Invalid_argument _ -> true
     | _ -> false);
  Util.checkb "too short"
    (match Bdd.Reorder.rebuild man ~placement:[| 0 |] [ f ] with
     | exception Invalid_argument _ -> true
     | _ -> false)

let constants_and_singletons () =
  let man = fresh () in
  let placement, size = Bdd.Reorder.sift man [ Bdd.one man ] in
  Util.checki "constant size" 1 size;
  Util.checkb "identity placement" (placement.(0) = 0);
  let v = Bdd.ithvar man 3 in
  let _, size = Bdd.Reorder.sift man [ v ] in
  Util.checki "single variable" 2 size

let suite =
  [
    rebuild_preserves_semantics;
    Alcotest.test_case "sifting fixes a separated order" `Quick
      separated_vs_interleaved;
    sift_never_worse;
    sift_rebuild_consistent;
    Alcotest.test_case "bad placements rejected" `Quick bad_placements_rejected;
    Alcotest.test_case "constants and singletons" `Quick
      constants_and_singletons;
  ]
