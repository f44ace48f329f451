(* BDD serialization round trips and diagnostics. *)

module Tt = Logic.Truth_table

let roundtrip_random =
  Util.qtest ~count:120 "save/load round trip preserves functions"
    QCheck2.Gen.(
      let* n = int_range 0 6 in
      let* s1 = int_bound 0xFFFFF in
      let* s2 = int_bound 0xFFFFF in
      return (n, s1, s2))
    (fun (n, s1, s2) ->
       let man = Bdd.create () in
       let mk seed =
         let st = Random.State.make [| seed; n |] in
         Tt.to_bdd man (Tt.create n (fun _ -> Random.State.bool st))
       in
       let f = mk s1 and g = mk s2 in
       let text = Bdd.Store.save man [ ("f", f); ("g", g) ] in
       (* load into the same manager: must get the identical edges *)
       match Bdd.Store.load man text with
       | Ok [ ("f", f'); ("g", g') ] -> Bdd.equal f f' && Bdd.equal g g'
       | _ -> false)

let roundtrip_other_manager =
  Util.qtest ~count:80 "loading into a fresh manager preserves semantics"
    QCheck2.Gen.(
      let* n = int_range 0 5 in
      let* seed = int_bound 0xFFFFF in
      return (n, seed))
    (fun (n, seed) ->
       let man = Bdd.create () in
       let st = Random.State.make [| seed; n; 5 |] in
       let tt = Tt.create n (fun _ -> Random.State.bool st) in
       let f = Tt.to_bdd man tt in
       let text = Bdd.Store.save man [ ("f", f) ] in
       let man2 = Bdd.create () in
       match Bdd.Store.load man2 text with
       | Ok [ ("f", f') ] ->
         ignore (Bdd.self_check man2);
         Tt.equal tt (Tt.of_bdd man2 ~nvars:n f')
       | _ -> false)

let sharing_preserved () =
  let man = Bdd.create () in
  let x i = Bdd.ithvar man i in
  let shared = Bdd.dxor man (x 2) (x 3) in
  let f = Bdd.dand man (x 0) shared in
  let g = Bdd.dor man (x 1) shared in
  let text = Bdd.Store.save man [ ("f", f); ("g", g) ] in
  let man2 = Bdd.create () in
  match Bdd.Store.load man2 text with
  | Ok [ (_, f'); (_, g') ] ->
    Util.checki "shared size preserved"
      (Bdd.shared_size man [ f; g ])
      (Bdd.shared_size man2 [ f'; g' ])
  | Ok _ | Error _ -> Alcotest.fail "load failed"

let constants () =
  let man = Bdd.create () in
  let text =
    Bdd.Store.save man [ ("one", Bdd.one man); ("zero", Bdd.zero man) ]
  in
  match Bdd.Store.load man text with
  | Ok [ ("one", a); ("zero", b) ] ->
    Util.checkb "one" (Bdd.is_one a);
    Util.checkb "zero" (Bdd.is_zero b)
  | Ok _ | Error _ -> Alcotest.fail "load failed"

let malformed () =
  let man = Bdd.create () in
  List.iter
    (fun (what, text) ->
       Util.checkb what (Result.is_error (Bdd.Store.load man text)))
    [
      ("empty", "");
      ("no roots", "bdd 1\nnode 1 0 0 !0\n");
      ("unknown id", "bdd 1\nroot f 7\n");
      ("bad version", "bdd 9\nroot f 0\n");
      ("duplicate id", "bdd 1\nnode 1 0 0 !0\nnode 1 1 0 !0\nroot f 1\n");
      ("order violation", "bdd 1\nnode 1 3 0 !0\nnode 2 5 1 !0\nroot f 2\n");
      ("garbage", "bdd 1\nblah\n");
    ]

let redundant_nodes_tolerated () =
  (* a node with equal children is not canonical but must load fine *)
  let man = Bdd.create () in
  match Bdd.Store.load man "bdd 1\nnode 1 2 0 0\nroot f 1\n" with
  | Ok [ ("f", f) ] -> Util.checkb "collapsed to one" (Bdd.is_one f)
  | Ok _ | Error _ -> Alcotest.fail "load failed"

let file_roundtrip () =
  let man = Bdd.create () in
  let f = Bdd.dxor man (Bdd.ithvar man 0) (Bdd.ithvar man 1) in
  let path = Filename.temp_file "bddmin" ".bdd" in
  Bdd.Store.save_file path man [ ("f", f) ];
  (match Bdd.Store.load_file man path with
   | Ok [ ("f", f') ] -> Util.checkb "same" (Bdd.equal f f')
   | Ok _ | Error _ -> Alcotest.fail "load failed");
  Sys.remove path;
  Util.checkb "missing file is an error"
    (Result.is_error (Bdd.Store.load_file man path))

let header_placement () =
  let man = Bdd.create () in
  (* blank lines (including leading ones) are ignored; the header is the
     first non-blank line *)
  (match Bdd.Store.load man "\n\n   \nbdd 1\n\nroot f 0\n" with
   | Ok [ ("f", f) ] -> Util.checkb "one" (Bdd.is_one f)
   | Ok _ | Error _ -> Alcotest.fail "leading blank lines must be tolerated");
  Util.checkb "content before header is an error"
    (Result.is_error (Bdd.Store.load man "node 1 0 0 !0\nbdd 1\nroot f 1\n"));
  Util.checkb "second header is an error"
    (Result.is_error (Bdd.Store.load man "bdd 1\nbdd 1\nroot f 0\n"));
  Util.checkb "blank-only input still lacks a header"
    (Result.is_error (Bdd.Store.load man "\n\n\n"))

let duplicate_root_rejected () =
  let man = Bdd.create () in
  match Bdd.Store.load man "bdd 1\nroot f 0\nroot f !0\n" with
  | Error msg -> Util.checkb "mentions the name" (Util.contains msg "f")
  | Ok _ -> Alcotest.fail "duplicate root name must be rejected"

let variable_bound () =
  (* a variable index at or past [max_vars] is an [Error], not an
     unbounded growth of the projection table *)
  let man = Bdd.create () in
  let node var = Printf.sprintf "bdd 1\nnode 1 %d 0 !0\nroot f 1\n" var in
  (match Bdd.Store.load man (node 4611686018427387000) with
   | Error msg -> Util.checkb "names the variable" (Util.contains msg "variable")
   | Ok _ -> Alcotest.fail "a huge variable index must be rejected");
  Util.checkb "max_vars rejected"
    (Result.is_error (Bdd.Store.load man (node Bdd.max_vars)));
  Util.checkb "negative rejected" (Result.is_error (Bdd.Store.load man (node (-1))));
  (match Bdd.Store.load man (node (Bdd.max_vars - 1)) with
   | Ok [ ("f", f) ] ->
     Util.checki "the last index loads" (Bdd.max_vars - 1) (Bdd.topvar f)
   | Ok _ | Error _ -> Alcotest.fail "max_vars - 1 must load");
  Util.checkb "ithvar raises"
    (match Bdd.ithvar man Bdd.max_vars with
     | exception Invalid_argument _ -> true
     | _ -> false)

let save_rejects_non_roundtrippable_names () =
  let man = Bdd.create () in
  let f = Bdd.ithvar man 0 in
  let refuses what roots =
    match Bdd.Store.save man roots with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "save accepted %s" what
  in
  refuses "an empty name" [ ("", f) ];
  refuses "a space" [ ("a b", f) ];
  refuses "a tab" [ ("a\tb", f) ];
  refuses "a newline" [ ("a\nb", f) ];
  refuses "a carriage return" [ ("a\rb", f) ];
  refuses "a duplicate name" [ ("f", f); ("f", Bdd.compl f) ]

let roundtrip_complemented =
  (* complemented roots (and complement pairs) survive a round trip into
     a fresh manager *)
  Util.qtest ~count:80 "complemented roots round trip"
    QCheck2.Gen.(
      let* n = int_range 1 6 in
      let* seed = int_bound 0xFFFFF in
      return (n, seed))
    (fun (n, seed) ->
       let man = Bdd.create () in
       let st = Random.State.make [| seed; n; 11 |] in
       let tt = Tt.create n (fun _ -> Random.State.bool st) in
       let f = Tt.to_bdd man tt in
       let text = Bdd.Store.save man [ ("f", f); ("nf", Bdd.compl f) ] in
       let man2 = Bdd.create () in
       match Bdd.Store.load man2 text with
       | Ok [ ("f", f'); ("nf", nf') ] ->
         Tt.equal tt (Tt.of_bdd man2 ~nvars:n f')
         && Bdd.equal nf' (Bdd.compl f')
       | _ -> false)

let fuzz_mutations =
  (* mutating or truncating a valid file never makes [load] raise: it
     either still parses or reports an [Error] *)
  Util.qtest ~count:300 "mutated store text never raises"
    QCheck2.Gen.(
      let* seed = int_bound 0xFFFFF in
      let* pos_frac = float_bound_exclusive 1.0 in
      let* byte = int_bound 255 in
      let* mode = int_bound 2 in
      return (seed, pos_frac, byte, mode))
    (fun (seed, pos_frac, byte, mode) ->
       let man = Bdd.create () in
       let st = Random.State.make [| seed; 4; 17 |] in
       let tt = Tt.create 4 (fun _ -> Random.State.bool st) in
       let f = Tt.to_bdd man tt in
       let text = Bdd.Store.save man [ ("f", f) ] in
       let n = String.length text in
       let pos = min (n - 1) (int_of_float (pos_frac *. float_of_int n)) in
       let mutated =
         match mode with
         | 0 -> String.sub text 0 pos (* truncate *)
         | 1 ->
           let b = Bytes.of_string text in
           Bytes.set b pos (Char.chr byte);
           Bytes.to_string b
         | _ ->
           String.sub text 0 pos ^ Printf.sprintf " %d " byte
           ^ String.sub text pos (n - pos)
       in
       match Bdd.Store.load (Bdd.create ()) mutated with
       | Ok _ | Error _ -> true)

(* The Printf printer [Store.save] replaced, kept as the reference for
   its byte layout: nodes children-first from each root in turn, then
   the root lines. *)
let reference_save roots =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "bdd 1\n";
  let emitted = Hashtbl.create 64 in
  let edge_ref e =
    (if Bdd.uid e land 1 = 1 then "!" else "") ^ string_of_int (Bdd.node_id e)
  in
  let rec visit e =
    let id = Bdd.node_id e in
    if id <> 0 && not (Hashtbl.mem emitted id) then begin
      let reg = if Bdd.uid e land 1 = 1 then Bdd.compl e else e in
      let hi = Bdd.hi reg and lo = Bdd.lo reg in
      visit hi;
      visit lo;
      Hashtbl.add emitted id ();
      Buffer.add_string buf
        (Printf.sprintf "node %d %d %s %s\n" id (Bdd.topvar reg) (edge_ref hi)
           (edge_ref lo))
    end
  in
  List.iter (fun (_, e) -> visit e) roots;
  List.iter
    (fun (name, e) ->
       Buffer.add_string buf (Printf.sprintf "root %s %s\n" name (edge_ref e)))
    roots;
  Buffer.contents buf

let save_matches_reference =
  Util.qtest ~count:200 "save is byte-identical to the reference printer"
    QCheck2.Gen.(
      let* n = int_range 0 7 in
      let* k = int_range 1 4 in
      let* seed = int_bound 0xFFFFF in
      return (n, k, seed))
    (fun (n, k, seed) ->
       let man = Bdd.create () in
       let st = Random.State.make [| seed; n; k; 23 |] in
       let base =
         Tt.to_bdd man (Tt.create n (fun _ -> Random.State.bool st))
       in
       (* roots share the base DAG, some complemented, some constant *)
       let root i =
         let f =
           match Random.State.int st 5 with
           | 0 -> Bdd.one man
           | 1 -> Bdd.zero man
           | 2 -> base
           | _ ->
             Bdd.dxor man base
               (Tt.to_bdd man (Tt.create n (fun _ -> Random.State.bool st)))
         in
         (Printf.sprintf "r%d" i, if Random.State.bool st then Bdd.compl f else f)
       in
       let roots = List.init k root in
       Bdd.Store.save man roots = reference_save roots)

let integer_spellings () =
  (* every spelling [int_of_string] accepts is an id or a variable, as
     it always was: a sign, a radix prefix, underscores *)
  let man = Bdd.create () in
  let x i = Bdd.ithvar man i in
  let load text =
    match Bdd.Store.load man text with
    | Ok roots -> roots
    | Error msg -> Alcotest.failf "%S failed to load: %s" text msg
  in
  (match
     load "bdd 1\nnode +3 0 0 !0\nnode 0x1f 0b1 0 !0\nnode 1_0 +2 0 !0\n\
           root a 3\nroot b !31\nroot c 0o12\nroot d -0\n"
   with
   | [ ("a", a); ("b", b); ("c", c); ("d", d) ] ->
     Util.checkb "+3 is node 3" (Bdd.equal a (x 0));
     Util.checkb "0x1f is node 31, 0b1 variable 1" (Bdd.equal b (Bdd.compl (x 1)));
     Util.checkb "1_0 is node 10" (Bdd.equal c (x 2));
     Util.checkb "-0 is the terminal" (Bdd.is_one d)
   | _ -> Alcotest.fail "four roots expected");
  List.iter
    (fun (what, text, msg) ->
       match Bdd.Store.load man text with
       | Error m -> Util.check Alcotest.string what msg m
       | Ok _ -> Alcotest.failf "%s: loaded" what)
    [
      ("19 digits overflow", "bdd 1\nroot f 9999999999999999999\n",
       "bad edge 9999999999999999999");
      ("a lone bang", "bdd 1\nroot f !\n", "bad edge !");
      ("negative id", "bdd 1\nroot f -3\n", "unknown node id -3");
      ("doubled space", "bdd 1\nnode 1  0 0 !0\n",
       "line 2: cannot parse \"node 1  0 0 !0\"");
    ]

let canonical_fixpoint =
  (* a canonical text loads into a fresh manager with the same node ids,
     so saving it again gives the same text *)
  Util.qtest ~count:100 "save (load t) = t for a canonical t"
    QCheck2.Gen.(
      let* n = int_range 0 7 in
      let* seed = int_bound 0xFFFFF in
      return (n, seed))
    (fun (n, seed) ->
       let man = Bdd.create () in
       let st = Random.State.make [| seed; n; 29 |] in
       let tt () = Tt.create n (fun _ -> Random.State.bool st) in
       let f = Tt.to_bdd man (tt ()) and c = Tt.to_bdd man (tt ()) in
       let t = Bdd.Store.save man [ ("f", f); ("c", Bdd.compl c) ] in
       let canonical =
         let m = Bdd.create () in
         match Bdd.Store.load m t with
         | Ok roots -> Bdd.Store.save m roots
         | Error msg -> failwith msg
       in
       let m = Bdd.create () in
       match Bdd.Store.load m canonical with
       | Ok roots -> Bdd.Store.save m roots = canonical
       | Error _ -> false)

let suite =
  [
    roundtrip_random;
    roundtrip_other_manager;
    Alcotest.test_case "header placement" `Quick header_placement;
    Alcotest.test_case "duplicate root rejected" `Quick duplicate_root_rejected;
    Alcotest.test_case "variable index bound" `Quick variable_bound;
    Alcotest.test_case "save rejects non-round-trippable names" `Quick
      save_rejects_non_roundtrippable_names;
    roundtrip_complemented;
    fuzz_mutations;
    Alcotest.test_case "sharing preserved" `Quick sharing_preserved;
    Alcotest.test_case "constants" `Quick constants;
    Alcotest.test_case "malformed inputs" `Quick malformed;
    Alcotest.test_case "redundant nodes tolerated" `Quick
      redundant_nodes_tolerated;
    Alcotest.test_case "file round trip" `Quick file_roundtrip;
    save_matches_reference;
    Alcotest.test_case "integer spellings" `Quick integer_spellings;
    canonical_fixpoint;
  ]
