(* Cover identity: every registry entry's cover on seeded dense
   12-variable instances, shaped like the serve-cold benchmark's (onset
   density 50%, care density 75%), digested independently of manager
   node ids and pinned by one checksum.  An engine or minimizer change
   that is meant to keep every verdict must keep this checksum; a change
   that moves it changed some cover. *)

module Tt = Logic.Truth_table
module R = Minimize.Registry

let instances = 200

(* [opt_lv] costs about ten times the rest of the catalogue together on
   these instances, so it runs on every [opt_lv_stride]-th one. *)
let opt_lv_stride = 40

let instance man k =
  let st = Random.State.make [| 0xc0fe; k |] in
  let table density =
    Tt.to_bdd man (Tt.create 12 (fun _ -> Random.State.int st 100 < density))
  in
  let f = table 50 in
  let c = table 75 in
  Minimize.Ispec.make ~f ~c

(* Children first, then-child first, internal nodes numbered from 1 in
   visiting order (the terminal is 0), so the text depends only on the
   DAG and not on the manager's node ids. *)
let digest_cover buf man g =
  let num = Hashtbl.create 64 in
  let put x sep =
    Buffer.add_string buf (string_of_int x);
    Buffer.add_char buf sep
  in
  let edge e =
    let n = if Bdd.is_const e then 0 else Hashtbl.find num (Bdd.node_id e) in
    if Bdd.uid e land 1 = 1 then -n - 1 else n
  in
  Bdd.iter_nodes_post man [ g ] (fun id var hi lo ->
      Hashtbl.add num id (Hashtbl.length num + 1);
      put var ' ';
      put (edge hi) ' ';
      put (edge lo) ';');
  put (edge g) '\n'

(* The digest text of instances [lo, hi), on one manager reset before
   each instance as a serve worker's resident manager is. *)
let covers_text lo hi =
  let man = Bdd.create () in
  let buf = Buffer.create (1 lsl 16) in
  for k = lo to hi - 1 do
    Bdd.reset man;
    let s = instance man k in
    List.iter
      (fun (e : R.entry) ->
         if e.name <> "opt_lv" || k mod opt_lv_stride = 0 then begin
           Printf.bprintf buf "%d %s=" k e.name;
           digest_cover buf man (R.run e (Minimize.Ctx.of_man man) s)
         end)
      R.all
  done;
  Buffer.contents buf

(* Two halves on two domains, joined in instance order. *)
let covers_checksum () =
  let half = instances / 2 in
  let second = Domain.spawn (fun () -> covers_text half instances) in
  let first = covers_text 0 half in
  Digest.to_hex (Digest.string (first ^ Domain.join second))

let covers_identical () =
  Alcotest.(check string) "combined cover digest"
    "d77c4472cfa02c1b7b8d1ff9ab6f64bc" (covers_checksum ())

let suite =
  [
    Alcotest.test_case "every entry's covers on 200 dense instances" `Quick
      covers_identical;
  ]
