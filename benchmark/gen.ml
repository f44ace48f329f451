(* Seeded input generation.  Every input the program sees is made here
   from the run's seed; each purpose draws from its own stream so that
   adding a draw to one never shifts another. *)

let stream seed purpose = Random.State.make [| seed; purpose |]

(* Random sparse-logic machines, kept at eight latches or fewer: at ten,
   some products of a machine with a mutant of it took over 6 s and 1 GB
   to check. *)
let random_fsms ~seed ~purpose ~count ~latches ~depth =
  let st = stream seed purpose in
  List.init count (fun i ->
      let name = Printf.sprintf "rnd_s%d_%d" seed i in
      let p =
        { Circuits.Random_fsm.latches; inputs = 4; depth;
          seed = Random.State.bits st }
      in
      (name, Circuits.Random_fsm.make ~name p))

let registry name =
  match Circuits.Registry.find name with
  | Some b -> b.Circuits.Registry.build ()
  | None -> invalid_arg ("unknown registry machine " ^ name)

(* ----- capture ----- *)

(* The light part of the paper's suite: together about 1.7 s of capture
   at 40 calls each.  mult4b (14 s), cbp.6.2 (5 s) and rnd953 (3 s)
   would leave room for no more than one pass in a run. *)
let capture_registry =
  [ "counter8"; "bcd2"; "gray6"; "johnson8"; "lfsr10"; "tlc"; "minmax4";
    "arbiter4"; "rnd344"; "rnd1488"; "rndstyr"; "rndtbk" ]

(* Seven latches: at eight, one machine's capture took 0.04 to 0.21 s
   depending on the seed, enough to move a 1.7 s pass by 10%. *)
let capture_machines ~seed =
  List.map (fun n -> (n, registry n)) capture_registry
  @ random_fsms ~seed ~purpose:1 ~count:2 ~latches:7 ~depth:3

(* ----- verify ----- *)

type verify_machine = {
  vname : string;
  nl : Fsm.Netlist.t;
  mutant : Fsm.Netlist.t option;
}

(* (machine, check a seeded mutant of it).  The mutant flips one seeded
   latch's reset value.  Over all of [Circuits.Mutate]'s fault kinds the
   cost of a mutant check varied up to 50 times for one machine; over the
   reset flips of the machines with a mutant here it varies by at most a
   third.  Flips of lfsr10 (71 to 201 ms), rnd344 (25 to 149 ms),
   rndstyr (264 to 526 ms) and rnd1488 (10 to 27 ms) vary more, which
   made the slowest operations depend on the seed; rndtbk's cost 0.75 s,
   a quarter of a pass.  They and the random machines get no mutant. *)
let verify_registry =
  [ ("lfsr10", false); ("counter8", true); ("minmax4", true);
    ("rnd344", false); ("rndstyr", false); ("cbp.6.2", true); ("gray6", true);
    ("tlc", true); ("rnd1488", false); ("rndtbk", false) ]

let verify_machines ~seed =
  let st = stream seed 2 in
  let mutant nl =
    match
      List.filter
        (fun (_, (m : Circuits.Mutate.mutation)) -> m.kind = Flip_init)
        (Circuits.Mutate.all_single_mutations nl)
    with
    | [] -> None
    | flips -> Some (fst (List.nth flips (Random.State.int st (List.length flips))))
  in
  let fixed =
    List.map
      (fun (n, mutate) ->
         let nl = registry n in
         { vname = n; nl; mutant = (if mutate then mutant nl else None) })
      verify_registry
  in
  (* six latches keep the random machines' operations (1 to 5 ms) below
     the median one; at eight they took 5 to 22 ms, around it *)
  let random =
    List.map
      (fun (n, nl) -> { vname = n; nl; mutant = None })
      (random_fsms ~seed ~purpose:3 ~count:2 ~latches:6 ~depth:3)
  in
  fixed @ random

(* ----- serve-cold ----- *)

(* Dense random incompletely specified functions, shipped as Store text.
   [bases] onsets and [bases] care sets combine into bases² distinct
   instances, so every request of a run misses the result cache; the
   pairs are visited in a seeded order. *)
type cold = { onsets : string array; cares : string array; order : (int * int) array }

let cold_nvars = 12

let cold_inputs ?(bases = 64) ~seed () =
  let st = stream seed 4 in
  let man = Bdd.create () in
  let table name density =
    let tt =
      Logic.Truth_table.create cold_nvars (fun _ -> Random.State.int st 100 < density)
    in
    Bdd.Store.save man [ (name, Logic.Truth_table.to_bdd man tt) ]
  in
  let onsets = Array.init bases (fun _ -> table "f" 50) in
  let cares = Array.init bases (fun _ -> table "c" 75) in
  let order = Array.init (bases * bases) (fun k -> (k / bases, k mod bases)) in
  for i = Array.length order - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- t
  done;
  { onsets; cares; order }

(* One Store document holding the onset's and the care set's DAGs: the
   care set's node ids move past the onset's. *)
let merge_store f_text c_text =
  let off = 1_000_000 in
  let id s = string_of_int (int_of_string s + off) in
  let edge e =
    if e = "0" || e = "!0" then e
    else if e.[0] = '!' then "!" ^ id (String.sub e 1 (String.length e - 1))
    else id e
  in
  let lines =
    List.filter_map
      (fun l ->
         match String.split_on_char ' ' l with
         | [ "node"; n; v; hi; lo ] ->
           Some (String.concat " " [ "node"; id n; v; edge hi; edge lo ])
         | [ "root"; n; e ] -> Some (String.concat " " [ "root"; n; edge e ])
         | _ -> None)
      (String.split_on_char '\n' c_text)
  in
  String.concat "\n" (String.trim f_text :: lines) ^ "\n"

let cold_request cold k =
  let i, j = cold.order.(k mod Array.length cold.order) in
  merge_store cold.onsets.(i) cold.cares.(j)

(* ----- serve-hot ----- *)

(* [count] distinct non-trivial minimization instances, as the paper's
   application meets them: the frontier and image-cofactor calls of a
   self-equivalence check on seeded random machines.  Only instances whose
   Store text is 1500 to 2500 bytes long are kept: unfiltered, the median
   length ranged from 1.3 to 3.9 kB between seeds, and so did the cost of
   a request. *)
exception Enough

let hot_instances ?(count = 64) ~seed () =
  let lo, hi = (1500, 2500) in
  let st = stream seed 5 in
  let seen = Hashtbl.create count in
  let found = ref [] in
  let machines = ref 0 in
  while Hashtbl.length seen < count do
    incr machines;
    if !machines > 1000 then failwith "hot_instances: too few instances";
    let nl =
      Circuits.Random_fsm.make
        { latches = 8; inputs = 4; depth = 3; seed = Random.State.bits st }
    in
    let man = Bdd.create () in
    let take ~iteration:_ (inst : Minimize.Ispec.t) =
      if not (Minimize.Ispec.trivial man inst) then begin
        let text = Bdd.Store.save man [ ("f", inst.f); ("c", inst.c) ] in
        let n = String.length text in
        if lo <= n && n <= hi && not (Hashtbl.mem seen text) then begin
          Hashtbl.add seen text ();
          found := text :: !found;
          (* stop the traversal once there are enough *)
          if Hashtbl.length seen = count then raise Enough
        end
      end
    in
    try ignore (Fsm.Equiv.check_self man nl ~on_instance:take ~on_image_constrain:take)
    with Enough -> ()
  done;
  Array.of_list (List.rev !found)

(* Zipf(1) over [n] ranks: rank r drawn with weight 1/(r+1). *)
let zipf n =
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  for r = 0 to n - 1 do
    acc := !acc +. (1.0 /. float_of_int (r + 1));
    cdf.(r) <- !acc
  done;
  fun st ->
    let u = Random.State.float st !acc in
    let rec find lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if cdf.(mid) > u then find lo mid else find (mid + 1) hi
    in
    min (n - 1) (find 0 (n - 1))
