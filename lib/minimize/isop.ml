type t = { cubes : Bdd.Cube.cube list; cover : Bdd.t }

(* Minato-Morreale recursion on the interval (l, u), l <= u invariant.
   Returns the cube list and its function.  Cubes are built root-first. *)
let of_interval man ~lower ~upper =
  if not (Bdd.leq man lower upper) then
    invalid_arg "Isop.of_interval: empty interval";
  let memo = Hashtbl.create 256 in
  let rec go l u =
    if Bdd.is_zero l then ([], Bdd.zero man)
    else if Bdd.is_one u then ([ [] ], Bdd.one man)
    else
      let key = (Bdd.uid l, Bdd.uid u) in
      match Hashtbl.find_opt memo key with
      | Some r -> r
      | None ->
        let v = min (Bdd.topvar l) (Bdd.topvar u) in
        let l1, l0 = Bdd.branches l v and u1, u0 = Bdd.branches u v in
        (* Minterms that can only be covered with the ¬v literal, resp. v. *)
        let lneg = Bdd.diff man l0 u1 in
        let lpos = Bdd.diff man l1 u0 in
        let c0, f0 = go lneg u0 in
        let c1, f1 = go lpos u1 in
        (* What remains must be covered by cubes independent of v. *)
        let ld =
          Bdd.dor man (Bdd.diff man l0 f0) (Bdd.diff man l1 f1)
        in
        let cd, fd = go ld (Bdd.dand man u0 u1) in
        let var = Bdd.ithvar man v in
        let cubes =
          List.map (fun c -> (v, false) :: c) c0
          @ List.map (fun c -> (v, true) :: c) c1
          @ cd
        in
        let f =
          Bdd.dor man
            (Bdd.ite man var f1 f0)
            fd
        in
        let r = (cubes, f) in
        Hashtbl.add memo key r;
        r
  in
  let cubes, cover = go lower upper in
  { cubes; cover }

(* Same recursion, cover function only — avoids materializing cube lists
   that can be exponentially larger than their BDDs. *)
let cover_only man (s : Ispec.t) =
  let lower = Ispec.onset man s in
  let upper = Bdd.dor man s.f (Bdd.compl s.c) in
  let memo = Hashtbl.create 256 in
  let rec go l u =
    if Bdd.is_zero l then Bdd.zero man
    else if Bdd.is_one u then Bdd.one man
    else
      let key = (Bdd.uid l, Bdd.uid u) in
      match Hashtbl.find_opt memo key with
      | Some r -> r
      | None ->
        let v = min (Bdd.topvar l) (Bdd.topvar u) in
        let l1, l0 = Bdd.branches l v and u1, u0 = Bdd.branches u v in
        let f0 = go (Bdd.diff man l0 u1) u0 in
        let f1 = go (Bdd.diff man l1 u0) u1 in
        let ld = Bdd.dor man (Bdd.diff man l0 f0) (Bdd.diff man l1 f1) in
        let fd = go ld (Bdd.dand man u0 u1) in
        let r = Bdd.dor man (Bdd.ite man (Bdd.ithvar man v) f1 f0) fd in
        Hashtbl.add memo key r;
        r
  in
  go lower upper

let compute man (s : Ispec.t) =
  of_interval man ~lower:(Ispec.onset man s)
    ~upper:(Bdd.dor man s.f (Bdd.compl s.c))

let literal_count t =
  List.fold_left (fun acc c -> acc + List.length c) 0 t.cubes

let is_irredundant man ~lower t =
  let fns = List.map (Bdd.Cube.of_cube man) t.cubes in
  let rec check prefix = function
    | [] -> true
    | cube :: rest ->
      let others = Bdd.disj man (prefix @ rest) in
      (* dropping [cube] must leave part of [lower] uncovered *)
      (not (Bdd.leq man lower others)) && check (cube :: prefix) rest
  in
  check [] fns
