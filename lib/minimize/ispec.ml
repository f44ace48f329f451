type t = { f : Bdd.t; c : Bdd.t }

let make ~f ~c = { f; c }

let of_interval man ~lower ~upper =
  if not (Bdd.leq man lower upper) then
    invalid_arg "Ispec.of_interval: empty interval";
  { f = lower; c = Bdd.dor man lower (Bdd.compl upper) }

let onset man s = Bdd.dand man s.f s.c
let offset man s = Bdd.dand man (Bdd.compl s.f) s.c
let dc _man s = Bdd.compl s.c

let is_cover man s g = Bdd.agree man s.c s.f g

let is_i_cover man s1 s2 =
  Bdd.leq man s2.c s1.c && Bdd.agree man s2.c s1.f s2.f

let equal_ispec man s1 s2 = is_i_cover man s1 s2 && is_i_cover man s2 s1

let canonical_key man s = (Bdd.uid (onset man s), Bdd.uid s.c)

let compl s = { s with f = Bdd.compl s.f }

let care_is_cube s = Bdd.Cube.is_cube s.c
let care_implies_onset man s = Bdd.leq man s.c s.f
let care_implies_offset man s = Bdd.leq man s.c (Bdd.compl s.f)

let trivial man s =
  care_is_cube s || care_implies_onset man s || care_implies_offset man s

let c_onset_fraction man s =
  let vars =
    List.sort_uniq compare (Bdd.support man s.f @ Bdd.support man s.c)
  in
  let n = List.length vars in
  if n = 0 then if Bdd.is_one s.c then 1.0 else 0.0
  else Bdd.sat_count man s.c ~nvars:n /. (2.0 ** float_of_int n)
  (* The care set's support is within [vars], so counting over the union
     support space yields the paper's percentage. *)

let pp man ppf s =
  let vars =
    List.sort_uniq compare (Bdd.support man s.f @ Bdd.support man s.c)
  in
  let n = List.length vars in
  if n > 8 then
    Format.fprintf ppf "<ispec over %d vars, |f|=%d |c|=%d>" n
      (Bdd.size man s.f) (Bdd.size man s.c)
  else begin
    let arr = Array.of_list vars in
    (* Leaf order: variable [arr.(0)] is the most significant decision. *)
    for leaf = 0 to (1 lsl n) - 1 do
      let assign v =
        let rec idx i = if arr.(i) = v then i else idx (i + 1) in
        match Array.length arr with
        | 0 -> false
        | _ -> (leaf lsr (n - 1 - idx 0)) land 1 = 1
      in
      let ch =
        if not (Bdd.eval s.c assign) then 'd'
        else if Bdd.eval s.f assign then '1'
        else '0'
      in
      Format.pp_print_char ppf ch
    done
  end
