(* ADDs: hash-consed decision nodes over integer terminals.  Canonical
   form: no node has equal children; terminals are interned per value. *)

type node = {
  id : int;
  var : int;  (* max_int for terminals *)
  value : int;  (* meaningful for terminals only *)
  hi : node;
  lo : node;
}

type t = node

type man = {
  unique : (int * int * int, node) Hashtbl.t;  (* (var, hi id, lo id) *)
  constants : (int, node) Hashtbl.t;
  mutable next_id : int;
}

let new_man () =
  { unique = Hashtbl.create 1024; constants = Hashtbl.create 64; next_id = 0 }

let const man v =
  match Hashtbl.find_opt man.constants v with
  | Some n -> n
  | None ->
    let rec n = { id = man.next_id; var = max_int; value = v; hi = n; lo = n } in
    man.next_id <- man.next_id + 1;
    Hashtbl.add man.constants v n;
    n

let is_const a = a.var = max_int
let value a = if is_const a then Some a.value else None
let equal a b = a == b

let mk man v ~hi ~lo =
  assert (v < hi.var && v < lo.var);
  if hi == lo then hi
  else
    let key = (v, hi.id, lo.id) in
    match Hashtbl.find_opt man.unique key with
    | Some n -> n
    | None ->
      let n = { id = man.next_id; var = v; value = 0; hi; lo } in
      man.next_id <- man.next_id + 1;
      Hashtbl.add man.unique key n;
      n

let ite_var man v t e = mk man v ~hi:t ~lo:e

let of_bdd man bdd ~high ~low =
  let memo = Hashtbl.create 256 in
  let rec go e =
    if Core_dd.is_one e then const man high
    else if Core_dd.is_zero e then const man low
    else
      match Hashtbl.find_opt memo (Core_dd.uid e) with
      | Some r -> r
      | None ->
        let r =
          mk man (Core_dd.topvar e) ~hi:(go (Core_dd.hi e))
            ~lo:(go (Core_dd.lo e))
        in
        Hashtbl.add memo (Core_dd.uid e) r;
        r
  in
  go bdd

let to_bdd man a ~pred bman =
  ignore man;
  let memo = Hashtbl.create 256 in
  let rec go a =
    if is_const a then
      if pred a.value then Core_dd.one bman else Core_dd.zero bman
    else
      match Hashtbl.find_opt memo a.id with
      | Some r -> r
      | None ->
        let r =
          Core_dd.ite bman
            (Core_dd.ithvar bman a.var)
            (go a.hi) (go a.lo)
        in
        Hashtbl.add memo a.id r;
        r
  in
  go a

let branches a v =
  if a.var = v then (a.hi, a.lo) else (a, a)

let apply2 man f a b =
  let memo = Hashtbl.create 256 in
  let rec go a b =
    if is_const a && is_const b then const man (f a.value b.value)
    else
      match Hashtbl.find_opt memo (a.id, b.id) with
      | Some r -> r
      | None ->
        let v = min a.var b.var in
        let at, ae = branches a v and bt, be = branches b v in
        let r = mk man v ~hi:(go at bt) ~lo:(go ae be) in
        Hashtbl.add memo (a.id, b.id) r;
        r
  in
  go a b

let map man f a =
  let memo = Hashtbl.create 256 in
  let rec go a =
    if is_const a then const man (f a.value)
    else
      match Hashtbl.find_opt memo a.id with
      | Some r -> r
      | None ->
        let r = mk man a.var ~hi:(go a.hi) ~lo:(go a.lo) in
        Hashtbl.add memo a.id r;
        r
  in
  go a

let add man a b = apply2 man ( + ) a b
let min2 man a b = apply2 man min a b
let max2 man a b = apply2 man max a b

let eval a assign =
  let rec go a =
    if is_const a then a.value
    else if assign a.var then go a.hi
    else go a.lo
  in
  go a

let fold_terminals man a f init =
  ignore man;
  let seen = Hashtbl.create 64 in
  let acc = ref init in
  let rec go a =
    if not (Hashtbl.mem seen a.id) then begin
      Hashtbl.add seen a.id ();
      if is_const a then acc := f !acc a.value
      else begin
        go a.hi;
        go a.lo
      end
    end
  in
  go a;
  !acc

let min_value man a = fold_terminals man a min max_int
let max_value man a = fold_terminals man a max min_int

let size man a =
  ignore man;
  let seen = Hashtbl.create 64 in
  let count = ref 0 in
  let rec go a =
    if not (Hashtbl.mem seen a.id) then begin
      Hashtbl.add seen a.id ();
      incr count;
      if not (is_const a) then begin
        go a.hi;
        go a.lo
      end
    end
  in
  go a;
  !count

let terminals man a =
  List.sort compare (fold_terminals man a (fun acc v -> v :: acc) [])
