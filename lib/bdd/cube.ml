type literal = int * bool
type cube = literal list

let of_cube man c =
  let add acc (v, phase) =
    let lit = Core_dd.ithvar man v in
    let lit = if phase then lit else Core_dd.compl lit in
    Core_dd.dand man acc lit
  in
  List.fold_left add (Core_dd.one man) c

let to_cube f =
  let rec go acc f =
    if Core_dd.is_one f then Some (List.rev acc)
    else if Core_dd.is_zero f then None
    else
      let v = Core_dd.topvar f in
      let t = Core_dd.hi f and e = Core_dd.lo f in
      if Core_dd.is_zero e then go ((v, true) :: acc) t
      else if Core_dd.is_zero t then go ((v, false) :: acc) e
      else None
  in
  go [] f

let is_cube f = to_cube f <> None

exception Stop

let iter_cubes ?limit f k =
  let remaining = ref (match limit with Some n -> n | None -> max_int) in
  let rec go acc f =
    if Core_dd.is_one f then begin
      if !remaining <= 0 then raise Stop;
      decr remaining;
      k (List.rev acc)
    end
    else if not (Core_dd.is_zero f) then begin
      let v = Core_dd.topvar f in
      go ((v, true) :: acc) (Core_dd.hi f);
      go ((v, false) :: acc) (Core_dd.lo f)
    end
  in
  match limit with
  | Some n when n <= 0 -> ()
  | _ -> ( try go [] f with Stop -> ())

let all_cubes ?limit f =
  let acc = ref [] in
  iter_cubes ?limit f (fun c -> acc := c :: !acc);
  List.rev !acc

let any_cube f =
  let found = ref None in
  iter_cubes ~limit:1 f (fun c -> found := Some c);
  !found

let literal_count c = List.length c

(* Fewest-literal path to the 1 terminal: dynamic programming on nodes. *)
let short_cube f =
  if Core_dd.is_zero f then None
  else begin
    let memo = Hashtbl.create 64 in
    (* best path (length, reversed literals) from edge to constant one *)
    let rec best f =
      if Core_dd.is_one f then Some (0, [])
      else if Core_dd.is_zero f then None
      else
        match Hashtbl.find_opt memo (Core_dd.uid f) with
        | Some r -> r
        | None ->
          let v = Core_dd.topvar f in
          let via phase child =
            match best child with
            | None -> None
            | Some (n, lits) -> Some (n + 1, (v, phase) :: lits)
          in
          let r =
            match (via true (Core_dd.hi f), via false (Core_dd.lo f)) with
            | (Some (a, la), Some (b, lb)) ->
              if a <= b then Some (a, la) else Some (b, lb)
            | (Some r, None) | (None, Some r) -> Some r
            | (None, None) -> None
          in
          Hashtbl.add memo (Core_dd.uid f) r;
          r
    in
    match best f with
    | None -> None
    | Some (_, lits) -> Some lits
  end

let pp ppf c =
  match c with
  | [] -> Format.pp_print_string ppf "1"
  | _ ->
    let pp_lit ppf (v, phase) =
      Format.fprintf ppf "%sx%d" (if phase then "" else "\xc2\xac") v
    in
    Format.pp_print_list
      ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "\xc2\xb7")
      pp_lit ppf c
