type plane = On | Off | Dc

type row = { input : string; output : string }

type t = {
  num_inputs : int;
  num_outputs : int;
  input_labels : string list;
  output_labels : string list;
  typ : string;
  rows : row list;
}

exception Malformed of string

let fail fmt = Printf.ksprintf (fun s -> raise (Malformed s)) fmt

let tokens line =
  String.split_on_char ' ' line
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun s -> s <> "")

let parse text =
  let ni = ref (-1) and no = ref (-1) in
  let ilb = ref [] and ob = ref [] in
  let typ = ref "fd" in
  let rows = ref [] in
  let handle line =
    let line = String.trim line in
    if line = "" || line.[0] = '#' then ()
    else if line.[0] = '.' then begin
      match tokens line with
      | ".i" :: [ n ] -> ni := int_of_string n
      | ".o" :: [ n ] -> no := int_of_string n
      | ".ilb" :: labels -> ilb := labels
      | ".ob" :: labels -> ob := labels
      | ".type" :: [ t ] ->
        if not (List.mem t [ "f"; "fd"; "fr"; "fdr" ]) then
          fail "unsupported .type %s" t;
        typ := t
      | ".p" :: _ | ".e" :: _ | ".end" :: _ -> ()
      | d :: _ -> fail "unsupported directive %s" d
      | [] -> ()
    end
    else begin
      match tokens line with
      | [ input; output ] -> rows := { input; output } :: !rows
      | [ combined ] when !ni > 0 && String.length combined = !ni + !no ->
        rows :=
          { input = String.sub combined 0 !ni;
            output = String.sub combined !ni !no }
          :: !rows
      | _ -> fail "cannot parse row %S" line
    end
  in
  match
    List.iter handle (String.split_on_char '\n' text);
    if !ni <= 0 then fail ".i missing or not positive";
    if !no <= 0 then fail ".o missing or not positive";
    let default_labels prefix n = List.init n (Printf.sprintf "%s%d" prefix) in
    let input_labels =
      if !ilb = [] then default_labels "x" !ni
      else if List.length !ilb <> !ni then fail ".ilb arity mismatch"
      else !ilb
    in
    let output_labels =
      if !ob = [] then default_labels "f" !no
      else if List.length !ob <> !no then fail ".ob arity mismatch"
      else !ob
    in
    let check_row r =
      if String.length r.input <> !ni then
        fail "input plane %S has wrong width" r.input;
      if String.length r.output <> !no then
        fail "output plane %S has wrong width" r.output;
      String.iter
        (fun ch ->
           if not (List.mem ch [ '0'; '1'; '-' ]) then
             fail "bad input character %c" ch)
        r.input;
      String.iter
        (fun ch ->
           if not (List.mem ch [ '0'; '1'; '-'; '~'; '2'; '4' ]) then
             fail "bad output character %c" ch)
        r.output
    in
    List.iter check_row !rows;
    {
      num_inputs = !ni;
      num_outputs = !no;
      input_labels;
      output_labels;
      typ = !typ;
      rows = List.rev !rows;
    }
  with
  | pla -> Ok pla
  | exception Malformed m -> Error m
  | exception Failure _ -> Error "malformed number"

let parse_file path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  parse text

let print pla =
  let buf = Buffer.create 1024 in
  Printf.bprintf buf ".i %d\n.o %d\n" pla.num_inputs pla.num_outputs;
  Printf.bprintf buf ".ilb %s\n" (String.concat " " pla.input_labels);
  Printf.bprintf buf ".ob %s\n" (String.concat " " pla.output_labels);
  if pla.typ <> "fd" then Printf.bprintf buf ".type %s\n" pla.typ;
  Printf.bprintf buf ".p %d\n" (List.length pla.rows);
  List.iter
    (fun r -> Printf.bprintf buf "%s %s\n" r.input r.output)
    pla.rows;
  Buffer.add_string buf ".e\n";
  Buffer.contents buf

let input_cube man input =
  let acc = ref (Bdd.one man) in
  String.iteri
    (fun v ch ->
       match ch with
       | '1' -> acc := Bdd.dand man !acc (Bdd.ithvar man v)
       | '0' -> acc := Bdd.dand man !acc (Bdd.compl (Bdd.ithvar man v))
       | _ -> ())
    input;
  !acc

(* Which plane a given output character contributes to, per PLA type. *)
let plane_of typ ch =
  match (typ, ch) with
  | (_, ('0' | '~')) -> None
  | (_, '1') -> Some On
  | (("fd" | "fdr"), ('-' | '2')) -> Some Dc
  | (("fr" | "fdr"), '4') -> Some Off
  | (("f" | "fr"), ('-' | '2')) -> None
  | (("f" | "fd"), '4') -> None
  | _ -> None

let functions man pla =
  let zero = Bdd.zero man in
  let on = Array.make pla.num_outputs zero in
  let off = Array.make pla.num_outputs zero in
  let dc = Array.make pla.num_outputs zero in
  List.iter
    (fun r ->
       let cube = input_cube man r.input in
       String.iteri
         (fun o ch ->
            match plane_of pla.typ ch with
            | Some On -> on.(o) <- Bdd.dor man on.(o) cube
            | Some Off -> off.(o) <- Bdd.dor man off.(o) cube
            | Some Dc -> dc.(o) <- Bdd.dor man dc.(o) cube
            | None -> ())
         r.output)
    pla.rows;
  List.mapi
    (fun o label ->
       if not (Bdd.agree man on.(o) off.(o) (Bdd.zero man)) then
         invalid_arg
           (Printf.sprintf "Pla.functions: output %s has ON ∩ OFF ≠ ∅" label);
       let care =
         match pla.typ with
         | "f" -> Bdd.one man
         | "fd" -> Bdd.compl dc.(o)
         | "fr" -> Bdd.dor man on.(o) off.(o)
         | "fdr" -> Bdd.compl dc.(o)
         | _ -> assert false
       in
       (label, (on.(o), care)))
    pla.output_labels

let of_covers ~num_inputs ?input_labels covers =
  let input_labels =
    match input_labels with
    | Some l ->
      if List.length l <> num_inputs then
        invalid_arg "Pla.of_covers: label arity mismatch";
      l
    | None -> List.init num_inputs (Printf.sprintf "x%d")
  in
  let num_outputs = List.length covers in
  if num_outputs = 0 then invalid_arg "Pla.of_covers: no outputs";
  let row_of o cube =
    let input =
      String.init num_inputs (fun v ->
          match List.assoc_opt v cube with
          | Some true -> '1'
          | Some false -> '0'
          | None -> '-')
    in
    let output =
      String.init num_outputs (fun i -> if i = o then '1' else '0')
    in
    { input; output }
  in
  {
    num_inputs;
    num_outputs;
    input_labels;
    output_labels = List.map fst covers;
    typ = "fd";
    rows =
      List.concat
        (List.mapi (fun o (_, cubes) -> List.map (row_of o) cubes) covers);
  }
