(* A root name round-trips iff [load]'s space-splitting line parser can
   recover it: non-empty and free of any whitespace (space, tab, newline,
   carriage return — the latter two would also corrupt the line
   structure, and a CR would be silently eaten by the trim on the way
   back in). *)
let root_name_roundtrips name =
  name <> ""
  && not
       (String.exists
          (fun c -> c = ' ' || c = '\t' || c = '\n' || c = '\r')
          name)

(* Decimal digits of a non-negative int, straight into the buffer. *)
let rec add_nat buf n =
  if n >= 10 then add_nat buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))

let add_edge buf e =
  if Core_dd.uid e land 1 = 1 then Buffer.add_char buf '!';
  add_nat buf (Core_dd.node_id e)

let save man roots =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "bdd 1\n";
  Core_dd.iter_nodes_post man (List.map snd roots) (fun id var hi lo ->
      Buffer.add_string buf "node ";
      add_nat buf id;
      Buffer.add_char buf ' ';
      add_nat buf var;
      Buffer.add_char buf ' ';
      add_edge buf hi;
      Buffer.add_char buf ' ';
      add_edge buf lo;
      Buffer.add_char buf '\n');
  let rec emit earlier = function
    | [] -> ()
    | (name, e) :: rest ->
      if not (root_name_roundtrips name) then
        invalid_arg
          (Printf.sprintf
             "Store.save: root name %S cannot round-trip (must be \
              non-empty and contain no whitespace)"
             name);
      if List.mem name earlier then
        invalid_arg
          (Printf.sprintf "Store.save: duplicate root name %S" name);
      Buffer.add_string buf "root ";
      Buffer.add_string buf name;
      Buffer.add_char buf ' ';
      add_edge buf e;
      Buffer.add_char buf '\n';
      emit (name :: earlier) rest
  in
  emit [] roots;
  Buffer.contents buf

let save_file path man roots =
  let oc = open_out path in
  output_string oc (save man roots);
  close_out oc

exception Bad of string

module Itbl = Hashtbl.Make (Int)

(* What [String.trim] strips, less the newline that ends a line. *)
let is_blank c = c = ' ' || c = '\t' || c = '\r' || c = '\012'

let rec matches text a lit i =
  i = String.length lit
  || (String.unsafe_get text (a + i) = String.unsafe_get lit i
      && matches text a lit (i + 1))

(* The value of the decimal digits in [text.[i..b)], or [-1] at the
   first other byte. *)
let rec decimal text i b acc =
  if i = b then acc
  else
    match String.unsafe_get text i with
    | '0' .. '9' as c -> decimal text (i + 1) b ((acc * 10) + Char.code c - 48)
    | _ -> -1

(* The integer [text.[a..b)] spells; [Not_found] where
   [int_of_string_opt] says [None].  Up to 18 plain digits cannot
   overflow and are read in place; any other spelling (a sign, a radix
   prefix, underscores, 19+ digits) goes through [int_of_string_opt]. *)
let int_in text a b =
  let n = if b > a && b - a <= 18 then decimal text a b 0 else -1 in
  if n >= 0 then n
  else
    match int_of_string_opt (String.sub text a (b - a)) with
    | Some n -> n
    | None -> raise Not_found

(* One pass over the text, splitting lines in place.  Each line is
   trimmed and split on single spaces — exactly [String.trim] then
   [String.split_on_char ' '], so doubled spaces make empty words — into
   word bounds [ws.(2k)], [ws.(2k+1)]; a sixth word only marks the line
   too long for any valid form. *)
let load man text =
  let len = String.length text in
  (* node id -> edge, sized for lines of about 16 bytes *)
  let ids = Itbl.create ((len / 16) + 1) in
  Itbl.add ids 0 (Core_dd.one man);
  let ws = Array.make 12 0 in
  let word k = String.sub text ws.(2 * k) (ws.((2 * k) + 1) - ws.(2 * k)) in
  let is k lit =
    ws.((2 * k) + 1) - ws.(2 * k) = String.length lit
    && matches text ws.(2 * k) lit 0
  in
  let int_word k = int_in text ws.(2 * k) ws.((2 * k) + 1) in
  let edge k =
    let a = ws.(2 * k) and b = ws.((2 * k) + 1) in
    let complemented = b > a && text.[a] = '!' in
    match int_in text (if complemented then a + 1 else a) b with
    | exception Not_found -> raise (Bad ("bad edge " ^ word k))
    | id -> (
        match Itbl.find ids id with
        | exception Not_found ->
          raise (Bad (Printf.sprintf "unknown node id %d" id))
        | e -> if complemented then Core_dd.compl e else e)
  in
  let roots = ref [] in
  (* The header is the first non-blank line, wherever that falls: leading
     blank lines (or trailing ones a transport appended) must not shift a
     valid document into a parse error. *)
  let header_seen = ref false in
  let handle lineno s e =
    let a = ref s and b = ref e in
    while !a < !b && is_blank text.[!a] do incr a done;
    while !b > !a && is_blank text.[!b - 1] do decr b done;
    let nw = ref 0 and start = ref !a in
    for i = !a to !b do
      if (i = !b || text.[i] = ' ') && !nw < 6 then begin
        ws.(2 * !nw) <- !start;
        ws.((2 * !nw) + 1) <- i;
        incr nw;
        start := i + 1
      end
    done;
    let nw = !nw in
    if !a = !b then ()
    else if not !header_seen then begin
      if nw = 2 && is 0 "bdd" then
        if is 1 "1" then header_seen := true
        else raise (Bad ("unsupported version " ^ word 1))
      else
        raise
          (Bad
             (Printf.sprintf "line %d: expected the \"bdd 1\" header, got %S"
                (lineno + 1) (String.sub text s (e - s))))
    end
    else if nw = 5 && is 0 "node" then begin
      match (int_word 1, int_word 2) with
      | exception Not_found ->
        raise (Bad ("bad node line: " ^ String.sub text s (e - s)))
      | (_, var) when var < 0 || var >= Core_dd.max_vars ->
        raise
          (Bad
             (Printf.sprintf "line %d: variable %d outside [0, %d)"
                (lineno + 1) var Core_dd.max_vars))
      | (id, var) when id > 0 ->
        if Itbl.mem ids id then
          raise (Bad (Printf.sprintf "duplicate node id %d" id));
        let hi = edge 3 in
        let lo = edge 4 in
        if var >= Core_dd.topvar hi || var >= Core_dd.topvar lo then
          raise (Bad (Printf.sprintf "node %d violates the order" id));
        (* The order check puts [var] above both children, so [mk] is
           the whole canonicalization (a redundant node collapses). *)
        ignore (Core_dd.ithvar man var);
        Itbl.add ids id (Core_dd.mk man var ~hi ~lo)
      | _ -> raise (Bad ("bad node line: " ^ String.sub text s (e - s)))
    end
    else if nw = 3 && is 0 "root" then begin
      let name = word 1 in
      if List.mem_assoc name !roots then
        raise (Bad (Printf.sprintf "duplicate root name %S" name));
      roots := (name, edge 2) :: !roots
    end
    else
      raise
        (Bad
           (Printf.sprintf "line %d: cannot parse %S" (lineno + 1)
              (String.sub text s (e - s))))
  in
  let rec lines lineno s =
    match String.index_from text s '\n' with
    | e ->
      handle lineno s e;
      lines (lineno + 1) (e + 1)
    | exception Not_found -> handle lineno s len
  in
  match
    lines 0 0;
    List.rev !roots
  with
  | roots ->
    if roots = [] then Error "no roots in input" else Ok roots
  | exception Bad msg -> Error msg

let load_file man path =
  match
    let ic = open_in path in
    let len = in_channel_length ic in
    let text = really_input_string ic len in
    close_in ic;
    text
  with
  | text -> load man text
  | exception Sys_error e -> Error e
