let edge_syntax id complemented =
  if complemented then "!" ^ string_of_int id else string_of_int id

let is_complemented e = Core_dd.uid e land 1 = 1

(* A root name round-trips iff [load]'s space-splitting line parser can
   recover it: non-empty and free of any whitespace (space, tab, newline,
   carriage return — the latter two would also corrupt the line
   structure, and a CR would be silently eaten by [String.trim] on the
   way back in). *)
let root_name_roundtrips name =
  name <> ""
  && not
       (String.exists
          (fun c -> c = ' ' || c = '\t' || c = '\n' || c = '\r')
          name)

let save _man roots =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "bdd 1\n";
  let emitted = Hashtbl.create 64 in
  let edge_ref e = edge_syntax (Core_dd.node_id e) (is_complemented e) in
  (* Emit nodes children-first.  [visit] walks the regular view. *)
  let rec visit e =
    let id = Core_dd.node_id e in
    if id <> 0 && not (Hashtbl.mem emitted id) then begin
      let reg = if is_complemented e then Core_dd.compl e else e in
      let hi = Core_dd.hi reg and lo = Core_dd.lo reg in
      visit hi;
      visit lo;
      Hashtbl.add emitted id ();
      Buffer.add_string buf
        (Printf.sprintf "node %d %d %s %s\n" id (Core_dd.topvar reg)
           (edge_ref hi) (edge_ref lo))
    end
  in
  List.iter (fun (_, e) -> visit e) roots;
  let seen_names = Hashtbl.create 8 in
  List.iter
    (fun (name, e) ->
       if not (root_name_roundtrips name) then
         invalid_arg
           (Printf.sprintf
              "Store.save: root name %S cannot round-trip (must be \
               non-empty and contain no whitespace)"
              name);
       if Hashtbl.mem seen_names name then
         invalid_arg
           (Printf.sprintf "Store.save: duplicate root name %S" name);
       Hashtbl.add seen_names name ();
       Buffer.add_string buf (Printf.sprintf "root %s %s\n" name (edge_ref e)))
    roots;
  Buffer.contents buf

let save_file path man roots =
  let oc = open_out path in
  output_string oc (save man roots);
  close_out oc

exception Bad of string

let load man text =
  let table : (int, Core_dd.t) Hashtbl.t = Hashtbl.create 64 in
  Hashtbl.add table 0 (Core_dd.one man);
  let parse_edge s =
    let complemented = String.length s > 0 && s.[0] = '!' in
    let id_str = if complemented then String.sub s 1 (String.length s - 1) else s in
    match int_of_string_opt id_str with
    | None -> raise (Bad ("bad edge " ^ s))
    | Some id -> (
        match Hashtbl.find_opt table id with
        | None -> raise (Bad (Printf.sprintf "unknown node id %d" id))
        | Some e -> if complemented then Core_dd.compl e else e)
  in
  let roots = ref [] in
  let root_names = Hashtbl.create 8 in
  (* The header is the first non-blank line, wherever that falls: leading
     blank lines (or trailing ones a transport appended) must not shift a
     valid document into a parse error. *)
  let header_seen = ref false in
  let handle lineno line =
    match String.split_on_char ' ' (String.trim line) with
    | [ "" ] -> ()
    | [ "bdd"; "1" ] when not !header_seen -> header_seen := true
    | [ "bdd"; v ] when not !header_seen ->
      raise (Bad ("unsupported version " ^ v))
    | _ when not !header_seen ->
      raise
        (Bad
           (Printf.sprintf "line %d: expected the \"bdd 1\" header, got %S"
              (lineno + 1) line))
    | [ "node"; id; var; hi; lo ] -> begin
        match (int_of_string_opt id, int_of_string_opt var) with
        | (Some _, Some var) when var < 0 || var >= Core_dd.max_vars ->
          raise
            (Bad
               (Printf.sprintf "line %d: variable %d outside [0, %d)"
                  (lineno + 1) var Core_dd.max_vars))
        | (Some id, Some var) when id > 0 ->
          if Hashtbl.mem table id then
            raise (Bad (Printf.sprintf "duplicate node id %d" id));
          let hi = parse_edge hi and lo = parse_edge lo in
          if var >= Core_dd.topvar hi || var >= Core_dd.topvar lo then
            raise (Bad (Printf.sprintf "node %d violates the order" id));
          (* Re-canonicalize through ITE (also tolerates redundant nodes). *)
          let e = Core_dd.ite man (Core_dd.ithvar man var) hi lo in
          Hashtbl.add table id e
        | _ -> raise (Bad ("bad node line: " ^ line))
      end
    | [ "root"; name; edge ] ->
      if Hashtbl.mem root_names name then
        raise (Bad (Printf.sprintf "duplicate root name %S" name));
      Hashtbl.add root_names name ();
      roots := (name, parse_edge edge) :: !roots
    | _ -> raise (Bad (Printf.sprintf "line %d: cannot parse %S" (lineno + 1) line))
  in
  match
    List.iteri handle (String.split_on_char '\n' text);
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
