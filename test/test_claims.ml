(* Claims traceability: every test that docs/CLAIMS.md names in its
   "Verified by" column must be registered, so renaming or deleting a
   test cannot silently orphan one of the paper's claims.

   Each backticked span of that column is one reference:
   - [suite → case]: a registered case of [suite].  A trailing […]
     leaves the end of the name open (prefix match), a leading one its
     start;
   - [… case]: a case, matched the same way, of the suite last named in
     the same cell;
   - [suite]: a registered suite;
   - a span containing ['/']: a file of the repository (a test
     reference when it lies under [test/]);
   - a span starting with ["bddmin "]: a CLI invocation, not checked.

   The "Implementation" column is checked the same way, so deleting
   code cannot orphan a claim either: each [Module.name] span (its first
   word; [a/b] names alternatives, each checked) must name a [let],
   [val], [external], type, constructor or submodule of that module's
   [.ml]/[.mli] under [lib/] ([Bdd] is [Core_dd] re-exported), and every
   other span containing ['/'] must be a file of the repository. *)

let claims = 36
let arrow = " → "
let ellipsis = "…"

(* The repository root, seen from the test's working directory (the
   build sandbox under [dune runtest], the checkout under [dune exec]). *)
let root () =
  match
    List.find_opt
      (fun d -> Sys.file_exists (Filename.concat d "docs/CLAIMS.md"))
      [ "."; ".." ]
  with
  | Some d -> d
  | None -> Alcotest.fail "docs/CLAIMS.md not found"

let find_sub s sub =
  let n = String.length s and k = String.length sub in
  let rec go i =
    if i + k > n then None
    else if String.sub s i k = sub then Some i
    else go (i + 1)
  in
  go 0

(* Split a table row on the pipes outside code spans (case names such
   as "constrain can grow |f|" contain pipes). *)
let cells line =
  let buf = Buffer.create 64 and out = ref [] and code = ref false in
  String.iter
    (fun ch ->
       if ch = '`' then code := not !code;
       if ch = '|' && not !code then begin
         out := Buffer.contents buf :: !out;
         Buffer.clear buf
       end
       else Buffer.add_char buf ch)
    line;
  List.rev (Buffer.contents buf :: !out)

let code_spans cell =
  match String.split_on_char '`' cell with
  | [] -> []
  | _ :: rest -> List.filteri (fun i _ -> i mod 2 = 0) rest

(* The claim rows: number, "Implementation" and "Verified by" cells. *)
let rows text =
  List.filter_map
    (fun line ->
       match cells line with
       | [ ""; num; _claim; impl; verified; "" ] ->
         Option.map
           (fun n -> (n, impl, verified))
           (int_of_string_opt (String.trim num))
       | _ -> None)
    (String.split_on_char '\n' text)

let strip_prefix ~prefix s =
  if String.starts_with ~prefix s then
    let k = String.length prefix in
    Some (String.trim (String.sub s k (String.length s - k)))
  else None

let strip_suffix ~suffix s =
  if String.ends_with ~suffix s then
    let k = String.length s - String.length suffix in
    Some (String.trim (String.sub s 0 k))
  else None

let case_matches pattern name =
  let open_start, p =
    match strip_prefix ~prefix:ellipsis pattern with
    | Some p -> (true, p)
    | None -> (false, pattern)
  in
  let open_end, p =
    match strip_suffix ~suffix:ellipsis p with
    | Some p -> (true, p)
    | None -> (false, p)
  in
  match (open_start, open_end) with
  | false, false -> name = p
  | false, true -> String.starts_with ~prefix:p name
  | true, false -> String.ends_with ~suffix:p name
  | true, true -> Util.contains name p

let check registered () =
  let root = root () in
  let text =
    In_channel.with_open_text (Filename.concat root "docs/CLAIMS.md")
      In_channel.input_all
  in
  let cases suite =
    Option.map
      (List.map (fun (name, _, _) -> name))
      (List.assoc_opt suite registered)
  in
  let rows = rows text in
  Util.check
    Alcotest.(list int)
    "claims numbered 1..36"
    (List.init claims succ)
    (List.map (fun (n, _, _) -> n) rows);
  let errors = ref [] in
  let error n fmt =
    Printf.ksprintf
      (fun m -> errors := Printf.sprintf "claim %d: %s" n m :: !errors)
      fmt
  in
  List.iter
    (fun (n, _, verified) ->
       let last_suite = ref None and tests = ref 0 in
       let case_ref suite pattern =
         match cases suite with
         | None -> error n "no suite %S" suite
         | Some names ->
           if List.exists (case_matches pattern) names then incr tests
           else error n "suite %S has no case %S" suite pattern
       in
       List.iter
         (fun span ->
            match find_sub span arrow with
            | Some i ->
              let suite = String.sub span 0 i in
              let j = i + String.length arrow in
              last_suite := Some suite;
              case_ref suite
                (String.trim (String.sub span j (String.length span - j)))
            | None when String.starts_with ~prefix:ellipsis span -> (
                match !last_suite with
                | Some suite -> case_ref suite span
                | None -> error n "%S follows no named suite" span)
            | None when String.contains span '/' ->
              if not (Sys.file_exists (Filename.concat root span)) then
                error n "no file %S" span
              else if String.starts_with ~prefix:"test/" span then incr tests
            | None when String.starts_with ~prefix:"bddmin " span -> ()
            | None -> (
                match cases span with
                | Some _ ->
                  last_suite := Some span;
                  incr tests
                | None ->
                  error n "%S is neither a suite, a case nor a file" span))
         (code_spans verified);
       if !tests = 0 then error n "no test reference")
    rows;
  Util.check Alcotest.(list string) "dangling references" [] (List.rev !errors)

(* ----- the Implementation column ----- *)

(* [src] with comments (nested), string and character literals blanked,
   so that a word of prose cannot pass for a definition. *)
let code_only src =
  let n = String.length src in
  let out = Bytes.of_string src in
  let blank i = if src.[i] <> '\n' then Bytes.set out i ' ' in
  let rec string_end i =
    if i >= n then n
    else if src.[i] = '\\' then string_end (i + 2)
    else if src.[i] = '"' then i + 1
    else string_end (i + 1)
  in
  let rec go i depth =
    if i < n then
      if i + 1 < n && src.[i] = '(' && src.[i + 1] = '*' then begin
        blank i;
        blank (i + 1);
        go (i + 2) (depth + 1)
      end
      else if depth > 0 && i + 1 < n && src.[i] = '*' && src.[i + 1] = ')'
      then begin
        blank i;
        blank (i + 1);
        go (i + 2) (depth - 1)
      end
      else if depth = 0 && src.[i] = '"' then begin
        let j = string_end (i + 1) in
        for k = i to j - 1 do blank k done;
        go j depth
      end
      else if depth = 0 && src.[i] = '\'' && i + 2 < n
              && (src.[i + 2] = '\'' || src.[i + 1] = '\\') then begin
        (* a character literal: 'c' or an escape up to the closing quote *)
        let j =
          match String.index_from_opt src (i + 2) '\'' with
          | Some j -> j + 1
          | None -> n
        in
        for k = i to j - 1 do blank k done;
        go j depth
      end
      else begin
        if depth > 0 then blank i;
        go (i + 1) depth
      end
  in
  go 0 0;
  Bytes.to_string out

let is_ident_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true
  | _ -> false

(* Identifiers and one-character symbols, attributes ([[@...]]) dropped. *)
let tokens src =
  let src = code_only src in
  let n = String.length src in
  let rec go i acc =
    if i >= n then List.rev acc
    else
      match src.[i] with
      | ' ' | '\t' | '\n' | '\r' -> go (i + 1) acc
      | '[' when i + 1 < n && src.[i + 1] = '@' ->
        let j =
          match String.index_from_opt src i ']' with
          | Some j -> j + 1
          | None -> n
        in
        go j acc
      | c when is_ident_char c ->
        let j = ref i in
        while !j < n && is_ident_char src.[!j] do incr j done;
        go !j (String.sub src i (!j - i) :: acc)
      | c -> go (i + 1) (String.make 1 c :: acc)
  in
  go 0 []

let capitalised s = s <> "" && match s.[0] with 'A' .. 'Z' -> true | _ -> false

(* The names a source file defines: what follows [let], [rec], [and],
   [val], [external], [type] or [module], and a capitalised word after [|] or
   [=] that is not a module path (a constructor). *)
let definitions src =
  let defs = Hashtbl.create 64 in
  let rec go = function
    | kw :: name :: rest
      when List.mem kw
             [ "let"; "rec"; "and"; "val"; "external"; "type"; "module" ] ->
      Hashtbl.replace defs name ();
      go (name :: rest)
    | ("|" | "=") :: name :: next :: rest when capitalised name && next <> "." ->
      Hashtbl.replace defs name ();
      go (name :: next :: rest)
    | _ :: rest -> go rest
    | [] -> ()
  in
  go (tokens src);
  defs

(* The sources of the last module of [path] under [lib/]: [Bdd] is
   [Core_dd] re-exported, and a leading library name narrows the search
   to that library's directory. *)
let module_files root path =
  let lib = Filename.concat root "lib" in
  let libs = List.sort compare (Array.to_list (Sys.readdir lib)) in
  let last = List.nth path (List.length path - 1) in
  let base = if last = "Bdd" then "core_dd" else String.uncapitalize_ascii last in
  let dirs =
    match path with
    | first :: _ :: _ when List.mem (String.uncapitalize_ascii first) libs ->
      [ String.uncapitalize_ascii first ]
    | _ -> libs
  in
  List.concat_map
    (fun d ->
       List.filter Sys.file_exists
         (List.map
            (fun ext -> Filename.concat (Filename.concat lib d) (base ^ ext))
            [ ".ml"; ".mli" ]))
    dirs

let check_implementation () =
  let root = root () in
  let text =
    In_channel.with_open_text (Filename.concat root "docs/CLAIMS.md")
      In_channel.input_all
  in
  let defs_of = Hashtbl.create 16 in
  let defined file name =
    let defs =
      match Hashtbl.find_opt defs_of file with
      | Some d -> d
      | None ->
        let d = definitions (In_channel.with_open_text file In_channel.input_all) in
        Hashtbl.add defs_of file d;
        d
    in
    Hashtbl.mem defs name
  in
  let errors = ref [] in
  let error n fmt =
    Printf.ksprintf
      (fun m -> errors := Printf.sprintf "claim %d: %s" n m :: !errors)
      fmt
  in
  List.iter
    (fun (n, impl, _) ->
       List.iter
         (fun span ->
            let word = List.hd (String.split_on_char ' ' (String.trim span)) in
            if capitalised word then
              match List.rev (String.split_on_char '.' word) with
              | names :: (_ :: _ as rev_path) -> (
                  let path = List.rev rev_path in
                  match module_files root path with
                  | [] -> error n "no source for module %S" (String.concat "." path)
                  | files ->
                    List.iter
                      (fun name ->
                         if not (List.exists (fun f -> defined f name) files) then
                           error n "%S defines no %S" (String.concat "." path) name)
                      (String.split_on_char '/' names))
              | _ -> error n "%S is not Module.name" word
            else if String.contains word '/' then begin
              if not (Sys.file_exists (Filename.concat root word)) then
                error n "no file %S" word
            end
            else error n "%S is neither Module.name nor a file" word)
         (code_spans impl))
    (rows text);
  Util.check Alcotest.(list string) "undefined implementations" [] (List.rev !errors)

let suite registered =
  [
    Alcotest.test_case "every CLAIMS.md test reference is registered" `Quick
      (check registered);
    Alcotest.test_case "every CLAIMS.md implementation is defined" `Quick
      check_implementation;
  ]
