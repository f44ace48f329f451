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
   - a span starting with ["bddmin "]: a CLI invocation, not checked. *)

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

(* The claim rows: number and "Verified by" cell. *)
let rows text =
  List.filter_map
    (fun line ->
       match cells line with
       | [ ""; num; _claim; _impl; verified; "" ] ->
         Option.map
           (fun n -> (n, verified))
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
    (List.map fst rows);
  let errors = ref [] in
  let error n fmt =
    Printf.ksprintf
      (fun m -> errors := Printf.sprintf "claim %d: %s" n m :: !errors)
      fmt
  in
  List.iter
    (fun (n, verified) ->
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

let suite registered =
  [
    Alcotest.test_case "every CLAIMS.md test reference is registered" `Quick
      (check registered);
  ]
