(* Observability layer: Chrome-sink JSON well-formedness (balanced B/E
   events under arbitrary, exception-unwound nesting), memory-ring
   truncation, report self/total arithmetic, probes, engine events, and
   a differential check that tracing never changes minimizer results. *)

module T = Obs.Trace

(* ----- a minimal JSON parser -----

   The dependency set has no JSON library, and the schema check must not
   trust the writer under test, so parse from scratch.  Accepts exactly
   the RFC 8259 grammar fragments the chrome sink can emit. *)

type json =
  | JNull
  | JBool of bool
  | JNum of float
  | JStr of string
  | JArr of json list
  | JObj of (string * json) list

exception Bad_json of string

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad_json (Printf.sprintf "%s at %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %c" c)
  in
  let literal lit v =
    let m = String.length lit in
    if !pos + m <= n && String.sub s !pos m = lit then begin
      pos := !pos + m;
      v
    end
    else fail ("expected " ^ lit)
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let h = String.sub s !pos 4 in
    pos := !pos + 4;
    match int_of_string_opt ("0x" ^ h) with
    | Some c -> c
    | None -> fail "bad \\u escape"
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
         | Some '"' -> Buffer.add_char b '"'; advance ()
         | Some '\\' -> Buffer.add_char b '\\'; advance ()
         | Some '/' -> Buffer.add_char b '/'; advance ()
         | Some 'b' -> Buffer.add_char b '\b'; advance ()
         | Some 'f' -> Buffer.add_char b '\012'; advance ()
         | Some 'n' -> Buffer.add_char b '\n'; advance ()
         | Some 'r' -> Buffer.add_char b '\r'; advance ()
         | Some 't' -> Buffer.add_char b '\t'; advance ()
         | Some 'u' ->
           advance ();
           let c = hex4 () in
           (* the sink only escapes control chars, all < 0x80 *)
           if c < 0x80 then Buffer.add_char b (Char.chr c)
           else Buffer.add_string b (Printf.sprintf "\\u%04X" c)
         | _ -> fail "bad escape");
        go ()
      | Some c when Char.code c < 0x20 -> fail "raw control char in string"
      | Some c ->
        Buffer.add_char b c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> num_char c | None -> false) do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        JObj []
      end
      else begin
        let rec members acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ((k, v) :: acc)
          | Some '}' ->
            advance ();
            List.rev ((k, v) :: acc)
          | _ -> fail "expected , or }"
        in
        JObj (members [])
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        JArr []
      end
      else begin
        let rec elements acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elements (v :: acc)
          | Some ']' ->
            advance ();
            List.rev (v :: acc)
          | _ -> fail "expected , or ]"
        in
        JArr (elements [])
      end
    | Some '"' -> JStr (parse_string ())
    | Some 't' -> literal "true" (JBool true)
    | Some 'f' -> literal "false" (JBool false)
    | Some 'n' -> literal "null" JNull
    | Some _ -> JNum (parse_number ())
    | None -> fail "unexpected end"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let member k = function
  | JObj kvs -> List.assoc_opt k kvs
  | _ -> None

(* Collect the chrome JSON written while [f] runs (sink closed before
   parsing, so the document must be complete). *)
let chrome_capture f =
  let buf = Buffer.create 1024 in
  let sink = T.chrome_writer (Buffer.add_string buf) in
  let r = T.with_sink sink f in
  T.close sink;
  (r, Buffer.contents buf)

(* Schema check on a parsed chrome document: an array of event objects
   with the mandatory fields, every "E" closing the innermost open "B"
   of the same name, and no "B" left open.  Returns the event count. *)
let check_chrome_schema json =
  let events =
    match json with
    | JArr evs -> evs
    | _ -> Alcotest.fail "top level is not an array"
  in
  let stack = ref [] in
  List.iter
    (fun ev ->
       let str k =
         match member k ev with
         | Some (JStr s) -> s
         | _ -> Alcotest.fail (Printf.sprintf "missing string field %S" k)
       in
       let num k =
         match member k ev with
         | Some (JNum f) -> f
         | _ -> Alcotest.fail (Printf.sprintf "missing number field %S" k)
       in
       let name = str "name" in
       ignore (num "pid");
       ignore (num "tid");
       Util.checkb "ts is finite and nonnegative"
         (Float.is_finite (num "ts") && num "ts" >= 0.0);
       (match member "args" ev with
        | None | Some (JObj _) -> ()
        | Some _ -> Alcotest.fail "args is not an object");
       match str "ph" with
       | "B" -> stack := name :: !stack
       | "E" -> (
           match !stack with
           | top :: rest when top = name -> stack := rest
           | top :: _ ->
             Alcotest.fail
               (Printf.sprintf "E %S closes open span %S" name top)
           | [] -> Alcotest.fail (Printf.sprintf "E %S with no open span" name))
       | "i" -> Util.checkb "instant has scope" (str "s" = "t")
       | ph -> Alcotest.fail ("unknown phase " ^ ph))
    events;
  (match !stack with
   | [] -> ()
   | names ->
     Alcotest.fail ("unclosed spans: " ^ String.concat ", " names));
  List.length events

(* ----- chrome sink: fixed nesting with nasty names and attrs ----- *)

let chrome_well_formed () =
  let (), out =
    chrome_capture (fun () ->
        T.with_span "outer"
          ~attrs:[ ("q", T.Str "a\"b\\c\nd\te\r\x01f"); ("n", T.Int (-3)) ]
        @@ fun sp ->
        T.add sp "nan" (T.Float Float.nan);
        T.add sp "pi" (T.Float 3.25);
        T.add sp "yes" (T.Bool true);
        T.instant "tick" ~attrs:[ ("i", T.Int 1) ];
        T.with_span "inner \"quoted\"" @@ fun _ -> ())
  in
  let json = parse_json out in
  Util.checki "event count" 5 (check_chrome_schema json);
  (* escaping round-trips: the raw attr string comes back intact.
     Initial attrs ride the B event; [add]ed attrs ride the E event. *)
  let find_outer ph =
    match json with
    | JArr evs ->
      List.find
        (fun e ->
           member "ph" e = Some (JStr ph)
           && member "name" e = Some (JStr "outer"))
        evs
    | _ -> assert false
  in
  (match member "args" (find_outer "B") with
   | Some args ->
     Util.checkb "string attr round-trips"
       (member "q" args = Some (JStr "a\"b\\c\nd\te\r\x01f"));
     Util.checkb "int attr" (member "n" args = Some (JNum (-3.0)))
   | None -> Alcotest.fail "outer B lost its args");
  (match member "args" (find_outer "E") with
   | Some args ->
     Util.checkb "non-finite float is null" (member "nan" args = Some JNull);
     Util.checkb "finite float survives"
       (member "pi" args = Some (JNum 3.25));
     Util.checkb "bool attr" (member "yes" args = Some (JBool true))
   | None -> Alcotest.fail "outer E lost its args")

let chrome_unwound () =
  let (), out =
    chrome_capture (fun () ->
        try
          T.with_span "doomed" @@ fun _ ->
          T.with_span "inner" @@ fun _ -> raise Exit
        with Exit -> ())
  in
  let json = parse_json out in
  Util.checki "B/E balanced despite raise" 4 (check_chrome_schema json);
  match json with
  | JArr evs ->
    let unwound =
      List.filter
        (fun e ->
           match member "args" e with
           | Some args -> member "unwound" args = Some (JBool true)
           | None -> false)
        evs
    in
    Util.checki "both unwound spans flagged" 2 (List.length unwound)
  | _ -> assert false

(* ----- chrome sink under random nesting programs (qcheck) ----- *)

(* A random span tree; [raises] aborts the node after its children, so
   deep prefixes of the program unwind through several live spans. *)
type prog = Node of { id : int; children : prog list; raises : bool }

let prog_gen =
  QCheck2.Gen.(
    sized @@ fix (fun self size ->
        let* id = int_bound 20 in
        let* raises = map (fun b -> size > 0 && b) (frequency [ (5, return false); (1, return true) ]) in
        let* children =
          if size = 0 then return []
          else list_size (int_bound 3) (self (size / 2))
        in
        return (Node { id; children; raises })))

let rec print_prog (Node { id; children; raises }) =
  Printf.sprintf "N(%d%s,[%s])" id
    (if raises then "!" else "")
    (String.concat ";" (List.map print_prog children))

let rec run_prog (Node { id; children; raises }) =
  T.with_span (Printf.sprintf "s%d" id) @@ fun sp ->
  T.add sp "id" (T.Int id);
  List.iter run_prog children;
  if raises then raise Exit

let qcheck_chrome_balanced =
  Util.qtest ~count:100 "chrome balanced under random nesting"
    QCheck2.Gen.(list_size (int_bound 4) prog_gen)
    (fun progs ->
       let (), out =
         chrome_capture (fun () ->
             List.iter
               (fun p -> try run_prog p with Exit -> ())
               progs)
       in
       ignore (check_chrome_schema (parse_json out));
       true)

(* ----- memory ring ----- *)

let memory_ring_truncates () =
  let sink = T.memory ~capacity:8 () in
  T.with_sink sink (fun () ->
      for i = 0 to 19 do
        T.instant (Printf.sprintf "i%d" i)
      done);
  let evs = T.events sink in
  Util.checki "ring keeps capacity" 8 (List.length evs);
  Util.checki "ring drops the rest" 12 (T.dropped sink);
  (* oldest dropped first: the survivors are the 8 most recent, in order *)
  Util.check
    Alcotest.(list string)
    "survivors are the newest, oldest first"
    [ "i12"; "i13"; "i14"; "i15"; "i16"; "i17"; "i18"; "i19" ]
    (List.map (fun (e : T.event) -> e.T.name) evs);
  (* timestamps are monotone *)
  let rec mono = function
    | (a : T.event) :: (b : T.event) :: rest ->
      a.T.ts_ns <= b.T.ts_ns && mono (b :: rest)
    | _ -> true
  in
  Util.checkb "timestamps monotone" (mono evs)

(* ----- report arithmetic ----- *)

let ev ?(tid = 0) name phase ts_us =
  {
    T.name;
    phase;
    ts_ns = Int64.mul (Int64.of_int ts_us) 1000L;
    tid;
    attrs = [];
  }

let report_self_total () =
  (* outer [0,100]; children inner [10,40] and inner [50,60]; instant at
     70; an orphan E and a dangling B must both be ignored. *)
  let stream =
    [
      ev "orphan" T.End 0;
      ev "outer" T.Begin 0;
      ev "inner" T.Begin 10;
      ev "inner" T.End 40;
      ev "inner" T.Begin 50;
      ev "inner" T.End 60;
      ev "blip" T.Instant 70;
      ev "outer" T.End 100;
      ev "dangling" T.Begin 110;
    ]
  in
  let rows = Obs.Report.of_events stream in
  let find name = List.find (fun (r : Obs.Report.row) -> r.name = name) rows in
  let outer = find "outer" and inner = find "inner" and blip = find "blip" in
  Util.checki "outer count" 1 outer.count;
  Util.checkb "outer total" (outer.total_ns = 100_000L);
  Util.checkb "outer self = total - children" (outer.self_ns = 60_000L);
  Util.checki "inner count" 2 inner.count;
  Util.checkb "inner total" (inner.total_ns = 40_000L);
  Util.checkb "inner self" (inner.self_ns = 40_000L);
  Util.checki "instant counted" 1 blip.count;
  Util.checkb "instant has no duration" (blip.total_ns = 0L);
  Util.checkb "no row for orphan/dangling"
    (not (List.exists (fun (r : Obs.Report.row) ->
         r.name = "orphan" || r.name = "dangling") rows));
  Util.checkb "sorted by total desc"
    (let totals = List.map (fun (r : Obs.Report.row) -> r.total_ns) rows in
     List.sort (fun a b -> Int64.compare b a) totals = totals)

let report_from_live_spans () =
  let sink = T.memory () in
  T.with_sink sink (fun () ->
      T.with_span "a" @@ fun _ ->
      T.with_span "b" @@ fun _ -> ignore (Sys.opaque_identity 1));
  let rows = Obs.Report.of_events (T.events sink) in
  let a = List.find (fun (r : Obs.Report.row) -> r.name = "a") rows in
  let b = List.find (fun (r : Obs.Report.row) -> r.name = "b") rows in
  Util.checkb "child total within parent" (b.total_ns <= a.total_ns);
  Util.checkb "parent self = total - child"
    (Int64.add a.self_ns b.total_ns = a.total_ns)

(* ----- engine events ----- *)

(* GC runs and computed-cache growth appear as instants on a trace
   sink, amid the spans they interrupt. *)
let engine_events () =
  let sink = T.memory () in
  T.with_sink sink (fun () ->
      let man = Bdd.create ~cache_bits:4 () in
      (* churn enough distinct operations to overflow a 16-entry cache
         into growth, then collect the garbage *)
      let vars = List.init 10 (Bdd.ithvar man) in
      ignore
        (List.fold_left
           (fun acc v ->
              let acc = Bdd.dor man (Bdd.dand man acc v) (Bdd.compl acc) in
              ignore (Bdd.dxor man acc v);
              acc)
           (Bdd.one man) vars);
      ignore (Bdd.gc man));
  let instants name =
    List.filter (fun (e : T.event) -> e.T.name = name) (T.events sink)
  in
  let int_attr (e : T.event) k =
    match List.assoc_opt k e.T.attrs with Some (T.Int i) -> i | _ -> -1
  in
  let gcs = instants "bdd.gc" and grows = instants "bdd.cache_grow" in
  Util.checkb "bdd.gc instant traced" (gcs <> []);
  List.iter
    (fun e ->
       Util.checkb "gc counts sane"
         (int_attr e "reclaimed" >= 0 && int_attr e "live_nodes" > 0))
    gcs;
  Util.checkb "bdd.cache_grow instant traced" (grows <> []);
  List.iter
    (fun e ->
       Util.checkb "growth doubles"
         (int_attr e "new_capacity" = 2 * int_attr e "old_capacity"))
    grows

(* ----- differential: tracing never changes results ----- *)

let differential_tracing =
  Util.qtest ~count:60 "tracing vs null sink: same minimizer results"
    (QCheck2.Gen.return ())
    (fun () ->
       let inst = Util.random_ispec_nonzero 6 in
       List.for_all
         (fun (e : Minimize.Registry.entry) ->
            let plain = e.run (Minimize.Ctx.of_man Util.man) inst in
            let traced =
              T.with_sink (T.memory ()) (fun () -> e.run (Minimize.Ctx.of_man Util.man) inst)
            in
            let chromed =
              let buf = Buffer.create 256 in
              T.with_sink
                (T.chrome_writer (Buffer.add_string buf))
                (fun () -> e.run (Minimize.Ctx.of_man Util.man) inst)
            in
            Bdd.equal plain traced && Bdd.equal plain chromed)
         Minimize.Registry.extended)

(* ----- clock sanity ----- *)

let clock_monotone () =
  let a = Obs.Clock.now_ns () in
  let b = Obs.Clock.now_ns () in
  Util.checkb "clock never goes backwards" (Int64.compare a b <= 0);
  let (), dt = Obs.Clock.timed (fun () -> ignore (Sys.opaque_identity 1)) in
  Util.checkb "timed returns nonnegative seconds" (dt >= 0.0);
  Util.checkb "ns conversion" (Obs.Clock.ns_to_s 1_500_000_000L = 1.5)

let suite =
  [
    Alcotest.test_case "chrome well-formed" `Quick chrome_well_formed;
    Alcotest.test_case "chrome unwound" `Quick chrome_unwound;
    qcheck_chrome_balanced;
    Alcotest.test_case "memory ring truncates" `Quick memory_ring_truncates;
    Alcotest.test_case "report self/total" `Quick report_self_total;
    Alcotest.test_case "report live spans" `Quick report_from_live_spans;
    Alcotest.test_case "engine events" `Quick engine_events;
    differential_tracing;
    Alcotest.test_case "clock" `Quick clock_monotone;
  ]
