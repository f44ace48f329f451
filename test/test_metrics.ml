(* The observability primitives behind the serve daemon's telemetry:
   the typed metrics registry (semantics, label handling, Prometheus
   text exposition checked by a hand-rolled format validator) and the
   lock-striped flight recorder (the last-[capacity] invariant, alone
   and under concurrent writer domains). *)

module M = Obs.Metrics
module F = Obs.Flight

(* Every case starts from a zeroed registry.  The registry is
   process-global, so the minimizer and serve families registered at
   module init are always in it: look a family up by name. *)
let fresh () = M.reset ()

let family name =
  match List.find_opt (fun f -> f.M.name = name) (M.snapshot ()) with
  | Some f -> f
  | None -> Alcotest.failf "family %s not in the snapshot" name

(* ----- registry semantics ----- *)

let counter_semantics () =
  fresh ();
  let c = M.handle (M.counter ~help:"test counter" "tm_total") in
  Util.checki "starts at zero" 0 (M.counter_value c);
  M.inc c;
  M.add c 41;
  Util.checki "inc and add accumulate" 42 (M.counter_value c);
  Util.checkb "negative add raises"
    (match M.add c (-1) with
     | () -> false
     | exception Invalid_argument _ -> true)

let gauge_semantics () =
  fresh ();
  let g = M.handle (M.gauge "tm_gauge") in
  M.set g 7;
  M.gauge_add g (-10);
  Util.checki "gauges go down" (-3) (M.gauge_value g)

let histogram_semantics () =
  fresh ();
  let h = M.handle (M.histogram "tm_hist_us") in
  List.iter (M.observe h) [ 0; 1; 2; 3; 500; -5 ];
  match family "tm_hist_us" with
  | { M.kind = M.Histogram;
      series = [ { M.value = M.Histogram_v { buckets; sum; count }; _ } ];
      _ } ->
    Util.checki "count" 6 count;
    Util.checki "negatives clamp to zero in the sum" 506 sum;
    (* log2 buckets: 0,1,-5 -> bucket 0 (<=1); 2,3 -> bucket 1; 500 ->
       bucket 8 ([256,512)) *)
    Util.checki "bucket 0" 3 buckets.(0);
    Util.checki "bucket 1" 2 buckets.(1);
    Util.checki "bucket 8" 1 buckets.(8);
    Util.checki "buckets account for every observation" count
      (Array.fold_left ( + ) 0 buckets)
  | _ -> Alcotest.fail "unexpected snapshot shape"

let registration_rules () =
  fresh ();
  let a = M.counter ~help:"h" ~labels:[ "op" ] "tm_reg_total" in
  let b = M.counter ~help:"h" ~labels:[ "op" ] "tm_reg_total" in
  M.inc (M.labels a [ "x" ]);
  M.inc (M.labels b [ "x" ]);
  Util.checki "re-registration is idempotent (same family)" 2
    (M.counter_value (M.labels a [ "x" ]));
  Util.checkb "kind conflict raises"
    (match M.gauge "tm_reg_total" with
     | _ -> false
     | exception Invalid_argument _ -> true);
  Util.checkb "label-set conflict raises"
    (match M.counter ~help:"h" ~labels:[ "other" ] "tm_reg_total" with
     | _ -> false
     | exception Invalid_argument _ -> true);
  Util.checkb "label arity mismatch raises"
    (match M.labels a [ "x"; "y" ] with
     | _ -> false
     | exception Invalid_argument _ -> true);
  Util.checkb "bad metric name raises"
    (match M.counter "0bad-name" with
     | _ -> false
     | exception Invalid_argument _ -> true)

(* [reset] zeroes series but keeps them registered: a handle resolved at
   module init must still be scraped afterwards. *)
let reset_keeps_families () =
  let c = M.handle (M.counter "tm_reset_total") in
  let h = M.handle (M.histogram "tm_reset_hist") in
  M.inc c;
  M.observe h 9;
  M.reset ();
  Util.checki "reset zeroes a counter" 0 (M.counter_value c);
  M.inc c;
  List.iter (M.observe h) [ 8; 15; 1024 ];
  (match family "tm_reset_total" with
   | { M.series = [ { M.value = M.Counter_v v; _ } ]; _ } ->
     Util.checki "a bump after reset is scraped" 1 v
   | _ -> Alcotest.fail "counter series lost by reset");
  match family "tm_reset_hist" with
  | { M.series = [ { M.value = M.Histogram_v { buckets; count; _ }; _ } ]; _ }
    ->
    Util.checki "only post-reset observations" 3 count;
    Util.checki "bucket 3 holds 8-15" 2 buckets.(3);
    Util.checki "bucket 10 holds 1024" 1 buckets.(10)
  | _ -> Alcotest.fail "histogram series lost by reset"

let label_series_independent () =
  fresh ();
  let fam = M.counter ~labels:[ "op"; "status" ] "tm_lab_total" in
  M.inc (M.labels fam [ "a"; "ok" ]);
  M.inc (M.labels fam [ "a"; "ok" ]);
  M.inc (M.labels fam [ "b"; "err" ]);
  Util.checki "series are independent" 2
    (M.counter_value (M.labels fam [ "a"; "ok" ]));
  Util.checki "other series untouched" 1
    (M.counter_value (M.labels fam [ "b"; "err" ]))

(* ----- Prometheus text exposition: a hand-rolled format checker -----

   Validates the whole of [expose ()] structurally: every non-comment
   line is [name{labels} value] with a legal metric name; every sample
   belongs to the family declared by the preceding # TYPE (histogram
   samples via the _bucket/_sum/_count suffixes); histogram buckets are
   cumulative with a trailing le="+Inf" equal to _count. *)

let is_name_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = ':'

let is_name_char c = is_name_start c || (c >= '0' && c <= '9')

let split_sample line =
  (* "name value" or "name{labels} value" -> (name, labels, value) *)
  let n = String.length line in
  let rec name_end i =
    if i < n && is_name_char line.[i] then name_end (i + 1) else i
  in
  let stop = name_end 0 in
  if stop = 0 then Alcotest.failf "sample line with no name: %s" line;
  let name = String.sub line 0 stop in
  if stop < n && line.[stop] = '{' then begin
    match String.index_from_opt line stop '}' with
    | None -> Alcotest.failf "unterminated label set: %s" line
    | Some close ->
      let labels = String.sub line (stop + 1) (close - stop - 1) in
      if close + 1 >= n || line.[close + 1] <> ' ' then
        Alcotest.failf "no value after labels: %s" line;
      (name, labels, String.sub line (close + 2) (n - close - 2))
  end
  else begin
    if stop >= n || line.[stop] <> ' ' then
      Alcotest.failf "no value on sample line: %s" line;
    (name, "", String.sub line (stop + 1) (n - stop - 1))
  end

let base_of_sample name =
  List.fold_left
    (fun acc suffix ->
       match acc with
       | Some _ -> acc
       | None ->
         let ls = String.length suffix and ln = String.length name in
         if ln > ls && String.sub name (ln - ls) ls = suffix then
           Some (String.sub name 0 (ln - ls))
         else None)
    None [ "_bucket"; "_sum"; "_count" ]

let strip_le labels =
  (* drop the le="…" pair (with its separating comma) so bucket samples
     of one series share a key *)
  let n = String.length labels in
  let rec find i =
    if i + 4 > n then None
    else if String.sub labels i 4 = "le=\"" then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> labels
  | Some start ->
    let stop =
      match String.index_from_opt labels (start + 4) '"' with
      | Some close -> close + 1
      | None -> n
    in
    let start = if start > 0 && labels.[start - 1] = ',' then start - 1
      else start in
    let stop = if stop < n && labels.[stop] = ',' then stop + 1 else stop in
    String.sub labels 0 start ^ String.sub labels stop (n - stop)

let label_value labels key =
  (* minimal extraction of key="value" from a rendered label set *)
  let marker = key ^ "=\"" in
  let ml = String.length marker and n = String.length labels in
  let rec find i =
    if i + ml > n then None
    else if String.sub labels i ml = marker then begin
      match String.index_from_opt labels (i + ml) '"' with
      | Some close -> Some (String.sub labels (i + ml) (close - i - ml))
      | None -> None
    end
    else find (i + 1)
  in
  find 0

let check_exposition text =
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' text)
  in
  let declared = Hashtbl.create 8 in
  (* (family, non-le labels) -> cumulative bucket values in order *)
  let buckets = Hashtbl.create 8 in
  let counts = Hashtbl.create 8 in
  List.iter
    (fun line ->
       if String.length line > 0 && line.[0] = '#' then begin
         match String.split_on_char ' ' line with
         | "#" :: "TYPE" :: name :: [ kind ] ->
           Util.checkb ("legal kind in " ^ line)
             (List.mem kind [ "counter"; "gauge"; "histogram" ]);
           Hashtbl.replace declared name kind
         | "#" :: "HELP" :: name :: _ ->
           Util.checkb ("HELP names a legal metric: " ^ line)
             (String.length name > 0 && is_name_start name.[0])
         | _ -> Alcotest.failf "malformed comment line: %s" line
       end
       else begin
         let name, labels, value = split_sample line in
         Util.checkb ("numeric value on " ^ line)
           (float_of_string_opt value <> None);
         let family, kind =
           match Hashtbl.find_opt declared name with
           | Some kind -> (name, kind)
           | None -> begin
               match base_of_sample name with
               | Some base when Hashtbl.mem declared base ->
                 (base, Hashtbl.find declared base)
               | _ -> Alcotest.failf "sample before its # TYPE: %s" line
             end
         in
         if kind = "histogram" then begin
           Util.checkb ("histogram sample uses a suffix: " ^ line)
             (base_of_sample name <> None);
           let suffix =
             String.sub name (String.length family)
               (String.length name - String.length family)
           in
           match suffix with
           | "_bucket" ->
             let le =
               match label_value labels "le" with
               | Some le -> le
               | None -> Alcotest.failf "bucket without le: %s" line
             in
             let key = (family, strip_le labels) in
             let v = int_of_float (float_of_string value) in
             let prior =
               Option.value (Hashtbl.find_opt buckets key) ~default:[]
             in
             (match prior with
              | (_, last) :: _ ->
                Util.checkb ("buckets cumulative at " ^ line) (v >= last)
              | [] -> ());
             Hashtbl.replace buckets key ((le, v) :: prior)
           | "_count" ->
             Hashtbl.replace counts (family, labels)
               (int_of_float (float_of_string value))
           | _ -> ()
         end
       end)
    lines;
  (* every bucket series ends at +Inf, agreeing with its own _count *)
  Hashtbl.iter
    (fun key series ->
       let family = fst key in
       match series with
       | (le, v) :: _ ->
         Util.checkb (family ^ " last bucket is +Inf") (le = "+Inf");
         (match Hashtbl.find_opt counts key with
          | Some c -> Util.checki (family ^ " +Inf equals count") c v
          | None -> Alcotest.failf "%s has buckets but no _count" family)
       | [] -> ())
    buckets

let exposition_format () =
  fresh ();
  let c = M.counter ~help:"requests with \"quotes\" and \\ stuff"
      ~labels:[ "op" ] "tm_exp_total" in
  M.inc (M.labels c [ "min\"i\\mize\n" ]);
  M.add (M.labels c [ "reach" ]) 3;
  let g = M.handle (M.gauge ~help:"a level" "tm_exp_gauge") in
  M.set g (-4);
  let h = M.labels (M.histogram ~labels:[ "phase" ] "tm_exp_us") [ "exec" ] in
  List.iter (M.observe h) [ 1; 2; 900; 40_000 ];
  let text = M.expose () in
  check_exposition text;
  Util.checkb "counter sample rendered"
    (Util.contains text "tm_exp_total{op=\"reach\"} 3");
  Util.checkb "label value escaped"
    (Util.contains text "tm_exp_total{op=\"min\\\"i\\\\mize\\n\"} 1");
  Util.checkb "gauge sample rendered"
    (Util.contains text "tm_exp_gauge -4");
  Util.checkb "histogram exposes count"
    (Util.contains text "tm_exp_us_count{phase=\"exec\"} 4");
  Util.checkb "histogram exposes sum"
    (Util.contains text "tm_exp_us_sum{phase=\"exec\"} 40903")

let exposition_fuzz =
  (* arbitrary registries must always render to a structurally valid
     exposition *)
  Util.qtest ~count:50 "expose() is always well-formed"
    QCheck2.Gen.(
      list_size (int_range 1 5)
        (triple (int_range 0 2) (int_range 0 4)
           (list_size (int_range 0 4) (int_bound 100_000))))
    (fun fams ->
       fresh ();
       List.iteri
         (fun i (kind, series, observations) ->
            (* families outlive [reset], so a name keeps its kind *)
            let name = Printf.sprintf "tm_fuzz_%d_%d" kind i in
            match kind with
            | 0 ->
              let fam = M.counter ~labels:[ "k" ] name in
              List.iter
                (fun v -> M.add (M.labels fam [ string_of_int series ]) v)
                observations
            | 1 ->
              let fam = M.gauge ~labels:[ "k" ] name in
              List.iter
                (fun v -> M.set (M.labels fam [ string_of_int series ]) v)
                observations
            | _ ->
              let fam = M.histogram ~labels:[ "k" ] name in
              List.iter
                (fun v -> M.observe (M.labels fam [ string_of_int series ]) v)
                observations)
         fams;
       check_exposition (M.expose ());
       true)

(* ----- flight recorder ----- *)

let flight_last_capacity () =
  let t = F.create ~stripes:4 ~capacity:32 () in
  Util.checki "effective capacity" 32 (F.capacity t);
  for i = 0 to 99 do
    F.record t ~id:i ~op:"op" ~outcome:"ok" ()
  done;
  Util.checki "written" 100 (F.written t);
  Util.checki "dropped" 68 (F.dropped t);
  let records = F.records t in
  Util.checki "retains exactly capacity" 32 (List.length records);
  List.iteri
    (fun i (r : F.record) ->
       Util.checki "exactly the most recent seqs, in order" (68 + i) r.F.seq)
    records

let flight_concurrent_writers () =
  (* the union-of-stripes invariant must survive concurrent domains:
     after any interleaving, the ring holds exactly the last
     [capacity] sequence numbers *)
  let t = F.create ~stripes:4 ~capacity:16 () in
  let per_domain = 200 and domains = 4 in
  let writer k () =
    for i = 0 to per_domain - 1 do
      F.record t
        ~trace_id:(Printf.sprintf "d%d" k)
        ~sizes:[ ("i", i) ]
        ~phases_us:[ ("exec", i) ]
        ~id:((k * per_domain) + i)
        ~op:"op" ~outcome:"ok" ()
    done
  in
  let ds = List.init domains (fun k -> Domain.spawn (writer k)) in
  List.iter Domain.join ds;
  let total = domains * per_domain in
  Util.checki "all writes counted" total (F.written t);
  Util.checki "drops are total minus capacity" (total - 16) (F.dropped t);
  let records = F.records t in
  Util.checki "exactly capacity retained" 16 (List.length records);
  let seqs = List.map (fun (r : F.record) -> r.F.seq) records in
  Util.checkb "the last capacity seqs exactly"
    (seqs = List.init 16 (fun i -> total - 16 + i))

let flight_qcheck =
  Util.qtest ~count:30 "flight ring retains the last capacity records"
    QCheck2.Gen.(triple (int_range 1 5) (int_range 1 40) (int_range 0 120))
    (fun (stripes, capacity, writes) ->
       let t = F.create ~stripes ~capacity () in
       for i = 0 to writes - 1 do
         F.record t ~id:i ~op:"op" ~outcome:"ok" ()
       done;
       let cap = F.capacity t in
       let expected = min writes cap in
       let records = F.records t in
       List.length records = expected
       && F.written t = writes
       && F.dropped t = max 0 (writes - cap)
       && List.map (fun (r : F.record) -> r.F.seq) records
          = List.init expected (fun i -> writes - expected + i))

let flight_json_parses () =
  let t = F.create ~capacity:8 () in
  F.record t ~trace_id:"a \"quoted\" id" ~sizes:[ ("req_bytes", 10) ]
    ~phases_us:[ ("queue", 1); ("exec", 2) ]
    ~id:1 ~op:"minimize" ~outcome:"ok" ();
  F.record t ~id:2 ~op:"ping" ~outcome:"error" ();
  match Serve.Json.parse (F.to_json t) with
  | Error msg -> Alcotest.failf "flight JSON does not parse: %s" msg
  | Ok doc ->
    Util.checkb "written field"
      (Serve.Json.int_field "written" doc = Some 2);
    (match Serve.Json.mem "records" doc with
     | Some (Serve.Json.Arr [ r1; r2 ]) ->
       Util.checkb "escaped trace id survives"
         (Serve.Json.string_field "trace_id" r1 = Some "a \"quoted\" id");
       Util.checkb "outcome preserved"
         (Serve.Json.string_field "outcome" r2 = Some "error");
       (match Serve.Json.mem "phases_us" r1 with
        | Some phases ->
          Util.checkb "phases rendered"
            (Serve.Json.int_field "exec" phases = Some 2)
        | None -> Alcotest.fail "phases missing")
     | _ -> Alcotest.fail "records array missing");
    (* clear resets everything *)
    F.clear t;
    Util.checki "cleared" 0 (F.written t);
    Util.checkb "no records after clear" (F.records t = [])

let trace_total_dropped () =
  (* a tiny memory ring overflows; the process-wide drop aggregate and
     the per-sink count must both see it *)
  let before = Obs.Trace.total_dropped () in
  let sink = Obs.Trace.memory ~capacity:4 () in
  Obs.Trace.with_sink sink (fun () ->
      for _ = 1 to 50 do
        Obs.Trace.instant "tick"
      done);
  Util.checkb "sink counted drops" (Obs.Trace.dropped sink > 0);
  Util.checkb "process-wide aggregate grew"
    (Obs.Trace.total_dropped () >= before + Obs.Trace.dropped sink)

let suite =
  [
    Alcotest.test_case "counter semantics" `Quick counter_semantics;
    Alcotest.test_case "gauge semantics" `Quick gauge_semantics;
    Alcotest.test_case "histogram semantics" `Quick histogram_semantics;
    Alcotest.test_case "registration rules" `Quick registration_rules;
    Alcotest.test_case "reset keeps families" `Quick reset_keeps_families;
    Alcotest.test_case "label series independent" `Quick
      label_series_independent;
    Alcotest.test_case "prometheus exposition format" `Quick exposition_format;
    exposition_fuzz;
    Alcotest.test_case "flight ring last-capacity" `Quick flight_last_capacity;
    Alcotest.test_case "flight ring concurrent writers" `Quick
      flight_concurrent_writers;
    flight_qcheck;
    Alcotest.test_case "flight json parses" `Quick flight_json_parses;
    Alcotest.test_case "trace drop aggregate" `Quick trace_total_dropped;
  ]
