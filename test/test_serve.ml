(* The serve daemon end to end: protocol codec fuzzing, an in-process
   server driven over a unix socket (submit / budget-DNF / deadline-DNF
   with a concurrent healthy request / metrics / shutdown), and
   concurrent clients. *)

module J = Serve.Json
module P = Serve.Protocol
module C = Serve.Client

(* ----- JSON codec ----- *)

let json_roundtrip () =
  let cases =
    [
      J.Null;
      J.Bool true;
      J.int 42;
      J.Num (-0.5);
      J.Str "a \"quoted\"\nline\twith \\ stuff";
      J.Arr [ J.int 1; J.Str "x"; J.Null ];
      J.Obj [ ("a", J.int 1); ("b", J.Arr [ J.Bool false ]) ];
      J.Obj [];
    ]
  in
  List.iter
    (fun j ->
       match J.parse (J.print j) with
       | Ok j' -> Util.checkb "round trips" (j = j')
       | Error msg -> Alcotest.failf "printed JSON failed to parse: %s" msg)
    cases

let json_fuzz_never_raises =
  Util.qtest ~count:500 "Json.parse never raises"
    QCheck2.Gen.(string_size ~gen:(char_range '\000' '\255') (int_bound 80))
    (fun s -> match J.parse s with Ok _ | Error _ -> true)

let json_rejects () =
  List.iter
    (fun s -> Util.checkb s (Result.is_error (J.parse s)))
    [ ""; "{"; "[1,"; "{\"a\":}"; "tru"; "1.2.3"; "\"unterminated";
      "{\"a\":1,}"; "[1 2]"; "nan"; "01x"; "\"bad \\q escape\"" ]

(* ----- protocol codec ----- *)

let protocol_fuzz_never_raises =
  Util.qtest ~count:500 "parse_request never raises"
    QCheck2.Gen.(string_size ~gen:(char_range '\000' '\255') (int_bound 120))
    (fun s -> match P.parse_request s with Ok _ | Error _ -> true)

let protocol_parse () =
  (match P.parse_request {|{"id": 3, "op": "ping"}|} with
   | Ok { P.id = 3; op = P.Ping; _ } -> ()
   | _ -> Alcotest.fail "ping request");
  (match
     P.parse_request
       {|{"id": 1, "op": "minimize", "bdd": "bdd 1\nroot f 0\n",
          "budget": {"max_steps": 10, "timeout_ms": 1000}}|}
   with
   | Ok { P.op = P.Minimize { heuristic = "sched"; _ };
          budget = { max_steps = Some 10; deadline_ns = Some _; _ }; _ } -> ()
   | _ -> Alcotest.fail "minimize request with budget");
  (match P.parse_request {|{"id": 5, "op": "session_open", "bdd": "x"}|} with
   | Ok { P.id = 5; op = P.Session_open _; _ } -> ()
   | _ -> Alcotest.fail "session_open request");
  (match
     P.parse_request {|{"id": 6, "op": "minimize", "session": "s1"}|}
   with
   | Ok { P.op = P.Minimize { source = P.Session_ref "s1"; _ }; _ } -> ()
   | _ -> Alcotest.fail "minimize against a session");
  List.iter
    (fun payload ->
       Util.checkb payload (Result.is_error (P.parse_request payload)))
    [
      {|{"op": "warp"}|};
      {|{"id": 1}|};
      {|{"op": "minimize"}|};
      {|{"op": "reach"}|};
      {|{"op": "reach", "bench": "tlc", "blif": "x"}|};
      {|{"op": "minimize", "bdd": "x", "budget": {"max_steps": 0}}|};
      {|{"op": "minimize", "bdd": "x", "budget": 3}|};
      {|{"op": "minimize", "bdd": "x", "session": "s1"}|};
      {|{"op": "session_open"}|};
      {|{"op": "session_close"}|};
      "not json at all";
    ];
  (* the busy reply round-trips with its retry hint *)
  match P.parse_reply (J.print (P.busy_reply ~id:9 ~retry_after_ms:250)) with
  | Ok { P.status = "busy"; retry_after_ms = Some 250; _ } -> ()
  | _ -> Alcotest.fail "busy reply round trip"

(* ----- in-process server ----- *)

let with_server ?(workers = 2) ?queue_cap ?max_sessions ?cache_capacity f =
  let path = Filename.temp_file "bddmin-test" ".sock" in
  Sys.remove path;
  let srv =
    Serve.Server.start ~workers ?queue_cap ?max_sessions ?cache_capacity
      (Serve.Server.Unix_path path)
  in
  Fun.protect
    ~finally:(fun () -> Serve.Server.stop srv)
    (fun () -> f srv (C.Unix_path path))

(* Raw pipelined access: several frames written before any reply is
   read — the synchronous [Client] deliberately never does this, and
   the scheduling tests below need requests to pile up server-side. *)
let raw_connect = function
  | C.Unix_path path ->
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX path);
    fd
  | C.Tcp _ -> Alcotest.fail "raw_connect expects a unix socket"

let with_raw addr f =
  let fd = raw_connect addr in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () -> f fd)

let raw_minimize fd ~id ?timeout_ms text =
  let budget = P.render_budget ?timeout_ms () in
  P.write_frame fd
    (P.render_request ~id ?budget
       [ ("op", J.Str "minimize"); ("bdd", J.Str text);
         ("heuristic", J.Str "sched") ])

let raw_recv fd =
  match P.read_frame fd with
  | Ok (`Frame reply) -> begin
      match P.parse_reply reply with
      | Ok r -> r
      | Error msg -> Alcotest.failf "unparseable reply: %s" msg
    end
  | Ok `Eof -> Alcotest.fail "server closed the connection mid-test"
  | Error msg -> Alcotest.failf "transport error: %s" msg

let payload = Serve.Loadgen.build_payload ~nvars:10 ~seed:42

(* a payload heavy enough that tiny budgets trip mid-minimization *)
let heavy_payload = Serve.Loadgen.build_payload ~nvars:14 ~seed:7

let expect_ok what = function
  | Ok { P.status = "ok"; result; _ } -> result
  | Ok r -> Alcotest.failf "%s: status %s (%s)" what r.P.status
              (Option.value ~default:"" r.P.message)
  | Error msg -> Alcotest.failf "%s: transport error %s" what msg

let serve_minimize_ok () =
  with_server @@ fun _srv addr ->
  let c = C.connect addr in
  Fun.protect ~finally:(fun () -> C.close c) @@ fun () ->
  (match C.ping c with
   | Ok { P.status = "ok"; _ } -> ()
   | _ -> Alcotest.fail "ping");
  let result = expect_ok "minimize" (C.minimize c (P.Store_text payload)) in
  let size = Option.get (J.int_field "size" result) in
  Util.checkb "positive cover size" (size > 0);
  (* the returned cover must actually cover the instance *)
  let cover_text = Option.get (J.string_field "cover" result) in
  let man = Bdd.create () in
  (match Bdd.Store.load man payload, Bdd.Store.load man cover_text with
   | Ok roots, Ok [ ("g", g) ] ->
     let f = List.assoc "f" roots and cc = List.assoc "c" roots in
     Util.checkb "is a cover"
       (Minimize.Ispec.is_cover man (Minimize.Ispec.make ~f ~c:cc) g)
   | _ -> Alcotest.fail "cover text failed to load")

let serve_pla_and_best () =
  with_server @@ fun _srv addr ->
  let c = C.connect addr in
  Fun.protect ~finally:(fun () -> C.close c) @@ fun () ->
  let pla = ".i 3\n.o 1\n.type fd\n110 1\n10- -\n001 1\n.e\n" in
  let result =
    expect_ok "pla minimize" (C.minimize c ~heuristic:"best" (P.Pla_text pla))
  in
  Util.checkb "best reports the winning heuristic"
    (J.string_field "heuristic" result <> None)

let serve_budget_dnf () =
  with_server @@ fun _srv addr ->
  let c = C.connect addr in
  Fun.protect ~finally:(fun () -> C.close c) @@ fun () ->
  (* restr is a pure kernel op that does not trap Budget_exhausted
     (unlike the anytime sched), so a tiny step budget surfaces as a
     structured dnf reply *)
  match
    C.minimize c ~heuristic:"restr" ~max_steps:2 (P.Store_text heavy_payload)
  with
  | Ok { P.status = "dnf"; reason = Some "steps"; _ } -> ()
  | Ok r -> Alcotest.failf "expected dnf/steps, got %s/%s" r.P.status
              (Option.value ~default:"-" r.P.reason)
  | Error msg -> Alcotest.failf "transport error %s" msg

let serve_deadline_dnf_isolated () =
  (* an expired deadline yields dnf(time) while a concurrent healthy
     request on another connection completes untouched *)
  with_server ~workers:2 @@ fun _srv addr ->
  let healthy =
    Domain.spawn (fun () ->
        let c = C.connect addr in
        Fun.protect ~finally:(fun () -> C.close c) @@ fun () ->
        C.minimize c (P.Store_text payload))
  in
  let c = C.connect addr in
  Fun.protect ~finally:(fun () -> C.close c) @@ fun () ->
  (match C.minimize c ~timeout_ms:0 (P.Store_text heavy_payload) with
   | Ok { P.status = "dnf"; reason = Some "time"; _ } -> ()
   | Ok r -> Alcotest.failf "expected dnf/time, got %s/%s" r.P.status
               (Option.value ~default:"-" r.P.reason)
   | Error msg -> Alcotest.failf "transport error %s" msg);
  ignore (expect_ok "concurrent healthy request" (Domain.join healthy))

(* Send [payload] as one raw frame on the client's connection and parse
   the reply, so a test can choose the request's id itself. *)
let raw_request c payload =
  P.write_frame c.C.fd payload;
  match P.read_frame c.C.fd with
  | Ok (`Frame reply) -> P.parse_reply reply
  | Ok `Eof -> Error "server closed the connection"
  | Error msg -> Error msg

let serve_error_replies () =
  with_server @@ fun _srv addr ->
  let c = C.connect addr in
  Fun.protect ~finally:(fun () -> C.close c) @@ fun () ->
  (match C.minimize c ~heuristic:"nope" (P.Store_text payload) with
   | Ok { P.status = "error"; message = Some m; _ } ->
     Util.checkb "lists known heuristics" (Util.contains m "sched")
   | _ -> Alcotest.fail "unknown heuristic must be an error reply");
  (match C.minimize c (P.Store_text "bdd 1\nroot g 0\n") with
   | Ok { P.status = "error"; message = Some m; _ } ->
     Util.checkb "explains the missing root" (Util.contains m "f")
   | _ -> Alcotest.fail "payload without f root must be an error reply");
  (match C.reach c (P.Bench "no-such-bench") with
   | Ok { P.status = "error"; _ } -> ()
   | _ -> Alcotest.fail "unknown bench must be an error reply");
  (* a request rejected while parsing is answered with its own id *)
  (match
     raw_request c
       (J.print
          (J.Obj
             [ ("id", J.int 9); ("op", J.Str "minimize");
               ("bdd", J.Str payload);
               ("budget", J.Obj [ ("max_steps", J.int (-1)) ]) ]))
   with
   | Ok { P.status = "error"; reply_id; _ } ->
     Util.checki "bad budget answered with its own id" 9 reply_id
   | _ -> Alcotest.fail "negative max_steps must be an error reply");
  (* the connection survives malformed requests *)
  match C.ping c with
  | Ok { P.status = "ok"; _ } -> ()
  | _ -> Alcotest.fail "connection unusable after errors"

(* Plain ROBDDs are the only representation served: an explicit
   "repr":"bdd" is a normal request, any other value an error reply
   naming "bdd", after which the connection still serves. *)
let serve_repr_field () =
  with_server @@ fun _srv addr ->
  let c = C.connect addr in
  Fun.protect ~finally:(fun () -> C.close c) @@ fun () ->
  let minimize repr =
    C.request c
      [ ("op", J.Str "minimize"); ("bdd", J.Str payload);
        ("heuristic", J.Str "sched"); ("repr", J.Str repr) ]
  in
  ignore (expect_ok "repr bdd" (minimize "bdd"));
  (match minimize "cbdd" with
   | Ok { P.status = "error"; message = Some m; _ } ->
     Util.checkb "names the one representation served"
       (Util.contains m "\"bdd\"")
   | _ -> Alcotest.fail "repr cbdd must be an error reply");
  (match
     raw_request c
       (J.print
          (J.Obj
             [ ("id", J.int 7); ("op", J.Str "minimize");
               ("bdd", J.Str payload); ("repr", J.Str "cbdd") ]))
   with
   | Ok { P.status = "error"; reply_id; _ } ->
     Util.checki "repr error answered with its own id" 7 reply_id
   | _ -> Alcotest.fail "repr cbdd must be an error reply");
  ignore (expect_ok "plain minimize after the error"
            (C.minimize c (P.Store_text payload)))

let serve_reach_equiv () =
  with_server @@ fun _srv addr ->
  let c = C.connect addr in
  Fun.protect ~finally:(fun () -> C.close c) @@ fun () ->
  let result = expect_ok "reach" (C.reach c (P.Bench "tlc")) in
  Util.checkb "iterations counted"
    (Option.get (J.int_field "iterations" result) > 0);
  let result = expect_ok "equiv" (C.equiv c (P.Bench "tlc") (P.Bench "tlc")) in
  Util.checkb "self-equivalent"
    (J.mem "equivalent" result = Some (J.Bool true));
  (* a strangled reach is a partial, with the frontier still pending *)
  match C.reach c ~max_steps:50 (P.Bench "johnson8") with
  | Ok { P.status = "partial"; reason = Some _; _ } | Ok { P.status = "dnf"; _ }
    -> ()
  | Ok r -> Alcotest.failf "expected partial/dnf, got %s" r.P.status
  | Error msg -> Alcotest.failf "transport error %s" msg

(* Find one family snapshot by name in the metrics reply's "families". *)
let find_family m name =
  match J.mem "families" m with
  | Some (J.Arr fams) ->
    List.find_opt
      (fun f -> J.string_field "name" f = Some name)
      fams
  | _ -> None

let serve_metrics () =
  with_server @@ fun _srv addr ->
  let c = C.connect addr in
  Fun.protect ~finally:(fun () -> C.close c) @@ fun () ->
  ignore (expect_ok "minimize" (C.minimize c (P.Store_text payload)));
  let m = expect_ok "metrics" (C.metrics c) in
  Util.checkb "uptime present" (J.float_field "uptime_s" m <> None);
  Util.checkb "queue depth present" (J.int_field "queue_depth" m <> None);
  Util.checkb "connection count positive"
    (match J.int_field "connections" m with Some n -> n >= 1 | None -> false);
  Util.checkb "trace drop counter present"
    (J.int_field "trace_dropped" m <> None);
  (match J.mem "flight" m with
   | Some f ->
     Util.checkb "flight written counts the minimize"
       (match J.int_field "written" f with Some n -> n >= 1 | None -> false)
   | None -> Alcotest.fail "flight section missing");
  (* the typed registry: request counter labeled by op *)
  (match find_family m "bddmin_serve_requests_total" with
   | Some fam -> begin
       match J.mem "series" fam with
       | Some (J.Arr series) ->
         Util.checkb "minimize series counted"
           (List.exists
              (fun s ->
                 (match J.mem "labels" s with
                  | Some labels ->
                    J.string_field "op" labels = Some "minimize"
                  | None -> false)
                 && (match J.int_field "value" s with
                     | Some n -> n >= 1
                     | None -> false))
              series)
       | _ -> Alcotest.fail "request family has no series"
     end
   | None -> Alcotest.fail "bddmin_serve_requests_total not registered");
  Util.checkb "latency histogram family present"
    (find_family m "bddmin_serve_latency_us" <> None);
  (* the embedded Prometheus rendering agrees *)
  match J.mem "prometheus" m with
  | Some (J.Str text) ->
    Util.checkb "exposition carries the request counter"
      (Util.contains text "bddmin_serve_requests_total{op=\"minimize\"}")
  | _ -> Alcotest.fail "prometheus text missing"

let serve_trace_roundtrip () =
  (* a trace spec survives render -> parse byte-identically, including
     bytes that need JSON escaping *)
  let trace_id = "req-\xc3\xa9\"\\\n\t 0123456789abcdef" in
  let rendered =
    P.render_request ~id:7 ~trace:{ P.trace_id; sampled = false }
      ~explain:true
      [ ("op", J.Str "ping") ]
  in
  (match P.parse_request rendered with
   | Ok { P.id = 7; trace = Some t; explain = true; _ } ->
     Util.checkb "trace id byte-identical" (t.P.trace_id = trace_id);
     Util.checkb "sampled flag preserved" (t.P.sampled = false)
   | Ok _ -> Alcotest.fail "trace spec lost in round trip"
   | Error (_, msg) ->
     Alcotest.failf "round-tripped request rejected: %s" msg);
  (* and end to end: the id lands verbatim in the flight recorder *)
  with_server @@ fun _srv addr ->
  let c = C.connect addr in
  Fun.protect ~finally:(fun () -> C.close c) @@ fun () ->
  let tid = "e2e-trace-0001" in
  ignore
    (expect_ok "traced minimize"
       (C.minimize c ~trace:{ P.trace_id = tid; sampled = true }
          (P.Store_text payload)));
  let dump = expect_ok "dump" (C.dump c) in
  match J.mem "records" dump with
  | Some (J.Arr records) ->
    Util.checkb "flight record carries the trace id"
      (List.exists
         (fun r ->
            J.string_field "trace_id" r = Some tid
            && J.string_field "op" r = Some "minimize")
         records)
  | _ -> Alcotest.fail "dump has no records"

let serve_explain_telemetry () =
  with_server @@ fun _srv addr ->
  let c = C.connect addr in
  Fun.protect ~finally:(fun () -> C.close c) @@ fun () ->
  (* without explain the reply carries no telemetry at all *)
  (match C.minimize c (P.Store_text payload) with
   | Ok r -> Util.checkb "no telemetry unless asked" (r.P.telemetry = J.Null)
   | Error msg -> Alcotest.failf "transport error %s" msg);
  match C.minimize c ~explain:true ~max_steps:1_000_000 (P.Store_text payload)
  with
  | Error msg -> Alcotest.failf "transport error %s" msg
  | Ok r ->
    let tel = r.P.telemetry in
    let phase name =
      match J.int_field name tel with
      | Some v -> v
      | None -> Alcotest.failf "telemetry lacks %s" name
    in
    Util.checkb "queue_us non-negative" (phase "queue_us" >= 0);
    Util.checkb "exec_us non-negative" (phase "exec_us" >= 0);
    Util.checkb "write_us non-negative" (phase "write_us" >= 0);
    let budget = Option.get (J.mem "budget" tel) in
    Util.checkb "budget consumption reported"
      (match J.int_field "steps" budget with
       | Some s -> s >= 0
       | None -> false);
    let engine = Option.get (J.mem "engine" tel) in
    (* deltas of monotone counters over the request: never negative,
       and a minimize must have done some cache-visible work *)
    List.iter
      (fun key ->
         match J.int_field key engine with
         | Some v -> Util.checkb (key ^ " delta non-negative") (v >= 0)
         | None -> Alcotest.failf "engine delta lacks %s" key)
      [ "cache_lookups"; "cache_hits"; "cache_stores"; "ite_recursions";
        "and_recursions"; "interned" ];
    Util.checkb "the request did engine work"
      (Option.get (J.int_field "cache_lookups" engine) > 0)

let serve_dump_op () =
  with_server @@ fun _srv addr ->
  let c = C.connect addr in
  Fun.protect ~finally:(fun () -> C.close c) @@ fun () ->
  ignore (expect_ok "minimize" (C.minimize c (P.Store_text payload)));
  ignore (expect_ok "minimize" (C.minimize c (P.Store_text payload)));
  let dump = expect_ok "dump" (C.dump c) in
  Util.checkb "capacity positive"
    (Option.get (J.int_field "capacity" dump) > 0);
  Util.checkb "both requests recorded"
    (Option.get (J.int_field "written" dump) >= 2);
  match J.mem "records" dump with
  | Some (J.Arr records) ->
    Util.checkb "records present" (List.length records >= 2);
    List.iter
      (fun r ->
         Util.checkb "record has seq" (J.int_field "seq" r <> None);
         Util.checkb "record has outcome" (J.string_field "outcome" r <> None))
      records
  | _ -> Alcotest.fail "dump has no records"

(* Raw HTTP GET against the Prometheus listener. *)
let http_get ~port path =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let req = Printf.sprintf "GET %s HTTP/1.0\r\n\r\n" path in
  ignore (Unix.write_substring fd req 0 (String.length req));
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 4096 in
  let rec drain () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes buf chunk 0 n;
      drain ()
  in
  drain ();
  Buffer.contents buf

let serve_http_exposition () =
  let path = Filename.temp_file "bddmin-test" ".sock" in
  Sys.remove path;
  let srv =
    Serve.Server.start ~workers:2 ~metrics:(Serve.Server.Tcp 0)
      (Serve.Server.Unix_path path)
  in
  Fun.protect ~finally:(fun () -> Serve.Server.stop srv) @@ fun () ->
  let port = Option.get (Serve.Server.metrics_port srv) in
  let c = C.connect (C.Unix_path path) in
  Fun.protect ~finally:(fun () -> C.close c) @@ fun () ->
  ignore (expect_ok "minimize" (C.minimize c (P.Store_text payload)));
  let resp = http_get ~port "/metrics" in
  Util.checkb "200 OK" (Util.contains resp "HTTP/1.0 200");
  Util.checkb "prometheus content type"
    (Util.contains resp "text/plain; version=0.0.4");
  Util.checkb "request counter exposed"
    (Util.contains resp "bddmin_serve_requests_total{op=\"minimize\"} 1");
  Util.checkb "type comment present"
    (Util.contains resp "# TYPE bddmin_serve_latency_us histogram");
  Util.checkb "gauges refreshed at scrape time"
    (Util.contains resp "bddmin_serve_workers 2");
  let missing = http_get ~port "/nope" in
  Util.checkb "unknown path is a 404" (Util.contains missing "404")

let serve_concurrent_clients () =
  with_server ~workers:3 @@ fun _srv addr ->
  let per_client = 5 in
  let client k () =
    let c = C.connect addr in
    Fun.protect ~finally:(fun () -> C.close c) @@ fun () ->
    List.init per_client (fun j ->
        let p = Serve.Loadgen.build_payload ~nvars:8 ~seed:((k * 17) + j) in
        match C.minimize c (P.Store_text p) with
        | Ok { P.status = "ok"; reply_id; _ } -> reply_id = j + 1
        | _ -> false)
  in
  let domains = List.init 4 (fun k -> Domain.spawn (client k)) in
  let all = List.concat_map Domain.join domains in
  Util.checkb "every request answered ok with its own id"
    (List.for_all (fun b -> b) all)

let serve_shutdown_op () =
  let path = Filename.temp_file "bddmin-test" ".sock" in
  Sys.remove path;
  let srv = Serve.Server.start ~workers:2 (Serve.Server.Unix_path path) in
  let c = C.connect (C.Unix_path path) in
  (match C.shutdown c with
   | Ok { P.status = "ok"; _ } -> ()
   | _ -> Alcotest.fail "shutdown must be acknowledged");
  C.close c;
  (* returns: the accept loop noticed the flag and tore everything down *)
  Serve.Server.wait srv;
  Util.checkb "socket removed" (not (Sys.file_exists path))

(* ----- throughput machinery: backpressure, cache, sessions, EDF ----- *)

let metrics_of addr =
  let c = C.connect addr in
  Fun.protect ~finally:(fun () -> C.close c) @@ fun () ->
  expect_ok "metrics" (C.metrics c)

let sub_field m obj field =
  match J.mem obj m with
  | Some o -> Option.value ~default:0 (J.int_field field o)
  | None -> Alcotest.failf "metrics lack the %s section" obj

let serve_backpressure_busy () =
  (* One worker, a single admission slot, cache off: with
     the worker pinned by a heavy request, pipelined small requests
     overflow the queue and are refused with busy + retry_after_ms —
     yet every request still gets exactly one reply, and the admission
     gauge never exceeded its bound. *)
  with_server ~workers:1 ~queue_cap:1 ~cache_capacity:0 @@ fun _srv addr ->
  with_raw addr @@ fun fd ->
  raw_minimize fd ~id:1 heavy_payload;
  let flood = 6 in
  for id = 2 to flood + 1 do
    raw_minimize fd ~id payload
  done;
  let replies = List.init (flood + 1) (fun _ -> raw_recv fd) in
  let busy = List.filter (fun r -> r.P.status = "busy") replies in
  Util.checkb "overload refused with busy replies" (List.length busy >= 1);
  List.iter
    (fun r ->
       Util.checkb "busy reply carries a positive retry_after_ms"
         (match r.P.retry_after_ms with Some ms -> ms > 0 | None -> false))
    busy;
  Util.checkb "every request answered exactly once"
    (List.sort compare (List.map (fun r -> r.P.reply_id) replies)
     = List.init (flood + 1) (fun i -> i + 1));
  let m = metrics_of addr in
  Util.checkb "admission gauge within the bound"
    (match J.int_field "admission_queue" m with
     | Some d -> d >= 0 && d <= 1
     | None -> false);
  Util.checkb "queue_cap reported"
    (J.int_field "queue_cap" m = Some 1);
  Util.checkb "busy replies counted"
    (Option.value ~default:0 (J.int_field "busy_replies" m)
     >= List.length busy)

let serve_cache_single_flight () =
  (* Two identical requests queued behind a pinned worker collapse onto
     one execution (the follower is answered from the leader's result);
     a third identical request after completion is a straight cache
     hit. *)
  with_server ~workers:1 @@ fun _srv addr ->
  with_raw addr @@ fun fd ->
  raw_minimize fd ~id:1 heavy_payload;
  raw_minimize fd ~id:2 payload;
  raw_minimize fd ~id:3 payload;
  let replies = List.init 3 (fun _ -> raw_recv fd) in
  List.iter
    (fun r ->
       Util.checkb "all three requests ok" (r.P.status = "ok"))
    replies;
  let result_of id =
    match List.find_opt (fun r -> r.P.reply_id = id) replies with
    | Some r -> r.P.result
    | None -> Alcotest.failf "no reply for id %d" id
  in
  Util.checkb "collapsed follower got the leader's result"
    (result_of 2 = result_of 3);
  raw_minimize fd ~id:4 payload;
  let r4 = raw_recv fd in
  Util.checkb "cached rerun ok" (r4.P.status = "ok");
  Util.checkb "cached rerun returns the same result"
    (r4.P.result = result_of 2);
  let m = metrics_of addr in
  Util.checkb "collapse counted" (sub_field m "cache" "collapsed" >= 1);
  Util.checkb "hit counted" (sub_field m "cache" "hits" >= 1);
  Util.checkb "cache holds entries" (sub_field m "cache" "entries" >= 1)

let serve_sessions () =
  (* Warm-manager sessions: open / minimize-against / close; an
     over-cap open evicts the least recently used; foreign connections
     cannot use another client's session. *)
  let p k = Serve.Loadgen.build_payload ~nvars:8 ~seed:(200 + k) in
  with_server ~workers:2 ~max_sessions:2 @@ fun _srv addr ->
  let c = C.connect addr in
  Fun.protect ~finally:(fun () -> C.close c) @@ fun () ->
  let open_session text =
    match C.session_open c text with
    | Ok (`Session sid) -> sid
    | Error msg -> Alcotest.failf "session_open: %s" msg
  in
  let sid1 = open_session (p 1) in
  let r = expect_ok "session minimize" (C.minimize c (P.Session_ref sid1)) in
  Util.checkb "session minimize returns a cover"
    (Option.get (J.int_field "size" r) > 0);
  let sid2 = open_session (p 2) in
  (* cap is 2: this open evicts sid1, the least recently used *)
  let sid3 = open_session (p 3) in
  (match C.minimize c (P.Session_ref sid1) with
   | Ok { P.status = "error"; message = Some m; _ } ->
     Util.checkb "eviction explained" (Util.contains m sid1)
   | _ -> Alcotest.fail "evicted session must be an error reply");
  ignore (expect_ok "survivor sid2" (C.minimize c (P.Session_ref sid2)));
  ignore (expect_ok "survivor sid3" (C.minimize c (P.Session_ref sid3)));
  (* a different connection must not see this client's sessions *)
  let c2 = C.connect addr in
  Fun.protect ~finally:(fun () -> C.close c2) @@ fun () ->
  (match C.minimize c2 (P.Session_ref sid3) with
   | Ok { P.status = "error"; _ } -> ()
   | _ -> Alcotest.fail "foreign session use must be an error reply");
  (match C.session_close c sid2 with
   | Ok { P.status = "ok"; result; _ } ->
     Util.checkb "close acknowledged" (J.mem "closed" result = Some (J.Bool true))
   | _ -> Alcotest.fail "session_close must be ok");
  (match C.minimize c (P.Session_ref sid2) with
   | Ok { P.status = "error"; _ } -> ()
   | _ -> Alcotest.fail "closed session must be an error reply");
  let m = metrics_of addr in
  Util.checki "three opens counted" 3 (sub_field m "sessions" "opened");
  Util.checki "one eviction counted" 1 (sub_field m "sessions" "evicted");
  Util.checkb "close counted" (sub_field m "sessions" "closed" >= 1);
  Util.checki "one session live" 1 (sub_field m "sessions" "live")

(* ----- differential replay: served verdicts equal offline ones ----- *)

(* One minimize of a replayed stream: what was sent and under which
   budget. *)
type replay = {
  text : string;
  heuristic : string;
  max_nodes : int option;
  max_steps : int option;
}

(* The offline run of [r]: a fresh manager with the payload loaded,
   the heuristic run under the same budget.  Also
   returns the run's peak live node count, so a stream can place node
   budgets around it. *)
let offline_run r =
  let man = Bdd.create () in
  let spec =
    match Bdd.Store.load man r.text with
    | Ok roots ->
      Minimize.Ispec.make ~f:(List.assoc "f" roots) ~c:(List.assoc "c" roots)
    | Error msg -> Alcotest.failf "offline load: %s" msg
  in
  let entry = Option.get (Minimize.Registry.find r.heuristic) in
  let budget =
    Bdd.Budget.create ?max_nodes:r.max_nodes ?max_steps:r.max_steps ()
  in
  let verdict =
    match Minimize.Registry.run entry (Minimize.Ctx.make ~budget man) spec with
    | cover -> `Ok (Bdd.size man cover)
    | exception Bdd.Budget_exhausted _ -> `Dnf
  in
  (verdict, (Bdd.snapshot man).Bdd.Stats.peak_live_nodes)

let served_verdict (reply : P.reply) =
  match reply.P.status with
  | "ok" -> `Ok (Option.get (J.int_field "size" reply.P.result))
  | "dnf" -> `Dnf
  | s ->
    Alcotest.failf "reply %d: unexpected status %s (%s)" reply.P.reply_id s
      (Option.value ~default:"" reply.P.message)

let show_verdict = function
  | `Ok n -> Printf.sprintf "ok size %d" n
  | `Dnf -> "dnf"

let show_replay r =
  Printf.sprintf "%s nodes=%s steps=%s" r.heuristic
    (match r.max_nodes with Some n -> string_of_int n | None -> "-")
    (match r.max_steps with Some n -> string_of_int n | None -> "-")

let check_offline what r verdict =
  let expected, _ = offline_run r in
  Util.check Alcotest.string
    (Printf.sprintf "%s (%s) matches offline" what (show_replay r))
    (show_verdict expected) (show_verdict verdict)

let send_replay fd ~id r =
  P.write_frame fd
    (P.render_request ~id
       ?budget:(P.render_budget ?max_nodes:r.max_nodes ?max_steps:r.max_steps ())
       [ ("op", J.Str "minimize"); ("bdd", J.Str r.text);
         ("heuristic", J.Str r.heuristic) ])

(* A seeded stream over a few small payloads: every heuristic, no
   budget, node budgets just below, at and well
   above the request's own offline peak, and step budgets; a third of
   the items repeat an earlier one exactly. *)
let replay_stream ~seed ~length =
  let rng = Random.State.make [| seed |] in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let payloads =
    List.init 4 (fun k ->
        Serve.Loadgen.build_payload ~nvars:(6 + (k mod 2)) ~seed:(500 + k))
  in
  let fresh () =
    let r =
      { text = pick payloads;
        heuristic = pick [ "sched"; "osm_bt"; "tsm_td"; "restr" ];
        max_nodes = None; max_steps = None }
    in
    match Random.State.int rng 3 with
    | 0 -> r
    | 1 ->
      let _, peak = offline_run r in
      { r with max_nodes = Some (peak + pick [ -8; 4; 400 ]) }
    | _ -> { r with max_steps = Some (pick [ 20; 200; 2000 ]) }
  in
  let rec go acc n =
    if n = 0 then List.rev acc
    else
      let r =
        if acc <> [] && Random.State.int rng 3 = 0 then pick acc else fresh ()
      in
      go (r :: acc) (n - 1)
  in
  go [] length

let serve_differential_replay () =
  (* One worker pinned by a heavy request, so the whole stream queues
     up behind it; then every reply must equal the offline run of its
     own request, whatever else was queued, cached or collapsed next to
     it.  A leading blank line makes a differently formatted upload of
     an already-served instance, answered from the canonical entry. *)
  let stream = replay_stream ~seed:14 ~length:36 in
  let has p = List.exists p stream in
  Util.checkb "stream mixes heuristics, budgets and verdicts"
    (List.for_all
       (fun h -> has (fun r -> r.heuristic = h))
       [ "sched"; "osm_bt"; "tsm_td"; "restr" ]
     && has (fun r -> r.max_nodes = None && r.max_steps = None)
     && has (fun r -> r.max_nodes <> None)
     && has (fun r -> r.max_steps <> None)
     && has (fun r -> fst (offline_run r) = `Dnf));
  let reformatted =
    let r =
      List.find (fun r -> fst (offline_run r) <> `Dnf) stream
    in
    { r with text = "\n" ^ r.text }
  in
  let items = Array.of_list (stream @ [ reformatted ]) in
  with_server ~workers:1 @@ fun _srv addr ->
  with_raw addr (fun fd ->
      raw_minimize fd ~id:1 heavy_payload;
      Array.iteri (fun i r -> send_replay fd ~id:(i + 2) r) items;
      let replies = List.init (Array.length items + 1) (fun _ -> raw_recv fd) in
      List.iter
        (fun (reply : P.reply) ->
           if reply.P.reply_id = 1 then
             Util.check Alcotest.string "pinning request" "ok" reply.P.status
           else
             let r = items.(reply.P.reply_id - 2) in
             check_offline
               (Printf.sprintf "request %d" reply.P.reply_id)
               r (served_verdict reply))
        replies);
  let m = metrics_of addr in
  Util.checkb "duplicates answered from the cache"
    (sub_field m "cache" "hits" + sub_field m "cache" "collapsed" >= 1);
  Util.checkb "reformatted upload answered from the canonical entry"
    (sub_field m "cache" "canonical_hits" >= 1);
  (* unbudgeted minimizes against a warm session *)
  let c = C.connect addr in
  Fun.protect ~finally:(fun () -> C.close c) @@ fun () ->
  let text = Serve.Loadgen.build_payload ~nvars:7 ~seed:600 in
  let sid =
    match C.session_open c text with
    | Ok (`Session sid) -> sid
    | Error msg -> Alcotest.failf "session_open: %s" msg
  in
  List.iter
    (fun heuristic ->
       let r = { text; heuristic; max_nodes = None; max_steps = None } in
       match C.minimize c ~heuristic (P.Session_ref sid) with
       | Ok reply -> check_offline "session minimize" r (served_verdict reply)
       | Error msg -> Alcotest.failf "transport error %s" msg)
    [ "sched"; "osm_bt"; "tsm_td"; "restr"; "sched" ]

let serve_replay_node_budget () =
  (* A node budget counts the live nodes of the manager the request runs
     on.  Queued behind three unrelated requests, the target must still
     see a manager of its own: its budget is its offline peak plus 4,
     so any foreign node left in its manager shrinks what it may build
     and worsens its cover. *)
  with_server ~workers:1 ~cache_capacity:0 @@ fun _srv addr ->
  with_raw addr @@ fun fd ->
  raw_minimize fd ~id:1 heavy_payload;
  for k = 1 to 3 do
    raw_minimize fd ~id:(k + 1)
      (Serve.Loadgen.build_payload ~nvars:6 ~seed:(300 + k))
  done;
  let target =
    { text = Serve.Loadgen.build_payload ~nvars:7 ~seed:999;
      heuristic = "sched"; max_nodes = Some 254;
      max_steps = None }
  in
  let _, peak = offline_run { target with max_nodes = None } in
  Util.checki "target's offline peak" 250 peak;
  send_replay fd ~id:5 target;
  let replies = List.init 5 (fun _ -> raw_recv fd) in
  List.iter
    (fun (reply : P.reply) ->
       Util.check Alcotest.string "every request ok" "ok" reply.P.status;
       if reply.P.reply_id = 5 then begin
         Util.check Alcotest.string "target's offline verdict" "ok size 30"
           (show_verdict (fst (offline_run target)));
         check_offline "target" target (served_verdict reply)
       end)
    replies

let serve_failure_isolation () =
  (* Requests queued behind a pinned worker: a bad one between two good
     ones fails alone while its neighbours complete. *)
  let small k = Serve.Loadgen.build_payload ~nvars:6 ~seed:(300 + k) in
  let bad = "bdd 1\nroot g 0\n" in
  with_server ~workers:1 ~cache_capacity:0 @@ fun _srv addr ->
  with_raw addr @@ fun fd ->
  raw_minimize fd ~id:1 heavy_payload;
  raw_minimize fd ~id:2 (small 1);
  raw_minimize fd ~id:3 bad;
  raw_minimize fd ~id:4 (small 2);
  let replies = List.init 4 (fun _ -> raw_recv fd) in
  let status_of id =
    match List.find_opt (fun r -> r.P.reply_id = id) replies with
    | Some r -> r.P.status
    | None -> Alcotest.failf "no reply for id %d" id
  in
  Util.check Alcotest.string "good item before the bad one" "ok" (status_of 2);
  Util.check Alcotest.string "bad item fails alone" "error" (status_of 3);
  Util.check Alcotest.string "good item after the bad one" "ok" (status_of 4)

let serve_edf_ordering () =
  (* With the single worker pinned, three queued requests with mixed
     deadlines must run earliest-deadline-first, not in arrival order.
     The deadlines are minutes out so nothing expires; only the order
     is under test. *)
  let p k = Serve.Loadgen.build_payload ~nvars:10 ~seed:(400 + k) in
  with_server ~workers:1 ~cache_capacity:0 @@ fun _srv addr ->
  with_raw addr @@ fun fd ->
  raw_minimize fd ~id:1 heavy_payload;
  raw_minimize fd ~id:2 ~timeout_ms:600_000 (p 1);
  raw_minimize fd ~id:3 ~timeout_ms:120_000 (p 2);
  raw_minimize fd ~id:4 ~timeout_ms:300_000 (p 3);
  let order = List.init 4 (fun _ -> (raw_recv fd).P.reply_id) in
  Util.checkb "completion order follows deadlines, not arrival"
    (order = [ 1; 3; 4; 2 ])

let loadgen_duplicates () =
  let stats =
    Serve.Loadgen.run ~clients:2 ~requests:16 ~workers:2 ~nvars:8
      ~duplicate_rate:1.0 ()
  in
  Util.checki "no errors" 0 stats.Serve.Loadgen.errors;
  Util.checki "all requests accounted"
    stats.Serve.Loadgen.requests
    (stats.Serve.Loadgen.ok + stats.Serve.Loadgen.dnf
     + stats.Serve.Loadgen.partial + stats.Serve.Loadgen.busy
     + stats.Serve.Loadgen.errors);
  match stats.Serve.Loadgen.server with
  | None -> Alcotest.fail "server counters not scraped"
  | Some s ->
    Util.checkb "duplicate traffic hit the result cache"
      (s.Serve.Loadgen.cache_hits + s.Serve.Loadgen.cache_collapsed
       + s.Serve.Loadgen.cache_canonical_hits > 0)

let loadgen_sessions () =
  let stats =
    Serve.Loadgen.run ~clients:2 ~requests:10 ~workers:2 ~nvars:8
      ~sessions:true ()
  in
  Util.checki "no errors" 0 stats.Serve.Loadgen.errors;
  match stats.Serve.Loadgen.server with
  | None -> Alcotest.fail "server counters not scraped"
  | Some s ->
    Util.checkb "each client opened a session"
      (s.Serve.Loadgen.sessions_opened >= 2)

let loadgen_smoke () =
  let stats =
    Serve.Loadgen.run ~clients:2 ~requests:12 ~workers:2 ~nvars:8
      ~explain:true ()
  in
  Util.checki "all requests accounted"
    stats.Serve.Loadgen.requests
    (stats.Serve.Loadgen.ok + stats.Serve.Loadgen.dnf
     + stats.Serve.Loadgen.partial + stats.Serve.Loadgen.busy
     + stats.Serve.Loadgen.errors);
  Util.checki "no errors" 0 stats.Serve.Loadgen.errors;
  Util.checkb "throughput measured" (stats.Serve.Loadgen.rps > 0.0);
  Util.checkb "percentiles ordered"
    (stats.Serve.Loadgen.p50_ms <= stats.Serve.Loadgen.p95_ms
     && stats.Serve.Loadgen.p95_ms <= stats.Serve.Loadgen.p99_ms);
  match stats.Serve.Loadgen.telemetry with
  | None -> Alcotest.fail "explain run must aggregate server telemetry"
  | Some t ->
    (* cache hits skip the phase telemetry (nothing was queued or
       executed), so explained counts the computed subset of ok *)
    Util.checkb "computed replies explained"
      (t.Serve.Loadgen.explained >= 1
       && t.Serve.Loadgen.explained <= stats.Serve.Loadgen.ok);
    Util.checkb "phase means non-negative"
      (t.Serve.Loadgen.queue_us_mean >= 0.0
       && t.Serve.Loadgen.exec_us_mean >= 0.0
       && t.Serve.Loadgen.write_us_mean >= 0.0)

let suite =
  [
    Alcotest.test_case "json round trip" `Quick json_roundtrip;
    json_fuzz_never_raises;
    Alcotest.test_case "json rejects malformed" `Quick json_rejects;
    protocol_fuzz_never_raises;
    Alcotest.test_case "protocol parse" `Quick protocol_parse;
    Alcotest.test_case "minimize over the wire" `Quick serve_minimize_ok;
    Alcotest.test_case "pla payload and best" `Quick serve_pla_and_best;
    Alcotest.test_case "budget dnf reply" `Quick serve_budget_dnf;
    Alcotest.test_case "deadline dnf does not disturb others" `Quick
      serve_deadline_dnf_isolated;
    Alcotest.test_case "error replies" `Quick serve_error_replies;
    Alcotest.test_case "repr field: bdd only" `Quick serve_repr_field;
    Alcotest.test_case "reach and equiv ops" `Quick serve_reach_equiv;
    Alcotest.test_case "metrics endpoint" `Quick serve_metrics;
    Alcotest.test_case "trace id round trip" `Quick serve_trace_roundtrip;
    Alcotest.test_case "explain telemetry" `Quick serve_explain_telemetry;
    Alcotest.test_case "flight dump op" `Quick serve_dump_op;
    Alcotest.test_case "prometheus http exposition" `Quick
      serve_http_exposition;
    Alcotest.test_case "concurrent clients" `Quick serve_concurrent_clients;
    Alcotest.test_case "shutdown op" `Quick serve_shutdown_op;
    Alcotest.test_case "backpressure busy replies" `Quick
      serve_backpressure_busy;
    Alcotest.test_case "cache and single-flight collapse" `Quick
      serve_cache_single_flight;
    Alcotest.test_case "session lifecycle and eviction" `Quick serve_sessions;
    Alcotest.test_case "differential replay against offline" `Quick
      serve_differential_replay;
    Alcotest.test_case "node budget behind queued requests" `Quick
      serve_replay_node_budget;
    Alcotest.test_case "per-request failure isolation" `Quick
      serve_failure_isolation;
    Alcotest.test_case "EDF ordering under mixed deadlines" `Quick
      serve_edf_ordering;
    Alcotest.test_case "loadgen smoke" `Quick loadgen_smoke;
    Alcotest.test_case "loadgen duplicate traffic" `Quick loadgen_duplicates;
    Alcotest.test_case "loadgen sessions" `Quick loadgen_sessions;
  ]
