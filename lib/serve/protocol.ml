(* Wire protocol of [bddmin serve].

   Transport: length-prefixed JSON frames — a 4-byte big-endian payload
   length followed by that many bytes of UTF-8 JSON.  The prefix keeps
   the reader trivial (no streaming JSON); the 32 MiB cap keeps a
   hostile prefix from allocating the machine away.

   Requests:
     {"id": N, "op": "minimize", "bdd": <Store text>, "heuristic": "sched",
      "budget": {"max_nodes": N, "max_steps": N, "timeout_ms": N}}
     {"id": N, "op": "minimize", "session": "s3", "heuristic": "sched"}
     {"id": N, "op": "reach",  "bench": "tlc"}            (or "blif": <text>)
     {"id": N, "op": "equiv", "bench1": ..., "bench2": ...}
     {"id": N, "op": "session_open",  "bdd": <Store text>}
     {"id": N, "op": "session_close", "session": "s3"}
     {"id": N, "op": "ping" | "metrics" | "shutdown" | "dump"}

   [session_open] interns the Store text into a server-side manager
   once and replies {"session": "s3", "roots": [...], "nodes": N}; a
   minimize carrying "session" then runs against that warm manager
   without re-uploading or re-interning.  Sessions belong to the
   connection that opened them and die with it (or under the server's
   [--max-sessions] LRU).

   Every budget field is optional, as is "budget" itself.  [timeout_ms]
   is converted to an {e absolute} monotonic deadline when the request
   is parsed, i.e. on arrival — so time spent waiting in the scheduler
   queue counts against the request, and an expired request dies on its
   first kernel call (see the Budget entry-point poll).

   An optional "repr" field may only be "bdd": plain ROBDDs are the one
   node representation served, and any other value is an error reply.

   Two optional telemetry fields ride on any request:

     "trace":   {"id": "<client-generated>", "sampled": true}
     "explain": true

   The trace id is an opaque client string carried through the server's
   span emission and flight-recorder records, and echoed nowhere else —
   it exists so one distributed trace can stitch client and server
   views together.  [sampled:false] asks the server not to emit spans
   for this request (it is still metered and flight-recorded).
   [explain] asks for a "telemetry" object on the reply: phase timings
   (queue/exec/write, microseconds), budget consumption, and the engine
   stats delta attributable to this request.

   Replies:
     {"id": N, "status": "ok",      "result": {...}}
     {"id": N, "status": "dnf",     "reason": "steps"|"nodes"|"time"|"cancelled",
      "message": "..."}
     {"id": N, "status": "partial", "reason": ..., "result": {...}}
     {"id": N, "status": "error",   "message": "..."}
     {"id": N, "status": "busy",    "retry_after_ms": N, "message": "..."}

   [busy] is the backpressure reply: the admission queue is at its
   bound, the request was {e not} enqueued, and the client should retry
   after roughly [retry_after_ms] (an estimate from the current backlog
   and recent execution times).
   plus, when the request said [explain]:
     {..., "telemetry": {"queue_us": N, "exec_us": N, "write_us": N,
                         "budget": {...}, "engine": {...}}}            *)

let max_frame = 32 * 1024 * 1024

(* ----- framing ----- *)

let rec really_write fd buf off len =
  if len > 0 then begin
    let n = Unix.write fd buf off len in
    really_write fd buf (off + n) (len - n)
  end

let write_frame fd payload =
  let len = String.length payload in
  if len > max_frame then invalid_arg "Serve.Protocol.write_frame: frame too large";
  let buf = Bytes.create (4 + len) in
  Bytes.set_int32_be buf 0 (Int32.of_int len);
  Bytes.blit_string payload 0 buf 4 len;
  really_write fd buf 0 (4 + len)

(* [`Frame payload | `Eof] on success; [Error] covers a torn frame, an
   oversized length prefix, or an I/O error.  [`Eof] is only reported at
   a frame boundary (no bytes of the next frame read). *)
let read_frame fd =
  let rec really_read buf off len =
    if len = 0 then `Done
    else
      match Unix.read fd buf off len with
      | 0 -> if off = 0 then `Eof else `Torn
      | n -> really_read buf (off + n) (len - n)
  in
  let hdr = Bytes.create 4 in
  match really_read hdr 0 4 with
  | `Eof -> Ok `Eof
  | `Torn -> Error "connection closed mid-frame"
  | `Done -> begin
      let len = Int32.to_int (Bytes.get_int32_be hdr 0) in
      if len < 0 || len > max_frame then
        Error (Printf.sprintf "frame length %d out of range" len)
      else begin
        let payload = Bytes.create len in
        match really_read payload 0 len with
        | `Eof | `Torn -> Error "connection closed mid-frame"
        | `Done -> Ok (`Frame (Bytes.unsafe_to_string payload))
      end
    end
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)

(* ----- requests ----- *)

type budget_spec = {
  max_nodes : int option;
  max_steps : int option;
  deadline_ns : int64 option;  (** absolute monotonic, fixed at arrival *)
  timeout_ms : int option;
      (** the raw wire value behind [deadline_ns] — kept because the
          result cache buckets budgets by requested timeout, and the
          absolute deadline differs between otherwise identical
          requests *)
}

let no_budget =
  { max_nodes = None; max_steps = None; deadline_ns = None; timeout_ms = None }

type source =
  | Store_text of string
  | Pla_text of string
  | Session_ref of string  (** minimize against a warm session manager *)

type machine = Bench of string | Blif_text of string

type trace_spec = { trace_id : string; sampled : bool }

type op =
  | Minimize of { source : source; heuristic : string }
  | Reach of machine
  | Equiv of machine * machine
  | Session_open of { bdd : string }
  | Session_close of { sid : string }
  | Ping
  | Metrics
  | Dump
  | Shutdown

type request = {
  id : int;
  op : op;
  budget : budget_spec;
  trace : trace_spec option;
  explain : bool;
}

let op_label = function
  | Minimize _ -> "minimize"
  | Reach _ -> "reach"
  | Equiv _ -> "equiv"
  | Session_open _ -> "session_open"
  | Session_close _ -> "session_close"
  | Ping -> "ping"
  | Metrics -> "metrics"
  | Dump -> "dump"
  | Shutdown -> "shutdown"

let parse_budget j =
  match Json.mem "budget" j with
  | None | Some Json.Null -> Ok no_budget
  | Some (Json.Obj _ as b) ->
    let pos name =
      match Json.int_field name b with
      | Some n when n <= 0 -> Error (Printf.sprintf "budget.%s must be positive" name)
      | v -> Ok v
    in
    Result.bind (pos "max_nodes") @@ fun max_nodes ->
    Result.bind (pos "max_steps") @@ fun max_steps ->
    Result.bind
      (match Json.int_field "timeout_ms" b with
       | Some ms when ms < 0 -> Error "budget.timeout_ms must be non-negative"
       | v -> Ok v)
    @@ fun timeout_ms ->
    let deadline_ns =
      Option.map
        (fun ms ->
           Int64.add (Obs.Clock.now_ns ()) (Int64.mul (Int64.of_int ms) 1_000_000L))
        timeout_ms
    in
    Ok { max_nodes; max_steps; deadline_ns; timeout_ms }
  | Some _ -> Error "budget must be an object"

(* The trace id round-trips the wire {e byte-identically}: it is
   carried as a plain JSON string, and the codec's escaping is an exact
   inverse of its parsing for every OCaml string. *)
let parse_trace j =
  match Json.mem "trace" j with
  | None | Some Json.Null -> Ok None
  | Some (Json.Obj _ as t) -> begin
      match Json.string_field "id" t with
      | None -> Error "trace.id must be a string"
      | Some trace_id ->
        let sampled =
          match Json.mem "sampled" t with
          | Some (Json.Bool b) -> b
          | _ -> true
        in
        Ok (Some { trace_id; sampled })
    end
  | Some _ -> Error "trace must be an object"

let machine_of ~bench ~blif j =
  match Json.string_field bench j, Json.string_field blif j with
  | Some name, None -> Ok (Bench name)
  | None, Some text -> Ok (Blif_text text)
  | Some _, Some _ -> Error (Printf.sprintf "give %s or %s, not both" bench blif)
  | None, None -> Error (Printf.sprintf "missing %s or %s" bench blif)

(* A rejected request's error carries its [id] when that much parsed
   (0 otherwise), so the error reply names the request it answers. *)
let parse_request payload =
  match Json.parse payload with
  | Error msg -> Error (0, "bad JSON: " ^ msg)
  | Ok j ->
    let id = Option.value ~default:0 (Json.int_field "id" j) in
    Result.map_error (fun msg -> (id, msg)) @@
    Result.bind (parse_budget j) @@ fun budget ->
    Result.bind (parse_trace j) @@ fun trace ->
    let explain =
      match Json.mem "explain" j with Some (Json.Bool b) -> b | _ -> false
    in
    Result.bind
      (match Json.mem "repr" j with
       | None | Some Json.Null | Some (Json.Str "bdd") -> Ok ()
       | Some r ->
         Error
           (Printf.sprintf
              "unknown repr %s: \"bdd\" is the only representation served"
              (Json.print r)))
    @@ fun () ->
    let finish op = Ok { id; op; budget; trace; explain } in
    (match Json.string_field "op" j with
     | None -> Error "missing op"
     | Some "ping" -> finish Ping
     | Some "metrics" -> finish Metrics
     | Some "dump" -> finish Dump
     | Some "shutdown" -> finish Shutdown
     | Some "minimize" ->
       let heuristic =
         Option.value ~default:"sched" (Json.string_field "heuristic" j)
       in
       (match
          ( Json.string_field "bdd" j,
            Json.string_field "pla" j,
            Json.string_field "session" j )
        with
        | Some text, None, None ->
          finish (Minimize { source = Store_text text; heuristic })
        | None, Some text, None ->
          finish (Minimize { source = Pla_text text; heuristic })
        | None, None, Some sid ->
          finish (Minimize { source = Session_ref sid; heuristic })
        | None, None, None -> Error "minimize needs a bdd, pla or session field"
        | _ -> Error "give exactly one of bdd, pla or session")
     | Some "session_open" -> begin
         match Json.string_field "bdd" j with
         | Some bdd -> finish (Session_open { bdd })
         | None -> Error "session_open needs a bdd field"
       end
     | Some "session_close" -> begin
         match Json.string_field "session" j with
         | Some sid -> finish (Session_close { sid })
         | None -> Error "session_close needs a session field"
       end
     | Some "reach" ->
       Result.bind (machine_of ~bench:"bench" ~blif:"blif" j) (fun m ->
           finish (Reach m))
     | Some "equiv" ->
       Result.bind (machine_of ~bench:"bench1" ~blif:"blif1" j) @@ fun a ->
       Result.bind (machine_of ~bench:"bench2" ~blif:"blif2" j) @@ fun b ->
       finish (Equiv (a, b))
     | Some op -> Error (Printf.sprintf "unknown op %S" op))

(* ----- request rendering (client side) ----- *)

let render_budget ?max_nodes ?max_steps ?timeout_ms () =
  let fields =
    List.filter_map
      (fun (k, v) -> Option.map (fun n -> (k, Json.int n)) v)
      [ ("max_nodes", max_nodes); ("max_steps", max_steps);
        ("timeout_ms", timeout_ms) ]
  in
  match fields with [] -> None | fs -> Some (Json.Obj fs)

let render_trace { trace_id; sampled } =
  Json.Obj [ ("id", Json.Str trace_id); ("sampled", Json.Bool sampled) ]

let render_request ~id ?budget ?trace ?(explain = false) fields =
  let budget_field =
    match budget with None -> [] | Some b -> [ ("budget", b) ]
  in
  let trace_field =
    match trace with None -> [] | Some t -> [ ("trace", render_trace t) ]
  in
  let explain_field =
    if explain then [ ("explain", Json.Bool true) ] else []
  in
  Json.print
    (Json.Obj
       (("id", Json.int id)
        :: fields @ trace_field @ explain_field @ budget_field))

(* ----- replies ----- *)

let reply_base ~id ~status rest =
  Json.Obj (("id", Json.int id) :: ("status", Json.Str status) :: rest)

let ok_reply ~id result = reply_base ~id ~status:"ok" [ ("result", result) ]

let dnf_reply ~id reason =
  reply_base ~id ~status:"dnf"
    [ ("reason", Json.Str (Bdd.Budget.reason_label reason));
      ("message", Json.Str (Bdd.Budget.reason_message reason)) ]

let partial_reply ~id reason result =
  reply_base ~id ~status:"partial"
    [ ("reason", Json.Str (Bdd.Budget.reason_label reason));
      ("message", Json.Str (Bdd.Budget.reason_message reason));
      ("result", result) ]

let error_reply ~id message =
  reply_base ~id ~status:"error" [ ("message", Json.Str message) ]

(* Backpressure: the request was rejected without being enqueued. *)
let busy_reply ~id ~retry_after_ms =
  reply_base ~id ~status:"busy"
    [ ("retry_after_ms", Json.int retry_after_ms);
      ("message", Json.Str "admission queue full, retry later") ]

(* Appended last so a reply's non-telemetry prefix is byte-identical
   whether or not the client asked to be explained. *)
let with_telemetry reply telemetry =
  match reply with
  | Json.Obj kvs -> Json.Obj (kvs @ [ ("telemetry", telemetry) ])
  | other -> other

type reply = {
  reply_id : int;
  status : string;
      (** ["ok"], ["dnf"], ["partial"], ["error"] or ["busy"] *)
  reason : string option;
  message : string option;
  retry_after_ms : int option;  (** only on ["busy"] *)
  result : Json.t;  (** [Null] when absent *)
  telemetry : Json.t;  (** [Null] unless the request said [explain] *)
}

let parse_reply payload =
  match Json.parse payload with
  | Error msg -> Error ("bad JSON reply: " ^ msg)
  | Ok j ->
    (match Json.string_field "status" j with
     | None -> Error "reply missing status"
     | Some status ->
       Ok
         {
           reply_id = Option.value ~default:0 (Json.int_field "id" j);
           status;
           reason = Json.string_field "reason" j;
           message = Json.string_field "message" j;
           retry_after_ms = Json.int_field "retry_after_ms" j;
           result = Option.value ~default:Json.Null (Json.mem "result" j);
           telemetry = Option.value ~default:Json.Null (Json.mem "telemetry" j);
         })
