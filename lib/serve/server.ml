(* The [bddmin serve] daemon core.

   Shape: one accept domain, one reader domain per connection, one
   shared [Exec.Pool] of compute workers scheduled {e earliest deadline
   first} — a job's pool priority is its request's absolute arrival-time
   deadline (no-deadline requests get arrival + a fixed horizon, which
   keeps them FIFO among themselves), plus a small per-connection
   fairness penalty proportional to how many jobs that connection
   already has queued, so one chatty client cannot starve the rest.

   The reader answers ping/metrics/dump/shutdown/session_close inline
   and pushes everything else through the admission path:

     1. {e result cache}: a bounded sharded LRU ({!Cache}) keyed on
        op + heuristic + payload text + budget class.  A finished entry
        is replied straight from the reader — no queue, no manager.
        Concurrent identical requests are single-flighted: one leader
        computes, followers are parked as reply closures and answered
        when the leader resolves.  Handlers additionally look the
        {e canonical} Store text up after interning (and store results
        under it), so differently-formatted uploads of the same
        function share entries.
     2. {e backpressure}: admission is bounded ([?queue_cap]); a
        request arriving at the bound is refused with a
        [busy {retry_after_ms}] reply (estimated from the backlog and a
        recent-execution-time EMA) instead of growing the queue.
     3. every admitted request is one pool job with its EDF priority.
        A sessionless request (minimize, reach, equiv) runs on its pool
        worker's resident manager, which every such request leaves reset
        to the state of a fresh one, so its budget, cover and node
        numbering never depend on what else was queued or ran before.

   Sessions ({!Session}) pin a warm manager to a connection:
   [session_open] interns the uploaded Store once, and subsequent
   minimize calls referencing the session skip setup entirely (they
   also skip the result cache — the warm path is the point).  Sessions
   are LRU-evicted under [?max_sessions] and torn down on disconnect.

   Replies are frames on the same socket, serialized by a per-connection
   write lock; a connection with several outstanding compute requests
   receives replies in completion order, matched by [id].  Shutdown
   aborts the queued (not yet running) jobs — including cache
   followers — with [dnf cancelled]/[busy] replies so no client hangs,
   drains the running ones, then joins every reader.  The accept loop
   joins a reader as soon as its connection ends, so it tracks only
   live connections.

   Telemetry: every request is metered into the typed [Obs.Metrics]
   registry (counters by op and status, cache/session event counters,
   log2 latency and phase histograms, gauges refreshed at scrape time)
   and appended to an [Obs.Flight] ring of recent request records;
   requests carrying a client trace id flow through [Obs.Trace] spans
   when the server was started with a sink. *)

let src = Logs.Src.create "bddmin.serve" ~doc:"request scheduler daemon"

module Log = (val Logs.src_log src)

type listen = Tcp of int | Unix_path of string

(* ----- metric families (registered once, at module init) ----- *)

module M = struct
  open Obs.Metrics

  (* Every label set the server meters is resolved here, once: the
     request path finds its handle in a table nobody writes after module
     init, without taking the registry lock.  A label set missing from
     [tuples] still resolves, through the registry. *)
  let resolved fam tuples =
    let table = Hashtbl.create 32 in
    List.iter (fun l -> Hashtbl.replace table l (labels fam l)) tuples;
    fun l ->
      match Hashtbl.find_opt table l with Some h -> h | None -> labels fam l

  let each = List.map (fun x -> [ x ])

  let compute_ops = [ "minimize"; "reach"; "equiv"; "session_open" ]

  let exec_phases = [ "load"; "canon"; "minimize"; "render"; "reset" ]

  let inline_ops = [ "session_close"; "ping"; "metrics"; "dump"; "shutdown" ]

  let requests =
    resolved
      (counter ~help:"Requests parsed, by operation" ~labels:[ "op" ]
         "bddmin_serve_requests_total")
      (each (compute_ops @ inline_ops))

  let malformed =
    handle
      (counter ~help:"Frames that failed request parsing"
         "bddmin_serve_malformed_total")

  let replies =
    resolved
      (counter ~help:"Replies written, by operation and status"
         ~labels:[ "op"; "status" ] "bddmin_serve_replies_total")
      (List.concat_map
         (fun op ->
            List.map (fun st -> [ op; st ])
              [ "ok"; "dnf"; "partial"; "error"; "busy" ])
         compute_ops
       @ List.map (fun op -> [ op; "ok" ]) inline_ops)

  let latency =
    resolved
      (histogram
         ~help:"Worker-side request latency in microseconds (log2 buckets)"
         ~labels:[ "op" ] "bddmin_serve_latency_us")
      (each compute_ops)

  let phase =
    resolved
      (histogram
         ~help:
           "Per-phase request time in microseconds: queue wait, handler \
            execution, reply serialization + write; a minimize also \
            splits execution into load, canon (canonical cache key), \
            minimize and render, and an op on a worker's resident \
            manager into its reset"
         ~labels:[ "phase" ] "bddmin_serve_phase_us")
      (each exec_phases @ each [ "queue"; "exec"; "write" ])

  let conn_errors =
    resolved
      (counter ~help:"Connection-level failures, by kind" ~labels:[ "kind" ]
         "bddmin_serve_conn_errors_total")
      (each [ "accept"; "domain_limit"; "torn_frame"; "reader_exception" ])

  let cache_events =
    resolved
      (counter
         ~help:
           "Result-cache events: hit (served from the reader), canonical_hit \
            (matched after interning), miss, collapsed (joined an in-flight \
            identical request), store, evicted"
         ~labels:[ "event" ] "bddmin_serve_cache_events_total")
      (each [ "hit"; "canonical_hit"; "miss"; "collapsed"; "store"; "evicted" ])

  let session_events =
    resolved
      (counter ~help:"Session lifecycle events: opened, closed, evicted"
         ~labels:[ "event" ] "bddmin_serve_session_events_total")
      (each [ "opened"; "closed"; "evicted" ])

  let gauge' help name = handle (gauge ~help name)

  let queue_depth =
    gauge' "Compute jobs queued but not yet running" "bddmin_serve_queue_depth"

  let admission_queue =
    gauge' "Admitted compute requests not yet started (bounded by --queue-cap)"
      "bddmin_serve_admission_queue"

  let cache_entries =
    gauge' "Finished entries resident in the result cache"
      "bddmin_serve_cache_entries"

  let sessions_live = gauge' "Open warm-manager sessions" "bddmin_serve_sessions"

  let workers_busy =
    gauge' "Pool workers currently executing a job" "bddmin_serve_workers_busy"

  let workers_idle =
    gauge' "Pool workers parked waiting for work" "bddmin_serve_workers_idle"

  let workers = gauge' "Pool worker domains" "bddmin_serve_workers"

  let in_flight =
    gauge' "Compute requests accepted and not yet replied"
      "bddmin_serve_in_flight"

  let connections = gauge' "Open client connections" "bddmin_serve_connections"

  let manager_live =
    resolved
      (gauge
         ~help:
           "Live BDD nodes in the most recently completed request's \
            manager, by operation"
         ~labels:[ "op" ] "bddmin_serve_manager_live_nodes")
      (each compute_ops)

  let uptime =
    gauge' "Seconds since the server started" "bddmin_serve_uptime_seconds"

  let trace_dropped =
    gauge' "Trace events dropped by memory-sink rings"
      "bddmin_obs_trace_dropped_events"

  let flight_dropped =
    gauge' "Flight-recorder records evicted from the ring"
      "bddmin_serve_flight_dropped_records"
end

type conn = {
  id : int;  (* server-unique; owns this connection's sessions *)
  fd : Unix.file_descr;
  wlock : Mutex.t;
  cancel : Exec.Cancel.t;
  peer : string;
  queued : int Atomic.t;  (* this connection's admitted-not-started jobs *)
  mutable refs : int;  (* reader + in-flight jobs; fd closes at 0 *)
}

(* An admitted compute request, on its way through the queue to a
   worker.  [p_key] is the cache key this request {e leads} (it
   owes the cache a resolve or abandon); [None] when caching is off,
   the op is uncacheable, or the request joined another leader. *)
type pending = {
  p_req : Protocol.request;
  p_conn : conn;
  p_arrival : int64;
  p_bytes : int;
  p_key : string option;
  p_prio : int64;
}

type t = {
  listen_fd : Unix.file_descr;
  address : string;
  port : int option;  (** bound TCP port, for [Tcp 0] callers *)
  unix_path : string option;
  pool : Exec.Pool.t;
  workers : int;
  sessions : Session.t;
  cache : Cache.t option;
  queue_cap : int;  (* 0 = unbounded *)
  stop_flag : bool Atomic.t;
  in_flight : int Atomic.t;
  admitted : int Atomic.t;  (* enqueued, not started *)
  exec_ema_us : int Atomic.t;  (* recent handler time, for retry_after *)
  conn_count : int Atomic.t;
  conn_seq : int Atomic.t;
  ended : int list Atomic.t;  (* connections whose reader finished, to reap *)
  tracked : int Atomic.t;  (* readers the accept loop has not joined yet *)
  started_ns : int64;
  flight : Obs.Flight.t;
  flight_dump : string option;
  trace_sink : Obs.Trace.sink option;
  metrics_address : string option;
  metrics_port : int option;
  metrics_unix_path : string option;
  lock : Mutex.t;
  finished : Condition.t;
  mutable accept_domain : unit Domain.t option;
  mutable metrics_domain : unit Domain.t option;
  mutable is_finished : bool;
}

(* ----- connection refcounting ----- *)

let conn_retain conn =
  Mutex.lock conn.wlock;
  conn.refs <- conn.refs + 1;
  Mutex.unlock conn.wlock

(* The fd closes under the write lock, so [conn_shutdown] never meets a
   closed (and possibly reused) fd number. *)
let conn_release conn =
  Mutex.lock conn.wlock;
  conn.refs <- conn.refs - 1;
  (if conn.refs = 0 then try Unix.close conn.fd with Unix.Unix_error _ -> ());
  Mutex.unlock conn.wlock

(* Unblock a reader stuck in read(2), if the fd is still open. *)
let conn_shutdown conn =
  Mutex.lock conn.wlock;
  (if conn.refs > 0 then
     try Unix.shutdown conn.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  Mutex.unlock conn.wlock

let conn_send_payload conn payload =
  Mutex.lock conn.wlock;
  (if conn.refs > 0 then
     try Protocol.write_frame conn.fd payload
     with Unix.Unix_error _ | Invalid_argument _ -> ());
  Mutex.unlock conn.wlock

let conn_send conn json = conn_send_payload conn (Json.print json)

(* ----- timing helpers ----- *)

let now_ns = Obs.Clock.now_ns

let us_since t0 =
  Int64.to_int (Int64.div (Int64.sub (now_ns ()) t0) 1000L)

(* ----- EDF priorities ----- *)

(* Requests without a deadline schedule as "arrival + horizon": still
   strictly after anything with a real deadline inside the horizon, and
   FIFO among themselves. *)
let default_horizon_ns = 60_000_000_000L

(* Per-connection fairness: each job a connection already has waiting
   pushes its next one this much later, so interleaved clients with
   equal deadlines alternate instead of draining one connection first.
   Small enough (2 ms) never to reorder deadlines that differ by a
   scheduling-relevant amount. *)
let fairness_quantum_ns = 2_000_000L

let priority_of conn ~arrival_ns (b : Protocol.budget_spec) =
  let deadline =
    match b.deadline_ns with
    | Some d -> d
    | None -> Int64.add arrival_ns default_horizon_ns
  in
  Int64.add deadline
    (Int64.mul (Int64.of_int (Atomic.get conn.queued)) fairness_quantum_ns)

(* ----- cache keys ----- *)

(* Budgets enter the cache key as a class, not as raw values: the
   absolute deadline differs between otherwise identical requests, so
   the requested timeout is bucketed by log2 — a 900 ms and a 1000 ms
   request share an entry, a 10 ms and a 10 s one don't. *)
let budget_class (b : Protocol.budget_spec) =
  let opt = function None -> "-" | Some n -> string_of_int n in
  let tclass =
    match b.timeout_ms with
    | None -> "-"
    | Some ms when ms <= 0 -> "0"
    | Some ms ->
      let rec lg n acc = if n <= 1 then acc else lg (n lsr 1) (acc + 1) in
      string_of_int (lg ms 0)
  in
  Printf.sprintf "n%s/s%s/t%s" (opt b.max_nodes) (opt b.max_steps) tclass

let key_of ~kind ~extra ~bclass ~payload =
  String.concat "\x00" [ kind; extra; bclass; payload ]

let machine_key = function
  | Protocol.Bench name -> "bench:" ^ name
  | Protocol.Blif_text text -> "blif:" ^ text

(* The raw-payload cache key, computed at admission (before any
   interning).  Session ops and session-backed minimizes are never
   cached — the warm-manager path is the point of a session. *)
let cache_key_of (req : Protocol.request) =
  let bclass = budget_class req.budget in
  match req.op with
  | Protocol.Minimize { source = Protocol.Store_text text; heuristic } ->
    Some (key_of ~kind:"minimize" ~extra:heuristic ~bclass ~payload:text)
  | Protocol.Minimize { source = Protocol.Pla_text text; heuristic } ->
    Some (key_of ~kind:"minimize-pla" ~extra:heuristic ~bclass ~payload:text)
  | Protocol.Reach m ->
    Some (key_of ~kind:"reach" ~extra:"" ~bclass ~payload:(machine_key m))
  | Protocol.Equiv (a, b) ->
    Some
      (key_of ~kind:"equiv" ~extra:(machine_key a) ~bclass
         ~payload:(machine_key b))
  | Protocol.Minimize { source = Protocol.Session_ref _; _ }
  | Protocol.Session_open _ | Protocol.Session_close _ | Protocol.Ping
  | Protocol.Metrics | Protocol.Dump | Protocol.Shutdown ->
    None

(* Cached values are reply bodies with the per-requester fields
   stripped; [with_id] puts a requester's id back on the way out. *)
let strip_for_cache = function
  | Json.Obj kvs ->
    Json.Obj (List.filter (fun (k, _) -> k <> "id" && k <> "telemetry") kvs)
  | other -> other

let with_id id = function
  | Json.Obj kvs -> Json.Obj (("id", Json.int id) :: kvs)
  | other -> other

(* ----- per-request budget ----- *)

(* Raised (and mapped to a [dnf time] reply) when the deadline passed
   while the request sat in the queue — the job dies without touching a
   manager. *)
let make_budget conn (b : Protocol.budget_spec) =
  let timeout_s =
    Option.map
      (fun deadline ->
         let rem =
           Int64.to_float (Int64.sub deadline (now_ns ())) /. 1e9
         in
         if rem <= 0.0 then
           raise (Bdd.Budget_exhausted (Bdd.Budget.Time { seconds = 0.0 }));
         rem)
      b.deadline_ns
  in
  Bdd.Budget.create ?max_nodes:b.max_nodes ?max_steps:b.max_steps ?timeout_s
    ~cancelled:(fun () -> Exec.Cancel.cancelled conn.cancel)
    ()

(* ----- per-request execution telemetry -----

   Handlers deposit what only they can see — the manager's footprint,
   the canonical cache key discovered after interning, and (under
   [explain]) the engine stats delta and budget consumption — into this
   accumulator; [run_item] owns the phase clocks. *)

type texec = {
  mutable live_nodes : int;
  mutable engine : (string * Json.t) list;
  mutable budget_used : (string * Json.t) list;
  mutable canonical_key : string option;
  mutable cache_note : string option;  (* "canonical-hit" etc, for explain *)
  mutable phases : (string * int) list;  (* exec sub-phases that ran, in us *)
}

(* Time one sub-phase of a handler into [tx.phases], also when it
   raises (a dnf still reports how far it got). *)
let timed tx phase f =
  let t0 = now_ns () in
  Fun.protect f ~finally:(fun () -> tx.phases <- (phase, us_since t0) :: tx.phases)

let engine_json (d : Bdd.Stats.t) =
  List.map (fun (k, v) -> (k, Json.int v)) (Bdd.Stats.fields d)
  @ [ ("cache_hit_rate", Json.Num (Bdd.Stats.hit_rate d)) ]

(* Bracket a handler's compute on one manager: take the "before"
   snapshot now, and on the way out — also when the budget fires —
   deposit the footprint and, under [explain], the delta and the steps
   consumed.  A dnf reply thus still explains the work done so far. *)
let with_engine_telemetry tx ~explain man budget f =
  let before = Bdd.snapshot man in
  let finish () =
    let after = Bdd.snapshot man in
    tx.live_nodes <- after.Bdd.Stats.live_nodes;
    if explain then begin
      tx.engine <- engine_json (Bdd.Stats.delta ~before ~after);
      tx.budget_used <- [ ("steps", Json.int (Bdd.Budget.steps budget)) ]
    end
  in
  Fun.protect ~finally:finish f

(* ----- op handlers (run on pool workers) ----- *)

(* The instance named by a root set: [f], with [c] defaulting to 1. *)
let ispec_of_roots man ~what roots =
  match List.assoc_opt "f" roots with
  | None -> Error (what ^ " has no root named \"f\"")
  | Some f ->
    let c = Option.value ~default:(Bdd.one man) (List.assoc_opt "c" roots) in
    Ok (Minimize.Ispec.make ~f ~c)

let load_store man text =
  match Bdd.Store.load man text with
  | Error msg -> Error ("bad bdd payload: " ^ msg)
  | Ok roots -> ispec_of_roots man ~what:"bdd payload" roots

let load_pla man text =
  match Logic.Pla.parse text with
  | Error msg -> Error ("bad pla payload: " ^ msg)
  | Ok pla ->
    (match Logic.Pla.functions man pla with
     | [] -> Error "pla has no outputs"
     | (_, (f, c)) :: _ -> Ok (Minimize.Ispec.make ~f ~c))

let run_heuristic ctx ~heuristic spec =
  if heuristic = "best" then
    Minimize.Registry.best ctx Minimize.Registry.all spec
  else
    match Minimize.Registry.find heuristic with
    | None ->
      let names =
        String.concat ", "
          (Minimize.Registry.names Minimize.Registry.extended)
      in
      invalid_arg
        (Printf.sprintf "unknown heuristic %S (try one of: %s, best)"
           heuristic names)
    | Some entry -> (heuristic, Minimize.Registry.run entry ctx spec)

let minimize_result man ~name ~cover spec =
  Json.Obj
    [ ("heuristic", Json.Str name);
      ("size", Json.int (Bdd.size man cover));
      ("input_size", Json.int (Bdd.size man spec.Minimize.Ispec.f));
      ("cover", Json.Str (Bdd.Store.save man [ ("g", cover) ])) ]

(* The pool worker's own manager, made fresh for its first compute
   request and reset as each request finishes (telemetry read, reply
   built, or an exception on its way out), so every request starts from
   the state of a fresh manager (same node ids, same Store texts,
   budgets metering only its own work) without allocating one, and an
   idle worker keeps none of its last request's nodes.  The reset is
   timed as phase [reset].  Only handlers, which run on pool workers,
   ask for it. *)
let resident = Domain.DLS.new_key (fun () -> Bdd.create ())

let with_resident_manager tx f =
  let man = Domain.DLS.get resident in
  Fun.protect
    ~finally:(fun () -> timed tx "reset" (fun () -> Bdd.reset man))
    (fun () -> f man)

(* Run [k man spec] on the instance a minimize names, inside the
   manager it lives in.  A session's warm manager is owner-checked,
   serialized by the session lock (managers have no internal locking),
   and skips the result cache: the warm path is what the client asked
   to measure.  An upload is interned into the worker's resident
   manager; its canonical Store text is looked up in the cache (a
   reformatted upload of a function already served returns without
   running [k]) and left in [tx.canonical_key], so the result is stored
   under both the raw and canonical keys. *)
let with_instance srv conn tx budget_spec ~heuristic source k =
  let uploaded load =
    with_resident_manager tx @@ fun man ->
    match timed tx "load" (fun () -> load man) with
    | Error msg -> Error msg
    | Ok spec ->
      let canonical_value =
        match srv.cache with
        | None -> None
        | Some cache ->
          timed tx "canon" @@ fun () ->
          let canonical =
            Bdd.Store.save man
              [ ("f", spec.Minimize.Ispec.f); ("c", spec.Minimize.Ispec.c) ]
          in
          let ckey =
            key_of ~kind:"minimize@canon" ~extra:heuristic
              ~bclass:(budget_class budget_spec) ~payload:canonical
          in
          tx.canonical_key <- Some ckey;
          Cache.find cache ckey
      in
      (match Option.bind canonical_value (Json.mem "result") with
       | Some result ->
         Obs.Metrics.inc (M.cache_events [ "canonical_hit" ]);
         tx.cache_note <- Some "canonical-hit";
         Ok result
       | None -> k man spec)
  in
  match source with
  | Protocol.Store_text text -> uploaded (fun man -> load_store man text)
  | Protocol.Pla_text text -> uploaded (fun man -> load_pla man text)
  | Protocol.Session_ref sid -> begin
      match Session.find srv.sessions ~owner:conn.id sid with
      | None ->
        Error
          (Printf.sprintf
             "unknown session %S (evicted, closed, or not open on this \
              connection)" sid)
      | Some s ->
        Session.with_session s @@ fun man ->
        Result.bind (ispec_of_roots man ~what:"session" s.Session.roots)
          (k man)
    end

(* One minimize body for both kinds of manager. *)
let handle_minimize srv conn tx ~explain budget_spec ~source ~heuristic =
  with_instance srv conn tx budget_spec ~heuristic source @@ fun man spec ->
  let budget = make_budget conn budget_spec in
  with_engine_telemetry tx ~explain man budget @@ fun () ->
  let ctx = Minimize.Ctx.make ~budget man in
  let name, cover =
    timed tx "minimize" (fun () -> run_heuristic ctx ~heuristic spec)
  in
  Ok (timed tx "render" (fun () -> minimize_result man ~name ~cover spec))

let handle_session_open srv conn ~bdd =
  match Session.open_ srv.sessions ~owner:conn.id ~text:bdd with
  | Error msg -> Error msg
  | Ok s ->
    Obs.Metrics.inc (M.session_events [ "opened" ]);
    Ok
      (Json.Obj
         [ ("session", Json.Str s.Session.sid);
           ( "roots",
             Json.Arr (List.map (fun (n, _) -> Json.Str n) s.Session.roots) );
           ("nodes", Json.int s.Session.baseline_nodes) ])

let netlist_of = function
  | Protocol.Bench name -> begin
      match Circuits.Registry.find name with
      | None ->
        let names =
          String.concat ", " (Circuits.Registry.names Circuits.Registry.all)
        in
        Error (Printf.sprintf "unknown bench %S (have: %s)" name names)
      | Some b -> Ok (b.Circuits.Registry.build ())
    end
  | Protocol.Blif_text text -> begin
      match Fsm.Blif.parse text with
      | Error msg -> Error ("bad blif payload: " ^ msg)
      | Ok nl -> Ok nl
    end

let reach_result (stats : Fsm.Reach.stats) =
  Json.Obj
    [ ("iterations", Json.int stats.iterations);
      ("reached_states", Json.Num stats.reached_states);
      ("minimization_calls", Json.int stats.minimization_calls) ]

let handle_reach conn tx ~explain ~id budget_spec machine =
  match netlist_of machine with
  | Error msg -> Error (Protocol.error_reply ~id msg)
  | Ok nl ->
    with_resident_manager tx @@ fun man ->
    let budget = make_budget conn budget_spec in
    with_engine_telemetry tx ~explain man budget @@ fun () ->
    let sym = Fsm.Symbolic.of_netlist man nl in
    let _reached, stats =
      Bdd.with_budget man budget (fun () -> Fsm.Reach.reachable sym)
    in
    (match stats.Fsm.Reach.fixpoint with
     | Fsm.Reach.Complete -> Ok (Protocol.ok_reply ~id (reach_result stats))
     | Fsm.Reach.Partial { reason; _ } ->
       Ok (Protocol.partial_reply ~id reason (reach_result stats)))

let handle_equiv conn tx ~explain budget_spec a b =
  match netlist_of a, netlist_of b with
  | Error msg, _ | _, Error msg -> Error msg
  | Ok na, Ok nb ->
    with_resident_manager tx @@ fun man ->
    let budget = make_budget conn budget_spec in
    with_engine_telemetry tx ~explain man budget @@ fun () ->
    let verdict =
      Bdd.with_budget man budget (fun () -> Fsm.Equiv.check man na nb)
    in
    (match verdict with
     | Fsm.Equiv.Equivalent stats ->
       Ok
         (Json.Obj
            [ ("equivalent", Json.Bool true);
              ("iterations", Json.int stats.Fsm.Reach.iterations) ])
     | Fsm.Equiv.Not_equivalent { stats; _ } ->
       Ok
         (Json.Obj
            [ ("equivalent", Json.Bool false);
              ("iterations", Json.int stats.Fsm.Reach.iterations) ]))

(* ----- gauges and scraping ----- *)

(* Levels are refreshed on scrape rather than maintained event-by-event:
   the sources of truth (pool queue, atomics, ring counters) are always
   current, so a scrape-time read can never drift the way paired
   inc/dec instrumentation can. *)
let refresh_gauges srv =
  let set = Obs.Metrics.set in
  let depth = Exec.Pool.queue_depth srv.pool in
  let in_flight = Atomic.get srv.in_flight in
  set M.queue_depth depth;
  set M.admission_queue (Atomic.get srv.admitted);
  set M.in_flight in_flight;
  set M.workers_busy (min srv.workers (max 0 (in_flight - depth)));
  set M.workers_idle (Exec.Pool.idle_workers srv.pool);
  set M.workers srv.workers;
  set M.connections (Atomic.get srv.conn_count);
  set M.sessions_live (Session.count srv.sessions);
  set M.cache_entries
    (match srv.cache with None -> 0 | Some c -> Cache.length c);
  set M.uptime
    (Int64.to_int
       (Int64.div (Int64.sub (now_ns ()) srv.started_ns) 1_000_000_000L));
  set M.trace_dropped (Obs.Trace.total_dropped ());
  set M.flight_dropped (Obs.Flight.dropped srv.flight)

let metrics_exposition srv =
  refresh_gauges srv;
  Obs.Metrics.expose ()

let kind_str = function
  | Obs.Metrics.Counter -> "counter"
  | Obs.Metrics.Gauge -> "gauge"
  | Obs.Metrics.Histogram -> "histogram"

let families_json () =
  Json.Arr
    (List.map
       (fun (f : Obs.Metrics.family_snapshot) ->
          Json.Obj
            [ ("name", Json.Str f.name);
              ("kind", Json.Str (kind_str f.kind));
              ("help", Json.Str f.help);
              ( "series",
                Json.Arr
                  (List.map
                     (fun (s : Obs.Metrics.series) ->
                        Json.Obj
                          (( "labels",
                             Json.Obj
                               (List.map (fun (k, v) -> (k, Json.Str v))
                                  s.labels) )
                           ::
                           (match s.value with
                            | Obs.Metrics.Counter_v v
                            | Obs.Metrics.Gauge_v v ->
                              [ ("value", Json.int v) ]
                            | Obs.Metrics.Histogram_v { buckets; sum; count }
                              ->
                              [ ( "buckets",
                                  Json.Arr
                                    (List.map Json.int
                                       (Array.to_list buckets)) );
                                ("sum", Json.int sum);
                                ("count", Json.int count) ])))
                     f.series) ) ])
       (Obs.Metrics.snapshot ()))

(* Sum a counter family's series, keeping those where [pick labels]
   holds — so the wire metrics op can export flat convenience numbers
   (cache hits, busy replies) without clients parsing the registry. *)
let counter_total ~name ~pick =
  List.fold_left
    (fun acc (f : Obs.Metrics.family_snapshot) ->
       if f.name <> name then acc
       else
         List.fold_left
           (fun acc (s : Obs.Metrics.series) ->
              match s.value with
              | Obs.Metrics.Counter_v v when pick s.labels -> acc + v
              | _ -> acc)
           acc f.series)
    0 (Obs.Metrics.snapshot ())

let cache_event_total event =
  counter_total ~name:"bddmin_serve_cache_events_total"
    ~pick:(fun labels -> List.assoc_opt "event" labels = Some event)

let session_event_total event =
  counter_total ~name:"bddmin_serve_session_events_total"
    ~pick:(fun labels -> List.assoc_opt "event" labels = Some event)

let status_reply_total status =
  counter_total ~name:"bddmin_serve_replies_total"
    ~pick:(fun labels -> List.assoc_opt "status" labels = Some status)

let metrics_json srv =
  let uptime_s =
    Int64.to_float (Int64.sub (now_ns ()) srv.started_ns) /. 1e9
  in
  refresh_gauges srv;
  Json.Obj
    [ ("uptime_s", Json.Num uptime_s);
      ("workers", Json.int srv.workers);
      ("in_flight", Json.int (Atomic.get srv.in_flight));
      ("queue_depth", Json.int (Exec.Pool.queue_depth srv.pool));
      ("admission_queue", Json.int (Atomic.get srv.admitted));
      ("queue_cap", Json.int srv.queue_cap);
      ("workers_idle", Json.int (Exec.Pool.idle_workers srv.pool));
      ("connections", Json.int (Atomic.get srv.conn_count));
      ("busy_replies", Json.int (status_reply_total "busy"));
      ( "cache",
        Json.Obj
          [ ("entries",
             Json.int
               (match srv.cache with None -> 0 | Some c -> Cache.length c));
            ("hits", Json.int (cache_event_total "hit"));
            ("canonical_hits", Json.int (cache_event_total "canonical_hit"));
            ("misses", Json.int (cache_event_total "miss"));
            ("collapsed", Json.int (cache_event_total "collapsed"));
            ("evicted", Json.int (cache_event_total "evicted")) ] );
      ( "sessions",
        Json.Obj
          [ ("live", Json.int (Session.count srv.sessions));
            ("opened", Json.int (session_event_total "opened"));
            ("closed", Json.int (session_event_total "closed"));
            ("evicted", Json.int (session_event_total "evicted")) ] );
      ("trace_dropped", Json.int (Obs.Trace.total_dropped ()));
      ( "flight",
        Json.Obj
          [ ("capacity", Json.int (Obs.Flight.capacity srv.flight));
            ("written", Json.int (Obs.Flight.written srv.flight));
            ("dropped", Json.int (Obs.Flight.dropped srv.flight)) ] );
      ("families", families_json ());
      ("prometheus", Json.Str (Obs.Metrics.expose ())) ]

(* ----- flight recorder ----- *)

let flight_json srv = Obs.Flight.to_json srv.flight

(* Write the ring to the configured dump path (atomically, via rename);
   [None] when no path was configured or the write failed. *)
let dump_flight srv =
  match srv.flight_dump with
  | None -> None
  | Some path -> begin
      match
        let tmp = path ^ ".tmp" in
        let oc = open_out tmp in
        Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () ->
            output_string oc (flight_json srv));
        Sys.rename tmp path
      with
      | () ->
        Log.info (fun k -> k "flight recorder dumped to %s" path);
        Some path
      | exception Sys_error msg ->
        Log.err (fun k -> k "flight dump to %s failed: %s" path msg);
        None
    end

(* ----- request execution ----- *)

let reply_status j =
  match Json.string_field "status" j with Some s -> s | None -> "error"

let trace_id_of (req : Protocol.request) =
  match req.trace with Some t -> t.Protocol.trace_id | None -> ""

let sampled (req : Protocol.request) =
  match req.trace with Some t -> t.Protocol.sampled | None -> true

(* Run [f span] under the server's trace sink (if any and the request
   is sampled) inside a [serve.request] span carrying the request and
   client trace ids; otherwise under an inert span. *)
let in_request_span srv (req : Protocol.request) f =
  let attrs =
    [ ("id", Obs.Trace.Int req.id);
      ("op", Obs.Trace.Str (Protocol.op_label req.op)) ]
    @
    match req.trace with
    | Some t -> [ ("trace_id", Obs.Trace.Str t.Protocol.trace_id) ]
    | None -> []
  in
  match srv.trace_sink with
  | Some sink when sampled req ->
    Obs.Trace.with_sink sink (fun () ->
        Obs.Trace.with_span "serve.request" ~attrs f)
  | _ -> Obs.Trace.with_span "serve.request" ~attrs f

(* Serve a cached value: re-key it with the requester's id, note the
   provenance in telemetry under [explain], meter and flight-record.
   [via] is "hit" (found finished at admission) or "collapsed" (parked
   behind a leader and answered at its resolve). *)
let send_cached srv conn (req : Protocol.request) ~via value =
  let reply = with_id req.id value in
  let payload =
    if not req.explain then Json.print reply
    else
      Json.print
        (Protocol.with_telemetry reply (Json.Obj [ ("cache", Json.Str via) ]))
  in
  let op = Protocol.op_label req.op in
  let status = reply_status reply in
  Obs.Flight.record srv.flight ~trace_id:(trace_id_of req)
    ~sizes:[ ("reply_bytes", String.length payload) ]
    ~id:req.id ~op ~outcome:status ();
  Obs.Metrics.inc (M.replies [ op; status ]);
  conn_send_payload conn payload

(* ----- pending-item accounting -----

   Every admitted item holds: one connection ref, one [in_flight]
   slot (both taken at admission, released by [finish_item]) and one
   [admitted] slot (released by [start_item] when a worker picks the
   item up, or by the abort path). *)

let start_item srv p =
  Atomic.decr srv.admitted;
  Atomic.decr p.p_conn.queued

let finish_item srv p =
  Atomic.decr srv.in_flight;
  conn_release p.p_conn

(* Answer the followers parked behind [p]'s cache key (if it leads one)
   with [reply]'s body.  Used by the failure paths; the success path
   goes through [Cache.resolve] in [run_item] instead. *)
let abandon_followers srv p reply =
  match p.p_key, srv.cache with
  | Some key, Some cache ->
    let value = strip_for_cache reply in
    List.iter (fun f -> f value) (Cache.abandon cache ~key)
  | _ -> ()

(* An item discarded without running (pool abort at shutdown, or the
   pool closed before submit): answer the client and any followers with
   [dnf cancelled], settle the accounting. *)
let abort_item srv p =
  let req = p.p_req in
  let reply = Protocol.dnf_reply ~id:req.Protocol.id Bdd.Budget.Cancelled in
  Obs.Metrics.inc (M.replies [ Protocol.op_label req.Protocol.op; "dnf" ]);
  Obs.Flight.record srv.flight ~trace_id:(trace_id_of req)
    ~id:req.Protocol.id
    ~op:(Protocol.op_label req.Protocol.op)
    ~outcome:"dnf" ();
  conn_send p.p_conn reply;
  abandon_followers srv p reply;
  start_item srv p;
  finish_item srv p

(* The worker-side execution of one admitted item. *)
let run_item srv (p : pending) =
  let conn = p.p_conn and req = p.p_req in
  Fun.protect ~finally:(fun () -> finish_item srv p) @@ fun () ->
  in_request_span srv req @@ fun span ->
  let t_start = now_ns () in
  let queue_us =
    Int64.to_int (Int64.div (Int64.sub t_start p.p_arrival) 1000L)
  in
  let id = req.id in
  let op = Protocol.op_label req.op in
  let tx =
    { live_nodes = 0; engine = []; budget_used = [];
      canonical_key = None; cache_note = None; phases = [] }
  in
  let explain = req.explain in
  let reply =
    try
      match req.op with
      | Protocol.Minimize { source; heuristic } -> begin
          match
            handle_minimize srv conn tx ~explain req.budget ~source ~heuristic
          with
          | Ok result -> Protocol.ok_reply ~id result
          | Error msg -> Protocol.error_reply ~id msg
        end
      | Protocol.Reach machine -> begin
          match handle_reach conn tx ~explain ~id req.budget machine with
          | Ok reply -> reply
          | Error reply -> reply
        end
      | Protocol.Equiv (a, b) -> begin
          match handle_equiv conn tx ~explain req.budget a b with
          | Ok result -> Protocol.ok_reply ~id result
          | Error msg -> Protocol.error_reply ~id msg
        end
      | Protocol.Session_open { bdd } -> begin
          match handle_session_open srv conn ~bdd with
          | Ok result -> Protocol.ok_reply ~id result
          | Error msg -> Protocol.error_reply ~id msg
        end
      | Protocol.Session_close _ | Protocol.Ping | Protocol.Metrics
      | Protocol.Dump | Protocol.Shutdown ->
        assert false (* handled inline by the reader *)
    with
    | Bdd.Budget_exhausted reason -> Protocol.dnf_reply ~id reason
    | e -> Protocol.error_reply ~id (Printexc.to_string e)
  in
  let exec_us = us_since t_start in
  let status = reply_status reply in
  (* feed the retry_after estimator (racy read-modify-write is fine for
     an EMA used as a hint) *)
  let old_ema = Atomic.get srv.exec_ema_us in
  Atomic.set srv.exec_ema_us
    (if old_ema = 0 then exec_us else ((7 * old_ema) + exec_us) / 8);
  (* resolve the cache entry this item leads: store ok results, answer
     followers with whatever the outcome was either way *)
  (match p.p_key, srv.cache with
   | Some key, Some cache ->
     let value = strip_for_cache reply in
     let store = status = "ok" in
     if store then
       Obs.Metrics.inc (M.cache_events [ "store" ]);
     let aliases = Option.to_list tx.canonical_key in
     let followers = Cache.resolve cache ~key ~aliases ~store value in
     List.iter (fun f -> f value) followers
   | _ -> ());
  (* [write_us] is the cost of serializing the reply body: it has to be
     measured before it is shipped inside the bytes it describes, so
     the subsequent socket write can only appear in the flight record
     and the phase histogram, never in the reply itself.  Under
     [explain] the plain body is printed once to take the measurement
     and once more with the telemetry attached. *)
  let t_ser = now_ns () in
  let plain = Json.print reply in
  let write_us = us_since t_ser in
  let payload =
    if not explain then plain
    else
      Json.print
        (Protocol.with_telemetry reply
           (Json.Obj
              ([ ("queue_us", Json.int queue_us);
                 ("exec_us", Json.int exec_us);
                 ("write_us", Json.int write_us) ]
               @ (match tx.phases with
                  | [] -> []
                  | ran ->
                    List.map
                      (fun ph ->
                         ( ph ^ "_us",
                           Json.int
                             (Option.value ~default:0 (List.assoc_opt ph ran)) ))
                      M.exec_phases)
               @ (match tx.cache_note with
                  | None -> []
                  | Some note -> [ ("cache", Json.Str note) ])
               @ (match tx.budget_used with
                  | [] -> []
                  | b -> [ ("budget", Json.Obj b) ])
               @
               match tx.engine with
               | [] -> []
               | e -> [ ("engine", Json.Obj e) ])))
  in
  (* The flight record goes into the ring {e before} the reply leaves:
     a client holding a reply must find its request in a subsequent
     [dump], so the record cannot wait for the socket write (whose
     duration therefore only reaches the phase histogram below). *)
  Obs.Flight.record srv.flight ~trace_id:(trace_id_of req)
    ~sizes:
      [ ("req_bytes", p.p_bytes); ("reply_bytes", String.length payload) ]
    ~phases_us:[ ("queue", queue_us); ("exec", exec_us); ("write", write_us) ]
    ~id ~op ~outcome:status ();
  let t_send = now_ns () in
  conn_send_payload conn payload;
  let send_us = us_since t_send in
  let total_us = us_since t_start in
  Obs.Trace.add span "queue_us" (Obs.Trace.Int queue_us);
  Obs.Trace.add span "exec_us" (Obs.Trace.Int exec_us);
  Obs.Trace.add span "write_us" (Obs.Trace.Int write_us);
  Obs.Trace.add span "status" (Obs.Trace.Str status);
  Obs.Metrics.observe (M.latency [ op ]) total_us;
  Obs.Metrics.observe (M.phase [ "queue" ]) queue_us;
  Obs.Metrics.observe (M.phase [ "exec" ]) exec_us;
  List.iter (fun (ph, us) -> Obs.Metrics.observe (M.phase [ ph ]) us) tx.phases;
  Obs.Metrics.observe (M.phase [ "write" ]) (write_us + send_us);
  Obs.Metrics.inc (M.replies [ op; status ]);
  Obs.Metrics.set (M.manager_live [ op ]) tx.live_nodes;
  if status = "error" then begin
    Log.debug (fun k -> k "request %d (%s) from %s errored" id op conn.peer);
    ignore (dump_flight srv)
  end

(* ----- admission ----- *)

let retry_after_ms srv =
  let backlog = Atomic.get srv.admitted in
  let ema = max 1000 (Atomic.get srv.exec_ema_us) in
  let est_ms = backlog * ema / max 1 srv.workers / 1000 in
  min 5000 (max 10 est_ms)

(* Reserve one admission slot, or refuse.  A CAS loop rather than a
   check-then-increment: readers run on independent domains, and the
   queue-depth bound is a hard invariant ("the gauge never exceeds the
   cap"), not a soft target. *)
let try_admit srv =
  if srv.queue_cap = 0 then begin
    Atomic.incr srv.admitted;
    true
  end
  else
    let rec go () =
      let cur = Atomic.get srv.admitted in
      if cur >= srv.queue_cap then false
      else if Atomic.compare_and_set srv.admitted cur (cur + 1) then true
      else go ()
    in
    go ()

(* Enqueue an admitted item (caller already holds the admission slot,
   the conn ref and the in_flight slot) as one pool job with its EDF
   priority. *)
let submit_item srv conn ~arrival_ns ~req_bytes ~key (req : Protocol.request) =
  let p =
    { p_req = req; p_conn = conn; p_arrival = arrival_ns;
      p_bytes = req_bytes; p_key = key;
      p_prio = priority_of conn ~arrival_ns req.Protocol.budget }
  in
  Atomic.incr conn.queued;
  try
    Exec.Pool.submit srv.pool ~priority:p.p_prio
      ~on_abort:(fun () -> abort_item srv p)
      (fun () ->
         start_item srv p;
         run_item srv p)
  with Invalid_argument _ -> abort_item srv p

(* The reader-side dispatch for compute ops: result cache, then
   backpressure, then single-flight join, then the queue. *)
let dispatch_compute srv conn ~arrival_ns ~req_bytes (req : Protocol.request) =
  let raw_key =
    match srv.cache with
    | None -> None
    | Some _ -> cache_key_of req
  in
  let cached =
    match raw_key, srv.cache with
    | Some key, Some cache -> Cache.find cache key
    | _ -> None
  in
  match cached with
  | Some value ->
    (* finished result: served straight from the reader, no queue *)
    Obs.Metrics.inc (M.cache_events [ "hit" ]);
    send_cached srv conn req ~via:"hit" value
  | None ->
    if not (try_admit srv) then begin
      (* backpressure: refuse without enqueueing *)
      let retry = retry_after_ms srv in
      Obs.Metrics.inc (M.replies [ Protocol.op_label req.op; "busy" ]);
      Obs.Flight.record srv.flight ~trace_id:(trace_id_of req) ~id:req.id
        ~op:(Protocol.op_label req.op) ~outcome:"busy" ();
      conn_send conn (Protocol.busy_reply ~id:req.id ~retry_after_ms:retry)
    end
    else begin
      (* the item below holds one conn ref + one in_flight slot,
         whether it becomes a follower or a leader *)
      conn_retain conn;
      Atomic.incr srv.in_flight;
      let joined =
        match raw_key, srv.cache with
        | Some key, Some cache ->
          let follower value =
            send_cached srv conn req ~via:"collapsed" value;
            Atomic.decr srv.in_flight;
            conn_release conn
          in
          Some (key, Cache.find_or_join cache key ~follower)
        | _ -> None
      in
      match joined with
      | Some (_, Cache.Hit value) ->
        (* resolved between the probe above and the join: a hit.
           Give the admission slot back — nothing was enqueued. *)
        Obs.Metrics.inc (M.cache_events [ "hit" ]);
        send_cached srv conn req ~via:"hit" value;
        Atomic.decr srv.admitted;
        Atomic.decr srv.in_flight;
        conn_release conn
      | Some (_, Cache.Joined) ->
        (* parked behind the leader; the follower closure owns the
           ref + in_flight slot, and no queue slot is consumed *)
        Obs.Metrics.inc (M.cache_events [ "collapsed" ]);
        Atomic.decr srv.admitted
      | Some (key, Cache.Lead) ->
        Obs.Metrics.inc (M.cache_events [ "miss" ]);
        submit_item srv conn ~arrival_ns ~req_bytes ~key:(Some key) req
      | None -> submit_item srv conn ~arrival_ns ~req_bytes ~key:None req
    end

(* Inline ops complete on the reader domain; they are still metered and
   flight-recorded (with an empty phase list — there is no queue wait or
   compute to attribute). *)
let record_inline srv req ~outcome =
  Obs.Metrics.inc (M.replies [ Protocol.op_label req.Protocol.op; outcome ]);
  Obs.Flight.record srv.flight ~trace_id:(trace_id_of req)
    ~id:req.Protocol.id
    ~op:(Protocol.op_label req.Protocol.op)
    ~outcome ()

let reader_loop srv conn =
  let rec loop () =
    match Protocol.read_frame conn.fd with
    | Ok `Eof -> ()
    | Error msg ->
      (* torn frame, oversized prefix, or I/O failure mid-frame *)
      if not (Atomic.get srv.stop_flag) then begin
        Log.warn (fun k -> k "connection %s: %s" conn.peer msg);
        Obs.Metrics.inc (M.conn_errors [ "torn_frame" ])
      end
    | Ok (`Frame payload) ->
      let arrival_ns = now_ns () in
      (match Protocol.parse_request payload with
       | Error (id, msg) ->
         Obs.Metrics.inc M.malformed;
         Log.info (fun k -> k "connection %s: malformed request: %s" conn.peer msg);
         Obs.Flight.record srv.flight ~id ~op:"malformed" ~outcome:"error"
           ~sizes:[ ("req_bytes", String.length payload) ]
           ();
         conn_send conn (Protocol.error_reply ~id msg)
       | Ok req ->
         Obs.Metrics.inc (M.requests [ Protocol.op_label req.op ]);
         (match srv.trace_sink with
          | Some sink when sampled req ->
            Obs.Trace.with_sink sink (fun () ->
                Obs.Trace.instant "serve.recv"
                  ~attrs:
                    [ ("id", Obs.Trace.Int req.id);
                      ("op", Obs.Trace.Str (Protocol.op_label req.op));
                      ("trace_id", Obs.Trace.Str (trace_id_of req)) ])
          | _ -> ());
         (match req.op with
          | Protocol.Ping ->
            conn_send conn
              (Protocol.ok_reply ~id:req.id (Json.Obj [ ("pong", Json.Bool true) ]));
            record_inline srv req ~outcome:"ok"
          | Protocol.Metrics ->
            conn_send conn (Protocol.ok_reply ~id:req.id (metrics_json srv));
            record_inline srv req ~outcome:"ok"
          | Protocol.Dump ->
            let dump =
              match Json.parse (flight_json srv) with
              | Ok j -> j
              | Error _ -> Json.Null (* unreachable: we rendered it *)
            in
            conn_send conn (Protocol.ok_reply ~id:req.id dump);
            record_inline srv req ~outcome:"ok"
          | Protocol.Shutdown ->
            Log.info (fun k -> k "shutdown requested by %s" conn.peer);
            conn_send conn
              (Protocol.ok_reply ~id:req.id
                 (Json.Obj [ ("stopping", Json.Bool true) ]));
            record_inline srv req ~outcome:"ok";
            Atomic.set srv.stop_flag true
          | Protocol.Session_close { sid } ->
            (* a registry removal: cheap enough for the reader *)
            let closed = Session.close srv.sessions ~owner:conn.id sid in
            if closed then
              Obs.Metrics.inc (M.session_events [ "closed" ]);
            conn_send conn
              (Protocol.ok_reply ~id:req.id
                 (Json.Obj [ ("closed", Json.Bool closed) ]));
            record_inline srv req ~outcome:"ok"
          | Protocol.Minimize _ | Protocol.Reach _ | Protocol.Equiv _
          | Protocol.Session_open _ ->
            dispatch_compute srv conn ~arrival_ns
              ~req_bytes:(String.length payload) req));
      if not (Atomic.get srv.stop_flag) then loop ()
      else () (* stop reading; teardown will half-close the socket *)
  in
  (try loop ()
   with e ->
     (* a reader must never die silently: the connection is torn down
        below either way, but the cause goes to the log *)
     Log.err (fun k ->
         k "reader for %s died: %s" conn.peer (Printexc.to_string e));
     Obs.Metrics.inc (M.conn_errors [ "reader_exception" ]));
  (* reader is done: cancel whatever this connection still has in
     flight, drop its sessions, then drop the reader's reference *)
  Log.debug (fun k -> k "connection %s closed" conn.peer);
  Atomic.decr srv.conn_count;
  Exec.Cancel.cancel conn.cancel;
  let dropped = Session.drop_conn srv.sessions ~owner:conn.id in
  if dropped > 0 then
    Obs.Metrics.add (M.session_events [ "closed" ]) dropped;
  conn_release conn

(* ----- lifecycle ----- *)

let bind_listen = function
  | Tcp port ->
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
    Unix.listen fd 64;
    let bound =
      match Unix.getsockname fd with
      | Unix.ADDR_INET (_, p) -> p
      | _ -> port
    in
    (fd, Printf.sprintf "127.0.0.1:%d" bound, Some bound, None)
  | Unix_path path ->
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.bind fd (Unix.ADDR_UNIX path);
    Unix.listen fd 64;
    (fd, path, None, Some path)

let peer_string fd =
  match Unix.getpeername fd with
  | Unix.ADDR_INET (ip, port) ->
    Printf.sprintf "%s:%d" (Unix.string_of_inet_addr ip) port
  | Unix.ADDR_UNIX _ -> "unix"
  | exception Unix.Unix_error _ -> "?"

(* A reader announces its end on [srv.ended]; the accept loop, which
   alone owns the table of live readers, drops and joins them between
   accepts, so the table holds only connections still being read. *)
let rec announce_end srv id =
  let cur = Atomic.get srv.ended in
  if not (Atomic.compare_and_set srv.ended cur (id :: cur)) then
    announce_end srv id

let reap readers srv =
  List.iter
    (fun id ->
       match Hashtbl.find_opt readers id with
       | Some (_, reader) ->
         Hashtbl.remove readers id;
         Domain.join reader
       | None -> ())
    (Atomic.exchange srv.ended []);
  Atomic.set srv.tracked (Hashtbl.length readers)

let accept_loop srv =
  let readers = Hashtbl.create 64 in
  while not (Atomic.get srv.stop_flag) do
    reap readers srv;
    match Unix.select [ srv.listen_fd ] [] [] 0.2 with
    | [], _, _ -> ()
    | _ :: _, _, _ ->
      (match Unix.accept srv.listen_fd with
       | fd, _ ->
         let conn =
           { id = Atomic.fetch_and_add srv.conn_seq 1;
             fd; wlock = Mutex.create (); cancel = Exec.Cancel.create ();
             peer = peer_string fd; queued = Atomic.make 0; refs = 1 }
         in
         Atomic.incr srv.conn_count;
         (match
            Domain.spawn (fun () ->
                Fun.protect
                  ~finally:(fun () -> announce_end srv conn.id)
                  (fun () -> reader_loop srv conn))
          with
          | reader ->
            Log.debug (fun k -> k "connection %s accepted" conn.peer);
            Hashtbl.replace readers conn.id (conn, reader)
          | exception e ->
            (* The runtime caps the domains a process runs at once (128
               in OCaml 5.1), so a reader may fail to start: refuse the
               connection instead of letting the failure end this loop. *)
            Atomic.decr srv.conn_count;
            Log.warn (fun k ->
                k "connection %s refused: %s" conn.peer
                  (Printexc.to_string e));
            Obs.Metrics.inc (M.conn_errors [ "domain_limit" ]);
            conn_send conn
              (Protocol.error_reply ~id:0
                 "too many connections: no reader could be started");
            conn_release conn)
       | exception Unix.Unix_error (e, _, _) ->
         Log.warn (fun k -> k "accept failed: %s" (Unix.error_message e));
         Obs.Metrics.inc (M.conn_errors [ "accept" ]))
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  (try Unix.close srv.listen_fd with Unix.Unix_error _ -> ());
  (match srv.unix_path with
   | Some path -> (try Unix.unlink path with Unix.Unix_error _ -> ())
   | None -> ());
  (* abort the queue (their on_abort replies dnf), drain running jobs *)
  Exec.Pool.shutdown ~mode:`Abort srv.pool;
  (* unblock the readers still reading, then join them *)
  reap readers srv;
  Hashtbl.iter (fun _ (conn, _) -> conn_shutdown conn) readers;
  Hashtbl.iter (fun _ (_, reader) -> Domain.join reader) readers;
  Hashtbl.reset readers;
  Atomic.set srv.tracked 0;
  Log.info (fun k -> k "server on %s stopped" srv.address)

(* ----- metrics HTTP listener -----

   A deliberately tiny HTTP/1.0 responder: one request per connection,
   served serially on the metrics domain.  Scrapes are rare (seconds
   apart) and the exposition is small, so there is nothing to win from
   concurrency here — and a second listener socket keeps scrape traffic
   entirely off the wire-protocol port. *)

let http_request_path data =
  match String.index_opt data '\r' with
  | None -> None
  | Some i -> begin
      match String.split_on_char ' ' (String.sub data 0 i) with
      | [ "GET"; path; _version ] -> Some path
      | _ -> None
    end

let http_respond fd ~status ~content_type body =
  let payload =
    Printf.sprintf
      "HTTP/1.0 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: \
       close\r\n\r\n%s"
      status content_type (String.length body) body
  in
  Protocol.really_write fd (Bytes.of_string payload) 0 (String.length payload)

let metrics_loop srv fd unix_path =
  while not (Atomic.get srv.stop_flag) do
    match Unix.select [ fd ] [] [] 0.2 with
    | [], _, _ -> ()
    | _ :: _, _, _ ->
      (match Unix.accept fd with
       | cfd, _ ->
         (try
            Unix.setsockopt_float cfd Unix.SO_RCVTIMEO 2.0;
            let buf = Bytes.create 4096 in
            let n = try Unix.read cfd buf 0 4096 with Unix.Unix_error _ -> 0 in
            (match http_request_path (Bytes.sub_string buf 0 n) with
             | Some ("/metrics" | "/") ->
               http_respond cfd ~status:"200 OK"
                 ~content_type:"text/plain; version=0.0.4; charset=utf-8"
                 (metrics_exposition srv)
             | Some _ ->
               http_respond cfd ~status:"404 Not Found"
                 ~content_type:"text/plain" "not found\n"
             | None ->
               http_respond cfd ~status:"400 Bad Request"
                 ~content_type:"text/plain" "bad request\n")
          with Unix.Unix_error _ | Invalid_argument _ -> ());
         (try Unix.close cfd with Unix.Unix_error _ -> ())
       | exception Unix.Unix_error (e, _, _) ->
         Log.warn (fun k ->
             k "metrics accept failed: %s" (Unix.error_message e)))
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  (try Unix.close fd with Unix.Unix_error _ -> ());
  match unix_path with
  | Some path -> (try Unix.unlink path with Unix.Unix_error _ -> ())
  | None -> ()

let start ?(workers = Exec.recommended_jobs ()) ?trace ?metrics
    ?(flight_capacity = 256) ?flight_dump ?(queue_cap = 512)
    ?(max_sessions = 64) ?(cache_capacity = 1024) listen =
  if workers < 1 then invalid_arg "Serve.Server.start: workers must be >= 1";
  if queue_cap < 0 then invalid_arg "Serve.Server.start: queue_cap must be >= 0";
  (* a client vanishing mid-reply must not kill the daemon *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let listen_fd, address, port, unix_path = bind_listen listen in
  let metrics_fd, metrics_address, metrics_port, metrics_unix_path =
    match metrics with
    | None -> (None, None, None, None)
    | Some l ->
      let fd, addr, port, upath = bind_listen l in
      (Some fd, Some addr, port, upath)
  in
  let cache =
    if cache_capacity <= 0 then None
    else
      Some
        (Cache.create ~capacity:cache_capacity
           ~on_evict:(fun () ->
             Obs.Metrics.inc (M.cache_events [ "evicted" ]))
           ())
  in
  let sessions =
    Session.create ~max_sessions:(max 1 max_sessions)
      ~on_evict:(fun sid ->
        Log.debug (fun k -> k "session %s evicted (LRU)" sid);
        Obs.Metrics.inc (M.session_events [ "evicted" ]))
      ()
  in
  let srv =
    {
      listen_fd;
      address;
      port;
      unix_path;
      pool = Exec.Pool.create ~jobs:workers;
      workers;
      sessions;
      cache;
      queue_cap;
      stop_flag = Atomic.make false;
      in_flight = Atomic.make 0;
      admitted = Atomic.make 0;
      exec_ema_us = Atomic.make 0;
      conn_count = Atomic.make 0;
      conn_seq = Atomic.make 1;
      ended = Atomic.make [];
      tracked = Atomic.make 0;
      started_ns = now_ns ();
      flight = Obs.Flight.create ~capacity:(max 1 flight_capacity) ();
      flight_dump;
      trace_sink = trace;
      metrics_address;
      metrics_port;
      metrics_unix_path;
      lock = Mutex.create ();
      finished = Condition.create ();
      accept_domain = None;
      metrics_domain = None;
      is_finished = false;
    }
  in
  Log.info (fun k ->
      k "serving on %s (%d workers, queue cap %d, cache %d%s)"
        address workers queue_cap cache_capacity
        (match metrics_address with
         | Some a -> Printf.sprintf ", metrics on %s" a
         | None -> ""));
  srv.accept_domain <- Some (Domain.spawn (fun () -> accept_loop srv));
  (match metrics_fd with
   | Some fd ->
     srv.metrics_domain <-
       Some (Domain.spawn (fun () -> metrics_loop srv fd metrics_unix_path))
   | None -> ());
  srv

let address srv = srv.address
let port srv = srv.port
let metrics_address srv = srv.metrics_address
let metrics_port srv = srv.metrics_port
let in_flight srv = Atomic.get srv.in_flight
let connections srv = Atomic.get srv.conn_count
let tracked_readers srv = Atomic.get srv.tracked

(* Async-signal-safe stop request: just flips the flag the accept loop
   polls (within ~0.2 s).  Pair with {!wait} to actually tear down. *)
let request_stop srv = Atomic.set srv.stop_flag true
let stopping srv = Atomic.get srv.stop_flag

(* First caller joins the accept and metrics domains (the former joins
   readers and the pool); latecomers block until that join completes. *)
let wait srv =
  Mutex.lock srv.lock;
  (match srv.accept_domain with
   | Some d ->
     srv.accept_domain <- None;
     let md = srv.metrics_domain in
     srv.metrics_domain <- None;
     Mutex.unlock srv.lock;
     Domain.join d;
     Option.iter Domain.join md;
     Mutex.lock srv.lock;
     srv.is_finished <- true;
     Condition.broadcast srv.finished;
     Mutex.unlock srv.lock
   | None ->
     while not srv.is_finished do
       Condition.wait srv.finished srv.lock
     done;
     Mutex.unlock srv.lock)

let stop srv =
  Atomic.set srv.stop_flag true;
  wait srv
