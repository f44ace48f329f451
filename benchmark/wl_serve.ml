(* serve-cold and serve-hot: [bddmin serve --workers 2] as a child
   process, driven by this process over 2 connections in a closed loop —
   each connection sends its next request only after the reply to the
   last, as a synthesis tool waiting on its answers does.

   serve-cold: every request is a distinct dense 12-variable instance
   with heuristic [sched], so each one misses the result cache and runs
   the per-request fresh-manager path (load, minimize, save).  The first
   32 requests of each connection warm the daemon up untimed: its
   throughput climbed from 23 to 65 requests/s over the first 3 s.

   serve-hot: 64 small instances captured from seeded machines, picked
   with Zipf(1) weights.  Connection 0 sends Store text with [sched],
   which hits the result cache.  Connection 1 minimizes against a session
   per instance, cycling [sched], [osm_bt] and [tsm_td].  Before the
   measured window each connection warms up once over every instance:
   connection 0's first sight of each runs the minimizer (on the
   small-request batch drainer) and stores the result, connection 1 opens
   the sessions.  The warm-up replies are checked but not timed. *)

open Serve

type via = Store_text | Session | Session_open

type request = {
  payload : int;  (** index into the workload's payloads *)
  heuristic : string;
  via : via;
  send : Client.t -> explain:bool -> (Protocol.reply, string) result;
}

type workload = {
  name : string;
  payload : int -> string;  (** the Store text of a payload *)
  warmup : int;  (** leading requests of every script left untimed *)
  conns : (unit -> int -> request) list;
      (** per connection, a fresh script: the i-th request to send *)
}

let minimize ~payload ~heuristic source =
  let via = match source with Protocol.Session_ref _ -> Session | _ -> Store_text in
  { payload; heuristic; via;
    send = (fun c ~explain -> Client.minimize c ~heuristic ~explain source) }

let cold ~seed =
  let inputs = Gen.cold_inputs ~seed () in
  let conn k () i =
    let g = (2 * i) + k in
    minimize ~payload:g ~heuristic:"sched"
      (Protocol.Store_text (Gen.cold_request inputs g))
  in
  { name = "serve-cold"; payload = Gen.cold_request inputs; warmup = 32;
    conns = [ conn 0; conn 1 ] }

let hot_heuristics = [| "sched"; "osm_bt"; "tsm_td" |]

let hot ~seed =
  let inst = Gen.hot_instances ~seed () in
  let n = Array.length inst in
  let pick = Gen.zipf n in
  (* the first [n] requests visit every instance once, then Zipf *)
  let script purpose =
    let st = Gen.stream seed purpose in
    fun i -> if i < n then i else pick st
  in
  let store_text () =
    let next = script 6 in
    fun i ->
      let j = next i in
      minimize ~payload:j ~heuristic:"sched" (Protocol.Store_text inst.(j))
  in
  let sessions () =
    let next = script 7 in
    let sids = Hashtbl.create n in
    fun i ->
      let j = next i in
      match Hashtbl.find_opt sids j with
      | Some sid ->
        minimize ~payload:j
          ~heuristic:hot_heuristics.(i mod Array.length hot_heuristics)
          (Protocol.Session_ref sid)
      | None ->
        { payload = j; heuristic = ""; via = Session_open;
          send =
            (fun c ~explain ->
               let r =
                 Client.request c ~explain
                   [ ("op", Json.Str "session_open"); ("bdd", Json.Str inst.(j)) ]
               in
               (match r with
                | Ok r when r.status = "ok" ->
                  Option.iter (Hashtbl.replace sids j)
                    (Json.string_field "session" r.result)
                | _ -> ());
               r) }
  in
  { name = "serve-hot"; payload = Array.get inst; warmup = n;
    conns = [ store_text; sessions ] }

(* ----- the closed loop ----- *)

(* An ok minimize reply is kept once per distinct (payload, heuristic,
   cover) for the oracle; samples refer to it by that key, so a run of
   half a million requests does not hold half a million replies. *)
type key = int * string * string

type sample = {
  payload : int;
  heuristic : string;
  via : via;
  rtt : float;
  at : float;  (** completion, seconds into the window *)
  timed : bool;  (** false for warm-up requests *)
  traced : bool;
  outcome : (key option, string) result;
      (** [Ok (Some k)]: an ok minimize reply kept under [k]; [Ok None]:
          an ok session opening; [Error]: what went wrong *)
}

(* Under tracing, the window alternates 1 s untraced and 1 s traced
   (requests asking for [explain]) so both see the same daemon state. *)
let chunk_s = 1.0

(* The server-side phases of a traced reply, as child spans of its round
   trip: the reply gives their durations, so they are laid end to end in
   the middle of the round trip; what remains is transport. *)
let phase_spans sp ~root t0 t1 (r : Protocol.reply) =
  let us k = Option.value ~default:0 (Json.int_field k r.telemetry) in
  let phases = [ ("queue", us "queue_us"); ("exec", us "exec_us"); ("write", us "write_us") ] in
  let total = Int64.of_int (1000 * List.fold_left (fun a (_, u) -> a + u) 0 phases) in
  let gap = Int64.max 0L (Int64.sub (Int64.sub t1 t0) total) in
  let at = ref (Int64.add t0 (Int64.div gap 2L)) in
  List.iter
    (fun (name, u) ->
       let stop = Int64.min t1 (Int64.add !at (Int64.of_int (1000 * u))) in
       ignore (Span.add sp ~layer:"serve" ~parent:root name !at stop);
       at := stop)
    phases

(* One connection's closed loop: the warm-up requests, then — once every
   connection is warm ([ready] counts them) — requests until [seconds]
   have passed.  Returns the samples, the kept replies, the spans and the
   window's length. *)
let connection ~addr ~seconds ~trace ~warmup ~ready ~conns lane script =
  let c = Client.connect addr in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let sp = Span.create ~lane () in
  let kept = Hashtbl.create 256 in
  let outcome (req : request) = function
    | Error e -> Error ("transport: " ^ e)
    | Ok (r : Protocol.reply) when r.status <> "ok" ->
      Error
        (Printf.sprintf "%s: status %s%s" req.heuristic r.status
           (match r.message with Some m -> ": " ^ m | None -> ""))
    | Ok _ when req.via = Session_open -> Ok None
    | Ok r -> (
        let cover = Option.value ~default:"" (Json.string_field "cover" r.result) in
        let k = (req.payload, req.heuristic, cover) in
        match Hashtbl.find_opt kept k with
        | Some (k, _) -> Ok (Some k)
        | None ->
          Hashtbl.add kept k (k, r);
          Ok (Some k))
  in
  let start = ref (Span.now ()) in
  let send i ~timed ~traced =
    let req = script i in
    sp.op <- i;
    let t0 = Span.now () in
    let reply = req.send c ~explain:traced in
    let t1 = Span.now () in
    if traced then begin
      let root = Span.add sp ~layer:"serve" "transport" t0 t1 in
      Result.iter (phase_spans sp ~root t0 t1) reply
    end;
    { payload = req.payload; heuristic = req.heuristic; via = req.via;
      rtt = Span.seconds_between t0 t1; at = Span.seconds_between !start t1;
      timed; traced; outcome = outcome req reply }
  in
  let warm = List.init warmup (fun i -> send i ~timed:false ~traced:false) in
  Atomic.incr ready;
  while Atomic.get ready < conns do
    Unix.sleepf 0.001
  done;
  start := Span.now ();
  let rec loop i acc =
    let elapsed = Span.seconds_between !start (Span.now ()) in
    if elapsed >= seconds then
      (List.rev acc, List.of_seq (Hashtbl.to_seq_values kept), sp.spans, elapsed)
    else
      let traced = trace && int_of_float (elapsed /. chunk_s) mod 2 = 1 in
      loop (i + 1) (send i ~timed:true ~traced :: acc)
  in
  loop warmup (List.rev warm)

(* ----- the oracle: an offline replay ----- *)

(* What the daemon does for one minimize, done here on a fresh manager
   with a span around each public call — parse the request frame, load
   the payload, minimize, save the cover, render the reply — and then the
   reply checked against it: its size must be the offline size and its
   cover a cover of the payload in the same manager.  Returns the
   failure, the offline size, the replay's engine statistics and time. *)
let check sp ~text ~heuristic reply =
  let record ~layer name f = Span.record sp ~layer name f in
  let replay () =
    let frame =
      Protocol.render_request ~id:1
        [ ("op", Json.Str "minimize"); ("bdd", Json.Str text);
          ("heuristic", Json.Str heuristic) ]
    in
    ignore (record ~layer:"serve" "parse" (fun () -> Protocol.parse_request frame));
    let man, spec =
      record ~layer:"bdd" "store_load" (fun () ->
          let man = Bdd.create () in
          (man, Result.get_ok (Oracle.load_spec man text)))
    in
    let entry = Option.get (Minimize.Registry.find heuristic) in
    let g =
      record ~layer:"minimize" heuristic (fun () ->
          Minimize.Registry.run entry (Minimize.Ctx.of_man man) spec)
    in
    let cover = record ~layer:"bdd" "store_save" (fun () -> Bdd.Store.save man [ ("g", g) ]) in
    let size =
      record ~layer:"serve" "render" (fun () ->
          let size = Bdd.Metric.plain_equivalent man g in
          ignore
            (Json.print
               (Protocol.ok_reply ~id:1
                  (Json.Obj
                     [ ("heuristic", Json.Str heuristic); ("size", Json.int size);
                       ("input_size", Json.int (Bdd.Metric.plain_equivalent man spec.f));
                       ("cover", Json.Str cover) ])));
          size)
    in
    (man, spec, size, Bdd.snapshot man)
  in
  let (man, spec, size, stats), dt = Measure.timed replay in
  (Oracle.serve_reply man spec ~expected_size:size reply, size, stats, dt)

(* Check every kept reply, on 2 domains. *)
let check_all ~trace ~lane (w : workload) replies =
  let numbered = List.mapi (fun i x -> (i, x)) replies in
  let run d () =
    let sp = Span.create ~lane:(lane + d) () in
    sp.on <- trace;
    let results =
      List.filter_map
        (fun (i, (((payload, heuristic, _) as k), reply)) ->
           if i mod 2 <> d then None
           else begin
             sp.op <- i;
             Some (k, check sp ~text:(w.payload payload) ~heuristic reply)
           end)
        numbered
    in
    (results, sp.spans)
  in
  let other = Domain.spawn (run 1) in
  let r0, s0 = run 0 () in
  let r1, s1 = Domain.join other in
  (r0 @ r1, s0 @ s1)

let counters addr =
  let c = Client.connect addr in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  match Client.metrics c with
  | Ok r when r.status = "ok" ->
    let sub o k =
      float_of_int
        (Option.value ~default:0
           (Option.bind (Json.mem o r.result) (Json.int_field k)))
    in
    Ok sub
  | Ok r -> Error ("metrics: " ^ r.status)
  | Error e -> Error e

let run ~bddmin ~workload ~seed ~seconds ~trace =
  let (w, daemon), setup_s =
    Measure.setup
      ~release:(fun (_, d) -> Proc.stop d)
      (fun () ->
         let w = match workload with `Cold -> cold ~seed | `Hot -> hot ~seed in
         (w, Proc.spawn ~bddmin ~workers:2 w.name))
  in
  let addr = Proc.addr daemon in
  let ready = Atomic.make 0 and conns = List.length w.conns in
  let results =
    List.mapi
      (fun lane script ->
         Domain.spawn (fun () ->
             connection ~addr ~seconds ~trace ~warmup:w.warmup ~ready ~conns lane
               (script ())))
      w.conns
    |> List.map Domain.join
  in
  let peak_rss_mb = Proc.peak_rss_mb ~pid:(string_of_int daemon.pid) () in
  let server = counters addr in
  Proc.stop daemon;
  let samples = List.concat_map (fun (s, _, _, _) -> s) results in
  let timed = List.filter (fun s -> s.timed) samples in
  let window_s = List.fold_left (fun a (_, _, _, w) -> Float.max a w) 0.0 results in
  (* oracle: every kept reply replayed offline and checked *)
  let kept = Hashtbl.create 1024 in
  List.iter
    (fun (_, replies, _, _) ->
       List.iter (fun (k, r) -> if not (Hashtbl.mem kept k) then Hashtbl.add kept k r) replies)
    results;
  let checked, replay_spans =
    check_all ~trace ~lane:conns w (List.sort compare (List.of_seq (Hashtbl.to_seq kept)))
  in
  let verdicts = Hashtbl.of_seq (List.to_seq checked) in
  let failures =
    List.filter_map
      (fun s ->
         match s.outcome with
         | Error e -> Some e
         | Ok None -> None
         | Ok (Some k) ->
           let failure, _, _, _ = Hashtbl.find verdicts k in
           failure)
      samples
  in
  let failures =
    failures @ (match server with Ok _ -> [] | Error e -> [ e ])
  in
  let notes =
    Printf.sprintf "%s: %d requests over %d connections in %.2f s, after %d warm-up requests"
      w.name (List.length timed) conns window_s
      (List.length samples - List.length timed)
    :: List.filteri (fun i _ -> i < 20) failures
  in
  let metrics, more =
    if not trace then
      let ops_per_s, groups =
        Measure.fastest_half ~window_s (List.map (fun s -> (s.at, s.rtt)) timed)
      in
      let m, note = Measure.end_to_end ~setup_s ~ops_per_s ~groups ~peak_rss_mb in
      (m, [ note ])
    else begin
      let spans = List.concat_map (fun (_, _, s, _) -> s) results @ replay_spans in
      let replays = List.map snd checked in
      let mean l = Stat.sum l /. float_of_int (max 1 (List.length l)) in
      let rtts traced =
        List.filter_map (fun s -> if s.traced = traced then Some s.rtt else None) timed
      in
      let traced_s = Stat.sum (rtts true) in
      let sessionless =
        List.length (List.filter (fun s -> s.via = Store_text) samples)
      in
      let sub = match server with Ok f -> f | Error _ -> fun _ _ -> 0.0 in
      Proc.ensure_out_dir ();
      Span.write_chrome
        (Printf.sprintf "%s/trace-%s-%d.json" Proc.out_dir w.name seed)
        spans;
      Measure.per_layer ~spans
        ~wall_s:(traced_s +. Stat.sum (List.map (fun (_, _, _, dt) -> dt) replays))
        ~overhead_pct:(100.0 *. (mean (rtts true) -. mean (rtts false)) /. mean (rtts false))
        (Measure.engine_counts (List.map (fun (_, _, st, _) -> (1, st)) replays)
         @ [ ("minimize.calls", float_of_int (List.length replays));
             ( "minimize.cover_nodes",
               float_of_int (List.fold_left (fun a (_, n, _, _) -> a + n) 0 replays) );
             ( "serve.cache_hit_ratio",
               (sub "cache" "hits" +. sub "cache" "canonical_hits"
                +. sub "cache" "collapsed")
               /. float_of_int (max 1 sessionless) );
             ("serve.cache_misses", sub "cache" "misses");
             ("serve.batches", sub "batch" "batches");
             ("serve.batched_requests", sub "batch" "requests");
             ("serve.sessions_opened", sub "sessions" "opened") ])
    end
  in
  { Report.attempted = List.length samples; failed = List.length failures;
    metrics; notes = notes @ more }
