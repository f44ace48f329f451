(* Load generator for the serve daemon: [clients] synchronous client
   domains firing deterministic minimize requests, exact percentile
   latencies computed client-side from every observed round-trip.

   Default mode starts an in-process server on a throwaway unix socket
   (so `bddmin bench` and the tests need no process management); pass
   [~connect] to aim at an external daemon instead.

   Determinism: payloads come from a tiny LCG seeded by [seed] — same
   seed, same instance mix — and each client walks the payload ring from
   its own offset, so the work is identical across runs while the
   interleaving exercises the scheduler.  Two knobs aim traffic at the
   server's fast paths deterministically: [~duplicate_rate] replays one
   designated payload for that fraction of requests (exercising the
   result cache and single-flight collapse), and [~sessions] has each
   client open a warm-manager session once and run every minimize
   against it (exercising the re-intern-free path).

   After the clients finish, one extra connection scrapes the server's
   [metrics] op so the run's server-side counters — cache hits, session
   activity, busy replies — land in {!stats.server} next to
   the client-side latencies they explain. *)

type telemetry = {
  explained : int;  (** replies that carried a telemetry object *)
  queue_us_mean : float;
  exec_us_mean : float;
  write_us_mean : float;
}

(* Server-side counters scraped once at the end of the run.  Totals
   since server start — when aiming at a shared external daemon they
   include whatever else it served. *)
type server_counters = {
  cache_hits : int;
  cache_canonical_hits : int;
  cache_misses : int;
  cache_collapsed : int;
  cache_evicted : int;
  sessions_opened : int;
  sessions_evicted : int;
  busy_replies : int;
}

type stats = {
  clients : int;
  requests : int;
  workers : int;  (** 0 when driving an external server *)
  seconds : float;
  rps : float;
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
  mean_ms : float;
  ok : int;
  dnf : int;
  partial : int;
  busy : int;  (** backpressure refusals — not errors *)
  errors : int;
  telemetry : telemetry option;
      (** server-side phase means, when run with [~explain:true] *)
  server : server_counters option;
      (** end-of-run scrape of the server's cache/session/busy
          counters; [None] if the scrape connection failed *)
}

(* A deterministic EBM instance over [nvars] variables, shipped as Store
   text with roots [f] and [c].  ~3n random binary ops give the sibling
   heuristics a real DAG to chew on; the care function mixes a random
   function with a complemented one so the don't-care set is dense
   enough to matter. *)
let build_payload ~nvars ~seed =
  let man = Bdd.create () in
  let state = ref ((seed + 0x9E3779B9) land 0x3FFFFFFF) in
  let rand n =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state mod n
  in
  (* dense random truth tables: a truly random function has
     near-maximal BDD size, so the minimizers get real work (random
     combinations of literals collapse by absorption and do not) *)
  let tt density =
    Logic.Truth_table.create nvars (fun _ -> rand 100 < density)
  in
  let f = Logic.Truth_table.to_bdd man (tt 50) in
  let c = Logic.Truth_table.to_bdd man (tt 75) in
  Bdd.Store.save man [ ("f", f); ("c", c) ]

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else begin
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) rank))
  end

(* Pull the flat convenience counters out of a [metrics] op reply. *)
let scrape_server_counters addr =
  match Client.connect addr with
  | exception _ -> None
  | c ->
    Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
    (match Client.metrics c with
     | Error _ -> None
     | Ok r when r.Protocol.status <> "ok" -> None
     | Ok r ->
       let result = r.Protocol.result in
       let sub name field =
         match Json.mem name result with
         | Some obj -> Option.value ~default:0 (Json.int_field field obj)
         | None -> 0
       in
       Some
         {
           cache_hits = sub "cache" "hits";
           cache_canonical_hits = sub "cache" "canonical_hits";
           cache_misses = sub "cache" "misses";
           cache_collapsed = sub "cache" "collapsed";
           cache_evicted = sub "cache" "evicted";
           sessions_opened = sub "sessions" "opened";
           sessions_evicted = sub "sessions" "evicted";
           busy_replies =
             Option.value ~default:0 (Json.int_field "busy_replies" result);
         })

let run ?(clients = 4) ?(requests = 100) ?connect ?workers
    ?(heuristic = "sched") ?(nvars = 12) ?(seed = 1) ?max_steps ?timeout_ms
    ?(explain = false) ?(sessions = false) ?(duplicate_rate = 0.0) () =
  if clients < 1 then invalid_arg "Serve.Loadgen.run: clients must be >= 1";
  if requests < 0 then invalid_arg "Serve.Loadgen.run: negative requests";
  if duplicate_rate < 0.0 || duplicate_rate > 1.0 then
    invalid_arg "Serve.Loadgen.run: duplicate_rate must be in [0, 1]";
  let payloads = Array.init 8 (fun i -> build_payload ~nvars ~seed:(seed + i)) in
  let server, addr, workers =
    match connect with
    | Some addr -> (None, addr, Option.value ~default:0 workers)
    | None ->
      let workers =
        match workers with
        | Some w -> w
        | None -> max 2 (Exec.recommended_jobs () / 2)
      in
      let path = Filename.temp_file "bddmin-serve" ".sock" in
      Sys.remove path;
      let srv = Server.start ~workers (Server.Unix_path path) in
      (Some srv, Client.Unix_path path, workers)
  in
  let per_client k =
    (requests / clients) + (if k < requests mod clients then 1 else 0)
  in
  (* the duplicate roll threshold on the LCG's 30-bit range *)
  let dup_threshold =
    int_of_float (duplicate_rate *. float_of_int 0x40000000)
  in
  let client_run k () =
    let n = per_client k in
    let lat = Array.make (max n 1) 0.0 in
    let ok = ref 0 and dnf = ref 0 and partial = ref 0 in
    let busy = ref 0 and errors = ref 0 in
    (* sums of server-reported phase timings, over explained replies *)
    let explained = ref 0 in
    let queue_us = ref 0 and exec_us = ref 0 and write_us = ref 0 in
    (* per-client deterministic roll stream for duplicate decisions *)
    let roll_state = ref (((seed * 31) + k + 0x5DEECE6) land 0x3FFFFFFF) in
    let duplicate_roll () =
      roll_state := ((!roll_state * 1103515245) + 12345) land 0x3FFFFFFF;
      !roll_state < dup_threshold
    in
    let c = Client.connect addr in
    Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
    let session =
      if not sessions then None
      else
        match Client.session_open c payloads.(k mod Array.length payloads) with
        | Ok (`Session sid) -> Some sid
        | Error _ ->
          (* fall back to sessionless so the run still completes *)
          incr errors;
          None
    in
    for j = 0 to n - 1 do
      let source =
        match session with
        | Some sid -> Protocol.Session_ref sid
        | None ->
          let payload =
            if duplicate_roll () then payloads.(0)
            else payloads.((k + j) mod Array.length payloads)
          in
          Protocol.Store_text payload
      in
      let t0 = Obs.Clock.now_ns () in
      let r =
        Client.minimize c ~heuristic ?max_steps ?timeout_ms ~explain source
      in
      lat.(j) <-
        Int64.to_float (Int64.sub (Obs.Clock.now_ns ()) t0) /. 1e6;
      (match r with
       | Ok reply -> begin
           (match reply.Protocol.status with
            | "ok" -> incr ok
            | "dnf" -> incr dnf
            | "partial" -> incr partial
            | "busy" -> incr busy
            | _ -> incr errors);
           let tel = reply.Protocol.telemetry in
           match
             ( Json.int_field "queue_us" tel,
               Json.int_field "exec_us" tel,
               Json.int_field "write_us" tel )
           with
           | Some q, Some e, Some w ->
             incr explained;
             queue_us := !queue_us + q;
             exec_us := !exec_us + e;
             write_us := !write_us + w
           | _ -> ()
         end
       | Error _ -> incr errors)
    done;
    ( Array.sub lat 0 n,
      (!ok, !dnf, !partial, !busy, !errors),
      (!explained, !queue_us, !exec_us, !write_us) )
  in
  let t0 = Obs.Clock.now_ns () in
  let domains = List.init clients (fun k -> Domain.spawn (client_run k)) in
  let results = List.map Domain.join domains in
  let seconds =
    Int64.to_float (Int64.sub (Obs.Clock.now_ns ()) t0) /. 1e9
  in
  (* scrape server counters before tearing the in-process server down *)
  let server_counters = scrape_server_counters addr in
  (match server with Some srv -> Server.stop srv | None -> ());
  let latencies = Array.concat (List.map (fun (l, _, _) -> l) results) in
  Array.sort compare latencies;
  let sum5 f = List.fold_left (fun acc (_, r, _) -> acc + f r) 0 results in
  let sumt f = List.fold_left (fun acc (_, _, t) -> acc + f t) 0 results in
  let explained = sumt (fun (n, _, _, _) -> n) in
  let total = Array.fold_left ( +. ) 0.0 latencies in
  {
    clients;
    requests;
    workers;
    seconds;
    rps = (if seconds > 0.0 then float_of_int requests /. seconds else 0.0);
    p50_ms = percentile latencies 50.0;
    p95_ms = percentile latencies 95.0;
    p99_ms = percentile latencies 99.0;
    mean_ms =
      (if Array.length latencies > 0 then
         total /. float_of_int (Array.length latencies)
       else 0.0);
    ok = sum5 (fun (ok, _, _, _, _) -> ok);
    dnf = sum5 (fun (_, dnf, _, _, _) -> dnf);
    partial = sum5 (fun (_, _, p, _, _) -> p);
    busy = sum5 (fun (_, _, _, b, _) -> b);
    errors = sum5 (fun (_, _, _, _, e) -> e);
    telemetry =
      (if explained = 0 then None
       else
         let mean sel =
           float_of_int (sumt sel) /. float_of_int explained
         in
         Some
           {
             explained;
             queue_us_mean = mean (fun (_, q, _, _) -> q);
             exec_us_mean = mean (fun (_, _, e, _) -> e);
             write_us_mean = mean (fun (_, _, _, w) -> w);
           });
    server = server_counters;
  }

let pp ppf s =
  Format.fprintf ppf
    "@[<v>clients %d  requests %d  workers %d@,\
     %.2f s  %.1f req/s@,\
     latency ms: p50 %.2f  p95 %.2f  p99 %.2f  mean %.2f@,\
     replies: %d ok, %d dnf, %d partial, %d busy, %d error%a%a@]"
    s.clients s.requests s.workers s.seconds s.rps s.p50_ms s.p95_ms s.p99_ms
    s.mean_ms s.ok s.dnf s.partial s.busy s.errors
    (fun ppf -> function
       | None -> ()
       | Some t ->
         Format.fprintf ppf
           "@,server phases us (over %d explained): queue %.0f  exec %.0f  \
            write %.0f"
           t.explained t.queue_us_mean t.exec_us_mean t.write_us_mean)
    s.telemetry
    (fun ppf -> function
       | None -> ()
       | Some c ->
         Format.fprintf ppf
           "@,server counters: cache %d hit / %d canonical / %d miss / %d \
            collapsed / %d evicted; sessions %d opened / %d evicted; busy %d"
           c.cache_hits c.cache_canonical_hits c.cache_misses
           c.cache_collapsed c.cache_evicted c.sessions_opened
           c.sessions_evicted c.busy_replies)
    s.server
