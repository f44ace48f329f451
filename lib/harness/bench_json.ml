(* Machine-readable benchmark record (BENCH_engine.json). *)

module J = Serve.Json

let num f = J.Num f

let telemetry_json (t : Serve.Loadgen.telemetry) =
  J.Obj
    [ ("explained", J.int t.explained);
      ("queue_us_mean", num t.queue_us_mean);
      ("exec_us_mean", num t.exec_us_mean);
      ("write_us_mean", num t.write_us_mean) ]

let server_json (c : Serve.Loadgen.server_counters) =
  J.Obj
    [ ("cache_hits", J.int c.cache_hits);
      ("cache_canonical_hits", J.int c.cache_canonical_hits);
      ("cache_misses", J.int c.cache_misses);
      ("cache_collapsed", J.int c.cache_collapsed);
      ("cache_evicted", J.int c.cache_evicted);
      ("sessions_opened", J.int c.sessions_opened);
      ("sessions_evicted", J.int c.sessions_evicted);
      ("busy_replies", J.int c.busy_replies) ]

let serve_json (s : Serve.Loadgen.stats) =
  J.Obj
    [ ("clients", J.int s.clients);
      ("requests", J.int s.requests);
      ("workers", J.int s.workers);
      ("seconds", num s.seconds);
      ("requests_per_sec", num s.rps);
      ("p50_ms", num s.p50_ms);
      ("p95_ms", num s.p95_ms);
      ("p99_ms", num s.p99_ms);
      ("mean_ms", num s.mean_ms);
      ("ok_replies", J.int s.ok);
      ("dnf_replies", J.int s.dnf);
      ("partial_replies", J.int s.partial);
      ("busy_replies", J.int s.busy);
      ("error_replies", J.int s.errors);
      ("telemetry", J.of_option telemetry_json s.telemetry);
      ("server", J.of_option server_json s.server) ]

let minimizer_json calls name =
  let pick sel = List.assoc_opt name (sel : (string * _) list) in
  let total_size =
    List.fold_left
      (fun acc (c : Capture.call) -> acc + Option.value (pick c.sizes) ~default:0)
      0 calls
  and total_seconds =
    List.fold_left
      (fun acc (c : Capture.call) ->
         acc +. Option.value (pick c.times) ~default:0.0)
      0.0 calls
  and dnf_calls =
    List.length
      (List.filter (fun (c : Capture.call) -> List.mem_assoc name c.dnf) calls)
  and hit_rates =
    List.filter_map (fun (c : Capture.call) -> pick c.hit_rates) calls
  in
  let mean_hit_rate =
    match hit_rates with
    | [] -> 0.0
    | hs -> List.fold_left ( +. ) 0.0 hs /. float_of_int (List.length hs)
  in
  J.Obj
    [ ("name", J.Str name);
      ("total_size", J.int total_size);
      ("total_seconds", num total_seconds);
      ("mean_hit_rate", num mean_hit_rate);
      ("dnf_calls", J.int dnf_calls) ]

let engine_json engine =
  let get k = Option.value (List.assoc_opt k engine) ~default:0 in
  let lookups = get "cache_lookups" in
  let hit_rate =
    if lookups = 0 then 0.0
    else float_of_int (get "cache_hits") /. float_of_int lookups
  in
  J.Obj
    (List.map (fun (k, v) -> (k, J.int v)) engine
     @ [ ("cache_hit_rate", num hit_rate) ])

let render ?serve ~jobs ~quick ~max_calls ~image ~limits ~benches
    ~capture_seconds ~phases ~names ~engine ~dnf (calls : Capture.call list) =
  let l = (limits : Capture.limits_config) in
  J.print
    (J.Obj
       [ ("schema", J.Str "bddmin-bench-engine/13");
         ("jobs", J.int jobs);
         ("quick", J.Bool quick);
         ("max_calls", J.int max_calls);
         ("image", J.Str image);
         ( "limits",
           J.Obj
             [ ("node_budget", J.of_option J.int l.node_budget);
               ("step_budget", J.of_option J.int l.step_budget);
               ("time_budget", J.of_option num l.time_budget);
               ("fail_fast", J.Bool l.fail_fast) ] );
         ( "suite",
           J.Obj
             [ ("benches", J.int benches);
               ("calls", J.int (List.length calls));
               ("capture_seconds", num capture_seconds) ] );
         ( "dnf",
           J.Arr
             (List.map
                (fun (bench, reason) ->
                   J.Obj [ ("bench", J.Str bench); ("reason", J.Str reason) ])
                dnf) );
         ( "phases",
           J.Arr
             (List.map
                (fun (name, dt) ->
                   J.Obj [ ("name", J.Str name); ("seconds", num dt) ])
                phases) );
         ("minimizers", J.Arr (List.map (minimizer_json calls) names));
         ("serve", J.of_option serve_json serve);
         ("engine", engine_json engine) ])
  ^ "\n"

let write ?serve ~path ~jobs ~quick ~max_calls ~image ~limits ~benches
    ~capture_seconds ~phases ~names ~engine ~dnf calls =
  let doc =
    render ?serve ~jobs ~quick ~max_calls ~image ~limits
      ~benches ~capture_seconds ~phases ~names ~engine ~dnf calls
  in
  let oc = open_out path in
  output_string oc doc;
  close_out oc
