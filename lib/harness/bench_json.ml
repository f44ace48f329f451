(* Machine-readable benchmark record (BENCH_engine.json). *)

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
       match c with
       | '"' -> Buffer.add_string b "\\\""
       | '\\' -> Buffer.add_string b "\\\\"
       | '\n' -> Buffer.add_string b "\\n"
       | c when Char.code c < 0x20 ->
         Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
       | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let num f = if Float.is_finite f then Printf.sprintf "%.6f" f else "null"

let opt_int = function None -> "null" | Some i -> string_of_int i
let opt_num = function None -> "null" | Some f -> num f

let telemetry_row = function
  | None -> "null"
  | Some (t : Serve.Loadgen.telemetry) ->
    Printf.sprintf
      "{\"explained\":%d,\"queue_us_mean\":%s,\"exec_us_mean\":%s,\
       \"write_us_mean\":%s}"
      t.explained (num t.queue_us_mean) (num t.exec_us_mean)
      (num t.write_us_mean)

let server_row = function
  | None -> "null"
  | Some (c : Serve.Loadgen.server_counters) ->
    Printf.sprintf
      "{\"cache_hits\":%d,\"cache_canonical_hits\":%d,\"cache_misses\":%d,\
       \"cache_collapsed\":%d,\"cache_evicted\":%d,\"sessions_opened\":%d,\
       \"sessions_evicted\":%d,\"busy_replies\":%d}"
      c.cache_hits c.cache_canonical_hits c.cache_misses c.cache_collapsed
      c.cache_evicted c.sessions_opened c.sessions_evicted c.busy_replies

let serve_row = function
  | None -> "null"
  | Some (s : Serve.Loadgen.stats) ->
    Printf.sprintf
      "{\"clients\":%d,\"requests\":%d,\"workers\":%d,\"seconds\":%s,\
       \"requests_per_sec\":%s,\"p50_ms\":%s,\"p95_ms\":%s,\"p99_ms\":%s,\
       \"mean_ms\":%s,\"ok_replies\":%d,\"dnf_replies\":%d,\
       \"partial_replies\":%d,\"busy_replies\":%d,\"error_replies\":%d,\
       \"telemetry\":%s,\"server\":%s}"
      s.clients s.requests s.workers (num s.seconds) (num s.rps)
      (num s.p50_ms) (num s.p95_ms) (num s.p99_ms) (num s.mean_ms) s.ok s.dnf
      s.partial s.busy s.errors (telemetry_row s.telemetry)
      (server_row s.server)

let render ?serve ~jobs ~quick ~max_calls ~image ~limits ~benches ~capture_seconds ~phases ~names
    ~(engine : Bdd.Stats.t) ~dnf (calls : Capture.call list) =
  let minimizer_rows =
    List.map
      (fun name ->
         let pick sel = List.assoc_opt name (sel : (string * _) list) in
         let total_size =
           List.fold_left
             (fun acc (c : Capture.call) ->
                acc + Option.value (pick c.sizes) ~default:0)
             0 calls
         and total_seconds =
           List.fold_left
             (fun acc (c : Capture.call) ->
                acc +. Option.value (pick c.times) ~default:0.0)
             0.0 calls
         and dnf_calls =
           List.length
             (List.filter
                (fun (c : Capture.call) -> List.mem_assoc name c.dnf)
                calls)
         and hit_rates =
           List.filter_map (fun (c : Capture.call) -> pick c.hit_rates) calls
         in
         let mean_hit_rate =
           match hit_rates with
           | [] -> 0.0
           | hs -> List.fold_left ( +. ) 0.0 hs /. float_of_int (List.length hs)
         in
         Printf.sprintf
           "{\"name\":\"%s\",\"total_size\":%d,\"total_seconds\":%s,\
            \"mean_hit_rate\":%s,\"dnf_calls\":%d}"
           (escape name) total_size (num total_seconds)
           (num mean_hit_rate) dnf_calls)
      names
  in
  let phase_rows =
    List.map
      (fun (name, dt) ->
         Printf.sprintf "{\"name\":\"%s\",\"seconds\":%s}" (escape name)
           (num dt))
      phases
  in
  let dnf_rows =
    List.map
      (fun (bench, reason) ->
         Printf.sprintf "{\"bench\":\"%s\",\"reason\":\"%s\"}" (escape bench)
           (escape reason))
      dnf
  in
  let limits_row =
    let l = (limits : Capture.limits_config) in
    Printf.sprintf
      "{\"node_budget\": %s, \"step_budget\": %s, \"time_budget\": %s, \
       \"fail_fast\": %b}"
      (opt_int l.Capture.node_budget)
      (opt_int l.Capture.step_budget)
      (opt_num l.Capture.time_budget)
      l.Capture.fail_fast
  in
  let s = engine in
  let engine_row =
    Printf.sprintf
      "{\"live_nodes\":%d,\"peak_live_nodes\":%d,\"interned_total\":%d,\
       \"unique_capacity\":%d,\"cache_entries\":%d,\"cache_capacity\":%d,\
       \"cache_lookups\":%d,\"cache_hits\":%d,\"cache_hit_rate\":%s,\
       \"cache_stores\":%d,\"cache_evictions\":%d,\"ite_recursions\":%d,\
       \"and_recursions\":%d,\"xor_recursions\":%d,\
       \"constrain_recursions\":%d,\"restrict_recursions\":%d,\
       \"quantify_recursions\":%d,\"and_exists_recursions\":%d,\
       \"interned_cubes\":%d,\"gc_runs\":%d,\"gc_reclaimed\":%d}"
      s.Bdd.Stats.live_nodes s.Bdd.Stats.peak_live_nodes
      s.Bdd.Stats.interned_total s.Bdd.Stats.unique_capacity
      s.Bdd.Stats.cache_entries s.Bdd.Stats.cache_capacity
      s.Bdd.Stats.cache_lookups s.Bdd.Stats.cache_hits
      (num (Bdd.Stats.hit_rate s))
      s.Bdd.Stats.cache_stores s.Bdd.Stats.cache_evictions
      s.Bdd.Stats.ite_recursions s.Bdd.Stats.and_recursions
      s.Bdd.Stats.xor_recursions s.Bdd.Stats.constrain_recursions
      s.Bdd.Stats.restrict_recursions s.Bdd.Stats.quantify_recursions
      s.Bdd.Stats.and_exists_recursions s.Bdd.Stats.interned_cubes
      s.Bdd.Stats.gc_runs s.Bdd.Stats.gc_reclaimed
  in
  Printf.sprintf
    "{\n\
    \  \"schema\": \"bddmin-bench-engine/11\",\n\
    \  \"jobs\": %d,\n\
    \  \"quick\": %b,\n\
    \  \"max_calls\": %d,\n\
    \  \"image\": \"%s\",\n\
    \  \"limits\": %s,\n\
    \  \"suite\": {\"benches\": %d, \"calls\": %d, \"capture_seconds\": %s},\n\
    \  \"dnf\": [%s],\n\
    \  \"phases\": [%s],\n\
    \  \"minimizers\": [%s],\n\
    \  \"serve\": %s,\n\
    \  \"engine\": %s\n\
     }\n"
    jobs quick max_calls (escape image) limits_row
    benches (List.length calls)
    (num capture_seconds)
    (String.concat ", " dnf_rows)
    (String.concat ", " phase_rows)
    (String.concat ", " minimizer_rows)
    (serve_row serve) engine_row

let write ?serve ~path ~jobs ~quick ~max_calls ~image ~limits ~benches
    ~capture_seconds ~phases ~names ~engine ~dnf calls =
  let doc =
    render ?serve ~jobs ~quick ~max_calls ~image ~limits
      ~benches ~capture_seconds ~phases ~names ~engine ~dnf calls
  in
  let oc = open_out path in
  output_string oc doc;
  close_out oc
