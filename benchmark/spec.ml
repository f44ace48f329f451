(* The benchmark's names: its workloads and the metrics it prints.
   BENCHMARK.json at the repository root must list exactly these (the
   test checks it), and the runner refuses to print any other set. *)

type better = Lower | Higher

type metric = { name : string; unit_ : string; better : better }

let workloads = [ "capture"; "verify"; "serve-cold"; "serve-hot" ]

let m ?(better = Lower) unit_ name = { name; unit_; better }

(* Printed by every workload with [--trace 0]. *)
let end_to_end =
  [ m "s" "setup_s";
    m ~better:Higher "1/s" "ops_per_s";
    m "ms" "p50_ms";
    m "ms" "tail_ms";
    m "MB" "peak_rss_mb" ]

(* The minimizers of [Minimize.Registry.all], named here rather than read
   from the registry so that a new entry is a deliberate benchmark
   change. *)
let minimizers =
  [ "const"; "restr"; "osm_td"; "osm_nv"; "osm_cp"; "osm_bt"; "tsm_td";
    "tsm_cp"; "opt_lv"; "f_orig"; "f_and_c"; "f_or_nc"; "sched" ]

(* Spans the benchmark records around public calls: (layer, span name).
   Each gets a [<layer>.<name>_pct] metric, its self time as a share of
   the traced wall time. *)
let spans =
  List.map (fun n -> ("minimize", n)) minimizers
  @ [ ("minimize", "lower_bound"); ("minimize", "trivial");
      ("minimize", "c_onset");
      ("bdd", "clear_caches"); ("bdd", "metric"); ("bdd", "gc");
      ("bdd", "store_load"); ("bdd", "store_save");
      ("fsm", "driver"); ("fsm", "resynth"); ("fsm", "equiv");
      ("fsm", "reach_seq");
      ("exec", "reach_par");
      ("serve", "queue"); ("serve", "exec"); ("serve", "write");
      ("serve", "transport"); ("serve", "parse"); ("serve", "render") ]

let layers = [ "bdd"; "minimize"; "fsm"; "exec"; "serve" ]

let span_metric (layer, name) = layer ^ "." ^ name ^ "_pct"

(* Printed by every workload with [--trace 1].  A layer a workload does
   not enter reads 0. *)
let per_layer =
  [ m "s" "trace.wall_s";
    m "%" "trace.overhead_pct";
    m ~better:Higher "%" "trace.coverage_pct";
    m "count" "trace.spans" ]
  @ List.map (fun l -> m "%" (l ^ ".self_pct")) layers
  @ List.map (fun s -> m "%" (span_metric s)) spans
  @ [ m "count" "bdd.cache_lookups";
      m ~better:Higher "ratio" "bdd.cache_hit_rate";
      m "count" "bdd.cache_evictions";
      m "count" "bdd.ite_recursions";
      m "count" "bdd.and_recursions";
      m "count" "bdd.xor_recursions";
      m "count" "bdd.constrain_recursions";
      m "count" "bdd.restrict_recursions";
      m "count" "bdd.quantify_recursions";
      m "count" "bdd.and_exists_recursions";
      m "count" "bdd.interned_total";
      m "count" "bdd.peak_live_nodes";
      m "count" "bdd.gc_runs";
      m "count" "bdd.gc_reclaimed";
      m "count" "bdd.shared.intern_retries";
      m "count" "bdd.shared.barrier_waits";
      m "%" "bdd.shared.barrier_wait_pct";
      m ~better:Higher "ratio" "exec.par_efficiency";
      m "count" "minimize.calls";
      m "count" "minimize.cover_nodes";
      m "count" "fsm.iterations";
      m ~better:Higher "ratio" "serve.cache_hit_ratio";
      m "count" "serve.cache_misses";
      m ~better:Higher "count" "serve.batches";
      m ~better:Higher "count" "serve.batched_requests";
      m "count" "serve.sessions_opened" ]

let metrics ~trace = if trace then per_layer else end_to_end

let better_label = function Lower -> "lower" | Higher -> "higher"
