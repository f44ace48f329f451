(* Timing helpers shared by the workloads. *)

let now_s () = Int64.to_float (Obs.Clock.now_ns ()) /. 1e9

let timed f =
  let t0 = now_s () in
  let r = f () in
  (r, now_s () -. t0)

(* Set up at least 9 times and for at least 0.25 s (at most 500 times),
   and keep the last set-up; the ones before it are released with
   [release].  Returns the set-up and the median time of one set-up, so
   that work moved into set-up shows in [setup_s]; sub-millisecond
   set-ups get hundreds of repetitions, enough for a steady median. *)
let setup ~release f =
  let t0 = now_s () in
  let rec go acc =
    let r, dt = timed f in
    let acc = dt :: acc in
    let n = List.length acc in
    if (n >= 9 && now_s () -. t0 >= 0.25) || n >= 500 then
      (r, Stat.median acc)
    else begin
      release r;
      go acc
    end
  in
  go []

(* Run whole passes until [seconds] have passed and at least
   [min_passes] ran; a pass is never cut short, so every pass measures
   the same work. *)
let passes ~seconds ~min_passes f =
  let t0 = now_s () in
  let rec go k acc =
    if k >= min_passes && now_s () -. t0 >= seconds then List.rev acc
    else go (k + 1) (f k :: acc)
  in
  go 0 []

(* Time one machine's share of a pass, after an untimed full collection:
   no machine pays for the garbage of the one before it, and the peak
   resident size is that of the largest machine, not of whatever garbage
   the collector had yet to reclaim (without it the peak varied by 30%
   between runs of one seed). *)
let segment f =
  Gc.full_major ();
  timed f

let ms s = s *. 1000.0

(* For workloads that repeat the same operations in every pass: each
   operation's latency is its fastest pass, and the body time is the sum
   over the pass's segments (one per machine) of each segment's fastest
   pass.  Other tenants of the host slow the machine down by 10 to 40% in
   phases lasting seconds, never speed it up, so the minimum is what
   repeats between runs.  Takes, per pass, the segment times and the
   operation latencies, both in a fixed order. *)
let best_of_passes passes =
  match passes with
  | [] -> invalid_arg "Measure.best_of_passes: no passes"
  | (s, l) :: rest ->
    let best a b = List.map2 Float.min a b in
    let s, l =
      List.fold_left (fun (bs, bl) (s, l) -> (best bs s, best bl l)) (s, l) rest
    in
    (Stat.sum s, l)

(* For the serve workloads, which repeat nothing: the window is cut into
   1 s slices and the half of them that completed the most requests
   stands for the run, for the same reason.  Takes (completion time in
   the window, latency) per request; returns the chosen slices' requests
   per second (counted between each slice's first and last completion)
   and their latencies, slice by slice. *)
let fastest_half ~window_s samples =
  let slice_s = 1.0 in
  let n = max 1 (int_of_float (window_s /. slice_s)) in
  let slices = Array.make n [] in
  List.iter
    (fun ((at, _) as s) ->
       let i = int_of_float (at /. slice_s) in
       if i < n then slices.(i) <- s :: slices.(i))
    samples;
  let ranked =
    List.stable_sort
      (fun a b -> compare (List.length b) (List.length a))
      (Array.to_list slices)
  in
  let kept = List.filter (( <> ) []) (List.filteri (fun i _ -> i < max 1 (n / 2)) ranked) in
  let span s =
    let ats = List.map fst s in
    List.fold_left Float.max 0.0 ats -. List.fold_left Float.min infinity ats
  in
  let gaps = List.fold_left (fun a s -> a + (List.length s - 1)) 0 kept in
  let spanned = Stat.sum (List.map span kept) in
  let per_s =
    if spanned > 0.0 then float_of_int gaps /. spanned
    else (* at most one request per slice *)
      float_of_int (List.length kept) /. slice_s
  in
  (per_s, List.map (List.map snd) kept)

let percentile_note pct n =
  (* enough decimals to tell p99.99 from p100 *)
  let decimals = max 2 (int_of_float (ceil (log10 (float_of_int n /. 10.0))) - 2) in
  Printf.sprintf "p%.*f of %d" decimals pct n

(* [tail_ms]: the highest percentile with at least ten samples beyond it.
   When the latencies come in several groups (serve slices) of at least
   1000 each, it is taken per group and the median over the groups is
   reported: over a whole serve-hot window it is the 11th slowest of
   250 000 requests, set by a handful of scheduler and collector pauses,
   and it moved by 30% between runs. *)
let tail groups =
  if List.length groups > 1 && List.for_all (fun g -> List.length g >= 1000) groups
  then
    let tails = List.map Stat.tail groups in
    let n = Stat.median (List.map (fun g -> float_of_int (List.length g)) groups) in
    ( Stat.median (List.map fst tails),
      Printf.sprintf "the median over %d slices of each slice's %s" (List.length groups)
        (percentile_note (Stat.median (List.map snd tails)) (int_of_float n)) )
  else
    let all = List.concat groups in
    let v, pct = Stat.tail all in
    (v, percentile_note pct (List.length all))

(* The end-to-end block every workload prints; [groups] holds the
   operation latencies, in one group or one per serve slice. *)
let end_to_end ~setup_s ~ops_per_s ~groups ~peak_rss_mb =
  let tail_s, note = tail groups in
  ( [ ("setup_s", setup_s);
      ("ops_per_s", ops_per_s);
      ("p50_ms", ms (Stat.median (List.concat groups)));
      ("tail_ms", ms tail_s);
      ("peak_rss_mb", peak_rss_mb) ],
    "tail_ms is " ^ note ^ " operations" )

(* Engine counters summed over weighted snapshots: weight 1 for a
   manager's own reading, -1 for the delta of checking work done on it
   that must not count. *)
let engine_counts (stats : (int * Bdd.Stats.t) list) =
  let sum f =
    float_of_int (List.fold_left (fun a (w, s) -> a + (w * f s)) 0 stats)
  in
  let lookups = sum (fun s -> s.Bdd.Stats.cache_lookups) in
  [ ("bdd.cache_lookups", lookups);
    ( "bdd.cache_hit_rate",
      if lookups > 0.0 then sum (fun s -> s.cache_hits) /. lookups else 0.0 );
    ("bdd.cache_evictions", sum (fun s -> s.cache_evictions));
    ("bdd.ite_recursions", sum (fun s -> s.ite_recursions));
    ("bdd.and_recursions", sum (fun s -> s.and_recursions));
    ("bdd.xor_recursions", sum (fun s -> s.xor_recursions));
    ("bdd.constrain_recursions", sum (fun s -> s.constrain_recursions));
    ("bdd.restrict_recursions", sum (fun s -> s.restrict_recursions));
    ("bdd.quantify_recursions", sum (fun s -> s.quantify_recursions));
    ("bdd.and_exists_recursions", sum (fun s -> s.and_exists_recursions));
    ("bdd.interned_total", sum (fun s -> s.interned_total));
    (* a level, not a counter: only the managers' own readings add up *)
    ( "bdd.peak_live_nodes",
      float_of_int
        (List.fold_left
           (fun a (w, s) -> if w > 0 then a + s.Bdd.Stats.peak_live_nodes else a)
           0 stats) );
    ("bdd.gc_runs", sum (fun s -> s.gc_runs));
    ("bdd.gc_reclaimed", sum (fun s -> s.gc_reclaimed)) ]

(* The per-layer block: self-time shares of the recorded spans over the
   traced wall time, then the counts a workload measured; a metric the
   workload has no value for reads 0. *)
let per_layer ~spans ~wall_s ~overhead_pct counts =
  let by_name, by_layer = Span.self_times spans in
  let get tbl k = Option.value ~default:0.0 (Hashtbl.find_opt tbl k) in
  let pct x = if wall_s > 0.0 then 100.0 *. x /. wall_s else 0.0 in
  let covered = Hashtbl.fold (fun _ v acc -> acc +. v) by_layer 0.0 in
  let computed =
    [ ("trace.wall_s", wall_s);
      ("trace.overhead_pct", overhead_pct);
      ("trace.coverage_pct", pct covered);
      ( "trace.spans",
        float_of_int
          (List.length
             (List.filter (fun s -> s.Span.layer <> Span.oracle_layer) spans)) ) ]
    @ List.map (fun l -> (l ^ ".self_pct", pct (get by_layer l))) Spec.layers
    @ List.map (fun s -> (Spec.span_metric s, pct (get by_name s))) Spec.spans
    @ counts
  in
  let table =
    Hashtbl.fold
      (fun l v acc -> Printf.sprintf "  %-10s %9.3f s  %5.1f%%" l v (pct v) :: acc)
      by_layer []
    |> List.sort compare
  in
  ( List.map
      (fun (m : Spec.metric) ->
         (m.name, Option.value ~default:0.0 (List.assoc_opt m.name computed)))
      Spec.per_layer,
    ("self time per layer:" :: table)
    @ [ Printf.sprintf "tracing overhead: %.2f%% of the untraced time" overhead_pct ] )
