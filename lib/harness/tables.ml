let bprintf = Printf.bprintf

(* Left-pad to width. *)
let pad w s =
  if String.length s >= w then s else String.make (w - String.length s) ' ' ^ s

let pad_left w s =
  if String.length s >= w then s else s ^ String.make (w - String.length s) ' '

let render_table1 () =
  let buf = Buffer.create 256 in
  bprintf buf "Table 1: Properties of the matching criteria.\n\n";
  bprintf buf "  %-10s %-10s %-10s %-10s\n" "Criterion" "Reflexive"
    "Symmetric" "Transitive";
  List.iter
    (fun crit ->
       let yn b = if b then "yes" else "no" in
       bprintf buf "  %-10s %-10s %-10s %-10s\n"
         (Minimize.Matching.name crit)
         (yn (Minimize.Matching.reflexive crit))
         (yn (Minimize.Matching.symmetric crit))
         (yn (Minimize.Matching.transitive crit)))
    Minimize.Matching.all;
  Buffer.contents buf

let render_table2 () =
  let buf = Buffer.create 512 in
  bprintf buf "Table 2: Heuristics based on matching siblings.\n\n";
  bprintf buf "  %-3s %-10s %-11s %-12s %s\n" "#" "Criterion" "match-compl"
    "no-new-vars" "Name/Comment";
  let rows =
    [
      (1, "osdm", false, false, "constrain");
      (2, "osdm", false, true, "restrict");
      (3, "osdm", true, false, "same as 1");
      (4, "osdm", true, true, "same as 2");
      (5, "osm", false, false, "osm_td");
      (6, "osm", false, true, "osm_nv");
      (7, "osm", true, false, "osm_cp");
      (8, "osm", true, true, "osm_bt");
      (9, "tsm", false, false, "tsm_td");
      (10, "tsm", false, true, "same as 9");
      (11, "tsm", true, false, "tsm_cp");
      (12, "tsm", true, true, "same as 11");
    ]
  in
  List.iter
    (fun (i, crit, compl, nnv, name) ->
       let yn b = if b then "yes" else "no" in
       bprintf buf "  %-3d %-10s %-11s %-12s %s\n" i crit (yn compl) (yn nnv)
         name)
    rows;
  Buffer.contents buf

let render_table3 ~names calls =
  let buf = Buffer.create 4096 in
  bprintf buf
    "Table 3: totals over all examples, split by c_onset_size bucket.\n";
  List.iter
    (fun bucket ->
       let t = Stats.aggregate ~names bucket calls in
       if t.Stats.ncalls > 0 then begin
         bprintf buf "\n-- %s (%d calls) --\n" (Stats.bucket_name bucket)
           t.Stats.ncalls;
         bprintf buf "  %-8s %12s %9s %10s %5s\n" "Heur." "Total Size"
           "% of min" "Runtime" "Rank";
         let pct_min v =
           if t.Stats.min_total = 0 then 0.0
           else 100.0 *. float_of_int v /. float_of_int t.Stats.min_total
         in
         bprintf buf "  %-8s %12d %9.0f %10s %5s\n" "low_bd"
           t.Stats.low_bd_total
           (pct_min t.Stats.low_bd_total)
           "-" "-";
         bprintf buf "  %-8s %12d %9.0f %10s %5s\n" "min" t.Stats.min_total
           100.0 "-" "-";
         List.iter
           (fun (r : Stats.row) ->
              (* the marker only appears under a budget, so unbudgeted
                 output stays byte-identical to the ungoverned harness *)
              let dnf_marker =
                if r.Stats.dnf > 0 then Printf.sprintf "  DNF:%d" r.Stats.dnf
                else ""
              in
              bprintf buf "  %-8s %12d %9.0f %9.2fs %5d%s\n" r.Stats.name
                r.Stats.total_size r.Stats.pct_of_min r.Stats.runtime
                r.Stats.rank dnf_marker)
           t.Stats.rows
       end)
    Stats.buckets;
  Buffer.contents buf

let render_per_bench ?(dnf = []) calls =
  let buf = Buffer.create 1024 in
  bprintf buf "Per-machine summary:\n\n";
  bprintf buf "  %-10s %6s %7s %7s %10s %10s %7s\n" "machine" "calls"
    "<5%" ">95%" "f total" "min total" "ratio";
  let benches =
    List.sort_uniq compare (List.map (fun (c : Capture.call) -> c.bench) calls)
  in
  List.iter
    (fun bench ->
       let mine =
         List.filter (fun (c : Capture.call) -> c.bench = bench) calls
       in
       let count p = List.length (List.filter p mine) in
       let f_total =
         List.fold_left (fun acc (c : Capture.call) -> acc + c.f_size) 0 mine
       in
       let min_total =
         List.fold_left (fun acc (c : Capture.call) -> acc + c.min_size) 0 mine
       in
       bprintf buf "  %-10s %6d %7d %7d %10d %10d %6.2fx\n" bench
         (List.length mine)
         (count (fun c -> c.Capture.c_onset_fraction < 0.05))
         (count (fun c -> c.Capture.c_onset_fraction > 0.95))
         f_total min_total
         (if min_total = 0 then 1.0
          else float_of_int f_total /. float_of_int min_total))
    benches;
  (* The paper's tables mark machines whose run blew the resource limit
     as DNF rows; same here, from the suite's driver-exhaustion list. *)
  List.iter
    (fun (bench, reason) -> bprintf buf "  %-10s DNF(%s)\n" bench reason)
    dnf;
  Buffer.contents buf

let default_h2h = [ "f_orig"; "const"; "restr"; "osm_bt"; "tsm_td"; "opt_lv"; "min" ]

let render_table4 ?(names = default_h2h) calls =
  let buf = Buffer.create 2048 in
  bprintf buf
    "Table 4: head-to-head comparisons (%% of calls where the row's result\n\
     is strictly smaller than the column's), over all examples.\n\n";
  let m = Stats.head_to_head ~names calls in
  let w = 8 in
  bprintf buf "  %s" (pad_left w "");
  List.iter (fun n -> bprintf buf "%s" (pad w n)) names;
  bprintf buf "\n";
  List.iteri
    (fun i n ->
       bprintf buf "  %s" (pad_left w n);
       Array.iter (fun v -> bprintf buf "%s" (pad w (Printf.sprintf "%.1f" v))) m.(i);
       bprintf buf "\n")
    names;
  Buffer.contents buf

let default_fig3 = [ "f_orig"; "opt_lv"; "const"; "restr"; "tsm_td" ]

let percents = List.init 21 (fun i -> 5 * i)

let render_figure3 ?(names = default_fig3) calls =
  let buf = Buffer.create 4096 in
  bprintf buf
    "Figure 3: %% of calls to a heuristic within which %% of the heuristic\n\
     min (robustness curves; y-intercept = how often the heuristic finds\n\
     the smallest result).\n\n";
  let curves =
    List.map (fun n -> (n, Stats.within_curve ~name:n ~percents calls)) names
  in
  (* Series table. *)
  bprintf buf "  %s" (pad 10 "within %");
  List.iter (fun (n, _) -> bprintf buf "%s" (pad 9 n)) curves;
  bprintf buf "\n";
  List.iter
    (fun x ->
       bprintf buf "  %s" (pad 10 (string_of_int x));
       List.iter
         (fun (_, series) ->
            let y = List.assoc x series in
            bprintf buf "%s" (pad 9 (Printf.sprintf "%.1f" y)))
         curves;
       bprintf buf "\n")
    percents;
  (* ASCII plot: y 0..100 in 5% rows, x = the percents. *)
  bprintf buf "\n  %% of calls\n";
  let symbol_of = List.mapi (fun i (n, _) -> (n, Char.chr (Char.code 'a' + i))) curves in
  for row = 20 downto 0 do
    let y = 5 * row in
    bprintf buf "  %s |" (pad 3 (string_of_int y));
    List.iter
      (fun x ->
         let marks =
           List.filter
             (fun (_, series) ->
                let v = List.assoc x series in
                (* Mark the row closest to the value. *)
                int_of_float ((v /. 5.0) +. 0.5) = row)
             curves
         in
         let ch =
           match marks with
           | [] -> ' '
           | [ (n, _) ] -> List.assoc n symbol_of
           | _ -> '*'
         in
         bprintf buf " %c  " ch)
      percents;
    bprintf buf "\n"
  done;
  bprintf buf "      +%s\n" (String.concat "" (List.map (fun _ -> "----") percents));
  bprintf buf "       ";
  List.iter (fun x -> bprintf buf "%s" (pad_left 4 (string_of_int x))) percents;
  bprintf buf " (within %% of min)\n\n  legend: ";
  List.iter (fun (n, c) -> bprintf buf "%c=%s  " c n) symbol_of;
  bprintf buf "(* = overlap)\n";
  Buffer.contents buf

let render_lower_bound_summary ~names calls =
  let buf = Buffer.create 1024 in
  let t = Stats.aggregate ~names Stats.All calls in
  bprintf buf "Lower-bound summary (over %d calls):\n" t.Stats.ncalls;
  if t.Stats.low_bd_total > 0 then
    bprintf buf "  min / lower-bound size ratio: %.2f\n"
      (float_of_int t.Stats.min_total /. float_of_int t.Stats.low_bd_total);
  List.iter
    (fun n ->
       bprintf buf "  %-8s achieves the lower bound on %5.1f%% of calls\n" n
         (Stats.achieving_lower_bound ~name:n calls))
    (names @ [ "min" ]);
  Buffer.contents buf

let calls_to_csv ~names calls =
  let buf = Buffer.create 4096 in
  bprintf buf "bench,iteration,f_size,c_onset_fraction,low_bd,min%s,avg_hit_rate\n"
    (String.concat "" (List.map (fun n -> "," ^ n) names));
  List.iter
    (fun (c : Capture.call) ->
       bprintf buf "%s,%d,%d,%.6f,%d,%d" c.bench c.iteration c.f_size
         c.c_onset_fraction c.low_bd c.min_size;
       List.iter
         (fun n ->
            match Stats.size_opt c n with
            | Some s -> bprintf buf ",%d" s
            | None -> bprintf buf ",DNF")
         names;
       let avg_hit_rate =
         match c.hit_rates with
         | [] -> 0.0
         | hs ->
           List.fold_left (fun acc (_, h) -> acc +. h) 0.0 hs
           /. float_of_int (List.length hs)
       in
       bprintf buf ",%.4f\n" avg_hit_rate)
    calls;
  Buffer.contents buf

let curve_to_csv ~names calls =
  let buf = Buffer.create 1024 in
  bprintf buf "within_pct%s\n"
    (String.concat "" (List.map (fun n -> "," ^ n) names));
  let curves =
    List.map (fun n -> Stats.within_curve ~name:n ~percents calls) names
  in
  List.iter
    (fun x ->
       bprintf buf "%d" x;
       List.iter (fun series -> bprintf buf ",%.2f" (List.assoc x series)) curves;
       bprintf buf "\n")
    percents;
  Buffer.contents buf
