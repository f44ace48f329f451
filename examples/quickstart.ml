(* Quickstart: the paper's running example (Figure 1) end to end.

   We build the incompletely specified function of Figure 1, run every
   catalogued heuristic on it, compare against the exact minimum, and
   write Graphviz renderings of the inputs and one optimal cover. *)

let () =
  Obs.Logging.setup ();
  let man = Bdd.create () in
  (* Figure 1's instance has three variables; we use the leaf notation of
     the paper (§3.2): '1'/'0' are care values, 'd' is a don't care.  The
     vector below annotates the binary decision tree of Figure 1c. *)
  let f_tt, c_tt = Logic.Truth_table.paper_instance "d1d1 01dd" in
  let f = Logic.Truth_table.to_bdd man f_tt in
  let c = Logic.Truth_table.to_bdd man c_tt in
  let inst = Minimize.Ispec.make ~f ~c in

  Format.printf "Instance [f; c] over 3 variables:@.";
  Format.printf "  leaves (paper order): %a@." (Minimize.Ispec.pp man) inst;
  Format.printf "  |f| = %d nodes, |c| = %d nodes, c_onset = %.0f%%@.@."
    (Bdd.size man f) (Bdd.size man c)
    (100.0 *. Minimize.Ispec.c_onset_fraction man inst);

  (* Run every minimizer in the catalogue. *)
  Format.printf "%-8s %-5s  (cover found)@." "name" "size";
  List.iter
    (fun (e : Minimize.Registry.entry) ->
       let g = e.run (Minimize.Ctx.of_man man) inst in
       assert (Minimize.Ispec.is_cover man inst g);
       Format.printf "%-8s %-5d@." e.name (Bdd.size man g))
    Minimize.Registry.all;

  (* Ground truth. *)
  (match Minimize.Exact.minimize man inst with
   | Some r ->
     Format.printf "%-8s %-5d  (exhaustive, %d covers tried)@." "exact"
       r.Minimize.Exact.size r.Minimize.Exact.covers_tried;
     let lb = Minimize.Lower_bound.compute man inst in
     Format.printf "%-8s %-5d  (Theorem 7 cube bound)@.@." "low_bd" lb;
     Bdd.Dot.dump_file "quickstart.dot"
       [ ("f", f); ("c", c); ("optimal cover", r.Minimize.Exact.cover) ];
     Format.printf "Wrote quickstart.dot (render with: dot -Tpng -O quickstart.dot)@."
   | None -> assert false)
