let src = Logs.Src.create "bddmin.reach" ~doc:"symbolic reachability"

module Log = (val Logs.src_log src)

type fixpoint =
  | Complete
  | Partial of { frontier : Bdd.t; reason : Bdd.Budget.reason }

type stats = {
  iterations : int;
  reached_states : float;
  peak_frontier_nodes : int;
  peak_reached_nodes : int;
  minimization_calls : int;
  fixpoint : fixpoint;
}

type minimizer = Bdd.man -> Minimize.Ispec.t -> Bdd.t

let constrain_minimizer man (s : Minimize.Ispec.t) =
  Bdd.constrain man s.Minimize.Ispec.f s.Minimize.Ispec.c

let no_minimizer _man (s : Minimize.Ispec.t) = s.Minimize.Ispec.f

let reachable ?strategy ?cluster_bound ?par ?(minimize = constrain_minimizer)
    ?(max_iterations = max_int) ?(on_instance = fun ~iteration:_ _ -> ())
    ?(on_image_constrain = fun ~iteration:_ _ -> ()) ?resume
    (sym : Symbolic.t) =
  let man = sym.man in
  Obs.Trace.with_span "fsm.reach" @@ fun reach_sp ->
  let calls = ref 0 in
  let peak_frontier = ref 0 in
  let peak_reached = ref 0 in
  let debug_on =
    match Logs.Src.level src with Some Logs.Debug -> true | _ -> false
  in
  let rec go iteration reached frontier =
    if Bdd.is_zero frontier then (reached, iteration, Complete)
    else if iteration >= max_iterations then
      failwith "Reach.reachable: max_iterations exceeded"
    else begin
      (* Node counts cost a full traversal of both sets every iteration;
         only pay for them when someone is looking (tracing or debug
         logging). *)
      let want_sizes = debug_on || Obs.Trace.enabled () in
      let frontier_nodes = if want_sizes then Bdd.size man frontier else 0 in
      let reached_nodes = if want_sizes then Bdd.size man reached else 0 in
      peak_frontier := max !peak_frontier frontier_nodes;
      peak_reached := max !peak_reached reached_nodes;
      Log.debug (fun m ->
          m "iteration %d: |U| = %d nodes, |R| = %d nodes" iteration
            frontier_nodes reached_nodes);
      let step () =
        Obs.Trace.with_span "reach.iteration"
          ~attrs:
            [
              ("iteration", Obs.Trace.Int iteration);
              ("frontier_nodes", Obs.Trace.Int frontier_nodes);
              ("reached_nodes", Obs.Trace.Int reached_nodes);
            ]
        @@ fun sp ->
        (* The EBM instance of the paper: f = U, c = U + ¬R. *)
        let care = Bdd.dor man frontier (Bdd.compl reached) in
        let inst = Minimize.Ispec.make ~f:frontier ~c:care in
        on_instance ~iteration inst;
        incr calls;
        let chosen = minimize man inst in
        (* The vector-cofactor instances [δ_j; S] that a constrain-based
           image computation hands to [constrain] (footnote 1 of the
           paper); emitted here so interception is independent of how the
           image is actually computed. *)
        Array.iter
          (fun delta ->
             on_image_constrain ~iteration
               (Minimize.Ispec.make ~f:delta ~c:chosen))
          sym.next_fns;
        let successors = Image.image ?strategy ?cluster_bound ?par sym chosen in
        let frontier' = Bdd.diff man successors reached in
        let reached' = Bdd.dor man reached successors in
        if Obs.Trace.enabled () then begin
          Obs.Trace.add sp "minimized_nodes"
            (Obs.Trace.Int (Bdd.size man chosen));
          Obs.Trace.add sp "new_frontier_nodes"
            (Obs.Trace.Int (Bdd.size man frontier'))
        end;
        (reached', frontier')
      in
      (* Budget exhaustion is caught at the iteration boundary: the
         partially computed iteration is discarded, and the last
         completed (reached, frontier) pair — a sound under-approximation
         plus its unexplored frontier — is returned as an explicit
         [Partial] fixpoint, so callers can resume from it. *)
      match step () with
      | reached', frontier' -> go (iteration + 1) reached' frontier'
      | exception Bdd.Budget_exhausted reason ->
        (reached, iteration, Partial { frontier; reason })
    end
  in
  let init_reached, init_frontier =
    match resume with None -> (sym.init, sym.init) | Some (r, u) -> (r, u)
  in
  let reached, iterations, fixpoint = go 0 init_reached init_frontier in
  Obs.Trace.add reach_sp "iterations" (Obs.Trace.Int iterations);
  Obs.Trace.add reach_sp "peak_frontier_nodes" (Obs.Trace.Int !peak_frontier);
  Obs.Trace.add reach_sp "peak_reached_nodes" (Obs.Trace.Int !peak_reached);
  Obs.Probe.observe "reach.iterations" iterations;
  let stats =
    {
      iterations;
      reached_states =
        Bdd.sat_count man reached ~nvars:(Symbolic.num_state_vars sym);
      peak_frontier_nodes = !peak_frontier;
      peak_reached_nodes = !peak_reached;
      minimization_calls = !calls;
      fixpoint;
    }
  in
  (reached, stats)
