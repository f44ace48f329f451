type params = {
  window_size : int;
  stop_top_down : int;
  use_level_matching : bool;
  osm_config : Sibling.config;
  tsm_config : Sibling.config;
  level_params : Level.params;
}

let default_params =
  {
    window_size = 4;
    stop_top_down = 6;
    use_level_matching = false;
    osm_config = Sibling.config_of_heuristic Sibling.Osm_bt;
    tsm_config = Sibling.config_of_heuristic Sibling.Tsm_cp;
    level_params = Level.default_params;
  }

let windows_total =
  Obs.Metrics.(
    handle
      (counter ~help:"Level windows transformed by the sched heuristic"
         "bddmin_minimize_schedule_windows_total"))

let run man ?(params = default_params) (s : Ispec.t) =
  if Bdd.is_zero s.Ispec.c then invalid_arg "Schedule.run: empty care set";
  if params.window_size <= 0 then invalid_arg "Schedule.run: window_size";
  let support = Level.support man s in
  let nlevels = List.fold_left max (-1) support + 1 in
  Obs.Trace.with_span "minimize.schedule"
    ~attrs:
      [
        ("nlevels", Obs.Trace.Int nlevels);
        ("window_size", Obs.Trace.Int params.window_size);
        ("stop_top_down", Obs.Trace.Int params.stop_top_down);
        ("level_matching", Obs.Trace.Bool params.use_level_matching);
      ]
  @@ fun sched_sp ->
  let windows = ref 0 in
  let apply_levels lo hi spec =
    let rec go level crit spec =
      if level >= hi then spec
      else
        go (level + 1) crit
          (Level.minimize_at_level man ~params:params.level_params crit ~level
             spec)
    in
    let spec = go lo Matching.Osm spec in
    go lo Matching.Tsm spec
  in
  let window lo hi spec =
    incr windows;
    Obs.Metrics.inc windows_total;
    Obs.Trace.with_span "schedule.window"
      ~attrs:[ ("lo", Obs.Trace.Int lo); ("hi", Obs.Trace.Int hi) ]
    @@ fun sp ->
    (* the sizes are only worth their traversals when someone records
       them *)
    let traced = Obs.Trace.enabled () in
    let before = if traced then Bdd.size man spec.Ispec.f else 0 in
    let spec = Sibling.transform_window man params.osm_config ~lo ~hi spec in
    let spec = Sibling.transform_window man params.tsm_config ~lo ~hi spec in
    let spec =
      if params.use_level_matching then apply_levels lo hi spec else spec
    in
    if traced then begin
      let after = Bdd.size man spec.Ispec.f in
      Obs.Trace.add sp "f_nodes_before" (Obs.Trace.Int before);
      Obs.Trace.add sp "f_nodes_after" (Obs.Trace.Int after);
      Obs.Trace.add sp "nodes_removed" (Obs.Trace.Int (before - after))
    end;
    spec
  in
  (* The schedule is anytime by construction: every completed window
     leaves [spec.f] a cover of the original instance, so on budget
     exhaustion the partially transformed window is discarded and the
     best-so-far cover is kept.  The final [constrain] gets the same
     treatment — if even it cannot finish, [spec.f] itself stands. *)
  let final spec =
    try Bdd.constrain man spec.Ispec.f spec.Ispec.c
    with Bdd.Budget_exhausted _ -> spec.Ispec.f
  in
  (* A window that holds no support level is an identity for the
     sibling passes, which only rebuild the nodes they cross, and the
     initial support bounds every later one: start at the first window,
     on the fixed grid of [window_size], that holds a support level.
     Level matching still visits every window, because a level pass at
     an empty level repeats the cut above it under another criterion. *)
  let rec next_window lo = function
    | v :: rest when v < lo -> next_window lo rest
    | v :: _ -> lo + ((v - lo) / params.window_size * params.window_size)
    | [] -> nlevels
  in
  let rec loop lo spec =
    let lo =
      if params.use_level_matching then lo else next_window lo support
    in
    if Bdd.is_one spec.Ispec.c then spec.Ispec.f
    else if nlevels - lo < params.stop_top_down || lo >= nlevels then
      final spec
    else begin
      let hi = min nlevels (lo + params.window_size) in
      match window lo hi spec with
      | spec' -> loop hi spec'
      | exception Bdd.Budget_exhausted _ -> final spec
    end
  in
  let r = loop 0 s in
  Obs.Trace.add sched_sp "windows" (Obs.Trace.Int !windows);
  r
