(* verify: the paper's second application and its verification.  For
   each machine: resynthesize it with the unreachable states as don't
   cares, prove the result equivalent to the original, check the
   original against a seeded mutant, and compute the reachable states of
   the (original, resynthesized) product twice — sequentially and with
   the image merges on 2 worker domains — each on a fresh shared store,
   alternating which goes first.  Every step is one operation.

   The parallel step starts and stops its own pool, as [bddmin reach -j 2]
   does: idle pool domains left up between steps slowed every other step
   by a third (each minor collection stops all domains). *)

type kind = Resynth | Eq | Neq | Reach_seq | Reach_par

let kind_name = function
  | Resynth -> "resynth"
  | Eq -> "eq"
  | Neq -> "neq"
  | Reach_seq -> "reach_seq"
  | Reach_par -> "reach_par"

type op = {
  machine : string;
  kind : kind;
  latency : float;
  verdict : Oracle.verdict option;
  states : float;  (** reached product states *)
  iterations : int;
  min_calls : int;
  other : Fsm.Netlist.t option;  (** the machine the original was compared with *)
}

type pass = {
  ops : op list;
  machines_s : float list;
  traced : bool;
  stats : (int * Bdd.Stats.t) list;
  shared : Bdd.Shared.telemetry list;
  gates : int;  (** gates of the resynthesized machines *)
}

let pass sp k (machines : Gen.verify_machine list) =
  let stats = ref [] and shared = ref [] and gates = ref 0 in
  let record ~layer name f = Span.record sp ~layer name f in
  let op machine kind ?verdict ?(states = 0.0) ?(iterations = 0) ?(min_calls = 0)
      ?other latency =
    { machine; kind; latency; verdict; states; iterations; min_calls; other }
  in
  let check kind m a b =
    let man = Bdd.create () in
    let v, dt =
      Measure.timed (fun () -> record ~layer:"fsm" "equiv" (fun () -> Fsm.Equiv.check man a b))
    in
    stats := (1, Bdd.snapshot man) :: !stats;
    let st =
      match v with
      | Fsm.Equiv.Equivalent st | Fsm.Equiv.Not_equivalent { stats = st; _ } -> st
    in
    op m.Gen.vname kind ~verdict:(Oracle.verdict_of v) ~states:st.reached_states
      ~iterations:st.iterations ~min_calls:st.minimization_calls ~other:b dt
  in
  let reach m prod ~par =
    let store = Bdd.Shared.create () in
    let man = Bdd.Shared.attach store in
    let reachable par =
      Fsm.Reach.reachable ~strategy:Fsm.Image.Clustered ?par
        (Fsm.Symbolic.of_netlist man prod)
    in
    let (_, st), dt =
      Measure.timed (fun () ->
          if par then
            record ~layer:"exec" "reach_par" (fun () ->
                Exec.Pool.with_pool ~jobs:2 (fun pool ->
                    reachable (Some (Fsm.Image.par ~pool ~store))))
          else record ~layer:"fsm" "reach_seq" (fun () -> reachable None))
    in
    (* worker views run only in the parallel run; the sequential view's
       counters are the deterministic ones *)
    if par then shared := Bdd.Shared.telemetry store :: !shared
    else stats := (1, Bdd.snapshot man) :: !stats;
    op m.Gen.vname (if par then Reach_par else Reach_seq) ~states:st.reached_states
      ~iterations:st.iterations ~min_calls:st.minimization_calls dt
  in
  let machine i (m : Gen.verify_machine) =
    sp.Span.op <- sp.Span.op + 1;
    let man = Bdd.create () in
    let (resynth, _), dt =
      Measure.timed (fun () ->
          record ~layer:"fsm" "resynth" (fun () -> Fsm.Synth.resynthesize man m.nl))
    in
    stats := (1, Bdd.snapshot man) :: !stats;
    gates := !gates + Array.length (Fsm.Netlist.gates resynth);
    let eq = check Eq m m.nl resynth in
    let neq = Option.map (check Neq m m.nl) m.mutant in
    let prod = Fsm.Equiv.product m.nl resynth in
    let par_first = (k + i) mod 2 = 0 in
    let r1 = reach m prod ~par:par_first in
    let r2 = reach m prod ~par:(not par_first) in
    [ op m.vname Resynth ~other:resynth dt; eq ] @ Option.to_list neq @ [ r1; r2 ]
  in
  let runs = List.mapi (fun i m -> Measure.segment (fun () -> machine i m)) machines in
  { ops = List.concat_map fst runs; machines_s = List.map snd runs;
    traced = sp.on; stats = !stats; shared = !shared; gates = !gates }

let wall p = Stat.sum p.machines_s

(* Verdicts against explicit-state search and simulation, once per
   machine; every pass must then repeat the first pass's answers. *)
let oracle (machines : Gen.verify_machine list) passes =
  let first = List.hd passes in
  let find p name kind =
    List.find_opt (fun o -> o.machine = name && o.kind = kind) p.ops
  in
  let per_machine (m : Gen.verify_machine) =
    let get kind = find first m.vname kind in
    let judge kind expected =
      match get kind with
      | None -> []
      | Some { verdict = Some v; other = Some b; _ } ->
        Option.to_list
          (Option.map
             (fun r -> Printf.sprintf "%s %s: %s" m.vname (kind_name kind) r)
             (Oracle.check_verdict ?expected ~symbolic:v
                ~explicit:(Oracle.explicit m.nl b)
                ~replayed:(v = Oracle.Neq && Oracle.counterexample_replays m.nl b)
                ()))
      | Some _ -> [ m.vname ^ ": missing verdict" ]
    in
    let counts =
      match get Eq, get Reach_seq, get Reach_par with
      | Some e, Some s, Some p when e.states = s.states && s.states = p.states -> []
      | _ -> [ m.vname ^ ": reached-state counts differ between eq, seq and par" ]
    in
    judge Eq (Some Oracle.Eq) @ judge Neq None @ counts
  in
  let repeat p =
    List.filter_map
      (fun o ->
         match find first o.machine o.kind with
         | Some f when f.verdict = o.verdict && f.states = o.states -> None
         | _ ->
           Some (Printf.sprintf "%s %s: differs from the first pass" o.machine
                   (kind_name o.kind)))
      p.ops
  in
  List.concat_map per_machine machines @ List.concat_map repeat passes

let run ~seed ~seconds ~trace =
  let machines, setup_s =
    Measure.setup ~release:ignore (fun () -> Gen.verify_machines ~seed)
  in
  let sp = Span.create () in
  let passes =
    Measure.passes ~seconds ~min_passes:(if trace then 2 else 1) (fun k ->
        sp.on <- trace && k mod 2 = 1;
        let p = pass sp k machines in
        sp.on <- false;
        p)
  in
  let peak_rss_mb = Proc.peak_rss_mb () in
  let failures = oracle machines passes in
  let all_ops = List.concat_map (fun p -> p.ops) passes in
  let notes =
    Printf.sprintf "verify: %d machines, %d passes of %d operations"
      (List.length machines) (List.length passes)
      (List.length (List.hd passes).ops)
    :: List.filteri (fun i _ -> i < 20) failures
  in
  let metrics, more =
    if not trace then
      let body_s, latencies_s =
        Measure.best_of_passes
          (List.map
             (fun p -> (p.machines_s, List.map (fun o -> o.latency) p.ops))
             passes)
      in
      let m, note =
        Measure.end_to_end ~setup_s
          ~ops_per_s:(float_of_int (List.length (List.hd passes).ops) /. body_s)
          ~groups:[ latencies_s ] ~peak_rss_mb
      in
      (m, [ note ])
    else begin
      let traced = List.filter (fun p -> p.traced) passes in
      let plain = List.filter (fun p -> not p.traced) passes in
      let med ps = Stat.median (List.map wall ps) in
      let t1 = List.hd traced in
      let wall_s = Stat.sum (List.map wall traced) in
      let time kind =
        Stat.sum
          (List.filter_map (fun o -> if o.kind = kind then Some o.latency else None) all_ops)
      in
      let tel f = float_of_int (List.fold_left (fun a t -> a + f t) 0 t1.shared) in
      let sum1 f = float_of_int (List.fold_left (fun a o -> a + f o) 0 t1.ops) in
      Proc.ensure_out_dir ();
      Span.write_chrome
        (Printf.sprintf "%s/trace-verify-%d.json" Proc.out_dir seed)
        sp.spans;
      Measure.per_layer ~spans:sp.spans ~wall_s
        ~overhead_pct:(100.0 *. (med traced -. med plain) /. med plain)
        (Measure.engine_counts t1.stats
         @ [ ("bdd.shared.intern_retries", tel (fun t -> t.Bdd.Shared.intern_retries));
             ("bdd.shared.barrier_waits", tel (fun t -> t.Bdd.Shared.barrier_waits));
             ( "bdd.shared.barrier_wait_pct",
               100.0 *. tel (fun t -> t.Bdd.Shared.barrier_wait_ns) /. 1e9
               /. wall t1 );
             ("exec.par_efficiency", time Reach_seq /. (2.0 *. time Reach_par));
             ("minimize.calls", sum1 (fun o -> o.min_calls));
             ("minimize.cover_nodes", float_of_int t1.gates);
             ("fsm.iterations", sum1 (fun o -> o.iterations)) ])
    end
  in
  { Report.attempted = List.length all_ops; failed = List.length failures;
    metrics; notes = notes @ more }
