type kind =
  | Sibling_matching of Sibling.heuristic
  | Level_matching
  | Reference
  | Scheduled
  | Two_level

type entry = {
  name : string;
  kind : kind;
  run : Ctx.t -> Ispec.t -> Bdd.t;
}

let sibling_entry h =
  let run =
    match h with
    | Sibling.Restrict ->
      (* The generic sibling matcher with the [restr] configuration
         computes exactly [Bdd.restrict] (the qcheck differential
         [generic_equals_classical] pins this), but never touches the
         engine's restrict kernel — so the bench timed the slow generic
         path and [restrict_recursions] stayed 0.  Dispatch to the
         kernel; the generic matcher remains available through
         [Sibling.run_heuristic]. *)
      fun (ctx : Ctx.t) (s : Ispec.t) ->
        Bdd.restrict ctx.Ctx.man s.Ispec.f s.Ispec.c
    | _ -> fun (ctx : Ctx.t) s -> Sibling.run_heuristic ctx.Ctx.man h s
  in
  { name = Sibling.heuristic_name h; kind = Sibling_matching h; run }

let paper =
  List.map sibling_entry Sibling.all_heuristics
  @ [
      {
        name = "opt_lv";
        kind = Level_matching;
        run =
          (fun (ctx : Ctx.t) s ->
             (* §3.3.1 set-limit method, at the largest set size the paper
                reports encountering; bounds the quadratic matching work on
                instances far larger than the paper's. *)
             let params =
               { Level.default_params with Level.set_limit = Some 512 }
             in
             Level.opt_lv ctx.Ctx.man ~params s);
      };
      { name = "f_orig"; kind = Reference; run = (fun _ s -> s.Ispec.f) };
      {
        name = "f_and_c";
        kind = Reference;
        run = (fun (ctx : Ctx.t) s -> Ispec.onset ctx.Ctx.man s);
      };
      {
        name = "f_or_nc";
        kind = Reference;
        run =
          (fun (ctx : Ctx.t) s ->
             Bdd.dor ctx.Ctx.man s.Ispec.f (Bdd.compl s.Ispec.c));
      };
    ]

let all =
  paper
  @ [
      {
        name = "sched";
        kind = Scheduled;
        run = (fun (ctx : Ctx.t) s -> Schedule.run ctx.Ctx.man s);
      };
    ]

let extended =
  all
  @ [
      {
        name = "isop";
        kind = Two_level;
        run = (fun (ctx : Ctx.t) s -> Isop.cover_only ctx.Ctx.man s);
      };
    ]

let proper = List.filter (fun e -> e.kind <> Reference) all

let find name = List.find_opt (fun e -> e.name = name) extended
let names entries = List.map (fun e -> e.name) entries

(* Run one entry under its context: the context's budget is installed on
   the manager for the duration. *)
let run e (ctx : Ctx.t) s = Ctx.protect ctx (fun () -> e.run ctx s)

let best ctx entries s =
  if entries = [] then invalid_arg "Registry.best: no entries";
  let man = Ctx.man ctx in
  (* [Error] accumulates the first exhaustion reason so that when every
     entry dies the caller still learns why. *)
  let step acc e =
    match run e ctx s with
    | g ->
      let sz = Bdd.size man g in
      (match acc with
       | Ok (_, _, best_sz) when best_sz <= sz -> acc
       | _ -> Ok (e.name, g, sz))
    | exception Bdd.Budget_exhausted r ->
      (match acc with Error None -> Error (Some r) | _ -> acc)
  in
  match List.fold_left step (Error None) entries with
  | Ok (n, g, _) -> (n, g)
  | Error (Some r) -> raise (Bdd.Budget_exhausted r)
  | Error None -> assert false
