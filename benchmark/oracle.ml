(* Output checks that do not trust the code under test's own verdicts.
   Each returns [None] when the output is right and [Some reason]
   otherwise.  They run outside the measured body. *)

(* ----- capture ----- *)

(* The Theorem 7 lower bound holds for every cover, so no minimizer may
   report a smaller result. *)
let capture_call (c : Harness.Capture.call) =
  if c.dnf <> [] then Some (c.bench ^ ": a minimizer did not finish")
  else
    match List.find_opt (fun (_, s) -> s < c.low_bd) c.sizes with
    | Some (n, s) ->
      Some
        (Printf.sprintf "%s: %s size %d below the lower bound %d" c.bench n s
           c.low_bd)
    | None -> None

(* Two captures of one call agree on everything but wall-clock times. *)
let same_call (a : Harness.Capture.call) (b : Harness.Capture.call) =
  { a with times = [] } = { b with times = [] }

let cover man spec g =
  if Minimize.Ispec.is_cover man spec g then None
  else Some "result is not a cover of its instance"

(* ----- verify ----- *)

type verdict = Eq | Neq

let verdict_name = function Eq -> "EQ" | Neq -> "NEQ"

let verdict_of = function
  | Fsm.Equiv.Equivalent _ -> Eq
  | Fsm.Equiv.Not_equivalent _ -> Neq

(* Explicit-state product search, independent of the BDD engine; [None]
   when the machines are too large for it: more than [max_inputs]
   primary inputs (every state tries every input vector — cbp.6.2's 13
   inputs take 90 s) or more than [max_states] reachable states. *)
let explicit ?(max_inputs = 8) ?(max_states = 1 lsl 16) a b =
  if List.length (Fsm.Netlist.inputs a) > max_inputs then None
  else
    match Fsm.Explicit.equivalent ~max_states a b with
    | Ok true -> Some Eq
    | Ok false | Error _ -> Some Neq
    | exception Failure _ -> None

(* A symbolic verdict against the explicit one (when there is one), and
   a NEQ against a counterexample replayed by simulation. *)
let check_verdict ?expected ~symbolic ~explicit ~replayed () =
  match expected, explicit with
  | Some e, _ when e <> symbolic ->
    Some
      (Printf.sprintf "verdict %s, expected %s" (verdict_name symbolic)
         (verdict_name e))
  | _, Some x when x <> symbolic ->
    Some
      (Printf.sprintf "symbolic %s disagrees with explicit %s"
         (verdict_name symbolic) (verdict_name x))
  | _ ->
    if symbolic = Neq && not replayed then
      Some "no replayable counterexample for a NEQ verdict"
    else None

(* The counterexample trace for a pair of machines, confirmed by
   replaying it in the netlist simulator. *)
let counterexample_replays a b =
  match Fsm.Equiv.counterexample_trace (Bdd.create ()) a b with
  | None -> false
  | Some inputs -> Option.is_some (Fsm.Simcheck.replay a b inputs)

(* ----- serve ----- *)

let load_spec man text =
  match Bdd.Store.load man text with
  | Error e -> Error ("payload does not load: " ^ e)
  | Ok roots -> (
      match List.assoc_opt "f" roots with
      | None -> Error "payload has no f"
      | Some f ->
        let c = Option.value ~default:(Bdd.one man) (List.assoc_opt "c" roots) in
        Ok (Minimize.Ispec.make ~f ~c))

(* A minimize reply: status ok, the reported size equal to the offline
   size, and the returned cover loading into the manager holding the
   payload's instance [spec] as a cover of it. *)
let serve_reply man spec ~expected_size (r : Serve.Protocol.reply) =
  let open Serve in
  if r.status <> "ok" then
    Some
      (Printf.sprintf "status %s%s" r.status
         (match r.message with Some m -> ": " ^ m | None -> ""))
  else
    match Json.int_field "size" r.result, Json.string_field "cover" r.result with
    | None, _ | _, None -> Some "reply has no size or cover"
    | Some size, _ when size <> expected_size ->
      Some (Printf.sprintf "size %d, offline %d" size expected_size)
    | Some _, Some cover_text -> (
        match Bdd.Store.load man cover_text with
        | Ok [ (_, g) ] -> cover man spec g
        | Ok _ -> Some "cover document must hold one root"
        | Error e -> Some ("cover does not load: " ^ e))
