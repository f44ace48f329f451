(* What a run hands back, and how it is printed: a human-readable block,
   then, as the last line of standard output, the JSON result. *)

type t = {
  attempted : int;
  failed : int;  (** operations an oracle rejected or that errored *)
  metrics : (string * float) list;
  notes : string list;  (** printed before the metrics *)
}

(* The metric names of the mode, in spec order, or the difference. *)
let check_names ~trace metrics =
  let want = List.map (fun (m : Spec.metric) -> m.name) (Spec.metrics ~trace) in
  let have = List.map fst metrics in
  let missing = List.filter (fun n -> not (List.mem n have)) want in
  let extra = List.filter (fun n -> not (List.mem n want)) have in
  if missing = [] && extra = [] && List.length have = List.length want then Ok ()
  else
    Error
      (Printf.sprintf "metrics differ from the spec: missing [%s], extra [%s]"
         (String.concat " " missing) (String.concat " " extra))

let json ~trace r =
  let open Serve.Json in
  Obj
    [ ("correct", Bool (r.failed = 0));
      ("attempted", int r.attempted);
      ("failed", int r.failed);
      ( "metrics",
        Obj
          (List.map
             (fun (m : Spec.metric) ->
                ( m.name,
                  Obj
                    [ ("value", Num (List.assoc m.name r.metrics));
                      ("unit", Str m.unit_) ] ))
             (Spec.metrics ~trace)) ) ]

let print ~trace r =
  (match check_names ~trace r.metrics with
   | Ok () -> ()
   | Error e -> failwith e);
  List.iter print_endline r.notes;
  List.iter
    (fun (m : Spec.metric) ->
       Printf.printf "%-32s %14.6g %s\n" m.name (List.assoc m.name r.metrics)
         m.unit_)
    (Spec.metrics ~trace);
  print_endline (Serve.Json.print (json ~trace r))
