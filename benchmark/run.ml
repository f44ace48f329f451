(* The benchmark runner: one workload, one seed, one result line.

     run.exe --workload W --seed N --seconds S --trace 0|1 [--bddmin PATH]

   [--bddmin] names the CLI executable the serve workloads start as their
   daemon; benchmark/run.sh builds it and passes it. *)

open Benchkit

let usage = "run.exe --workload W --seed N --seconds S --trace 0|1 [--bddmin PATH]"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 and bddmin = ref "" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, " " ^ String.concat ", " Spec.workloads);
      ("--seed", Arg.Set_int seed, " the seed every input is generated from");
      ("--seconds", Arg.Set_float seconds, " how long to measure");
      ("--trace", Arg.Set_int trace, " 1 for the traced, per-layer run");
      ("--bddmin", Arg.Set_string bddmin, " the bddmin executable (serve workloads)") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline usage;
    exit 2
  end;
  let trace = !trace = 1 and seed = !seed and seconds = !seconds in
  let serve workload = Wl_serve.run ~bddmin:!bddmin ~workload ~seed ~seconds ~trace in
  let result =
    match !workload with
    | "capture" -> Wl_capture.run ~seed ~seconds ~trace
    | "verify" -> Wl_verify.run ~seed ~seconds ~trace
    | "serve-cold" -> serve `Cold
    | "serve-hot" -> serve `Hot
    | w ->
      prerr_endline ("unknown workload " ^ w ^ "\n" ^ usage);
      exit 2
  in
  Report.print ~trace result
