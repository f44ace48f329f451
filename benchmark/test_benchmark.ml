(* The benchmark's own checks: its oracles catch wrong results, its
   generators follow the seed, its tail percentile is the one it names,
   and BENCHMARK.json describes what the runner prints. *)

open Benchkit

let check = Alcotest.(check bool)
let rejects what r = check (what ^ " is rejected") true (Option.is_some r)
let accepts what r = Alcotest.(check (option string)) (what ^ " is accepted") None r

(* [f; c] = [x0 x1; x0]: onset x0 x1, upper bound x1 + !x0. *)
let instance () =
  let man = Bdd.create () in
  let x0 = Bdd.ithvar man 0 and x1 = Bdd.ithvar man 1 in
  (man, Minimize.Ispec.make ~f:(Bdd.dand man x0 x1) ~c:x0)

let capture_oracle () =
  let call sizes low_bd =
    { Harness.Capture.bench = "m"; iteration = 0; origin = Frontier; f_size = 3;
      f_chain_size = 3; c_onset_fraction = 0.5; sizes; chain_sizes = sizes;
      times = List.map (fun (n, _) -> (n, 0.0)) sizes; hit_rates = [];
      dnf = []; min_size = 1; min_name = "a"; low_bd }
  in
  accepts "sizes at the bound" (Oracle.capture_call (call [ ("a", 2); ("b", 3) ] 2));
  rejects "a size below the bound"
    (Oracle.capture_call (call [ ("a", 1); ("b", 3) ] 2));
  let man, spec = instance () in
  accepts "a cover" (Oracle.cover man spec (Bdd.ithvar man 1));
  rejects "a non-cover" (Oracle.cover man spec (Bdd.zero man));
  let a = call [ ("a", 2) ] 2 in
  check "rows equal up to times" true
    (Oracle.same_call a { a with times = [ ("a", 9.0) ] });
  check "rows differ in a size" false
    (Oracle.same_call a { a with sizes = [ ("a", 3) ] })

let verify_oracle () =
  let nl = Gen.registry "tlc" in
  let mutants = Circuits.Mutate.all_single_mutations nl in
  let neq =
    List.find
      (fun (m, _) -> Oracle.explicit nl m = Some Oracle.Neq)
      mutants
    |> fst
  in
  let symbolic = Oracle.verdict_of (Fsm.Equiv.check (Bdd.create ()) nl neq) in
  let replayed = Oracle.counterexample_replays nl neq in
  accepts "a true NEQ"
    (Oracle.check_verdict ~symbolic ~explicit:(Oracle.explicit nl neq) ~replayed ());
  rejects "a flipped verdict"
    (Oracle.check_verdict ~symbolic:Oracle.Eq ~explicit:(Some Oracle.Neq)
       ~replayed:false ());
  rejects "NEQ where EQ is required"
    (Oracle.check_verdict ~expected:Oracle.Eq ~symbolic ~explicit:None ~replayed ());
  rejects "NEQ without a counterexample"
    (Oracle.check_verdict ~symbolic:Oracle.Neq ~explicit:None ~replayed:false ())

let serve_oracle () =
  let man, spec = instance () in
  let payload = Bdd.Store.save man [ ("f", spec.f); ("c", spec.c) ] in
  let size =
    let entry = Option.get (Minimize.Registry.find "osm_bt") in
    Bdd.Metric.plain_equivalent man
      (Minimize.Registry.run entry (Minimize.Ctx.of_man man) spec)
  in
  let reply ?(status = "ok") size cover =
    { Serve.Protocol.reply_id = 1; status; reason = None; message = None;
      retry_after_ms = None; telemetry = Serve.Json.Null;
      result =
        Serve.Json.(
          Obj [ ("size", int size); ("cover", Str (Bdd.Store.save man [ ("g", cover) ])) ]) }
  in
  let g = Bdd.ithvar man 1 in
  let check ~expected_size r =
    let man = Bdd.create () in
    let spec = Result.get_ok (Oracle.load_spec man payload) in
    Oracle.serve_reply man spec ~expected_size r
  in
  accepts "the offline answer" (check ~expected_size:size (reply size g));
  rejects "a wrong size" (check ~expected_size:size (reply (size + 1) g));
  rejects "a non-cover" (check ~expected_size:1 (reply 1 (Bdd.zero man)));
  rejects "an error reply" (check ~expected_size:size (reply ~status:"error" size g))

let generators () =
  let blifs ms = List.map (fun (_, nl) -> Fsm.Blif.print nl) ms in
  check "capture machines follow the seed" true
    (blifs (Gen.capture_machines ~seed:1) = blifs (Gen.capture_machines ~seed:1));
  check "capture machines differ between seeds" true
    (blifs (Gen.capture_machines ~seed:1) <> blifs (Gen.capture_machines ~seed:2));
  let mutants s =
    List.map
      (fun (m : Gen.verify_machine) -> Option.map Fsm.Blif.print m.mutant)
      (Gen.verify_machines ~seed:s)
  in
  check "mutants follow the seed" true (mutants 1 = mutants 1);
  check "mutants differ between seeds" true (mutants 1 <> mutants 2);
  let cold s = List.init 4 (Gen.cold_request (Gen.cold_inputs ~bases:4 ~seed:s ())) in
  check "cold payloads follow the seed" true (cold 1 = cold 1);
  check "cold payloads differ between seeds" true (cold 1 <> cold 2);
  let c = Gen.cold_inputs ~bases:4 ~seed:1 () in
  check "cold payloads are distinct" true
    (List.length (List.sort_uniq compare (List.init 16 (Gen.cold_request c))) = 16);
  let merged = Gen.cold_request c 0 in
  check "a merged payload loads" true
    (Result.is_ok (Oracle.load_spec (Bdd.create ()) merged));
  let hot s = Gen.hot_instances ~count:8 ~seed:s () in
  check "hot instances follow the seed" true (hot 1 = hot 1);
  check "hot instances differ between seeds" true (hot 1 <> hot 2);
  let draws s = let st = Gen.stream s 6 in List.init 50 (fun _ -> Gen.zipf 64 st) in
  check "zipf draws follow the seed" true (draws 1 = draws 1);
  check "zipf favours rank 0" true
    (let d = draws 3 in
     List.length (List.filter (( = ) 0) d) > List.length (List.filter (( = ) 63) d))

let tail_rule () =
  List.iter
    (fun n ->
       let xs = List.init n (fun i -> float_of_int ((i * 7919) mod n)) in
       let v, pct = Stat.tail xs in
       let beyond = List.length (List.filter (fun x -> x > v) xs) in
       if n > 10 then begin
         Alcotest.(check int) (Printf.sprintf "10 samples beyond, n = %d" n) 10 beyond;
         Alcotest.(check (float 1e-9)) "percentile"
           (100.0 *. float_of_int (n - 10) /. float_of_int n) pct
       end
       else begin
         Alcotest.(check (float 0.0)) "the maximum stands in" (float_of_int (n - 1)) v;
         Alcotest.(check (float 0.0)) "at percentile 100" 100.0 pct
       end)
    [ 1; 10; 11; 500; 10_000 ];
  Alcotest.(check (float 0.0)) "p98 of 500" 98.0 (snd (Stat.tail (List.init 500 float_of_int)))

let benchmark_json () =
  let text = In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all in
  let j = Result.get_ok (Serve.Json.parse text) in
  let list k = Option.get (Option.bind (Serve.Json.mem k j) Serve.Json.to_list) in
  let names k = List.map (fun x -> Option.get (Serve.Json.string_field "name" x)) (list k) in
  Alcotest.(check (list string)) "workloads" Spec.workloads (names "workloads");
  let described k (spec : Spec.metric list) =
    List.map
      (fun x ->
         Serve.Json.
           ( Option.get (string_field "name" x),
             Option.get (string_field "unit" x),
             Option.get (string_field "better" x) ))
      (list k)
    = List.map (fun (m : Spec.metric) -> (m.name, m.unit_, Spec.better_label m.better)) spec
  in
  check "end_to_end metrics" true (described "end_to_end" Spec.end_to_end);
  check "per_layer metrics" true (described "per_layer" Spec.per_layer);
  List.iter
    (fun trace ->
       let ms = List.map (fun (m : Spec.metric) -> (m.name, 1.0)) (Spec.metrics ~trace) in
       check "the runner prints the spec's metrics" true
         (Report.check_names ~trace ms = Ok ());
       check "and no others" true
         (Result.is_error (Report.check_names ~trace (("extra", 1.0) :: ms))))
    [ false; true ]

let () =
  Alcotest.run "benchmark"
    [ ( "oracles",
        [ Alcotest.test_case "capture" `Quick capture_oracle;
          Alcotest.test_case "verify" `Quick verify_oracle;
          Alcotest.test_case "serve" `Quick serve_oracle ] );
      ( "inputs",
        [ Alcotest.test_case "generators follow the seed" `Quick generators;
          Alcotest.test_case "tail percentile rule" `Quick tail_rule ] );
      ("spec", [ Alcotest.test_case "BENCHMARK.json" `Quick benchmark_json ]) ]
