(* Two-level synthesis with don't cares: ISOP covers.

   The same BCD 7-segment decoder as examples/fpga_mapping.ml, but mapped
   to a PLA: per-segment irredundant sum-of-products covers computed from
   the interval [onset, onset + dc] (Minato-Morreale), pooled to count the
   cubes the segments share, and printed PLA-style. *)

let segments =
  [
    ('a', [ 0; 2; 3; 5; 6; 7; 8; 9 ]);
    ('b', [ 0; 1; 2; 3; 4; 7; 8; 9 ]);
    ('c', [ 0; 1; 3; 4; 5; 6; 7; 8; 9 ]);
    ('d', [ 0; 2; 3; 5; 6; 8; 9 ]);
    ('e', [ 0; 2; 6; 8 ]);
    ('f', [ 0; 4; 5; 6; 8; 9 ]);
    ('g', [ 2; 3; 4; 5; 6; 8; 9 ]);
  ]

let pla_row nvars cube =
  String.init nvars (fun v ->
      match List.assoc_opt v cube with
      | Some true -> '1'
      | Some false -> '0'
      | None -> '-')

let () =
  Obs.Logging.setup ();
  let man = Bdd.create () in
  let care =
    Logic.Truth_table.to_bdd man (Logic.Truth_table.create 4 (fun m -> m < 10))
  in
  Format.printf "PLA covers for the BCD 7-segment decoder (inputs x0..x3):@.@.";
  let pooled = ref [] in
  let total_cubes = ref 0 in
  let total_literals = ref 0 in
  List.iter
    (fun (seg, on_digits) ->
       let f =
         Logic.Truth_table.to_bdd man
           (Logic.Truth_table.create 4 (fun m -> List.mem m on_digits))
       in
       let inst = Minimize.Ispec.make ~f ~c:care in
       let cover = Minimize.Isop.compute man inst in
       assert (Minimize.Ispec.is_cover man inst cover.Minimize.Isop.cover);
       assert (
         Minimize.Isop.is_irredundant man
           ~lower:(Minimize.Ispec.onset man inst)
           cover);
       total_cubes := !total_cubes + List.length cover.Minimize.Isop.cubes;
       total_literals := !total_literals + Minimize.Isop.literal_count cover;
       pooled := cover.Minimize.Isop.cubes @ !pooled;
       Format.printf "segment %c (%d cubes, %d literals):@." seg
         (List.length cover.Minimize.Isop.cubes)
         (Minimize.Isop.literal_count cover);
       List.iter
         (fun cube -> Format.printf "  %s 1@." (pla_row 4 cube))
         cover.Minimize.Isop.cubes)
    segments;
  let distinct =
    List.sort_uniq compare (List.map (List.sort compare) !pooled)
  in
  Format.printf "@.totals: %d cube instances, %d literals; %d distinct cubes@."
    !total_cubes !total_literals (List.length distinct)
