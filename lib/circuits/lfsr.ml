module N = Fsm.Netlist

(* Maximal-length polynomial taps (bit positions of the shift register
   whose XOR feeds the input end), from standard tables. *)
let default_taps = function
  | 2 -> [ 0; 1 ]
  | 3 -> [ 1; 2 ]
  | 4 -> [ 2; 3 ]
  | 5 -> [ 2; 4 ]
  | 6 -> [ 4; 5 ]
  | 7 -> [ 5; 6 ]
  | 8 -> [ 3; 4; 5; 7 ]
  | 9 -> [ 4; 8 ]
  | 10 -> [ 6; 9 ]
  | 11 -> [ 8; 10 ]
  | 12 -> [ 0; 3; 5; 11 ]
  | 13 -> [ 0; 2; 3; 12 ]
  | 14 -> [ 0; 2; 4; 13 ]
  | 15 -> [ 13; 14 ]
  | 16 -> [ 3; 12; 14; 15 ]
  | w -> [ 0; w - 1 ]

let make ~width () =
  if width < 2 then invalid_arg "Lfsr.make: width must be at least 2";
  let taps = default_taps width in
  let b = N.create (Printf.sprintf "lfsr%d" width) in
  let q, set_q = N.word_latch b ~name:"q" ~width ~init:1 () in
  let feedback =
    match List.map (fun t -> q.(t)) taps with
    | [] -> N.const_signal b false
    | t :: rest -> List.fold_left (N.xor_gate b) t rest
  in
  let shifted =
    Array.init width (fun i -> if i = 0 then feedback else q.(i - 1))
  in
  set_q shifted;
  Array.iteri (fun i qi -> N.output b (Printf.sprintf "q%d" i) qi) q;
  N.finalize b
