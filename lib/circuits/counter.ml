module N = Fsm.Netlist

let make ~width () =
  if width <= 0 then invalid_arg "Counter.make: width must be positive";
  let b = N.create (Printf.sprintf "counter%d" width) in
  let en = N.input b "en" in
  let q, set_q = N.word_latch b ~name:"q" ~width ~init:0 () in
  let incremented, carry = N.word_inc b q in
  set_q (N.word_mux b ~sel:en ~t1:incremented ~e0:q);
  N.output b "carry" (N.and_gate b en carry);
  Array.iteri (fun i qi -> N.output b (Printf.sprintf "q%d" i) qi) q;
  N.finalize b

let modulo ~width ~modulus =
  if modulus <= 1 || modulus > 1 lsl width then
    invalid_arg "Counter.modulo: bad modulus";
  let b = N.create (Printf.sprintf "mod%d_counter%d" modulus width) in
  let en = N.input b "en" in
  let q, set_q = N.word_latch b ~name:"q" ~width ~init:0 () in
  let incremented, _ = N.word_inc b q in
  let at_top = N.word_eq b q (N.word_const b ~width (modulus - 1)) in
  let zero = N.word_const b ~width 0 in
  let next = N.word_mux b ~sel:at_top ~t1:zero ~e0:incremented in
  set_q (N.word_mux b ~sel:en ~t1:next ~e0:q);
  N.output b "wrap" (N.and_gate b en at_top);
  Array.iteri (fun i qi -> N.output b (Printf.sprintf "q%d" i) qi) q;
  N.finalize b
