module N = Fsm.Netlist

(* States: 00 highway green, 01 highway yellow, 10 farm green,
   11 farm yellow.  The timer restarts on every state change; yellow
   phases last 4 ticks (the timer's two low bits), green phases
   [2^timer_bits] ticks or until the sensor demands a switch. *)
let timer_bits = 3

let make () =
  let b = N.create "tlc" in
  let car = N.input b "car" in
  let s1, set_s1 = N.latch b ~name:"s1" ~init:false () in
  let s0, set_s0 = N.latch b ~name:"s0" ~init:false () in
  let timer, set_timer = N.word_latch b ~name:"t" ~width:timer_bits ~init:0 () in
  let t_inc, _ = N.word_inc b timer in
  let timer_max =
    N.word_eq b timer (N.word_const b ~width:timer_bits ((1 lsl timer_bits) - 1))
  in
  let short_max =
    N.word_eq b (Array.sub timer 0 2) (N.word_const b ~width:2 3)
  in
  let in_hg = N.and_gate b (N.not_gate b s1) (N.not_gate b s0) in
  let in_hy = N.and_gate b (N.not_gate b s1) s0 in
  let in_fg = N.and_gate b s1 (N.not_gate b s0) in
  let in_fy = N.and_gate b s1 s0 in
  (* Transitions. *)
  let hg_done = N.and_gate b in_hg (N.and_gate b car timer_max) in
  let hy_done = N.and_gate b in_hy short_max in
  let fg_done =
    N.and_gate b in_fg (N.or_gate b timer_max (N.not_gate b car))
  in
  let fy_done = N.and_gate b in_fy short_max in
  let advance = N.or_list b [ hg_done; hy_done; fg_done; fy_done ] in
  (* Next state encodes the 2-bit cycle HG -> HY -> FG -> FY -> HG. *)
  let next_s1 = N.xor_gate b s1 (N.and_gate b advance s0) in
  let next_s0 = N.xor_gate b s0 advance in
  set_s1 next_s1;
  set_s0 next_s0;
  let zero = N.word_const b ~width:timer_bits 0 in
  set_timer (N.word_mux b ~sel:advance ~t1:zero ~e0:t_inc);
  N.output b "hl_green" in_hg;
  N.output b "hl_yellow" in_hy;
  N.output b "hl_red" (N.or_gate b in_fg in_fy);
  N.output b "fl_green" in_fg;
  N.output b "fl_yellow" in_fy;
  N.output b "fl_red" (N.or_gate b in_hg in_hy);
  N.finalize b
