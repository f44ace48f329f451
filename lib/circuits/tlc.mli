(** Traffic-light controller — the analogue of the paper's [tlc]
    benchmark (the classic Mead–Conway highway/farm-road controller):
    a small control FSM plus a timer, sensor-driven. *)

val make : unit -> Fsm.Netlist.t
(** Inputs: [car] (farm-road car sensor).  Outputs: [hl_green], [hl_yellow],
    [hl_red], [fl_green], [fl_yellow], [fl_red].  The long timeout is a
    3-bit counter. *)
