(** Experiment harness: capture EBM instances from the FSM-equivalence
    application ({!Capture}), aggregate ({!Stats}), render the paper's
    exhibits ({!Tables}) and emit the machine-readable benchmark record
    ({!Bench_json}). *)

module Capture = Capture
module Stats = Stats
module Tables = Tables
module Bench_json = Bench_json
