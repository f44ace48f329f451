(** Observability: monotonic timing ({!Clock}), span tracing with
    pluggable sinks ({!Trace}), the one process-global metrics registry
    of counters, gauges and histograms with Prometheus exposition
    ({!Metrics}), a lock-striped flight recorder ({!Flight}),
    self/total-time profiles ({!Report}) and [Logs] wiring
    ({!Logging}).

    The package is dependency-light (no BDD knowledge) so every layer —
    engine, minimizers, FSM traversal, harness, CLI, benches — can emit
    into the same trace. *)

module Clock = Clock
module Trace = Trace
module Metrics = Metrics
module Flight = Flight
module Report = Report
module Logging = Logging
