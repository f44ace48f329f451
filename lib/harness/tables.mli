(** Text renderers for the paper's tables and figure.

    Each [render_*] returns the reproduction of one exhibit; CSV exports
    are provided for external plotting. *)

val render_table1 : unit -> string
(** Table 1: properties of the matching criteria (statically known,
    verified by the property-test suite). *)

val render_table2 : unit -> string
(** Table 2: the twelve sibling-heuristic parameter combinations and
    which rows coincide. *)

val render_table3 : names:string list -> Capture.call list -> string
(** Table 3: cumulative sizes, % of min, runtimes and ranks, for every
    [c_onset_size] bucket that is populated.  Rows for minimizers that
    DNF'd on some calls carry a trailing [DNF:n] marker (their totals
    then cover fewer calls). *)

val render_table4 : ?names:string list -> Capture.call list -> string
(** Table 4: head-to-head comparison over the paper's representative
    subset (default [f_orig const restr osm_bt tsm_td opt_lv min]). *)

val render_figure3 : ?names:string list -> Capture.call list -> string
(** Figure 3: robustness curves as an ASCII plot plus the underlying
    series (default heuristics as in the paper: [f_orig const restr
    tsm_td opt_lv]). *)

val render_per_bench :
  ?dnf:(string * string) list -> Capture.call list -> string
(** A per-machine summary (not in the paper, which aggregates): calls,
    bucket split, unminimized vs. best total, reduction factor.  [dnf]
    (a suite's driver-exhaustion rows, default none) appends a
    [DNF(reason)] line per exhausted machine, as in the paper's
    resource-limited tables. *)

val render_lower_bound_summary : names:string list -> Capture.call list -> string
(** The §4.2 lower-bound observations: min vs. bound ratio, and the
    percentage of calls where each heuristic meets the bound. *)

val calls_to_csv : names:string list -> Capture.call list -> string
(** One row per call: bench, iteration, [f] size, [c_onset], lower bound,
    each minimizer's size ([DNF] for a budget-exhausted run), and the
    mean computed-cache hit rate observed across the minimizers on that
    call. *)

val curve_to_csv : names:string list -> Capture.call list -> string
(** Figure 3 series as CSV (percent, one column per heuristic). *)
