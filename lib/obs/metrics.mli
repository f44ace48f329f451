(** A typed, labeled metrics registry with Prometheus text exposition.

    The process's one registry: the serve daemon's request metrics and
    the minimizers' and FSM traversal's counts (matching-graph sizes,
    clique covers, reachability iterations) live side by side.  Metric
    families are {e registered once} with a name, help text and a fixed
    set of label names, and updated through typed handles — a counter
    cannot be set backwards, a gauge can, a histogram only observes.
    Families are process-global and scrape-ready: {!expose} renders the
    whole registry in Prometheus text exposition format (v0.0.4; the
    daemon's [/metrics] listener and [bddmin profile] print it), and
    {!snapshot} hands the same data to programmatic consumers (the serve
    daemon's [metrics] wire op, [serve-ctl watch]).

    {b Domain-safety contract.}  Registration (creating a family or
    resolving a label set to a handle) takes a process-wide mutex —
    do it once, at module init, not per request.
    {e Updates} on a resolved handle are lock-free ([Atomic] increments;
    one fetch-and-add per counter bump, two per histogram observation),
    so many domains can bump the same handle concurrently without
    contention beyond cache-line traffic.  Snapshots read the same
    atomics; a scrape concurrent with updates sees each series at some
    recent value (histogram bucket counts may be momentarily ahead of
    the sum — buckets are updated first — but every value is monotone
    and no tearing beyond that is possible).

    Histogram buckets are log2: bucket 0 holds observations [<= 1],
    bucket [i >= 1] holds [[2{^i}, 2{^i+1})].
    Exposed upper bounds are therefore 1, 3, 7, …, [2{^i+1}-1], +Inf.

    Metric names must match [[a-zA-Z_:][a-zA-Z0-9_:]*] and label names
    [[a-zA-Z_][a-zA-Z0-9_]*]; violations raise [Invalid_argument], as
    does re-registering a name with a different kind, help text or label
    set (the same registration is idempotent and returns the original
    family). *)

type kind = Counter | Gauge | Histogram

(** {1 Families and handles} *)

type 'a family
(** A registered metric family; ['a] is the handle type its label sets
    resolve to. *)

type counter
type gauge
type histogram

val counter :
  ?help:string -> ?labels:string list -> string -> counter family

val gauge : ?help:string -> ?labels:string list -> string -> gauge family

val histogram :
  ?help:string -> ?labels:string list -> string -> histogram family

val labels : 'a family -> string list -> 'a
(** Resolve one label-value vector to its series handle (creating the
    series on first use; cached thereafter).  The vector length must
    match the family's label names.  Takes the registry mutex — resolve
    once and keep the handle on hot paths.
    @raise Invalid_argument on arity mismatch. *)

val handle : 'a family -> 'a
(** [labels fam []] for label-less families. *)

(** {1 Updates (lock-free)} *)

val inc : counter -> unit
val add : counter -> int -> unit
(** Bump a counter (by 1 / by [n >= 0]; negative [n] raises). *)

val counter_value : counter -> int

val set : gauge -> int -> unit
val gauge_add : gauge -> int -> unit
(** Set / adjust a gauge ([gauge_add] accepts negative deltas). *)

val gauge_value : gauge -> int

val observe : histogram -> int -> unit
(** Record one observation (negative values clamp to bucket 0). *)

(** {1 Scraping} *)

type value =
  | Counter_v of int
  | Gauge_v of int
  | Histogram_v of { buckets : int array; sum : int; count : int }
      (** [buckets] are per-bucket (not cumulative) log2 counts. *)

type series = { labels : (string * string) list; value : value }

type family_snapshot = {
  name : string;
  help : string;
  kind : kind;
  series : series list;  (** in label-resolution order *)
}

val snapshot : unit -> family_snapshot list
(** Every registered family, sorted by name. *)

val expose : unit -> string
(** The registry in Prometheus text exposition format: one [# HELP] and
    [# TYPE] comment per family, cumulative [_bucket{le="…"}] /
    [_sum] / [_count] series per histogram. *)

val reset : unit -> unit
(** Zero every series of every family (tests).  Families and series
    stay registered, so a handle resolved at module init keeps updating
    a series that is still scraped. *)
