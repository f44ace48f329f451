(** Aggregation of captured calls into the paper's summary statistics. *)

type bucket =
  | All
  | Low  (** [c_onset_size < 5 %] *)
  | Mid  (** 5–95 % (empty in the paper's runs) *)
  | High  (** [> 95 %] *)

val bucket_name : bucket -> string
val buckets : bucket list
val in_bucket : bucket -> Capture.call -> bool

type row = {
  name : string;
  total_size : int;
  (** sum over the calls the minimizer completed — calls it DNF'd on
      contribute nothing, so compare totals only between rows with equal
      [dnf] counts *)
  pct_of_min : float;  (** 100·total/min-total, the paper's "% of min" *)
  runtime : float;  (** cumulative seconds *)
  rank : int;  (** competition ranking by total size (1 = best) *)
  dnf : int;  (** calls in the bucket the minimizer did not finish *)
}

type table = {
  bucket : bucket;
  ncalls : int;
  min_total : int;
  low_bd_total : int;
  rows : row list;  (** sorted by total size *)
}

val aggregate : names:string list -> bucket -> Capture.call list -> table

val size_of : Capture.call -> string -> int
(** Result size of a minimizer on a call; ["min"] and ["low_bd"] resolve
    to the per-call best and lower bound.  @raise Invalid_argument for a
    name the call has no row for, including one it DNF'd on. *)

val size_opt : Capture.call -> string -> int option
(** Like {!size_of} but [None] when the minimizer DNF'd on the call
    (still raising on names that are not in the call at all). *)

val dnf_of : Capture.call -> string -> bool
(** Whether the named minimizer exhausted its budget on this call. *)

val head_to_head : names:string list -> Capture.call list -> float array array
(** Entry [(i, j)]: percentage of calls where minimizer [i]'s result is
    strictly smaller than [j]'s (the paper's Table 4). *)

val within_curve :
  name:string -> percents:int list -> Capture.call list -> (int * float) list
(** Figure 3 series: for each [x], the percentage of calls on which the
    minimizer's size is within [x] % of the call's [min]. *)

val achieving_lower_bound : name:string -> Capture.call list -> float
(** Percentage of calls where the minimizer meets the cube lower bound. *)
