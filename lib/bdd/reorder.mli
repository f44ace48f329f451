(** Variable reordering.

    The paper's problem statement fixes the variable order, but choosing
    that order well is the complementary lever on BDD size, so the package
    provides it.  Nodes here are immutable and hash-consed, so reordering
    is {e rebuild-based}: functions are reconstructed in a fresh manager
    whose levels correspond to a permuted variable order, rather than by
    in-place level swaps.

    Terminology: a {e placement} maps each original variable [v] to its
    new level [placement.(v)].  The rebuilt function over the new manager
    satisfies [new_f(y_{placement.(v)} := b_v) = old_f(x_v := b_v)]. *)

val rebuild :
  Core_dd.man -> placement:int array -> Core_dd.t list ->
  Core_dd.man * Core_dd.t list
(** Rebuild the functions into a fresh manager under the placement.
    [placement] must be injective on the union support (checked).  The
    originals are untouched.  The rebuilt results are left rooted in the
    target manager (see {!Core_dd.ref_}), and intermediate results are
    rooted for the duration of the rebuild, so target-manager garbage
    collections are safe throughout. *)

val shared_size_under :
  Core_dd.man -> placement:int array -> Core_dd.t list -> int
(** Shared node count the functions would have under the placement
    (computed in a scratch manager). *)

val sift :
  ?max_rounds:int ->
  Core_dd.man ->
  Core_dd.t list ->
  int array * int
(** Greedy sifting: repeatedly take each variable (most populous level
    first) and move it to the position in the current order that
    minimizes the shared node count, until a round yields no improvement
    or [max_rounds] (default 2) rounds are done.  Candidate orders are
    memoized, and the no-op insertion (putting a variable back where it
    is) is skipped, so each distinct order costs at most one rebuild.
    Returns the best placement found (never worse than the identity) and
    its shared size.

    @raise Invalid_argument when [man] is a view of a
    {!Core_dd.Shared.store} with more than one registered view: the
    repeated measurement walks would race other domains' collections.
    Detach down to a single view before reordering. *)
