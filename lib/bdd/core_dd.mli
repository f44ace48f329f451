(** Reduced ordered binary decision diagrams with output-complement edges.

    The engine follows Brace, Rudell and Bryant, "Efficient implementation
    of a BDD package" (DAC 1990), the package the paper builds on: nodes are
    hash-consed in a unique table, every edge carries a complement bit, and
    the canonical form keeps the {e then} edge of every node regular
    (non-complemented).  There is a single terminal node; the constant zero
    is the complemented edge to it.

    Variables are identified by integer {e levels}: variable [0] is the
    topmost variable of the order, larger levels sit deeper.  The order is
    fixed for the lifetime of a manager, as in the paper.  Prefer
    creating managers through [Bdd.create] rather than {!new_man}. *)

type man
(** A BDD manager: a view of a node store.  The store holds the unique
    table; the view holds the operation caches, roots and counters.  All
    edges combined by an operation must belong to views of the same
    store — for a private manager, to the manager itself (see
    {!Shared}).

    A manager created by {!new_man} is the only view of its own
    one-stripe store and is {e domain-local by design}: there is no
    internal locking, so it (and every edge it owns) must stay confined
    to one domain at a time.  Parallel workloads either give each worker
    its own private manager — the experiment matrix is embarrassingly
    parallel across managers (see [Exec] and
    [Harness.Capture.run_suite]) — or attach per-domain views of one
    striped {!Shared.store} so workers cooperate on a single node space.
    A view is still single-domain state (its computed cache and counters
    are unsynchronized); only the underlying store is concurrent. *)

type t
(** An edge (a possibly complemented pointer to a node).  Two edges of the
    same manager represent the same function iff they are [equal]. *)

val new_man :
  ?nvars:int ->
  ?cache_bits:int ->
  ?cache_budget:int ->
  unit ->
  man
(** [new_man ()] creates a fresh manager.  [nvars] merely preallocates the
    variable count; variables are created on demand by {!ithvar}.

    {b Deprecated entry point}: prefer [Bdd.create], which also installs
    budgets and names the cache byte budget consistently.  [new_man]
    remains for low-level use.

    [cache_bits] is the log2 of the initial computed-cache capacity
    (default 15, i.e. 32768 entries; clamped to [1, 24]).  The cache is
    direct-mapped and lossy: a colliding store simply overwrites (an
    {e eviction}).  When conflict evictions since the last resize exceed
    the capacity, the cache doubles, up to [cache_budget] bytes
    (default 32 MiB at 32 bytes per entry).

    The manager never collects on its own: nodes stay interned until a
    caller runs {!gc}. *)

val nvars : man -> int
(** Number of variables created so far. *)

val clear_caches : man -> unit
(** Flush all operation caches (the unique table is kept).  Used to time
    heuristics fairly, as in §4.1.1 of the paper.  Costs O(slots filled
    since the last flush), not O(capacity): every fill of an empty slot
    is recorded in a touched-slot log (1024 entries, doubling on demand
    up to half the cache's slots), and the flush empties just those,
    falling back to a full fill only once more slots were filled than
    the log holds.  {!gc} flushes every view's cache through the same
    routine. *)

(** {1 External references and garbage collection}

    Collection happens only in {!gc}, at points the caller chooses: no
    operation collects on its own, so every edge an operation returns
    stays canonical until the caller's next [gc].  The collection is a
    mark-and-sweep whose roots are the projection functions (always),
    the edges registered through {!ref_}, and the [roots] passed to
    {!gc}.  Edges held by plain OCaml values across a collection remain
    structurally valid and all operations on them stay {e semantically}
    correct, but they can lose {e canonicity}: a semantically equal
    function rebuilt afterwards may get a fresh node, so [equal] no
    longer implies physical identity between pre- and post-GC results.
    Before calling [gc], root (or pass as [roots]) anything you keep. *)

val ref_ : man -> t -> unit
(** Register an external reference: the edge's cone survives {!gc}.
    References count, so [ref_] twice needs {!deref} twice. *)

val deref : man -> t -> unit
(** Drop one external reference ([deref] without a matching {!ref_} is
    ignored). *)

val with_root : man -> t -> (t -> 'a) -> 'a
(** [with_root man e k] runs [k e] with [e] rooted, dereferencing on exit
    (also on exceptions). *)

val gc : ?roots:t list -> man -> int
(** Mark-and-sweep collection, the engine's only one: sweep every node
    not reachable from the registered references (of every view of the
    store), the projection functions, or [roots]; flush every view's
    computed cache (its entries may mention swept nodes).  Returns the
    number of nodes reclaimed.

    On a view of a {!Shared.store}, call it only while no other domain
    is inside an operation on any view of the store — the same
    caller-held contract as "a view serves one domain at a time". *)

val reset : man -> unit
(** [reset man] returns a private manager to the state {!new_man}
    leaves, so a long-lived worker can serve one request after another
    on one manager: every node is dropped and numbering restarts at 1
    (the same functions rebuilt get the same node ids and the same
    {!Store} text as on a fresh manager), the unique table and the
    computed cache are emptied and shrunk back to their creation sizes
    if they grew, and the projection edges, external references, cube
    tables, budget, variable count and every {!Stats} counter are
    cleared.  The computed cache costs O(slots filled) to empty, as in
    {!clear_caches}.  Every edge obtained from [man] before the reset is
    dead: passing one to an operation afterwards is undefined.
    @raise Invalid_argument on a view of a {!Shared.store}. *)

(** {1 Resource budgets}

    A budget bounds the work a manager may perform: a ceiling on live
    unique-table nodes, a ceiling on cache-missing kernel recursion
    steps, a monotonic wall-clock deadline, and an optional cooperative
    cancellation callback.  Every kernel ({!ite}, {!and_}, {!xor},
    {!exists}, {!and_exists}, {!constrain}, {!restrict},
    {!vector_compose}, {!agree}, {!agree2}) consults the installed
    budget with a single cheap check in its cache-miss preamble and raises
    {!Budget_exhausted} there — a {e clean recursion boundary}: node
    interning and cache stores are individually atomic and only
    completed results are ever cached, so after the exception unwinds
    the unique table, the computed cache and the GC roots are all
    consistent.  Aborted work is merely discarded; re-running the same
    operation without a budget yields the canonical result.

    The wall clock and the cancellation callback are additionally polled
    once at every public operation's {e entry} — so an already-expired
    deadline (or an already-cancelled token) aborts the very next
    operation immediately, even one that would be answered entirely from
    the computed cache.  Inside a running operation they are then polled
    once every 1024 cache-missing steps, so mid-operation deadlines
    resolve with that granularity.  This entry check is what makes
    server-side deadline enforcement cheap: a request whose deadline
    passed while it queued dies on its first kernel call, not thousands
    of steps later. *)

module Budget : sig
  type reason =
    | Nodes of { limit : int; live : int }
    (** live unique-table nodes exceeded [limit] *)
    | Steps of { limit : int }
    (** cache-missing recursion steps exceeded [limit] *)
    | Time of { seconds : float }
    (** the monotonic deadline passed *)
    | Cancelled  (** the cancellation callback returned [true] *)

  type t
  (** A budget.  Mutable: the step count accumulates across every
      operation run while it is installed, so one [t] governs a whole
      task, not a single call.  Budgets are manager-local state — do not
      share one [t] across domains. *)

  val create :
    ?max_nodes:int ->
    ?max_steps:int ->
    ?timeout_s:float ->
    ?cancelled:(unit -> bool) ->
    unit ->
    t
  (** All limits are optional; omitted ones are unlimited.  [timeout_s]
      is converted to an absolute monotonic deadline at creation time.
      @raise Invalid_argument on non-positive [max_nodes]/[max_steps] or
      negative [timeout_s]. *)

  val steps : t -> int
  (** Recursion steps counted so far. *)

  val exhausted : t -> reason option
  (** The first reason this budget tripped, if it ever did (sticky).
      Lets callers that trap {!Budget_exhausted} internally — e.g. the
      anytime minimization schedule — report partiality afterwards. *)

  val reason_label : reason -> string
  (** Short stable label: ["nodes"], ["steps"], ["time"] or
      ["cancelled"] (used in DNF table rows). *)

  val reason_message : reason -> string
  (** Human-readable one-line description. *)
end

exception Budget_exhausted of Budget.reason
(** Raised by the kernels at a cache-miss boundary when the installed
    budget is exhausted.  The manager remains fully consistent. *)

val set_budget : man -> Budget.t option -> unit
(** Install (or clear, with [None]) the manager's budget. *)

val current_budget : man -> Budget.t option

val with_budget : man -> Budget.t -> (unit -> 'a) -> 'a
(** Run with the given budget installed, restoring the previously
    installed one on exit (also on exceptions). *)

(** {1 Engine events}

    Rare structural events — garbage collections, computed-cache growth
    and unique-table growth (private tables and shared-store stripes
    alike) — are published, when tracing is enabled, as [bdd.gc] /
    [bdd.cache_grow] / [bdd.table_grow] instant events on the current
    {!Obs.Trace} sink, so they appear amid the spans of whatever
    operation triggered them. *)

(** {1 Statistics} *)

(** Engine counters, all cumulative since manager creation except the
    occupancy figures. *)
module Stats : sig
  type t = {
    vars : int;
    live_nodes : int;  (** currently interned nodes, terminal included *)
    peak_live_nodes : int;
    (** exact on a private manager; on a view of a striped store the sum
        of the stripes' peaks, an upper bound *)
    interned_total : int;  (** nodes ever interned *)
    unique_capacity : int;
    external_refs : int;
    cache_entries : int;  (** occupied computed-cache slots *)
    cache_capacity : int;
    cache_lookups : int;
    cache_hits : int;
    cache_stores : int;
    cache_evictions : int;  (** overwrites of a different live entry *)
    ite_recursions : int;  (** cache-missing 3-operand ITE steps *)
    and_recursions : int;  (** cache-missing AND-kernel steps *)
    xor_recursions : int;  (** cache-missing XOR-kernel steps *)
    constrain_recursions : int;
    restrict_recursions : int;
    quantify_recursions : int;  (** cache-missing exists/forall steps *)
    and_exists_recursions : int;
    (** cache-missing fused conjoin-and-quantify steps *)
    agree_recursions : int;
    (** cache-missing steps of the {!agree} and {!agree2} tests (which
        intern no node) *)
    interned_cubes : int;
    (** interned variable sets and substitution signatures (see
        {!cube_id}); the empty set is always present *)
    gc_runs : int;
    gc_reclaimed : int;  (** nodes swept over all runs *)
  }

  val hit_rate : t -> float
  (** Computed-cache hits per lookup, in [0, 1]. *)

  val delta : before:t -> after:t -> t
  (** Attribute engine work to one task: every monotone counter
      (recursions, cache traffic, interned totals, GC tallies) is
      [after - before]; level quantities (vars, live/peak nodes,
      capacities, occupancy, external refs) are taken from [after]
      unchanged.  With [before] and [after] bracketing a task on one
      manager, all counter fields are non-negative, and zero when the
      bracketed work was fully served from the computed cache. *)

  val fields : t -> (string * int) list
  (** Every counter as [(record field name, value)], in declaration
      order. *)

  val pp : Format.formatter -> t -> unit
  (** One [name value] line per {!fields} entry, then the hit rate. *)
end

val snapshot : man -> Stats.t
(** Current engine statistics. *)

(** {1 Constants, variables and structure} *)

val one : man -> t
val zero : man -> t

val max_vars : int
(** The bound on variable indices: every variable lies in
    [[0, max_vars)] (65536 variables, far above the few hundred the
    paper's machines use). *)

val mk : man -> int -> hi:t -> lo:t -> t
(** [mk man var ~hi ~lo] is the node [var ? hi : lo], interned (or [hi]
    when [hi = lo]): the reduction rule and complement normalization
    without any cache traffic.  Requires [var] strictly above both
    children ([var < topvar hi] and [var < topvar lo]); call {!ithvar}
    first so the variable exists. *)

val ithvar : man -> int -> t
(** [ithvar man i] is the projection function of variable [i];
    creates intermediate variables as needed.
    @raise Invalid_argument unless [0 <= i < max_vars]. *)

val is_one : t -> bool
val is_zero : t -> bool
val is_const : t -> bool

val equal : t -> t -> bool
(** Constant-time function equality (canonicity). *)

val compl : t -> t
(** Complement (constant time, flips the edge's complement bit). *)

val is_compl_pair : t -> t -> bool
(** [is_compl_pair f g] iff [g] is the complement of [f] (constant time). *)

val topvar : t -> int
(** Level of the root variable; [max_int] for constants. *)

val const_var : int
(** The pseudo-level of the terminal node ([max_int]). *)

val hi : t -> t
(** Then-cofactor of the root with respect to its top variable
    (complement bit of the edge pushed through).  For a constant, the
    edge itself. *)

val lo : t -> t
(** Else-cofactor of the root with respect to its top variable,
    likewise. *)

val branches : t -> int -> t * t
(** [branches f v] is the paper's [bdd_get_branches]: [(then, else)]
    cofactors of [f] with respect to variable [v] when [topvar f = v], and
    [(f, f)] when [f] is independent of [v] (i.e. [topvar f > v]).
    Requires [topvar f >= v]. *)

val uid : t -> int
(** Stable integer identifier of the edge, unique within its manager
    (complement bit included); usable as a hash key. *)

val node_id : t -> int
(** Identifier of the underlying node, ignoring the complement bit. *)

(** {1 Boolean operations} *)

val ite : man -> t -> t -> t -> t
(** If-then-else: [ite man f g h = f·g + ¬f·h].  Calls whose arms make
    it a binary connective (a constant [g] or [h], or [h = ¬g]) are
    dispatched to the specialized kernels below, after the standard
    collapses. *)

val and_ : man -> t -> t -> t
(** Conjunction, by a specialized two-operand kernel: direct recursion
    with its own terminal rules and a tagged two-operand computed-cache
    opcode, rather than 3-operand ITE normalization. *)

val or_ : man -> t -> t -> t
(** Disjunction; De Morgan over {!and_}, so both share one cache. *)

val xor : man -> t -> t -> t
(** Exclusive or, likewise specialized; operand complement bits are
    factored into a result sign, so all four complement combinations
    of the operands share one cache entry. *)

(** [dand]/[dor]/[dxor] are aliases of {!and_}/{!or_}/{!xor} (the
    historical names). *)

val dand : man -> t -> t -> t

val dor : man -> t -> t -> t

val dxor : man -> t -> t -> t
val dxnor : man -> t -> t -> t
val dnand : man -> t -> t -> t
val dnor : man -> t -> t -> t
val imply : man -> t -> t -> t
val diff : man -> t -> t -> t
(** [diff man f g = f·¬g]. *)

val conj : man -> t list -> t
val disj : man -> t list -> t

val agree : man -> t -> t -> t -> bool
(** [agree man c f g] iff [c·(f ⊕ g) = 0]: [f] and [g] agree wherever
    [c] holds.  Decided without interning a node — the recursion over
    the three operands' cofactors stops at the first path where [c]
    holds and [f] and [g] differ — and memoized in the computed cache
    (CUDD's [Cudd_bddLeq] generalized to a care set).  Budgeted like
    every kernel.  [agree man x y (zero man)] tests [x·y = 0]. *)

val agree2 : man -> t -> t -> t -> t -> bool
(** [agree2 man c d f g] iff [c·d·(f ⊕ g) = 0]: {!agree} under the
    product of two care sets, decided by one walk over the four
    operands' cofactors without building [c·d] or interning a node.
    Budgeted and counted like {!agree}, under its own cache tag. *)

val leq : man -> t -> t -> bool
(** Containment: [leq man f g] iff [f ≤ g] as functions; [agree man f g
    (one man)]. *)

val cofactor : man -> t -> var:int -> bool -> t
(** Shannon cofactor of [f] with respect to variable [var] set to the given
    phase (works for any position of [var] in the order). *)

val cube_id : man -> int list -> int
(** Stable identifier of the sorted, deduplicated variable set, interned
    in the manager's cube table.  Two lists denoting the same set get the
    same id; quantification keys its computed-cache entries on these ids,
    so results persist across calls that quantify the same set.  Mostly
    useful for tests and diagnostics. *)

val interned_sets : man -> int
(** Number of interned variable sets / substitution signatures, the empty
    set included (equals {!Stats.t.interned_cubes}). *)

val exists : man -> int list -> t -> t
(** Existential quantification over the listed variables.  Results are
    memoized in the manager's computed cache keyed by the interned
    variable-set suffix still to quantify, so repeated quantifications of
    the same set (reachability images) hit across calls. *)

val forall : man -> int list -> t -> t
(** Universal quantification over the listed variables (memoized like
    {!exists}). *)

val and_exists : man -> int list -> t -> t -> t
(** [and_exists man vars f g = ∃ vars. f·g], computed without building the
    full conjunction first (the image-computation workhorse).  Operands
    are canonicalized by commutativity and results persist in the
    computed cache like {!exists}. *)

val compose : man -> t -> var:int -> t -> t
(** [compose man f ~var g] substitutes function [g] for variable [var]
    in [f]. *)

val vector_compose : man -> t -> (int * t) list -> t
(** Simultaneous substitution of several variables (the substituted
    functions see the original variable values).  When a variable is
    bound more than once, the last binding wins.  The substitution is
    interned as a signature so results persist in the computed cache
    across calls — renaming with the same pairs every image is a cache
    hit. *)

val rename : man -> t -> (int * int) list -> t
(** [rename man f pairs] renames variable [a] to [b] for each [(a, b)];
    a simultaneous substitution by projection functions. *)

(** {1 Generalized cofactors} *)

val constrain : man -> t -> t -> t
(** Coudert/Madre's [constrain] (generalized cofactor) of [f] by care set
    [c].  Requires [c <> zero].  The result is a cover of [[f; c]]. *)

val restrict : man -> t -> t -> t
(** Coudert/Madre's [restrict] of [f] by care set [c].  Requires
    [c <> zero].  The result is a cover of [[f; c]] whose support never
    gains variables absent from [f]. *)

(** {1 Inspection}

    {!size}, {!shared_size}, {!support}, {!iter_nodes} and
    {!iter_nodes_post} share one node walker that records visited nodes
    in a per-manager set sized by the largest walk (not by the node ids
    handed out), so a walk allocates nothing per node.  Starting a walk
    from inside another walk's callback on the same manager raises
    [Invalid_argument]; walks on different managers (views) nest
    freely. *)

val walk_slots : man -> int
(** Slots in the walker's visited set: a power of two at least twice
    the largest walk since {!gc} or {!reset} last trimmed it, and 0
    before the first walk. *)

val size : man -> t -> int
(** Number of distinct nodes reachable from the edge, {e including} the
    terminal node — the paper's [|f|].  [size] of a constant is 1. *)

val shared_size : man -> t list -> int
(** Node count of the shared DAG of several functions (terminal included
    once). *)

val support : man -> t -> int list
(** Variables the function depends on, in increasing level order. *)

val eval : t -> (int -> bool) -> bool
(** Evaluate under an assignment given as a predicate on variables. *)

val sat_count : man -> t -> nvars:int -> float
(** Number of satisfying assignments over a space of [nvars] variables.
    [nvars] must be at least the number of variables in the function's
    support (the count, not the highest index — supports need not be
    contiguous); otherwise the scaled density would be a silent
    undercount, so @raise Invalid_argument instead. *)

val iter_nodes : man -> t -> (int -> int -> unit) -> unit
(** [iter_nodes man f k] calls [k node_id var] once per reachable
    node, terminal included (with [var = const_var]). *)

val iter_nodes_post : man -> t list -> (int -> int -> t -> t -> unit) -> unit
(** [iter_nodes_post man fs k] calls [k node_id var hi lo] once per
    internal node reachable from [fs], after both of its children
    (depth-first, then-child first, roots in list order): [hi] is the
    node's then-edge (always regular) and [lo] its else-edge.  The
    terminal is not reported.  This is the order {!Store.save} writes. *)

val nodes_at_level : man -> t -> int -> int
(** Number of distinct nodes rooted at the given level. *)

val count_below : man -> t -> int -> int
(** The paper's [N_i(g)]: number of distinct nodes rooted strictly below
    level [i] (terminal included). *)

(** {1 Audit} *)

val self_check : man -> int
(** Audit the manager's node store: canonical-form invariants on every
    interned node, store-wide uniqueness of [(var, then, else)] keys,
    and each stripe's live count against its slots.  On a view of a
    {!Shared.store} this audits the whole store; on a private manager,
    its own table.  Returns the live node count (terminal excluded).
    Takes every stripe lock in turn; meant for tests and invariant
    checks.  @raise Failure on any violation. *)

(** {1 Concurrent manager tier}

    Every manager is a {e view} of a node store: the store holds the
    unique table and the collector, the view its computed cache, cube
    tables, external roots, budget and statistics.  A private manager
    ({!new_man}, [Bdd.create]) is the only view of its own one-stripe
    store, which takes no lock.

    A {!Shared.store} is a node store several domains can safely share:
    a striped open-addressed unique table (the stripe is chosen from
    hash bits disjoint from the in-stripe probe bits, so concurrent
    interns rarely contend on a lock) plus the mark-and-sweep collector
    {!gc}.  Each participating domain
    {!Shared.attach}es a view, so its computed cache, cube tables,
    external roots, budget and statistics stay domain-local, eliminating
    cache-line ping-pong on the apply hot path.  Interning, collection
    and the audit ({!self_check}) are the same code for both kinds of
    store.

    Safety contract:
    - a view is used by at most one domain at a time (views may migrate
      between domains, e.g. through {!Shared.with_view}, but never
      concurrently);
    - edges are freely shareable across views of the same store —
      canonicity is store-wide, so [equal] works between results
      produced by different domains;
    - no operation collects, so concurrent operations never meet a
      collection; {!gc} runs only while no other domain operates on the
      store, marks from {e every} view's registered roots and projection
      functions, sweeps the stripes and resets every view's computed
      cache;
    - read-only inspection ({!size}, {!support}, {!eval}, {!iter_nodes})
      is safe concurrently with interning, but as in the private engine
      un-rooted edges may lose canonicity across a collection.

    {!snapshot} on a view reports store-wide table figures; its
    [peak_live_nodes] (like {!Shared.telemetry}'s) is the sum of the
    stripes' own peaks, an upper bound on the store's peak because the
    stripes need not peak at the same moment. *)

module Shared : sig
  type store
  (** A shared node store.  Thread-safe; create once, attach a view per
      worker domain. *)

  val create : ?stripes:int -> unit -> store
  (** [create ()] builds an empty store.  [stripes] (default 64, rounded
      up to a power of two, clamped to [1, 1024]) is the unique-table
      stripe count: each stripe is an independently locked and
      independently grown open-addressed table. *)

  val attach : store -> man
  (** Attach a fresh view for the calling domain, with a computed cache
      sized as {!new_man}'s defaults.  The view is registered as a GC
      root source until {!detach}. *)

  val detach : man -> unit
  (** Deregister a view: its external roots stop protecting nodes at
      the next collection.  @raise Invalid_argument on a private
      manager. *)

  val with_view : store -> (man -> 'a) -> 'a
  (** [with_view store f] checks out an idle view (reusing previously
      returned ones, so a worker pool pays the view's cache allocation
      only once per concurrency level), runs [f] and returns the view
      to the idle pool (also on exceptions).  The caller must not leak
      the view outside [f]. *)

  val view_count : store -> int
  (** Number of currently attached views. *)

  type telemetry = {
    stripes : int;
    views : int;
    live_nodes : int;  (** store-wide, terminal excluded *)
    peak_live_nodes : int;
    (** sum of the stripes' peaks: an upper bound on the store's peak *)
    interned_total : int;
    intern_retries : int;
    (** interns that found their stripe lock already held *)
    gc_runs : int;
    gc_reclaimed : int;
    barrier_waits : int;
    (** always 0: no operation waits for a collection.  A stand-in kept
        while the benchmark's verify workload reads it. *)
    barrier_wait_ns : int;  (** always 0, a stand-in like [barrier_waits] *)
  }

  val telemetry : store -> telemetry
end
