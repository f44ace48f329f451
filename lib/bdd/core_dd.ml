(* ROBDDs with output-complement edges, hash-consed in a unique table.
   Canonical form invariants:
   - every node's [n_hi] (then) edge is regular (complement bit clear);
   - a node's variable level is strictly smaller than its children's;
   - no node has [n_hi == n_lo];
   hence two edges denote the same function iff node pointers and complement
   bits coincide.

   Chain reduction (CBDD, Bryant 2018): a manager created with
   [chain = true] additionally compresses OR-chains.  Every node carries a
   [bot] level with [var <= bot]; a node [(t, b, h, l)] denotes

     x_t \/ x_{t+1} \/ ... \/ x_{b-1} \/ (if x_b then h else l)

   so a plain node is the [var = bot] special case and a linear chain of
   [b - t] one-armed nodes collapses to a single node.  Complement edges
   give the dual for free: a complemented chain edge is a conjunction of
   negated literals (the don't-care chains of sparse functions and
   cube sets).  Chain canonical form, on top of the plain invariants:
   - [var <= bot < topvar n_hi] and [bot < topvar n_lo];
   - for [var < bot], [n_hi != n_lo] (the redundant [(t,b,g,g)] form is
     rewritten to [(t,b-1,one,g)]);
   - absorption: no node has [n_hi = one] with a {e regular} [n_lo]
     rooted exactly at level [bot + 1] — such a pair merges into the
     longer chain [(var, bot(n_lo), hi(n_lo), lo(n_lo))].
   Under these rules each Boolean function keeps a unique representation,
   so hash-consed equality still decides semantic equality.  Managers
   with [chain = false] never create [var < bot] nodes and behave exactly
   as before.

   Storage layer (CUDD-style):
   - the unique table is a custom open-addressed (linear-probing) array of
     nodes, grown at 75% load and garbage-collected by mark-and-sweep from
     the external roots registered through [ref_]/[deref]/[with_root] (plus
     the projection functions, which are permanent);
   - the computed cache is a fixed-size, power-of-two, direct-mapped lossy
     cache keyed by packed integers: a probe allocates nothing, a store
     simply overwrites (evictions are counted), and the cache adaptively
     doubles up to a byte budget when conflict evictions are heavy.

   Garbage collection removes dead nodes from the unique table so the OCaml
   GC can reclaim them.  Edges still held by un-rooted OCaml values remain
   structurally valid after a collection — operations on them stay
   semantically correct — but they may lose canonicity (an equal function
   rebuilt later gets a fresh node), so code that keeps edges across
   operations and wants physical equality must root them. *)

type node = {
  id : int;
  var : int;                    (* top level; [max_int] for the terminal *)
  bot : int;                    (* chain bottom level; [= var] when plain *)
  n_hi : t;                     (* invariant: regular *)
  n_lo : t;
  mutable mark : bool;          (* mark-and-sweep bit; clear outside GC *)
}

and t = { neg : bool; node : node }

type repr = [ `Bdd | `Cbdd ]

(* Resource budgets.  A budget is installed per manager and consulted by
   the kernels exactly at their cache-missing recursion steps (where the
   per-operation counters increment) — a clean boundary: interning and
   cache stores are atomic and only completed results are ever cached, so
   unwinding [Budget_exhausted] from there leaves the unique table, the
   computed cache and the GC roots consistent. *)
type budget_reason =
  | Nodes of { limit : int; live : int }
  | Steps of { limit : int }
  | Time of { seconds : float }
  | Cancelled

type budget = {
  b_max_nodes : int;            (* max_int = unlimited *)
  b_max_steps : int;            (* max_int = unlimited *)
  b_deadline_ns : int64;        (* Int64.max_int = none *)
  b_seconds : float;            (* original timeout, for the reason *)
  b_cancelled : unit -> bool;
  mutable b_steps : int;
  mutable b_exhausted : budget_reason option;   (* sticky: first trip *)
}

(* A manager is either private (the historical domain-local design: its
   own unique table in [uslots]) or a per-domain *view* of a shared node
   store ([shared = Some _]): interning then goes to the store's striped
   table and the view keeps only domain-local state — the computed
   cache, the cube/signature interning tables, the external roots, the
   budget and the statistics counters.  Dispatch is a single match on
   the immutable [shared] field, so the private hot paths are
   unchanged. *)
type man = {
  chain : bool;                 (* chain-reduced (CBDD) representation *)
  mutable vars : int;
  (* unique table: open-addressed, [terminal] is the empty-slot sentinel *)
  mutable uslots : node array;
  mutable umask : int;                            (* capacity - 1 *)
  mutable ucount : int;                           (* live nodes, terminal excluded *)
  (* computed cache: direct-mapped, parallel arrays, [min_int] = empty key *)
  mutable ck0 : int array;                        (* packed (op tag, uid a) *)
  mutable ck1 : int array;
  mutable ck2 : int array;
  mutable cres : t array;
  mutable cmask : int;
  mutable centries : int;
  (* touched-slot log: [clog.(j)] for [j < centries] is the j-th slot
     filled since the last reset, while it fits *)
  mutable clog : int array;
  cache_max_entries : int;
  mutable evict_since_resize : int;
  mutable next_id : int;
  terminal : node;
  top : t;                                        (* the [one] edge *)
  mutable made : int;                             (* nodes ever interned *)
  (* interned integer arrays: sorted variable sets ("cubes") and
     substitution signatures get a stable small id, so quantification and
     composition can use the packed computed cache across calls *)
  iarr_ids : (int array, int) Hashtbl.t;
  mutable next_iarr : int;
  cube_suffixes : (int, int array) Hashtbl.t;     (* cube id -> suffix ids *)
  (* external roots *)
  mutable var_edges : t option array;             (* projection functions *)
  refs : (int, node * int ref) Hashtbl.t;         (* node id -> refcount *)
  mutable auto_gc : bool;
  mutable gc_wanted : bool;
  mutable budget : budget option;
  (* statistics *)
  mutable n_ite : int;
  mutable n_and : int;
  mutable n_xor : int;
  mutable n_constrain : int;
  mutable n_restrict : int;
  mutable n_quantify : int;
  mutable n_and_exists : int;
  mutable c_lookups : int;
  mutable c_hits : int;
  mutable c_stores : int;
  mutable c_evicts : int;
  mutable gc_runs : int;
  mutable gc_nodes : int;
  mutable peak_live : int;
  (* concurrent tier: Some store makes this manager a per-domain view *)
  shared : shared option;
  mutable op_depth : int;       (* nesting of barrier-bracketed operations *)
}

(* Shared node store: a striped open-addressed unique table plus the
   stop-the-world GC barrier.  The stripe index comes from hash bits
   well above the in-stripe probe bits, so two concurrent interns of
   different nodes rarely meet on a lock; within a stripe the probe
   sequence is the classical linear one.  All global quantities (node
   ids, live count, telemetry) are atomics. *)
and shared = {
  sh_chain : bool;                                (* representation of every view *)
  sh_stripes : stripe array;                      (* length is a power of two *)
  sh_terminal : node;
  sh_top : t;
  sh_next_id : int Atomic.t;
  sh_made : int Atomic.t;                         (* nodes ever interned *)
  sh_live : int Atomic.t;                         (* live across all stripes *)
  sh_peak : int Atomic.t;
  sh_vars : int Atomic.t;                         (* max over views *)
  sh_ext_refs : int Atomic.t;                     (* distinct rooted nodes, all views *)
  sh_gc_wanted : bool Atomic.t;
  sh_no_auto : int Atomic.t;                      (* views with auto-GC suspended *)
  (* stop-the-world barrier: mutators hold [sh_active] while inside an
     operation; a collector raises [sh_gc_pending], waits for the count
     to drain to zero, and new entrants park on [sh_cv] *)
  sh_active : int Atomic.t;
  sh_gc_pending : bool Atomic.t;
  sh_lock : Mutex.t;                              (* views list + barrier waits *)
  sh_cv : Condition.t;
  sh_gc_lock : Mutex.t;                           (* serializes collectors *)
  mutable sh_views : man list;                    (* under sh_lock *)
  mutable sh_free : man list;                     (* reusable views, under sh_lock *)
  (* telemetry *)
  sh_intern_retries : int Atomic.t;               (* contended stripe locks *)
  sh_barrier_waits : int Atomic.t;
  sh_barrier_wait_ns : int Atomic.t;
  sh_gc_runs : int Atomic.t;
  sh_gc_reclaimed : int Atomic.t;
}

and stripe = {
  st_lock : Mutex.t;
  mutable st_slots : node array;
  mutable st_mask : int;
  mutable st_count : int;
}

let const_var = max_int

let min_unique_capacity = 4096
let default_cache_bits = 15
let default_cache_budget = 32 * 1024 * 1024
let bytes_per_cache_entry = 32                    (* 3 boxed-free ints + 1 pointer *)

(* The touched-slot log starts at 1024 entries and doubles on demand up
   to half the cache's slots: past that many fills the full fill costs at
   most two slots per filled slot, so a reset stays linear in what was
   filled either way.  Starting small keeps the many short-lived
   managers that fill little from paying for a large log. *)
let cache_log ccap = Array.make (min 1024 (ccap / 2)) 0

let rec next_pow2 n k = if k >= n then k else next_pow2 n (k * 2)

let new_man ?(nvars = 0) ?(cache_bits = default_cache_bits)
    ?(cache_budget = default_cache_budget) ?(auto_gc = true)
    ?(chain = false) () =
  let rec terminal =
    { id = 0; var = const_var; bot = const_var; n_hi = self; n_lo = self;
      mark = false }
  and self = { neg = false; node = terminal } in
  let cache_bits = max 1 (min 24 cache_bits) in
  let ccap = 1 lsl cache_bits in
  (* byte budget, rounded down to a power of two of entries, but never
     below the initial size *)
  let cache_max_entries =
    let budget_entries = max 1 (cache_budget / bytes_per_cache_entry) in
    let rec down k = if k * 2 <= budget_entries then down (k * 2) else k in
    max ccap (down 1)
  in
  {
    chain;
    vars = nvars;
    uslots = Array.make min_unique_capacity terminal;
    umask = min_unique_capacity - 1;
    ucount = 0;
    ck0 = Array.make ccap min_int;
    ck1 = Array.make ccap 0;
    ck2 = Array.make ccap 0;
    cres = Array.make ccap self;
    cmask = ccap - 1;
    centries = 0;
    clog = cache_log ccap;
    cache_max_entries;
    evict_since_resize = 0;
    next_id = 1;
    terminal;
    top = self;
    made = 0;
    iarr_ids =
      (let t = Hashtbl.create 64 in
       Hashtbl.add t [||] 0;
       t);
    next_iarr = 1;
    cube_suffixes = Hashtbl.create 64;
    var_edges = Array.make (max 16 nvars) None;
    refs = Hashtbl.create 64;
    auto_gc;
    gc_wanted = false;
    budget = None;
    n_ite = 0;
    n_and = 0;
    n_xor = 0;
    n_constrain = 0;
    n_restrict = 0;
    n_quantify = 0;
    n_and_exists = 0;
    c_lookups = 0;
    c_hits = 0;
    c_stores = 0;
    c_evicts = 0;
    gc_runs = 0;
    gc_nodes = 0;
    peak_live = 0;
    shared = None;
    op_depth = 0;
  }

let repr man : repr = if man.chain then `Cbdd else `Bdd

let repr_label = function `Bdd -> "bdd" | `Cbdd -> "cbdd"

let repr_of_string = function
  | "bdd" -> Some `Bdd
  | "cbdd" -> Some `Cbdd
  | _ -> None

(* Engine events show up as instant events in the current trace, so a GC
   run or a table resize is visible amid the spans it interrupts. *)
let trace_gc ~reclaimed ~live_nodes =
  if Obs.Trace.enabled () then
    Obs.Trace.instant "bdd.gc"
      ~attrs:
        [
          ("reclaimed", Obs.Trace.Int reclaimed);
          ("live_nodes", Obs.Trace.Int live_nodes);
        ]

let trace_resize name ~old_capacity ~new_capacity =
  if Obs.Trace.enabled () then
    Obs.Trace.instant name
      ~attrs:
        [
          ("old_capacity", Obs.Trace.Int old_capacity);
          ("new_capacity", Obs.Trace.Int new_capacity);
        ]

let nvars man = man.vars

let one man = man.top
let zero man = { neg = true; node = man.terminal }

let is_const e = e.node.var = const_var
let is_one e = is_const e && not e.neg
let is_zero e = is_const e && e.neg
let equal a b = a.node == b.node && a.neg = b.neg
let compl e = { e with neg = not e.neg }
let is_compl_pair a b = a.node == b.node && a.neg <> b.neg
let topvar e = e.node.var
let uid e = (2 * e.node.id) + Bool.to_int e.neg
let node_id e = e.node.id

let bot e = e.node.bot

(* Cofactors ([hi]/[lo]/[branches]) are defined after [intern]: taking
   the else-branch of a chain node re-roots the chain one level down,
   which interns the suffix node — they need the manager. *)

(* ----- computed cache ----- *)

let c_slot man k0 k1 k2 =
  let h = (k0 * 0x9e3779b1) lxor (k1 * 0x85ebca6b) lxor (k2 * 0xc2b2ae35) in
  let h = h lxor (h lsr 17) in
  h land man.cmask

let cache_find man k0 k1 k2 =
  man.c_lookups <- man.c_lookups + 1;
  let i = c_slot man k0 k1 k2 in
  if man.ck0.(i) = k0 && man.ck1.(i) = k1 && man.ck2.(i) = k2 then begin
    man.c_hits <- man.c_hits + 1;
    Some man.cres.(i)
  end
  else None

(* Empty slot [i] is being filled: count it and log it, doubling a full
   log while it holds fewer than half the cache's slots. *)
let cache_fill man i =
  let n = man.centries in
  if n = Array.length man.clog && 2 * n < man.cmask + 1 then begin
    let log = Array.make (2 * n) 0 in
    Array.blit man.clog 0 log 0 n;
    man.clog <- log
  end;
  if n < Array.length man.clog then man.clog.(n) <- i;
  man.centries <- n + 1

let cache_grow man =
  let ok0 = man.ck0 and ok1 = man.ck1 and ok2 = man.ck2 and ores = man.cres in
  let ocap = man.cmask + 1 in
  let ncap = (man.cmask + 1) * 2 in
  man.ck0 <- Array.make ncap min_int;
  man.ck1 <- Array.make ncap 0;
  man.ck2 <- Array.make ncap 0;
  man.cres <- Array.make ncap man.top;
  man.cmask <- ncap - 1;
  man.centries <- 0;
  man.clog <- cache_log ncap;
  man.evict_since_resize <- 0;
  Array.iteri
    (fun j k ->
       if k <> min_int then begin
         let i = c_slot man k ok1.(j) ok2.(j) in
         if man.ck0.(i) = min_int then cache_fill man i;
         man.ck0.(i) <- k;
         man.ck1.(i) <- ok1.(j);
         man.ck2.(i) <- ok2.(j);
         man.cres.(i) <- ores.(j)
       end)
    ok0;
  trace_resize "bdd.cache_grow" ~old_capacity:ocap ~new_capacity:ncap

let cache_store man k0 k1 k2 r =
  man.c_stores <- man.c_stores + 1;
  if
    man.evict_since_resize > man.cmask + 1
    && man.cmask + 1 < man.cache_max_entries
  then cache_grow man;
  let i = c_slot man k0 k1 k2 in
  if man.ck0.(i) = min_int then cache_fill man i
  else if
    not (man.ck0.(i) = k0 && man.ck1.(i) = k1 && man.ck2.(i) = k2)
  then begin
    man.c_evicts <- man.c_evicts + 1;
    man.evict_since_resize <- man.evict_since_resize + 1
  end;
  man.ck0.(i) <- k0;
  man.ck1.(i) <- k1;
  man.ck2.(i) <- k2;
  man.cres.(i) <- r

(* Empty exactly the logged slots, or every slot once the log has
   overflowed; emptied results are released so the OCaml GC can reclaim
   swept nodes. *)
let cache_reset man =
  if man.centries <= Array.length man.clog then
    for j = 0 to man.centries - 1 do
      let i = man.clog.(j) in
      man.ck0.(i) <- min_int;
      man.cres.(i) <- man.top
    done
  else begin
    Array.fill man.ck0 0 (Array.length man.ck0) min_int;
    Array.fill man.cres 0 (Array.length man.cres) man.top
  end;
  man.centries <- 0;
  man.evict_since_resize <- 0

let clear_caches man = cache_reset man

(* ----- unique table ----- *)

let u_hash var bt hid luid =
  let h =
    (var * 0x9e3779b1) lxor (bt * 0x7feb352d) lxor (hid * 0x85ebca6b)
    lxor (luid * 0xc2b2ae35)
  in
  (h lxor (h lsr 15)) land max_int

(* Insert a node known to be absent (used on growth and GC rebuild). *)
let u_insert_fresh man n =
  let mask = man.umask in
  let i = ref (u_hash n.var n.bot n.n_hi.node.id (uid n.n_lo) land mask) in
  while man.uslots.(!i) != man.terminal do
    i := (!i + 1) land mask
  done;
  man.uslots.(!i) <- n

let u_rebuild man newcap keep =
  let old = man.uslots in
  man.uslots <- Array.make newcap man.terminal;
  man.umask <- newcap - 1;
  Array.iter
    (fun n -> if n != man.terminal && keep n then u_insert_fresh man n)
    old

(* ----- shared store: stripes and the stop-the-world barrier ----- *)

let min_stripe_capacity = 1024

(* Stripe selection uses bits 30.. of the node hash; in-stripe probing
   uses the low bits.  Stripes would need to exceed 2^30 slots before
   the two ranges overlap. *)
let stripe_shift = 30

let[@inline] stripe_of sh h =
  sh.sh_stripes.((h lsr stripe_shift) land (Array.length sh.sh_stripes - 1))

let stripe_insert_fresh terminal st n =
  let mask = st.st_mask in
  let i = ref (u_hash n.var n.bot n.n_hi.node.id (uid n.n_lo) land mask) in
  while st.st_slots.(!i) != terminal do
    i := (!i + 1) land mask
  done;
  st.st_slots.(!i) <- n

let stripe_rebuild terminal st newcap keep =
  let old = st.st_slots in
  st.st_slots <- Array.make newcap terminal;
  st.st_mask <- newcap - 1;
  let count = ref 0 in
  Array.iter
    (fun n ->
       if n != terminal && keep n then begin
         incr count;
         stripe_insert_fresh terminal st n
       end)
    old;
  st.st_count <- !count

let rec bump_shared_peak sh live =
  let p = Atomic.get sh.sh_peak in
  if live > p && not (Atomic.compare_and_set sh.sh_peak p live) then
    bump_shared_peak sh live

(* Barrier entry: the fast path is one atomic increment and one atomic
   load.  When a collection is pending the entrant backs out (waking the
   collector if it was the last active mutator), parks until the world
   restarts, and retries.  [op_depth] makes the bracket re-entrant per
   view, so a public operation implemented with other public operations
   never deadlocks against its own domain. *)
let rec barrier_enter sh =
  Atomic.incr sh.sh_active;
  if Atomic.get sh.sh_gc_pending then begin
    if Atomic.fetch_and_add sh.sh_active (-1) = 1 then begin
      Mutex.lock sh.sh_lock;
      Condition.broadcast sh.sh_cv;
      Mutex.unlock sh.sh_lock
    end;
    let t0 = Obs.Clock.now_ns () in
    Mutex.lock sh.sh_lock;
    while Atomic.get sh.sh_gc_pending do
      Condition.wait sh.sh_cv sh.sh_lock
    done;
    Mutex.unlock sh.sh_lock;
    Atomic.incr sh.sh_barrier_waits;
    ignore
      (Atomic.fetch_and_add sh.sh_barrier_wait_ns
         (Int64.to_int (Int64.sub (Obs.Clock.now_ns ()) t0)));
    barrier_enter sh
  end

let barrier_exit sh =
  if
    Atomic.fetch_and_add sh.sh_active (-1) = 1
    && Atomic.get sh.sh_gc_pending
  then begin
    Mutex.lock sh.sh_lock;
    Condition.broadcast sh.sh_cv;
    Mutex.unlock sh.sh_lock
  end

let[@inline] op_enter man =
  match man.shared with
  | None -> ()
  | Some sh ->
    man.op_depth <- man.op_depth + 1;
    if man.op_depth = 1 then barrier_enter sh

let[@inline] op_exit man =
  match man.shared with
  | None -> ()
  | Some sh ->
    man.op_depth <- man.op_depth - 1;
    if man.op_depth = 0 then barrier_exit sh

(* Bracket a whole public operation.  The closure allocation is per
   operation entry, not per recursion step, and only matters at all on
   shared views ([Fun.protect] must release the barrier when a budget
   trips mid-kernel). *)
let[@inline] shared_op man k =
  match man.shared with
  | None -> k ()
  | Some _ ->
    op_enter man;
    Fun.protect ~finally:(fun () -> op_exit man) k

let intern_shared sh var ~bot:bt ~hi:h ~lo:l =
  assert (not h.neg);
  let hid = h.node.id and luid = uid l in
  let h0 = u_hash var bt hid luid in
  let st = stripe_of sh h0 in
  if not (Mutex.try_lock st.st_lock) then begin
    Atomic.incr sh.sh_intern_retries;
    Mutex.lock st.st_lock
  end;
  if (st.st_count + 1) * 4 > (st.st_mask + 1) * 3 then begin
    let old_capacity = st.st_mask + 1 in
    stripe_rebuild sh.sh_terminal st (old_capacity * 2) (fun _ -> true);
    trace_resize "bdd.table_grow" ~old_capacity ~new_capacity:(st.st_mask + 1);
    (* as in the private engine, a growing table arms a collection at
       the next operation boundary — but only if something is rooted *)
    if Atomic.get sh.sh_ext_refs > 0 then Atomic.set sh.sh_gc_wanted true
  end;
  let mask = st.st_mask in
  let rec probe i =
    let n = st.st_slots.(i) in
    if n == sh.sh_terminal then begin
      let id = Atomic.fetch_and_add sh.sh_next_id 1 in
      let n = { id; var; bot = bt; n_hi = h; n_lo = l; mark = false } in
      Atomic.incr sh.sh_made;
      let live = 1 + Atomic.fetch_and_add sh.sh_live 1 in
      bump_shared_peak sh live;
      st.st_count <- st.st_count + 1;
      st.st_slots.(i) <- n;
      Mutex.unlock st.st_lock;
      { neg = false; node = n }
    end
    else if
      n.var = var && n.bot = bt && n.n_hi.node.id = hid && uid n.n_lo = luid
    then begin
      Mutex.unlock st.st_lock;
      { neg = false; node = n }
    end
    else probe ((i + 1) land mask)
  in
  probe (h0 land mask)

let[@inline] live_count man =
  match man.shared with
  | None -> man.ucount
  | Some sh -> Atomic.get sh.sh_live

(* Intern a node whose then-edge is already regular; a growing table
   is traced. *)
let intern_private man var ~bot:bt ~hi:h ~lo:l =
  assert (not h.neg);
  if (man.ucount + 1) * 4 > (man.umask + 1) * 3 then begin
    let old_capacity = man.umask + 1 in
    u_rebuild man (old_capacity * 2) (fun _ -> true);
    (* A growing table is the GC trigger: if external roots are in use,
       request a collection at the next operation boundary. *)
    if man.auto_gc && Hashtbl.length man.refs > 0 then man.gc_wanted <- true;
    trace_resize "bdd.table_grow" ~old_capacity
      ~new_capacity:(man.umask + 1)
  end;
  let hid = h.node.id and luid = uid l in
  let mask = man.umask in
  let rec probe i =
    let n = man.uslots.(i) in
    if n == man.terminal then begin
      let n =
        { id = man.next_id; var; bot = bt; n_hi = h; n_lo = l; mark = false }
      in
      man.next_id <- man.next_id + 1;
      man.made <- man.made + 1;
      man.ucount <- man.ucount + 1;
      if man.ucount > man.peak_live then man.peak_live <- man.ucount;
      man.uslots.(i) <- n;
      { neg = false; node = n }
    end
    else if
      n.var = var && n.bot = bt && n.n_hi.node.id = hid && uid n.n_lo = luid
    then { neg = false; node = n }
    else probe ((i + 1) land mask)
  in
  probe (u_hash var bt hid luid land mask)

let[@inline] intern man var ~bot ~hi ~lo =
  match man.shared with
  | None -> intern_private man var ~bot ~hi ~lo
  | Some sh -> intern_shared sh var ~bot ~hi ~lo

(* Intern [(var, bot, h, l)] with [h] already regular, applying the
   chain absorption rule on chain managers: a one-armed node whose
   else-edge is a regular node rooted exactly one level below the bottom
   swallows that node's chain, so OR-chains built one [mk] at a time by
   the generic kernels collapse back to single nodes.  Absorption never
   needs to recurse — the absorbed node is canonical, so its own then-arm
   cannot trigger the rule again. *)
let intern_canon man var ~bot:bt ~hi:h ~lo:l =
  if
    man.chain && is_one h && not l.neg
    && l.node.var = bt + 1
  then
    let n = l.node in
    intern man var ~bot:n.bot ~hi:n.n_hi ~lo:n.n_lo
  else intern man var ~bot:bt ~hi:h ~lo:l

(* [mk] is itself barrier-bracketed: external callers (Store loading,
   netlist synthesis) construct nodes with it outside any public
   operation, and on a shared view such a bare intern must not race a
   collection.  Inside kernels the bracket is already held and the
   re-entrant [op_depth] makes this two plain integer writes. *)
let mk man var ~hi:h ~lo:l =
  assert (var < topvar h && var < topvar l);
  if equal h l then h
  else begin
    op_enter man;
    let r =
      if h.neg then
        compl (intern_canon man var ~bot:var ~hi:(compl h) ~lo:(compl l))
      else intern_canon man var ~bot:var ~hi:h ~lo:l
    in
    op_exit man;
    r
  end

(* The chain [x_t \/ ... \/ x_m \/ r] as an edge ([t <= m < topvar r]).
   On a chain manager this is one node (or an absorption into [r]'s own
   chain); on a plain manager it is built one level at a time. *)
let mk_or_chain man t m r =
  assert (t <= m && m < topvar r);
  if is_one r then r
  else if man.chain then begin
    op_enter man;
    let e =
      if (not r.neg) && r.node.var = m + 1 then
        let n = r.node in
        intern man t ~bot:n.bot ~hi:n.n_hi ~lo:n.n_lo
      else intern man t ~bot:m ~hi:(one man) ~lo:r
    in
    op_exit man;
    e
  end
  else begin
    op_enter man;
    let e = ref r in
    for i = m downto t do
      if not (equal !e (one man)) then
        e := intern_canon man i ~bot:i ~hi:(one man) ~lo:!e
    done;
    op_exit man;
    !e
  end

(* Re-root a chain edge at level [v] ([topvar e < v <= bot e]): the
   suffix [x_v \/ ... \/ (x_b ? h : l)], with the edge's sign kept.  The
   suffix of a canonical chain node is itself canonical. *)
let chain_suffix man e v =
  let n = e.node in
  assert (n.var < v && v <= n.bot);
  op_enter man;
  let s = intern man v ~bot:n.bot ~hi:n.n_hi ~lo:n.n_lo in
  op_exit man;
  { neg = e.neg; node = s.node }

(* Cofactors push the edge's complement bit through the node.  At the
   top level of a chain node the then-cofactor is a constant (the OR
   chain fires) and the else-cofactor is the re-rooted suffix. *)
let hi man e =
  let n = e.node in
  if n.var = const_var then e
  else if n.bot = n.var then { neg = e.neg; node = n.n_hi.node }
  else { neg = e.neg; node = man.terminal }

let lo man e =
  let n = e.node in
  if n.var = const_var then e
  else if n.bot = n.var then { neg = e.neg <> n.n_lo.neg; node = n.n_lo.node }
  else chain_suffix man e (n.var + 1)

let branches man e v =
  assert (topvar e >= v);
  if topvar e = v then (hi man e, lo man e) else (e, e)

let ithvar man i =
  if i < 0 then invalid_arg "Core_dd.ithvar: negative variable";
  if i >= man.vars then man.vars <- i + 1;
  (match man.shared with
   | None -> ()
   | Some sh ->
     let rec bump () =
       let v = Atomic.get sh.sh_vars in
       if man.vars > v && not (Atomic.compare_and_set sh.sh_vars v man.vars)
       then bump ()
     in
     bump ());
  if i >= Array.length man.var_edges then begin
    let bigger = Array.make (next_pow2 (i + 1) 16) None in
    Array.blit man.var_edges 0 bigger 0 (Array.length man.var_edges);
    man.var_edges <- bigger
  end;
  match man.var_edges.(i) with
  | Some e -> e
  | None ->
    let e = mk man i ~hi:(one man) ~lo:(zero man) in
    man.var_edges.(i) <- Some e;
    e

(* ----- external references and garbage collection ----- *)

(* Roots are registered per view.  On a shared view the mutation is
   barrier-bracketed: the collector reads every view's root table while
   the world is stopped, so no root update may be in flight. *)
let ref_ man e =
  let n = e.node in
  if n.var <> const_var then begin
    op_enter man;
    (match Hashtbl.find_opt man.refs n.id with
     | Some (_, c) -> incr c
     | None ->
       Hashtbl.add man.refs n.id (n, ref 1);
       (match man.shared with
        | None -> ()
        | Some sh -> Atomic.incr sh.sh_ext_refs));
    op_exit man
  end

let deref man e =
  let n = e.node in
  if n.var <> const_var then begin
    op_enter man;
    (match Hashtbl.find_opt man.refs n.id with
     | Some (_, c) ->
       decr c;
       if !c <= 0 then begin
         Hashtbl.remove man.refs n.id;
         match man.shared with
         | None -> ()
         | Some sh -> Atomic.decr sh.sh_ext_refs
       end
     | None -> ());
    op_exit man
  end

let with_root man e k =
  ref_ man e;
  Fun.protect ~finally:(fun () -> deref man e) (fun () -> k e)

let rec gc_mark n =
  if n.var <> const_var && not n.mark then begin
    n.mark <- true;
    gc_mark n.n_hi.node;
    gc_mark n.n_lo.node
  end

let gc_internal man roots =
  Hashtbl.iter (fun _ (n, _) -> gc_mark n) man.refs;
  Array.iter
    (function Some e -> gc_mark e.node | None -> ())
    man.var_edges;
  List.iter (fun e -> gc_mark e.node) roots;
  let before = man.ucount in
  let live =
    Array.fold_left
      (fun acc n -> if n != man.terminal && n.mark then acc + 1 else acc)
      0 man.uslots
  in
  (* Rebuild at most the old capacity (growth is [intern]'s business);
     shrink when the survivors rattle around in it. *)
  let wanted = next_pow2 (max min_unique_capacity (live * 2)) min_unique_capacity in
  let newcap = min (man.umask + 1) wanted in
  u_rebuild man newcap
    (fun n ->
       if n.mark then begin
         n.mark <- false;
         true
       end
       else false);
  man.ucount <- live;
  (* cached results may point at swept nodes; drop them all *)
  cache_reset man;
  let reclaimed = before - live in
  man.gc_runs <- man.gc_runs + 1;
  man.gc_nodes <- man.gc_nodes + reclaimed;
  trace_gc ~reclaimed ~live_nodes:(live + 1);
  reclaimed

(* Stop-the-world collection over a shared store.  The requesting
   domain must be *outside* any bracketed operation (collections only
   start at operation boundaries, exactly as in the private engine).
   Protocol: serialize collectors on [sh_gc_lock], raise
   [sh_gc_pending], wait until every active mutator drains, then — with
   every domain parked — mark from all views' roots and projection
   edges, rebuild each stripe keeping marked nodes, and reset every
   view's computed cache (cached results may reference swept nodes).
   Stripe locks are taken during the rebuild purely as belt and braces;
   no mutator can hold one while the world is stopped. *)
let shared_gc man sh roots =
  Mutex.lock sh.sh_gc_lock;
  Atomic.set sh.sh_gc_wanted false;
  Atomic.set sh.sh_gc_pending true;
  let t0 = Obs.Clock.now_ns () in
  Mutex.lock sh.sh_lock;
  while Atomic.get sh.sh_active > 0 do
    Condition.wait sh.sh_cv sh.sh_lock
  done;
  let views = sh.sh_views in
  Mutex.unlock sh.sh_lock;
  Atomic.incr sh.sh_barrier_waits;
  ignore
    (Atomic.fetch_and_add sh.sh_barrier_wait_ns
       (Int64.to_int (Int64.sub (Obs.Clock.now_ns ()) t0)));
  List.iter
    (fun v ->
       Hashtbl.iter (fun _ (n, _) -> gc_mark n) v.refs;
       Array.iter
         (function Some e -> gc_mark e.node | None -> ())
         v.var_edges)
    views;
  List.iter (fun e -> gc_mark e.node) roots;
  let before = Atomic.get sh.sh_live in
  let live = ref 0 in
  Array.iter
    (fun st ->
       Mutex.lock st.st_lock;
       let marked =
         Array.fold_left
           (fun acc n ->
              if n != sh.sh_terminal && n.mark then acc + 1 else acc)
           0 st.st_slots
       in
       let wanted =
         next_pow2 (max min_stripe_capacity (marked * 2)) min_stripe_capacity
       in
       let newcap = min (st.st_mask + 1) wanted in
       stripe_rebuild sh.sh_terminal st newcap
         (fun n ->
            if n.mark then begin
              n.mark <- false;
              true
            end
            else false);
       live := !live + st.st_count;
       Mutex.unlock st.st_lock)
    sh.sh_stripes;
  Atomic.set sh.sh_live !live;
  List.iter cache_reset views;
  let reclaimed = before - !live in
  man.gc_runs <- man.gc_runs + 1;
  man.gc_nodes <- man.gc_nodes + reclaimed;
  Atomic.incr sh.sh_gc_runs;
  ignore (Atomic.fetch_and_add sh.sh_gc_reclaimed reclaimed);
  Atomic.set sh.sh_gc_pending false;
  Mutex.lock sh.sh_lock;
  Condition.broadcast sh.sh_cv;
  Mutex.unlock sh.sh_lock;
  Mutex.unlock sh.sh_gc_lock;
  trace_gc ~reclaimed ~live_nodes:(!live + 1);
  reclaimed

let gc ?(roots = []) man =
  match man.shared with
  | None ->
    man.gc_wanted <- false;
    gc_internal man roots
  | Some sh -> shared_gc man sh roots

(* Auto-GC on a shared store requires unanimous consent: any view that
   suspended it (a fixpoint loop holding un-rooted working sets) vetoes
   collection store-wide via the [sh_no_auto] count. *)
let set_auto_gc man b =
  (match man.shared with
   | Some sh when man.auto_gc <> b ->
     if b then Atomic.decr sh.sh_no_auto else Atomic.incr sh.sh_no_auto
   | _ -> ());
  man.auto_gc <- b

(* Long fixpoint computations (symbolic traversal) hold their evolving
   working set only on un-rooted OCaml edges; an automatic collection
   armed by some long-lived root would sweep it every time the table
   grows — costing canonicity of every in-flight set and flushing the
   computed cache over and over.  Such loops suspend the trigger and
   collect (or let the pending trigger fire) when they are done. *)
let without_auto_gc man k =
  let prev = man.auto_gc in
  set_auto_gc man false;
  Fun.protect ~finally:(fun () -> set_auto_gc man prev) k

(* Collection only ever runs at operation boundaries: recursions in flight
   hold un-rooted intermediate edges on the OCaml stack, and sweeping them
   would cost canonicity (never correctness, but still).  On a shared
   view the trigger additionally requires unanimous auto-GC consent, and
   a compare-and-set elects a single collecting domain. *)
let maybe_gc man =
  match man.shared with
  | None ->
    if man.gc_wanted then begin
      man.gc_wanted <- false;
      ignore (gc_internal man [])
    end
  | Some sh ->
    if
      man.auto_gc
      && Atomic.get sh.sh_gc_wanted
      && Atomic.get sh.sh_no_auto = 0
      && Atomic.compare_and_set sh.sh_gc_wanted true false
    then ignore (shared_gc man sh [])

(* ----- Resource budgets ----- *)

exception Budget_exhausted of budget_reason

module Budget = struct
  type reason = budget_reason =
    | Nodes of { limit : int; live : int }
    | Steps of { limit : int }
    | Time of { seconds : float }
    | Cancelled

  type t = budget

  let never_cancelled () = false

  let create ?max_nodes ?max_steps ?timeout_s ?(cancelled = never_cancelled)
      () =
    let b_max_nodes =
      match max_nodes with
      | None -> max_int
      | Some n ->
        if n <= 0 then invalid_arg "Budget.create: max_nodes";
        n
    in
    let b_max_steps =
      match max_steps with
      | None -> max_int
      | Some n ->
        if n <= 0 then invalid_arg "Budget.create: max_steps";
        n
    in
    let b_seconds, b_deadline_ns =
      match timeout_s with
      | None -> (infinity, Int64.max_int)
      | Some s ->
        if s < 0.0 then invalid_arg "Budget.create: timeout_s";
        ( s,
          Int64.add (Obs.Clock.now_ns ())
            (Int64.of_float (s *. 1e9)) )
    in
    {
      b_max_nodes;
      b_max_steps;
      b_deadline_ns;
      b_seconds;
      b_cancelled = cancelled;
      b_steps = 0;
      b_exhausted = None;
    }

  let steps b = b.b_steps
  let exhausted b = b.b_exhausted

  (* Short machine-ish label, stable for tables, CSVs and cram tests. *)
  let reason_label = function
    | Nodes _ -> "nodes"
    | Steps _ -> "steps"
    | Time _ -> "time"
    | Cancelled -> "cancelled"

  let reason_message = function
    | Nodes { limit; live } ->
      Printf.sprintf "node budget exhausted (%d live > %d)" live limit
    | Steps { limit } ->
      Printf.sprintf "step budget exhausted (> %d recursion steps)" limit
    | Time { seconds } ->
      Printf.sprintf "time budget exhausted (> %gs)" seconds
    | Cancelled -> "cancelled"
end

let budget_fail b r =
  b.b_exhausted <- Some r;
  raise (Budget_exhausted r)

(* Slow path of the kernel check: count a step, compare against the
   limits.  The wall clock and the cancellation callback are polled only
   once every 1024 steps (and on the very first step) to keep the
   per-recursion cost at a few integer compares. *)
let budget_step man b =
  let steps = b.b_steps + 1 in
  b.b_steps <- steps;
  let live = live_count man in
  if live > b.b_max_nodes then
    budget_fail b (Nodes { limit = b.b_max_nodes; live });
  if steps > b.b_max_steps then budget_fail b (Steps { limit = b.b_max_steps });
  if steps land 1023 = 1 then begin
    if b.b_cancelled () then budget_fail b Cancelled;
    if
      b.b_deadline_ns <> Int64.max_int
      && Obs.Clock.now_ns () > b.b_deadline_ns
    then budget_fail b (Time { seconds = b.b_seconds })
  end

(* The single cheap check in every kernel preamble: one load and a
   branch when no budget is installed. *)
let[@inline] budget_tick man =
  match man.budget with None -> () | Some b -> budget_step man b

(* Immediate poll of the externally-driven limits (wall clock,
   cancellation), bypassing the 1024-step cadence.  Run once at every
   public operation's entry: an already-expired deadline must abort
   before any work — in particular before a run of cache hits, which
   never reach [budget_step] at all.  This is what lets a server enforce
   per-request deadlines: a request whose deadline passed while it sat
   in the queue dies on its first operation, not 1024 cache misses
   later. *)
let budget_poll b =
  if b.b_cancelled () then budget_fail b Cancelled;
  if
    b.b_deadline_ns <> Int64.max_int
    && Obs.Clock.now_ns () > b.b_deadline_ns
  then budget_fail b (Time { seconds = b.b_seconds })

let[@inline] budget_entry man =
  match man.budget with None -> () | Some b -> budget_poll b

let set_budget man b = man.budget <- b
let current_budget man = man.budget

let with_budget man b k =
  let prev = man.budget in
  man.budget <- Some b;
  Fun.protect ~finally:(fun () -> man.budget <- prev) k

let check_budget man =
  budget_entry man;
  budget_tick man

(* ----- Boolean operation kernels ----- *)

let tag_ite = 0
let tag_constrain = 1
let tag_restrict = 2
let tag_and = 3
let tag_xor = 4
let tag_exists = 5
let tag_forall = 6
let tag_and_exists = 7
let tag_compose = 8

let pack_tag tag u = (u lsl 4) lor tag

(* Specialized binary kernels.  AND and XOR recurse directly with their
   own terminal rules and a tagged two-operand cache key instead of
   routing through the 3-operand ITE standard-triple normalization: the
   apply hot path drops one edge comparison cascade per step, packs a
   denser cache (k2 is always 0), and both operands canonicalize by a
   single commutativity swap.  The remaining two-operand connectives are
   complements of these (De Morgan), so every [dand]/[dor]/... call
   shares one AND cache and one XOR cache. *)

let rec and_rec man f g =
  if equal f g then f
  else if is_compl_pair f g then zero man
  else if is_one f then g
  else if is_one g then f
  else if is_zero f || is_zero g then zero man
  else begin
    (* AND is commutative: canonical operand order for the cache. *)
    let f, g = if uid f <= uid g then (f, g) else (g, f) in
    let k0 = pack_tag tag_and (uid f) and k1 = uid g in
    match cache_find man k0 k1 0 with
    | Some r -> r
    | None ->
      budget_tick man;
      man.n_and <- man.n_and + 1;
      let v = min (topvar f) (topvar g) in
      let r =
        (* Chain fast path: both operands are chains rooted at [v], so
           the shared chain prefix [X = x_v \/ ... \/ x_{m-1}] factors
           out in one step instead of one recursion per level:
           (X ∨ A)(X ∨ B) = X ∨ AB, and when either operand is
           complemented the product is ¬X ∧ (A'B') = ¬(X ∨ ¬(A'B')). *)
        let m = min f.node.bot g.node.bot in
        if topvar f = v && topvar g = v && m > v then begin
          let fs = chain_suffix man f m and gs = chain_suffix man g m in
          let c = and_rec man fs gs in
          if (not f.neg) && not g.neg then mk_or_chain man v (m - 1) c
          else compl (mk_or_chain man v (m - 1) (compl c))
        end
        else begin
          let ft, fe = branches man f v and gt, ge = branches man g v in
          let t = and_rec man ft gt in
          let e = and_rec man fe ge in
          mk man v ~hi:t ~lo:e
        end
      in
      cache_store man k0 k1 0 r;
      r
  end

let or_rec man f g = compl (and_rec man (compl f) (compl g))

let rec xor_rec man f g =
  if equal f g then zero man
  else if is_compl_pair f g then one man
  else if is_one f then compl g
  else if is_zero f then g
  else if is_one g then compl f
  else if is_zero g then f
  else begin
    (* XOR ignores operand complements up to a sign: strip both bits,
       order the regular edges, and re-apply the sign to the result, so
       all four complement combinations of (f, g) share one entry. *)
    let sign = f.neg <> g.neg in
    let f = { f with neg = false } and g = { g with neg = false } in
    let f, g = if f.node.id <= g.node.id then (f, g) else (g, f) in
    let k0 = pack_tag tag_xor (uid f) and k1 = uid g in
    let r =
      match cache_find man k0 k1 0 with
      | Some r -> r
      | None ->
        budget_tick man;
        man.n_xor <- man.n_xor + 1;
        let v = min (topvar f) (topvar g) in
        let r =
          (* Chain fast path (operands regular here): the shared prefix
             cancels — (X ∨ A) ⊕ (X ∨ B) = ¬X ∧ (A ⊕ B). *)
          let m = min f.node.bot g.node.bot in
          if topvar f = v && topvar g = v && m > v then begin
            let fs = chain_suffix man f m and gs = chain_suffix man g m in
            compl (mk_or_chain man v (m - 1) (compl (xor_rec man fs gs)))
          end
          else begin
            let ft, fe = branches man f v and gt, ge = branches man g v in
            let t = xor_rec man ft gt in
            let e = xor_rec man fe ge in
            mk man v ~hi:t ~lo:e
          end
        in
        cache_store man k0 k1 0 r;
        r
    in
    if sign then compl r else r
  end

(* ----- ITE with standard-triple normalization ----- *)

let rec ite_norm man f g h =
  if is_one f then g
  else if is_zero f then h
  else if equal g h then g
  else begin
    (* Collapse arguments equal (or complementary) to the test. *)
    let g = if equal f g then one man else if is_compl_pair f g then zero man else g in
    let h = if equal f h then zero man else if is_compl_pair f h then one man else h in
    (* Constant arms mean the ITE is really a binary connective; hand it
       to the specialized kernels (this also subsumes the old canonical
       argument-order normalization of the commutative cases). *)
    if is_one g && is_zero h then f
    else if is_zero g && is_one h then compl f
    else if is_zero h then and_rec man f g
    else if is_one g then or_rec man f h
    else if is_zero g then and_rec man (compl f) h
    else if is_one h then or_rec man (compl f) g
    else if is_compl_pair g h then xor_rec man f h
    else begin
      (* Regular test edge, then regular then-edge. *)
      let f, g, h = if f.neg then (compl f, h, g) else (f, g, h) in
      if g.neg then compl (ite_aux man f (compl g) (compl h))
      else ite_aux man f g h
    end
  end

and ite_aux man f g h =
  let k0 = pack_tag tag_ite (uid f) and k1 = uid g and k2 = uid h in
  match cache_find man k0 k1 k2 with
  | Some r -> r
  | None ->
    budget_tick man;
    man.n_ite <- man.n_ite + 1;
    let v = min (topvar f) (min (topvar g) (topvar h)) in
    let ft, fe = branches man f v
    and gt, ge = branches man g v
    and ht, he = branches man h v in
    let t = ite_norm man ft gt ht in
    let e = ite_norm man fe ge he in
    let r = mk man v ~hi:t ~lo:e in
    cache_store man k0 k1 k2 r;
    r

let ite man f g h =
  maybe_gc man;
  budget_entry man;
  shared_op man (fun () -> ite_norm man f g h)

let and_ man f g =
  maybe_gc man;
  budget_entry man;
  shared_op man (fun () -> and_rec man f g)

let or_ man f g =
  maybe_gc man;
  budget_entry man;
  shared_op man (fun () -> or_rec man f g)

let xor man f g =
  maybe_gc man;
  budget_entry man;
  shared_op man (fun () -> xor_rec man f g)

let dand = and_
let dor = or_
let dxor = xor
let dxnor man f g = compl (xor man f g)
let dnand man f g = compl (and_ man f g)
let dnor man f g = compl (or_ man f g)
let imply man f g = or_ man (compl f) g
let diff man f g = and_ man f (compl g)

let conj man fs = List.fold_left (dand man) (one man) fs
let disj man fs = List.fold_left (dor man) (zero man) fs

let leq man f g = is_zero (diff man f g)

(* ----- Cofactor with respect to an arbitrary variable ----- *)

let cofactor man f ~var phase =
  maybe_gc man;
  budget_entry man;
  shared_op man @@ fun () ->
  let memo = Hashtbl.create 64 in
  let rec go f =
    if topvar f > var then f
    else if topvar f = var then if phase then hi man f else lo man f
    else
      match Hashtbl.find_opt memo (uid f) with
      | Some r -> r
      | None ->
        let r = mk man (topvar f) ~hi:(go (hi man f)) ~lo:(go (lo man f)) in
        Hashtbl.add memo (uid f) r;
        r
  in
  go f

(* ----- Interned integer arrays (variable sets, substitution keys) ----- *)

(* Sorted int arrays get a stable small id.  Quantification and
   composition key the packed computed cache on these ids, so their
   results survive across calls — a reachability run asks for the same
   variable sets hundreds of times.  Ids are never reused; the table is
   tiny (one entry per distinct set, not per BDD node). *)
let intern_iarr man a =
  match Hashtbl.find_opt man.iarr_ids a with
  | Some id -> id
  | None ->
    let id = man.next_iarr in
    man.next_iarr <- id + 1;
    Hashtbl.add man.iarr_ids (Array.copy a) id;
    id

(* A quantification cube is the sorted deduplicated variable set plus the
   ids of all its suffixes: the recursion over [vars.(i..)] memoizes under
   the id of exactly the suffix it still has to quantify, so partial
   results are shared with any later call whose cube has the same tail. *)
let cube_of_list man vars =
  let vars = Array.of_list (List.sort_uniq compare vars) in
  let id = intern_iarr man vars in
  let suffix =
    match Hashtbl.find_opt man.cube_suffixes id with
    | Some s -> s
    | None ->
      let n = Array.length vars in
      let s = Array.make (n + 1) 0 in
      for i = n - 1 downto 0 do
        s.(i) <- intern_iarr man (Array.sub vars i (n - i))
      done;
      Hashtbl.add man.cube_suffixes id s;
      s
  in
  (vars, suffix)

let cube_id man vars =
  let _, suffix = cube_of_list man vars in
  suffix.(0)

let interned_sets man = man.next_iarr

(* ----- Quantification ----- *)

(* The recursion carries an index into the sorted variable array; the
   cache key is (tag, uid f, id of the unquantified suffix), all packed
   ints, stored in the manager's bounded computed cache so results
   persist across calls.  [combine] must be the recursion-level kernel
   ([or_rec]/[and_rec]), not the public entry points: those run
   [maybe_gc], and a collection mid-recursion would sweep un-rooted
   intermediates. *)
let quantify_rec man tag combine vars suffix i0 f0 =
  let nv = Array.length vars in
  (* [x_v] is a chain-OR level of [f]'s root ([t < v < b]): dropping the
     literal leaves the rest of the chain, [x_t../x_{v-1} \/ x_{v+1}.. \/
     (x_b ? h : l)], as a regular function. *)
  let drop_chain_level f v =
    let n = f.node in
    let s = chain_suffix man { neg = false; node = n } (v + 1) in
    mk_or_chain man n.var (v - 1) s
  in
  let rec go i f =
    if i >= nv then f
    else if is_const f then f
    else if topvar f > vars.(i) then go (i + 1) f
    else
      let k0 = pack_tag tag (uid f) and k1 = suffix.(i) in
      match cache_find man k0 k1 0 with
      | Some r -> r
      | None ->
        budget_tick man;
        man.n_quantify <- man.n_quantify + 1;
        let v = vars.(i) in
        let r =
          if v > topvar f && v < f.node.bot then
            (* Chain fast path: [x_v] sits strictly inside the root's OR
               chain.  A regular edge is [X ∨ A]: exists gives [one]
               (set [x_v]), forall drops the literal.  A complemented
               edge is [¬x.. ∧ ¬A]: exists drops the literal, forall
               gives [zero]. *)
            if tag = tag_forall then
              if f.neg then zero man else go (i + 1) (drop_chain_level f v)
            else if f.neg then go (i + 1) (compl (drop_chain_level f v))
            else one man
          else begin
            let i' = if topvar f = v then i + 1 else i in
            let t = go i' (hi man f) and e = go i' (lo man f) in
            if topvar f = v then combine man t e
            else mk man (topvar f) ~hi:t ~lo:e
          end
        in
        cache_store man k0 k1 0 r;
        r
  in
  go i0 f0

let exists man vars f =
  maybe_gc man;
  budget_entry man;
  shared_op man @@ fun () ->
  let vars, suffix = cube_of_list man vars in
  quantify_rec man tag_exists or_rec vars suffix 0 f

let forall man vars f =
  maybe_gc man;
  budget_entry man;
  shared_op man @@ fun () ->
  let vars, suffix = cube_of_list man vars in
  quantify_rec man tag_forall and_rec vars suffix 0 f

let and_exists man vars f g =
  maybe_gc man;
  budget_entry man;
  shared_op man @@ fun () ->
  let vars, suffix = cube_of_list man vars in
  let nv = Array.length vars in
  let rec go i f g =
    if is_zero f || is_zero g then zero man
    else if is_one f && is_one g then one man
    else if i >= nv then and_rec man f g
    else if is_one f then quantify_rec man tag_exists or_rec vars suffix i g
    else if is_one g then quantify_rec man tag_exists or_rec vars suffix i f
    else
      let top = min (topvar f) (topvar g) in
      if top > vars.(i) then go (i + 1) f g
      else begin
        (* conjunction is commutative: canonical operand order *)
        let f, g = if uid f <= uid g then (f, g) else (g, f) in
        let k0 = pack_tag tag_and_exists (uid f)
        and k1 = uid g
        and k2 = suffix.(i) in
        match cache_find man k0 k1 k2 with
        | Some r -> r
        | None ->
          budget_tick man;
          man.n_and_exists <- man.n_and_exists + 1;
          let ft, fe = branches man f top and gt, ge = branches man g top in
          let i' = if top = vars.(i) then i + 1 else i in
          let r =
            if top = vars.(i) then or_rec man (go i' ft gt) (go i' fe ge)
            else mk man top ~hi:(go i' ft gt) ~lo:(go i' fe ge)
          in
          cache_store man k0 k1 k2 r;
          r
      end
  in
  go 0 f g

(* ----- Composition ----- *)

(* One cache for every substitution shape: the (variable, uid of
   replacement) pairs flatten to a sorted signature interned like a cube,
   and the key is (tag, uid f, signature id).  Later duplicate bindings
   for a variable win, as documented. *)
let vector_compose man f subs =
  match subs with
  | [] -> f
  | _ ->
    maybe_gc man;
    budget_entry man;
    shared_op man @@ fun () ->
    let table = Hashtbl.create 16 in
    List.iter (fun (v, g) -> Hashtbl.replace table v g) subs;
    let bindings =
      List.sort
        (fun (a, _) (b, _) -> compare a b)
        (Hashtbl.fold (fun v g acc -> (v, g) :: acc) table [])
    in
    let sig_arr = Array.make (2 * List.length bindings) 0 in
    List.iteri
      (fun k (v, g) ->
         sig_arr.(2 * k) <- v;
         sig_arr.((2 * k) + 1) <- uid g)
      bindings;
    let sid = intern_iarr man sig_arr in
    let last = List.fold_left (fun acc (v, _) -> max acc v) 0 bindings in
    let rec go f =
      if topvar f > last then f
      else
        let k0 = pack_tag tag_compose (uid f) in
        match cache_find man k0 sid 0 with
        | Some r -> r
        | None ->
          budget_tick man;
          let v = topvar f in
          let test =
            match Hashtbl.find_opt table v with
            | Some g -> g
            | None -> ithvar man v
          in
          let r = ite_norm man test (go (hi man f)) (go (lo man f)) in
          cache_store man k0 sid 0 r;
          r
    in
    go f

let compose man f ~var g = vector_compose man f [ (var, g) ]

let rename man f pairs =
  vector_compose man f (List.map (fun (a, b) -> (a, ithvar man b)) pairs)

(* ----- Generalized cofactors ----- *)

let rec constrain_rec man f c =
  if is_one c || is_const f then f
  else
    let k0 = pack_tag tag_constrain (uid f) and k1 = uid c in
    match cache_find man k0 k1 0 with
    | Some r -> r
    | None ->
      budget_tick man;
      man.n_constrain <- man.n_constrain + 1;
      let v = min (topvar f) (topvar c) in
      let ft, fe = branches man f v and ct, ce = branches man c v in
      let r =
        if is_zero ce then constrain_rec man ft ct
        else if is_zero ct then constrain_rec man fe ce
        else
          mk man v ~hi:(constrain_rec man ft ct) ~lo:(constrain_rec man fe ce)
      in
      cache_store man k0 k1 0 r;
      r

let constrain man f c =
  if is_zero c then invalid_arg "Core_dd.constrain: empty care set";
  maybe_gc man;
  budget_entry man;
  shared_op man (fun () -> constrain_rec man f c)

let rec restrict_rec man f c =
  if is_one c || is_const f then f
  else
    let k0 = pack_tag tag_restrict (uid f) and k1 = uid c in
    match cache_find man k0 k1 0 with
    | Some r -> r
    | None ->
      budget_tick man;
      man.n_restrict <- man.n_restrict + 1;
      let fv = topvar f and cv = topvar c in
      let r =
        if cv < fv then restrict_rec man f (or_rec man (hi man c) (lo man c))
        else
          let ft, fe = branches man f fv and ct, ce = branches man c fv in
          if is_zero ce then restrict_rec man ft ct
          else if is_zero ct then restrict_rec man fe ce
          else
            mk man fv ~hi:(restrict_rec man ft ct) ~lo:(restrict_rec man fe ce)
      in
      cache_store man k0 k1 0 r;
      r

let restrict man f c =
  if is_zero c then invalid_arg "Core_dd.restrict: empty care set";
  maybe_gc man;
  budget_entry man;
  shared_op man (fun () -> restrict_rec man f c)

(* ----- Inspection ----- *)

module Itbl = Hashtbl.Make (Int)

(* The one node walker: [k] sees every physical node reachable from [fs]
   once, terminal included, depth-first with then before else. *)
let walk fs k =
  let seen = Itbl.create 64 in
  let rec go n =
    if not (Itbl.mem seen n.id) then begin
      Itbl.add seen n.id ();
      k n;
      if n.var <> const_var then begin
        go n.n_hi.node;
        go n.n_lo.node
      end
    end
  in
  List.iter (fun e -> go e.node) fs

let iter_nodes _man f k = walk [ f ] (fun n -> k n.id n.var)

let shared_size _man fs =
  let count = ref 0 in
  walk fs (fun _ -> incr count);
  !count

let size man f = shared_size man [ f ]

(* Every chain level is in the support: [h = one, l = one] chains are
   forbidden by canonical form, so flipping any chained variable always
   changes the function's value somewhere. *)
let support _man f =
  let vars = Itbl.create 16 in
  walk [ f ] (fun n ->
      if n.var <> const_var then
        for v = n.var to n.bot do
          Itbl.replace vars v ()
        done);
  List.sort compare (Itbl.fold (fun v () acc -> v :: acc) vars [])

let eval f assign =
  let rec chain_hit v b = v < b && (assign v || chain_hit (v + 1) b) in
  let rec go e =
    if is_const e then not e.neg
    else
      let n = e.node in
      if chain_hit n.var n.bot then not e.neg
      else if assign n.bot then go { neg = e.neg; node = n.n_hi.node }
      else go { neg = e.neg <> n.n_lo.neg; node = n.n_lo.node }
  in
  go f

let sat_count man f ~nvars =
  (* Density of the onset under the uniform measure; independent of which
     variables actually occur, so a per-function memo is sound — provided
     the target space has at least as many dimensions as the support.
     With fewer, the scaled density is a fractional undercount, so that
     case is an error rather than a silently wrong answer. *)
  (* The support is a subset of the manager's variables, so when [nvars]
     covers them all the arity check is vacuous and the support walk —
     a full traversal of [f] — can be skipped. *)
  if nvars < man.vars then begin
    let support_size = List.length (support man f) in
    if nvars < support_size then
      invalid_arg
        (Printf.sprintf
           "Core_dd.sat_count: nvars = %d but the function depends on %d \
            variables"
           nvars support_size)
  end;
  let memo = Hashtbl.create 64 in
  let rec density e =
    if is_one e then 1.0
    else if is_zero e then 0.0
    else
      match Hashtbl.find_opt memo (uid e) with
      | Some d -> d
      | None ->
        let n = e.node in
        let h = { neg = e.neg; node = n.n_hi.node }
        and l = { neg = e.neg <> n.n_lo.neg; node = n.n_lo.node } in
        let db = 0.5 *. (density h +. density l) in
        (* [m] chained levels scale the branch density: a regular chain
           edge is [X ∨ A] with P = 1 - 2^-m + 2^-m P(A); a complemented
           one is [¬X ∧ ¬A] with P = 2^-m P(¬A) — and [db] already
           carries the sign. *)
        let m = n.bot - n.var in
        let d =
          if m = 0 then db
          else
            let p = Float.ldexp 1.0 (-m) in
            if e.neg then p *. db else (1.0 -. p) +. (p *. db)
        in
        Hashtbl.add memo (uid e) d;
        d
  in
  density f *. (2.0 ** float_of_int nvars)

let nodes_at_level man f level =
  let n = ref 0 in
  iter_nodes man f (fun _ v -> if v = level then incr n);
  !n

let count_below man f level =
  let n = ref 0 in
  iter_nodes man f (fun _ v -> if v > level then incr n);
  !n

(* ----- Size metrics ----- *)

(* The single entry point for size accounting.  [nodes] is the physical
   (representation-dependent) count, [chain_nodes] counts how many of
   those are compressed chains, and [plain_equivalent] is the size the
   same function has as a plain BDD — the representation-independent
   metric the minimization verdicts are judged on.

   [plain_equivalent] is exact: expanding a chain node [(t,b,h,l)] into
   plain form creates one virtual node per level [i] in [t..b], each
   fully determined by the key [(i, b, id h, uid l)] — distinct chain
   nodes sharing a tail share the corresponding virtual nodes, and a
   virtual node at level [b] coincides with a physical plain node
   [(b,h,l)] when one exists, so keys are deduplicated globally. *)
module Metric = struct
  let shared_nodes = shared_size
  let nodes = size

  let shared_chain_nodes _man fs =
    let count = ref 0 in
    walk fs (fun n -> if n.var <> const_var && n.bot > n.var then incr count);
    !count

  let chain_nodes man f = shared_chain_nodes man [ f ]

  (* On a plain manager every node has [var = bot] and is its own key,
     so the expansion below would just recount the physical nodes (an
     empty list still counts the terminal, so it takes the long way). *)
  let shared_plain_equivalent man fs =
    if (not man.chain) && fs <> [] then shared_nodes man fs
    else begin
      let keys = Hashtbl.create 64 in
      walk fs (fun n ->
          if n.var <> const_var then begin
            let hid = n.n_hi.node.id and luid = uid n.n_lo in
            for i = n.var to n.bot do
              Hashtbl.replace keys (i, n.bot, hid, luid) ()
            done
          end);
      Hashtbl.length keys + 1 (* the terminal *)
    end

  let plain_equivalent man f = shared_plain_equivalent man [ f ]
end

(* ----- Statistics ----- *)

module Stats = struct
  type t = {
    vars : int;
    live_nodes : int;
    peak_live_nodes : int;
    interned_total : int;
    unique_capacity : int;
    external_refs : int;
    cache_entries : int;
    cache_capacity : int;
    cache_lookups : int;
    cache_hits : int;
    cache_stores : int;
    cache_evictions : int;
    ite_recursions : int;
    and_recursions : int;
    xor_recursions : int;
    constrain_recursions : int;
    restrict_recursions : int;
    quantify_recursions : int;
    and_exists_recursions : int;
    interned_cubes : int;
    gc_runs : int;
    gc_reclaimed : int;
  }

  let hit_rate s =
    if s.cache_lookups = 0 then 0.0
    else float_of_int s.cache_hits /. float_of_int s.cache_lookups

  let pp ppf s =
    Format.fprintf ppf
      "@[<v>vars            : %d@,\
       live nodes      : %d (peak %d, interned total %d)@,\
       unique capacity : %d slots@,\
       external refs   : %d@,\
       computed cache  : %d/%d entries@,\
       cache traffic   : %d lookups, %d hits (%.1f%%), %d stores, %d evictions@,\
       recursions      : ite %d, and %d, xor %d, constrain %d, restrict %d, \
       quantify %d, and-exists %d@,\
       interned cubes  : %d@,\
       garbage collect : %d runs, %d nodes reclaimed@]"
      s.vars s.live_nodes s.peak_live_nodes s.interned_total s.unique_capacity
      s.external_refs s.cache_entries s.cache_capacity s.cache_lookups
      s.cache_hits
      (100.0 *. hit_rate s)
      s.cache_stores s.cache_evictions s.ite_recursions s.and_recursions
      s.xor_recursions s.constrain_recursions
      s.restrict_recursions s.quantify_recursions s.and_exists_recursions
      s.interned_cubes s.gc_runs s.gc_reclaimed

  let to_string s = Format.asprintf "%a" pp s

  (* Per-task attribution: monotone work counters are subtracted, level
     quantities (sizes, capacities, occupancy) are taken from [after] —
     a delta of "how much the table grew" is less useful to a telemetry
     consumer than "how big it is now". *)
  let delta ~(before : t) ~(after : t) =
    {
      vars = after.vars;
      live_nodes = after.live_nodes;
      peak_live_nodes = after.peak_live_nodes;
      interned_total = after.interned_total - before.interned_total;
      unique_capacity = after.unique_capacity;
      external_refs = after.external_refs;
      cache_entries = after.cache_entries;
      cache_capacity = after.cache_capacity;
      cache_lookups = after.cache_lookups - before.cache_lookups;
      cache_hits = after.cache_hits - before.cache_hits;
      cache_stores = after.cache_stores - before.cache_stores;
      cache_evictions = after.cache_evictions - before.cache_evictions;
      ite_recursions = after.ite_recursions - before.ite_recursions;
      and_recursions = after.and_recursions - before.and_recursions;
      xor_recursions = after.xor_recursions - before.xor_recursions;
      constrain_recursions =
        after.constrain_recursions - before.constrain_recursions;
      restrict_recursions =
        after.restrict_recursions - before.restrict_recursions;
      quantify_recursions =
        after.quantify_recursions - before.quantify_recursions;
      and_exists_recursions =
        after.and_exists_recursions - before.and_exists_recursions;
      interned_cubes = after.interned_cubes - before.interned_cubes;
      gc_runs = after.gc_runs - before.gc_runs;
      gc_reclaimed = after.gc_reclaimed - before.gc_reclaimed;
    }
end

(* On a shared view the store-wide quantities (live nodes, peak,
   interned total, table capacity) come from the store's atomics; the
   cache and recursion counters stay the view's own. *)
let snapshot man : Stats.t =
  let live_nodes, peak_live_nodes, interned_total, unique_capacity =
    match man.shared with
    | None -> (man.ucount + 1, man.peak_live + 1, man.made, man.umask + 1)
    | Some sh ->
      ( Atomic.get sh.sh_live + 1,
        Atomic.get sh.sh_peak + 1,
        Atomic.get sh.sh_made,
        Array.fold_left (fun acc st -> acc + st.st_mask + 1) 0 sh.sh_stripes )
  in
  {
    Stats.vars = man.vars;
    live_nodes;
    peak_live_nodes;
    interned_total;
    unique_capacity;
    external_refs = Hashtbl.length man.refs;
    cache_entries = man.centries;
    cache_capacity = man.cmask + 1;
    cache_lookups = man.c_lookups;
    cache_hits = man.c_hits;
    cache_stores = man.c_stores;
    cache_evictions = man.c_evicts;
    ite_recursions = man.n_ite;
    and_recursions = man.n_and;
    xor_recursions = man.n_xor;
    constrain_recursions = man.n_constrain;
    restrict_recursions = man.n_restrict;
    quantify_recursions = man.n_quantify;
    and_exists_recursions = man.n_and_exists;
    interned_cubes = man.next_iarr;
    gc_runs = man.gc_runs;
    gc_reclaimed = man.gc_nodes;
  }

let stats man =
  let s = snapshot man in
  Printf.sprintf
    "vars=%d live=%d peak=%d interned=%d cache=%d/%d hits=%.1f%% gc_runs=%d \
     reclaimed=%d"
    s.Stats.vars s.Stats.live_nodes s.Stats.peak_live_nodes
    s.Stats.interned_total s.Stats.cache_entries s.Stats.cache_capacity
    (100.0 *. Stats.hit_rate s)
    s.Stats.gc_runs s.Stats.gc_reclaimed

(* ----- Concurrent manager tier: the shared store's public face ----- *)

module Shared = struct
  type store = shared

  type telemetry = {
    stripes : int;
    views : int;
    live_nodes : int;
    peak_live_nodes : int;
    interned_total : int;
    intern_retries : int;
    gc_runs : int;
    gc_reclaimed : int;
    barrier_waits : int;
    barrier_wait_ns : int;
  }

  let create ?(nvars = 0) ?(stripes = 64) ?(repr : repr = `Bdd) () =
    if stripes < 1 then invalid_arg "Shared.create: stripes";
    let nstripes = min 1024 (next_pow2 stripes 1) in
    let rec terminal =
      { id = 0; var = const_var; bot = const_var; n_hi = self; n_lo = self;
        mark = false }
    and self = { neg = false; node = terminal } in
    {
      sh_chain = (repr = `Cbdd);
      sh_stripes =
        Array.init nstripes (fun _ ->
            {
              st_lock = Mutex.create ();
              st_slots = Array.make min_stripe_capacity terminal;
              st_mask = min_stripe_capacity - 1;
              st_count = 0;
            });
      sh_terminal = terminal;
      sh_top = self;
      sh_next_id = Atomic.make 1;
      sh_made = Atomic.make 0;
      sh_live = Atomic.make 0;
      sh_peak = Atomic.make 0;
      sh_vars = Atomic.make nvars;
      sh_ext_refs = Atomic.make 0;
      sh_gc_wanted = Atomic.make false;
      sh_no_auto = Atomic.make 0;
      sh_active = Atomic.make 0;
      sh_gc_pending = Atomic.make false;
      sh_lock = Mutex.create ();
      sh_cv = Condition.create ();
      sh_gc_lock = Mutex.create ();
      sh_views = [];
      sh_free = [];
      sh_intern_retries = Atomic.make 0;
      sh_barrier_waits = Atomic.make 0;
      sh_barrier_wait_ns = Atomic.make 0;
      sh_gc_runs = Atomic.make 0;
      sh_gc_reclaimed = Atomic.make 0;
    }

  (* A view: domain-local computed cache, cube tables, roots, budget and
     counters over the shared node store.  The private unique-table
     fields are left as one-slot stubs — every intern dispatches to the
     store.  Registration makes the view a GC root source, so attach it
     before rooting anything through it. *)
  let attach ?(cache_bits = default_cache_bits)
      ?(cache_budget = default_cache_budget) ?(auto_gc = true) sh =
    let terminal = sh.sh_terminal in
    let cache_bits = max 1 (min 24 cache_bits) in
    let ccap = 1 lsl cache_bits in
    let cache_max_entries =
      let budget_entries = max 1 (cache_budget / bytes_per_cache_entry) in
      let rec down k = if k * 2 <= budget_entries then down (k * 2) else k in
      max ccap (down 1)
    in
    let nvars = Atomic.get sh.sh_vars in
    let view =
      {
        chain = sh.sh_chain;
        vars = nvars;
        uslots = Array.make 1 terminal;
        umask = 0;
        ucount = 0;
        ck0 = Array.make ccap min_int;
        ck1 = Array.make ccap 0;
        ck2 = Array.make ccap 0;
        cres = Array.make ccap sh.sh_top;
        cmask = ccap - 1;
        centries = 0;
        clog = cache_log ccap;
        cache_max_entries;
        evict_since_resize = 0;
        next_id = 1;
        terminal;
        top = sh.sh_top;
        made = 0;
        iarr_ids =
          (let t = Hashtbl.create 64 in
           Hashtbl.add t [||] 0;
           t);
        next_iarr = 1;
        cube_suffixes = Hashtbl.create 64;
        var_edges = Array.make (max 16 nvars) None;
        refs = Hashtbl.create 64;
        auto_gc;
        gc_wanted = false;
        budget = None;
        n_ite = 0;
        n_and = 0;
        n_xor = 0;
        n_constrain = 0;
        n_restrict = 0;
        n_quantify = 0;
        n_and_exists = 0;
        c_lookups = 0;
        c_hits = 0;
        c_stores = 0;
        c_evicts = 0;
        gc_runs = 0;
        gc_nodes = 0;
        peak_live = 0;
        shared = Some sh;
        op_depth = 0;
      }
    in
    if not auto_gc then Atomic.incr sh.sh_no_auto;
    Mutex.lock sh.sh_lock;
    sh.sh_views <- view :: sh.sh_views;
    Mutex.unlock sh.sh_lock;
    view

  let store_of man = man.shared
  let is_shared man = Option.is_some man.shared

  (* Deregistration drops the view's roots: nodes only it kept alive
     become garbage at the next collection. *)
  let detach man =
    match man.shared with
    | None -> invalid_arg "Shared.detach: private manager"
    | Some sh ->
      Mutex.lock sh.sh_lock;
      sh.sh_views <- List.filter (fun v -> v != man) sh.sh_views;
      sh.sh_free <- List.filter (fun v -> v != man) sh.sh_free;
      Mutex.unlock sh.sh_lock;
      if not man.auto_gc then Atomic.decr sh.sh_no_auto;
      let dropped = Hashtbl.length man.refs in
      if dropped > 0 then
        ignore (Atomic.fetch_and_add sh.sh_ext_refs (-dropped));
      Hashtbl.reset man.refs

  let view_count sh =
    Mutex.lock sh.sh_lock;
    let n = List.length sh.sh_views in
    Mutex.unlock sh.sh_lock;
    n

  (* Check out a view for the calling domain, reusing detachable idle
     views so worker pools don't pay a fresh cache allocation per task.
     The same view may serve different domains over time — never two at
     once — which is exactly the manager thread-safety contract. *)
  let with_view sh f =
    let view =
      Mutex.lock sh.sh_lock;
      match sh.sh_free with
      | v :: rest ->
        sh.sh_free <- rest;
        Mutex.unlock sh.sh_lock;
        v
      | [] ->
        Mutex.unlock sh.sh_lock;
        attach sh
    in
    Fun.protect
      ~finally:(fun () ->
        Mutex.lock sh.sh_lock;
        sh.sh_free <- view :: sh.sh_free;
        Mutex.unlock sh.sh_lock)
      (fun () -> f view)

  let stripes sh = Array.length sh.sh_stripes
  let live_nodes sh = Atomic.get sh.sh_live

  let telemetry sh =
    {
      stripes = Array.length sh.sh_stripes;
      views = view_count sh;
      live_nodes = Atomic.get sh.sh_live;
      peak_live_nodes = Atomic.get sh.sh_peak;
      interned_total = Atomic.get sh.sh_made;
      intern_retries = Atomic.get sh.sh_intern_retries;
      gc_runs = Atomic.get sh.sh_gc_runs;
      gc_reclaimed = Atomic.get sh.sh_gc_reclaimed;
      barrier_waits = Atomic.get sh.sh_barrier_waits;
      barrier_wait_ns = Atomic.get sh.sh_barrier_wait_ns;
    }

  (* Structural audit for tests: every stored node satisfies the
     canonical-form invariants and no (var, then, else) triple appears
     twice anywhere in the store.  Returns the live node count. *)
  let self_check sh =
    let seen = Hashtbl.create 4096 in
    let count = ref 0 in
    Array.iter
      (fun st ->
         Mutex.lock st.st_lock;
         Array.iter
           (fun n ->
              if n != sh.sh_terminal then begin
                incr count;
                if n.n_hi.neg then
                  failwith "Shared.self_check: complemented then-edge";
                if n.var > n.bot then
                  failwith "Shared.self_check: bot above var";
                if (not sh.sh_chain) && n.bot > n.var then
                  failwith "Shared.self_check: chain node in a plain store";
                if n.bot >= n.n_hi.node.var || n.bot >= n.n_lo.node.var then
                  failwith "Shared.self_check: level order violated";
                if n.n_hi.node == n.n_lo.node && n.n_hi.neg = n.n_lo.neg then
                  failwith "Shared.self_check: redundant node";
                if
                  sh.sh_chain
                  && n.n_hi.node.var = const_var && not n.n_hi.neg
                  && (not n.n_lo.neg)
                  && n.n_lo.node.var = n.bot + 1
                then failwith "Shared.self_check: unabsorbed chain";
                let key = (n.var, n.bot, n.n_hi.node.id, uid n.n_lo) in
                if Hashtbl.mem seen key then
                  failwith "Shared.self_check: duplicate node (canonicity)";
                Hashtbl.add seen key ()
              end)
           st.st_slots;
         Mutex.unlock st.st_lock)
      sh.sh_stripes;
    if !count <> Atomic.get sh.sh_live then
      failwith "Shared.self_check: live count drifted";
    !count
end
