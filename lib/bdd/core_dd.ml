(* ROBDDs with output-complement edges, hash-consed in a unique table.
   Canonical form invariants:
   - every node's [n_hi] (then) edge is regular (complement bit clear);
   - a node's variable level is strictly smaller than its children's;
   - no node has [n_hi == n_lo];
   hence two edges denote the same function iff node pointers and complement
   bits coincide.

   Storage layer (CUDD-style), one tier for every manager:
   - every manager is a view of a node store; a private manager is the
     only view of its own one-stripe store, a [Shared] store has many
     stripes and many views (see [man] below).  Table code, interning,
     collection and the audit are written once for both;
   - each stripe of the unique table is a custom open-addressed
     (linear-probing) array of nodes, grown at 75% load;
   - the computed cache is a fixed-size, power-of-two, direct-mapped lossy
     cache keyed by packed integers: a probe allocates nothing, a store
     simply overwrites (evictions are counted), and the cache adaptively
     doubles up to a byte budget when conflict evictions are heavy.

   Collection happens only in [gc], at points the caller chooses: a
   mark-and-sweep from the roots every view registers through
   [ref_]/[deref]/[with_root], the projection functions (permanent) and
   the [roots] the caller passes, after which the OCaml GC can reclaim
   the swept nodes.  No operation ever collects on its own, so edges
   held on the OCaml stack stay canonical until the caller's next [gc].
   An un-rooted edge that survives a collection remains structurally
   valid — operations on it stay semantically correct — but it may lose
   canonicity (an equal function rebuilt later gets a fresh node), so a
   caller that collects roots what it keeps. *)

type node = {
  id : int;
  var : int;                    (* level; [max_int] for the terminal *)
  n_hi : t;                     (* invariant: regular *)
  n_lo : t;
  mutable mark : bool;          (* mark-and-sweep bit; clear outside GC *)
}

and t = { neg : bool; node : node }

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

(* Every manager is a {e view} of a node store.  The store owns the
   unique table; the view keeps the domain-local state: the computed
   cache, the cube/signature interning tables, the external roots, the
   budget and the statistics counters.  A private manager ([new_man]) is
   the only view of its own one-stripe store, marked [sh_solo]: it
   interns without taking the stripe lock.  [Shared.create] builds a
   striped store that several domains attach views to. *)
type man = {
  mutable vars : int;
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
  cache_init_entries : int;                       (* capacity at creation *)
  cache_max_entries : int;
  mutable evict_since_resize : int;
  terminal : node;                                (* the store's *)
  top : t;                                        (* the [one] edge *)
  (* interned integer arrays: sorted variable sets ("cubes") and
     substitution signatures get a stable small id, so quantification and
     composition can use the packed computed cache across calls *)
  iarr_ids : (int array, int) Hashtbl.t;
  mutable next_iarr : int;
  cube_suffixes : (int, int array) Hashtbl.t;     (* cube id -> suffix ids *)
  (* external roots *)
  mutable var_edges : t option array;             (* projection functions *)
  refs : (int, node * int ref) Hashtbl.t;         (* node id -> refcount *)
  mutable budget : budget option;
  (* node walker scratch: the set of node ids the current walk visited
     (open-addressed, see [first_visit]) and their number, the current
     walk's epoch, the busy flag that refuses a nested walk, and a seen
     flag per variable for [support] *)
  mutable seen : int array;
  mutable seen_count : int;
  mutable epoch : int;
  mutable walking : bool;
  mutable var_marks : Bytes.t;
  (* statistics *)
  mutable n_ite : int;
  mutable n_and : int;
  mutable n_xor : int;
  mutable n_constrain : int;
  mutable n_restrict : int;
  mutable n_quantify : int;
  mutable n_and_exists : int;
  mutable n_agree : int;
  mutable c_lookups : int;
  mutable c_hits : int;
  mutable c_stores : int;
  mutable c_evicts : int;
  mutable gc_runs : int;
  mutable gc_nodes : int;
  store : shared;
}

(* A node store: a striped open-addressed unique table.  The stripe
   index comes from hash bits
   well above the in-stripe probe bits, so two concurrent interns of
   different nodes rarely meet on a lock; within a stripe the probe
   sequence is the classical linear one.  Stripe [k] of [S] numbers its
   nodes [k+1, k+1+S, ...], so ids are unique store-wide without a
   shared counter, and a one-stripe store numbers them 1, 2, 3, ... *)
and shared = {
  sh_solo : bool;                                 (* one view: no locks *)
  sh_stripes : table array;                       (* length is a power of two *)
  sh_min_capacity : int;                          (* a stripe never shrinks below *)
  sh_terminal : node;
  sh_top : t;
  sh_vars : int Atomic.t;                         (* max over views *)
  sh_lock : Mutex.t;                              (* the two view lists *)
  mutable sh_views : man list;                    (* under sh_lock *)
  mutable sh_free : man list;                     (* reusable views, under sh_lock *)
  (* telemetry *)
  sh_intern_retries : int Atomic.t;               (* contended stripe locks *)
  sh_gc_runs : int Atomic.t;
  sh_gc_reclaimed : int Atomic.t;
}

(* One stripe of the unique table, guarded by [lock] on a striped store;
   the store's terminal marks an empty slot. *)
and table = {
  lock : Mutex.t;
  mutable slots : node array;
  mutable mask : int;                             (* capacity - 1 *)
  mutable count : int;                            (* live nodes, terminal excluded *)
  mutable next_id : int;
  mutable made : int;                             (* nodes ever interned *)
  mutable peak : int;                             (* most live nodes at once *)
}

let const_var = max_int

let min_unique_capacity = 4096
let min_stripe_capacity = 1024
let default_cache_bits = 15
let default_cache_budget = 32 * 1024 * 1024
let bytes_per_cache_entry = 32                    (* 3 boxed-free ints + 1 pointer *)

(* The touched-slot log starts at 1024 entries and doubles on demand up
   to half the cache's slots: past that many fills the full fill costs at
   most two slots per filled slot, so a reset stays linear in what was
   filled either way.  Starting small keeps the many short-lived
   managers that fill little from paying for a large log. *)
let cache_log ccap = Array.make (min 1024 (ccap / 2)) 0

(* Variable indices run from 0 to [max_vars - 1].  The paper's machines
   use a few hundred variables; the bound keeps an index read from
   untrusted text (a serialized DAG) from growing the projection table
   without limit. *)
let max_vars = 1 lsl 16

let rec next_pow2 n k = if k >= n then k else next_pow2 n (k * 2)

let make_store ~solo ~nvars ~stripes ~min_capacity =
  let rec terminal =
    { id = 0; var = const_var; n_hi = self; n_lo = self; mark = false }
  and self = { neg = false; node = terminal } in
  {
    sh_solo = solo;
    sh_stripes =
      Array.init stripes (fun k ->
          {
            lock = Mutex.create ();
            slots = Array.make min_capacity terminal;
            mask = min_capacity - 1;
            count = 0;
            next_id = k + 1;
            made = 0;
            peak = 0;
          });
    sh_min_capacity = min_capacity;
    sh_terminal = terminal;
    sh_top = self;
    sh_vars = Atomic.make nvars;
    sh_lock = Mutex.create ();
    sh_views = [];
    sh_free = [];
    sh_intern_retries = Atomic.make 0;
    sh_gc_runs = Atomic.make 0;
    sh_gc_reclaimed = Atomic.make 0;
  }

(* The one view constructor.  Registration makes the view a GC root
   source of its store, so a view is attached before anything is rooted
   through it. *)
let make_view ?(cache_bits = default_cache_bits)
    ?(cache_budget = default_cache_budget) sh =
  let cache_bits = max 1 (min 24 cache_bits) in
  let ccap = 1 lsl cache_bits in
  (* byte budget, rounded down to a power of two of entries, but never
     below the initial size *)
  let cache_max_entries =
    let budget_entries = max 1 (cache_budget / bytes_per_cache_entry) in
    let rec down k = if k * 2 <= budget_entries then down (k * 2) else k in
    max ccap (down 1)
  in
  let nvars = Atomic.get sh.sh_vars in
  let view =
    {
      vars = nvars;
      ck0 = Array.make ccap min_int;
      ck1 = Array.make ccap 0;
      ck2 = Array.make ccap 0;
      cres = Array.make ccap sh.sh_top;
      cmask = ccap - 1;
      centries = 0;
      clog = cache_log ccap;
      cache_init_entries = ccap;
      cache_max_entries;
      evict_since_resize = 0;
      terminal = sh.sh_terminal;
      top = sh.sh_top;
      iarr_ids =
        (let t = Hashtbl.create 64 in
         Hashtbl.add t [||] 0;
         t);
      next_iarr = 1;
      cube_suffixes = Hashtbl.create 64;
      var_edges = Array.make (max 16 nvars) None;
      refs = Hashtbl.create 64;
      budget = None;
      seen = [||];
      seen_count = 0;
      epoch = 0;
      walking = false;
      var_marks = Bytes.empty;
      n_ite = 0;
      n_and = 0;
      n_xor = 0;
      n_constrain = 0;
      n_restrict = 0;
      n_quantify = 0;
      n_and_exists = 0;
      n_agree = 0;
      c_lookups = 0;
      c_hits = 0;
      c_stores = 0;
      c_evicts = 0;
      gc_runs = 0;
      gc_nodes = 0;
      store = sh;
    }
  in
  Mutex.lock sh.sh_lock;
  sh.sh_views <- view :: sh.sh_views;
  Mutex.unlock sh.sh_lock;
  view

let new_man ?(nvars = 0) ?cache_bits ?cache_budget () =
  make_view ?cache_bits ?cache_budget
    (make_store ~solo:true ~nvars ~stripes:1
       ~min_capacity:min_unique_capacity)

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

(* Cofactors push the edge's complement bit through the node; a regular
   edge's cofactor is the stored child edge itself, so only a
   complemented parent allocates. *)
let hi e =
  let n = e.node in
  if n.var = const_var then e
  else if not e.neg then n.n_hi
  else { neg = true; node = n.n_hi.node }

let lo e =
  let n = e.node in
  if n.var = const_var then e
  else if not e.neg then n.n_lo
  else { neg = not n.n_lo.neg; node = n.n_lo.node }

let branches e v =
  assert (topvar e >= v);
  if topvar e = v then (hi e, lo e) else (e, e)

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

(* A new empty cache of [ccap] slots. *)
let cache_alloc man ccap =
  man.ck0 <- Array.make ccap min_int;
  man.ck1 <- Array.make ccap 0;
  man.ck2 <- Array.make ccap 0;
  man.cres <- Array.make ccap man.top;
  man.cmask <- ccap - 1;
  man.centries <- 0;
  man.clog <- cache_log ccap;
  man.evict_since_resize <- 0

let cache_grow man =
  let ok0 = man.ck0 and ok1 = man.ck1 and ok2 = man.ck2 and ores = man.cres in
  let ocap = man.cmask + 1 in
  let ncap = (man.cmask + 1) * 2 in
  cache_alloc man ncap;
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

(* ----- unique table: stripes ----- *)

let u_hash var hid luid =
  let h = (var * 0x9e3779b1) lxor (hid * 0x85ebca6b) lxor (luid * 0xc2b2ae35) in
  (h lxor (h lsr 15)) land max_int

(* Stripe selection uses bits 30.. of the node hash; in-stripe probing
   uses the low bits.  Stripes would need to exceed 2^30 slots before
   the two ranges overlap. *)
let stripe_shift = 30

let[@inline] stripe_of sh h =
  sh.sh_stripes.((h lsr stripe_shift) land (Array.length sh.sh_stripes - 1))

let store_sum sh f = Array.fold_left (fun acc t -> acc + f t) 0 sh.sh_stripes

(* Read at every budgeted recursion step, so a plain loop, not a fold. *)
let live_count man =
  let stripes = man.store.sh_stripes in
  let live = ref 0 in
  for k = 0 to Array.length stripes - 1 do
    live := !live + stripes.(k).count
  done;
  !live

(* Insert a node known to be absent (growth and collection rebuilds). *)
let table_insert_fresh terminal t n =
  let mask = t.mask in
  let i = ref (u_hash n.var n.n_hi.node.id (uid n.n_lo) land mask) in
  while t.slots.(!i) != terminal do
    i := (!i + 1) land mask
  done;
  t.slots.(!i) <- n

let table_rebuild terminal t newcap keep =
  let old = t.slots in
  t.slots <- Array.make newcap terminal;
  t.mask <- newcap - 1;
  let count = ref 0 in
  Array.iter
    (fun n ->
       if n != terminal && keep n then begin
         incr count;
         table_insert_fresh terminal t n
       end)
    old;
  t.count <- !count

(* Find or insert [(var, h, l)] in stripe [t] ([h0] is its hash); on
   a striped store the caller holds [t.lock].  A stripe about to pass 75%
   load doubles first. *)
let table_intern sh t var h l h0 =
  if (t.count + 1) * 4 > (t.mask + 1) * 3 then begin
    let old_capacity = t.mask + 1 in
    table_rebuild sh.sh_terminal t (old_capacity * 2) (fun _ -> true);
    trace_resize "bdd.table_grow" ~old_capacity ~new_capacity:(t.mask + 1)
  end;
  let hid = h.node.id and luid = uid l in
  let mask = t.mask in
  let rec probe i =
    let n = t.slots.(i) in
    if n == sh.sh_terminal then begin
      let n = { id = t.next_id; var; n_hi = h; n_lo = l; mark = false } in
      t.next_id <- t.next_id + Array.length sh.sh_stripes;
      t.made <- t.made + 1;
      t.count <- t.count + 1;
      if t.count > t.peak then t.peak <- t.count;
      t.slots.(i) <- n;
      { neg = false; node = n }
    end
    else if n.var = var && n.n_hi.node.id = hid && uid n.n_lo = luid then
      { neg = false; node = n }
    else probe ((i + 1) land mask)
  in
  probe (h0 land mask)

(* Intern a node whose then-edge is already regular.  Only a striped
   store locks the stripe: concurrent interns from several domains meet
   there. *)
let intern man var ~hi:h ~lo:l =
  assert (not h.neg);
  let sh = man.store in
  let h0 = u_hash var h.node.id (uid l) in
  let t = stripe_of sh h0 in
  if sh.sh_solo then table_intern sh t var h l h0
  else begin
    if not (Mutex.try_lock t.lock) then begin
      Atomic.incr sh.sh_intern_retries;
      Mutex.lock t.lock
    end;
    let e = table_intern sh t var h l h0 in
    Mutex.unlock t.lock;
    e
  end

let mk man var ~hi:h ~lo:l =
  assert (var < topvar h && var < topvar l);
  if equal h l then h
  else if h.neg then compl (intern man var ~hi:(compl h) ~lo:(compl l))
  else intern man var ~hi:h ~lo:l

let ithvar man i =
  if i < 0 || i >= max_vars then
    invalid_arg
      (Printf.sprintf "Core_dd.ithvar: variable %d outside [0, %d)" i max_vars);
  if i >= man.vars then begin
    man.vars <- i + 1;
    let sh = man.store in
    let rec bump () =
      let v = Atomic.get sh.sh_vars in
      if man.vars > v && not (Atomic.compare_and_set sh.sh_vars v man.vars)
      then bump ()
    in
    bump ()
  end;
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

(* Roots are registered per view, in the view's own table: the
   collector reads every view's table, and runs only while no other
   domain operates on the store (see [gc]). *)
let ref_ man e =
  let n = e.node in
  if n.var <> const_var then
    match Hashtbl.find_opt man.refs n.id with
    | Some (_, c) -> incr c
    | None -> Hashtbl.add man.refs n.id (n, ref 1)

let deref man e =
  let n = e.node in
  if n.var <> const_var then
    match Hashtbl.find_opt man.refs n.id with
    | Some (_, c) ->
      decr c;
      if !c <= 0 then Hashtbl.remove man.refs n.id
    | None -> ()

let with_root man e k =
  ref_ man e;
  Fun.protect ~finally:(fun () -> deref man e) (fun () -> k e)

let rec gc_mark n =
  if n.var <> const_var && not n.mark then begin
    n.mark <- true;
    gc_mark n.n_hi.node;
    gc_mark n.n_lo.node
  end

(* The node walker's visited set (see [first_visit]) is scratch, sized
   by the largest walk since it was made.  A set grown past both
   [seen_kept] slots and four slots per live node is dropped; the next
   walk starts a small one. *)
let seen_min = 1024
let seen_kept = 1 lsl 16

let seen_trim v ~live =
  if (not v.walking) && Array.length v.seen > max seen_kept (4 * live) then
    v.seen <- [||]

(* The one collector, run only when a caller asks.  Precondition on a
   striped store: no other domain is inside an operation on any view of
   the store — the caller-held contract that also keeps a view to one
   domain at a time.  Mark from every view's roots and projection edges
   and from [roots], rebuild each stripe keeping the marked nodes
   (shrinking it when the survivors rattle around in it; growth is
   [intern]'s business), and reset every view's computed cache (cached
   results may reference swept nodes). *)
let gc ?(roots = []) man =
  let sh = man.store in
  Mutex.lock sh.sh_lock;
  let views = sh.sh_views in
  Mutex.unlock sh.sh_lock;
  List.iter
    (fun v ->
       Hashtbl.iter (fun _ (n, _) -> gc_mark n) v.refs;
       Array.iter
         (function Some e -> gc_mark e.node | None -> ())
         v.var_edges)
    views;
  List.iter (fun e -> gc_mark e.node) roots;
  let before = live_count man in
  let min_cap = sh.sh_min_capacity in
  Array.iter
    (fun t ->
       let marked =
         Array.fold_left
           (fun acc n ->
              if n != sh.sh_terminal && n.mark then acc + 1 else acc)
           0 t.slots
       in
       let wanted = next_pow2 (max min_cap (marked * 2)) min_cap in
       table_rebuild sh.sh_terminal t (min (t.mask + 1) wanted) (fun n ->
           if n.mark then begin
             n.mark <- false;
             true
           end
           else false))
    sh.sh_stripes;
  let live = live_count man in
  List.iter
    (fun v ->
       cache_reset v;
       seen_trim v ~live)
    views;
  let reclaimed = before - live in
  man.gc_runs <- man.gc_runs + 1;
  man.gc_nodes <- man.gc_nodes + reclaimed;
  Atomic.incr sh.sh_gc_runs;
  ignore (Atomic.fetch_and_add sh.sh_gc_reclaimed reclaimed);
  trace_gc ~reclaimed ~live_nodes:(live + 1);
  reclaimed

(* Back to the state [new_man] leaves, keeping the allocations that
   did not grow: the unique table is emptied (and shrunk to its minimum
   capacity if it grew), numbering restarts at 1, the computed cache is
   emptied in O(filled) (or reallocated at its creation size if it
   grew), and roots, projection edges, cube tables, the budget and every
   counter are cleared.  Only a private manager owns its whole store.
   The walker's visited set is scratch, not state: it is kept unless a
   large walk grew it past [seen_kept] slots. *)
let reset man =
  let sh = man.store in
  if not sh.sh_solo then invalid_arg "Core_dd.reset: view of a shared store";
  let t = sh.sh_stripes.(0) in
  if t.mask + 1 > sh.sh_min_capacity then begin
    t.slots <- Array.make sh.sh_min_capacity sh.sh_terminal;
    t.mask <- sh.sh_min_capacity - 1
  end
  else Array.fill t.slots 0 (Array.length t.slots) sh.sh_terminal;
  t.count <- 0;
  t.next_id <- 1;
  t.made <- 0;
  t.peak <- 0;
  Atomic.set sh.sh_vars 0;
  Atomic.set sh.sh_intern_retries 0;
  Atomic.set sh.sh_gc_runs 0;
  Atomic.set sh.sh_gc_reclaimed 0;
  man.vars <- 0;
  Array.fill man.var_edges 0 (Array.length man.var_edges) None;
  if man.cmask + 1 > man.cache_init_entries then
    cache_alloc man man.cache_init_entries
  else cache_reset man;
  Hashtbl.reset man.iarr_ids;
  Hashtbl.add man.iarr_ids [||] 0;
  man.next_iarr <- 1;
  Hashtbl.reset man.cube_suffixes;
  Hashtbl.reset man.refs;
  man.budget <- None;
  man.n_ite <- 0;
  man.n_and <- 0;
  man.n_xor <- 0;
  man.n_constrain <- 0;
  man.n_restrict <- 0;
  man.n_quantify <- 0;
  man.n_and_exists <- 0;
  man.n_agree <- 0;
  man.c_lookups <- 0;
  man.c_hits <- 0;
  man.c_stores <- 0;
  man.c_evicts <- 0;
  man.gc_runs <- 0;
  man.gc_nodes <- 0;
  seen_trim man ~live:0

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
let tag_agree = 9
let tag_agree2 = 10

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
      let ft, fe = branches f v and gt, ge = branches g v in
      let t = and_rec man ft gt in
      let e = and_rec man fe ge in
      let r = mk man v ~hi:t ~lo:e in
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
        let ft, fe = branches f v and gt, ge = branches g v in
        let t = xor_rec man ft gt in
        let e = xor_rec man fe ge in
        let r = mk man v ~hi:t ~lo:e in
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
    let ft, fe = branches f v
    and gt, ge = branches g v
    and ht, he = branches h v in
    let t = ite_norm man ft gt ht in
    let e = ite_norm man fe ge he in
    let r = mk man v ~hi:t ~lo:e in
    cache_store man k0 k1 k2 r;
    r

let ite man f g h =
  budget_entry man;
  ite_norm man f g h

let and_ man f g =
  budget_entry man;
  and_rec man f g

let or_ man f g =
  budget_entry man;
  or_rec man f g

let xor man f g =
  budget_entry man;
  xor_rec man f g

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

(* The agreement test: does [c·(f ⊕ g) = 0] hold?  A yes/no question,
   so it is decided without interning a node: the recursion walks the
   cofactors of its three operands and stops at the first path on which
   [c] holds and [f] and [g] differ.  Inside [c] an operand equal to [c]
   is the constant 1 (to [¬c], 0).  [f ⊕ g = ¬f ⊕ ¬g], so after ordering
   the pair by node id both are flipped to make the first regular, and
   symmetric calls share one cache entry; the verdict is cached as a
   constant edge. *)
let inside man c e =
  if equal e c then one man else if is_compl_pair e c then zero man else e

let rec agree_rec man c f g =
  if is_zero c || equal f g then true
  else if is_one c || is_compl_pair f g then false
  else
    let f = inside man c f and g = inside man c g in
    if equal f g then true
    else if is_compl_pair f g then false
    else begin
      let f, g = if f.node.id <= g.node.id then (f, g) else (g, f) in
      let f, g = if f.neg then (compl f, compl g) else (f, g) in
      let k0 = pack_tag tag_agree (uid c) and k1 = uid f and k2 = uid g in
      match cache_find man k0 k1 k2 with
      | Some r -> is_one r
      | None ->
        budget_tick man;
        man.n_agree <- man.n_agree + 1;
        let v = min (topvar c) (min (topvar f) (topvar g)) in
        let ct, ce = branches c v
        and ft, fe = branches f v
        and gt, ge = branches g v in
        let r = agree_rec man ct ft gt && agree_rec man ce fe ge in
        cache_store man k0 k1 k2 (if r then one man else zero man);
        r
    end

(* The agreement test under a product of care sets: does
   [c·d·(f ⊕ g) = 0] hold?  The same walk as [agree_rec] over four
   operands, so the product [c·d] is never built.  It ends in [agree_rec]
   once [c] and [d] collapse to one operand.  The product commutes, so
   [c], [d] are ordered by uid; [f], [g] are normalized as in
   [agree_rec].  [f] is then regular, so its uid's low bit carries [g]'s
   complement bit, and the key words [(c, d, f, g.neg)] leave only [g]'s
   node out: the result slot holds [g] for a yes and [¬g] for a no, and
   a lookup hits only when the stored node is [g]'s. *)
let rec agree2_rec man c d f g =
  if is_zero c || is_zero d || is_compl_pair c d || equal f g then true
  else if is_one c then agree_rec man d f g
  else if is_one d || equal c d then agree_rec man c f g
  else
    let f = inside man d (inside man c f) and g = inside man d (inside man c g) in
    if equal f g then true
    else if is_compl_pair f g then agree_rec man c d (zero man)
    else begin
      let c, d = if uid c <= uid d then (c, d) else (d, c) in
      let f, g = if f.node.id <= g.node.id then (f, g) else (g, f) in
      let f, g = if f.neg then (compl f, compl g) else (f, g) in
      let k0 = pack_tag tag_agree2 (uid c) and k1 = uid d in
      let k2 = uid f lor Bool.to_int g.neg in
      man.c_lookups <- man.c_lookups + 1;
      let i = c_slot man k0 k1 k2 in
      if
        man.ck0.(i) = k0 && man.ck1.(i) = k1 && man.ck2.(i) = k2
        && man.cres.(i).node == g.node
      then begin
        man.c_hits <- man.c_hits + 1;
        man.cres.(i).neg = g.neg
      end
      else begin
        budget_tick man;
        man.n_agree <- man.n_agree + 1;
        let v = min (min (topvar c) (topvar d)) (min (topvar f) (topvar g)) in
        let ct, ce = branches c v
        and dt, de = branches d v
        and ft, fe = branches f v
        and gt, ge = branches g v in
        let r = agree2_rec man ct dt ft gt && agree2_rec man ce de fe ge in
        cache_store man k0 k1 k2 (if r then g else compl g);
        r
      end
    end

let agree man c f g =
  budget_entry man;
  agree_rec man c f g

let agree2 man c d f g =
  budget_entry man;
  agree2_rec man c d f g

let leq man f g = agree man f g (one man)

(* ----- Cofactor with respect to an arbitrary variable ----- *)

let cofactor man f ~var phase =
  budget_entry man;
  let memo = Hashtbl.create 64 in
  let rec go f =
    if topvar f > var then f
    else if topvar f = var then if phase then hi f else lo f
    else
      match Hashtbl.find_opt memo (uid f) with
      | Some r -> r
      | None ->
        let r = mk man (topvar f) ~hi:(go (hi f)) ~lo:(go (lo f)) in
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
   persist across calls.  [combine] is the recursion-level kernel
   ([or_rec]/[and_rec]), not the public entry point, which would poll
   the budget's clock again at every step. *)
let quantify_rec man tag combine vars suffix i0 f0 =
  let nv = Array.length vars in
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
        let i' = if topvar f = v then i + 1 else i in
        let t = go i' (hi f) and e = go i' (lo f) in
        let r =
          if topvar f = v then combine man t e
          else mk man (topvar f) ~hi:t ~lo:e
        in
        cache_store man k0 k1 0 r;
        r
  in
  go i0 f0

let exists man vars f =
  budget_entry man;
  let vars, suffix = cube_of_list man vars in
  quantify_rec man tag_exists or_rec vars suffix 0 f

let forall man vars f =
  budget_entry man;
  let vars, suffix = cube_of_list man vars in
  quantify_rec man tag_forall and_rec vars suffix 0 f

let and_exists man vars f g =
  budget_entry man;
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
          let ft, fe = branches f top and gt, ge = branches g top in
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
    budget_entry man;
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
          let r = ite_norm man test (go (hi f)) (go (lo f)) in
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
      let ft, fe = branches f v and ct, ce = branches c v in
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
  budget_entry man;
  constrain_rec man f c

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
        if cv < fv then restrict_rec man f (or_rec man (hi c) (lo c))
        else
          let ft, fe = branches f fv and ct, ce = branches c fv in
          if is_zero ce then restrict_rec man ft ct
          else if is_zero ct then restrict_rec man fe ce
          else
            mk man fv ~hi:(restrict_rec man ft ct) ~lo:(restrict_rec man fe ce)
      in
      cache_store man k0 k1 0 r;
      r

let restrict man f c =
  if is_zero c then invalid_arg "Core_dd.restrict: empty care set";
  budget_entry man;
  restrict_rec man f c

(* ----- Inspection ----- *)

(* The one node walker.  Each view keeps the set of node ids the
   current walk has visited in [seen], open-addressed with linear
   probing from slot [id land mask]; a filled slot holds
   [id lsl epoch_bits lor epoch].  Every walk takes a new epoch, so a
   slot an earlier walk filled reads as empty: a walk allocates nothing
   per node and clears the array only when the epoch wraps.  The array
   doubles when a walk fills half of it, so its size follows the largest
   walk, never more than the nodes alive, not the ids the store has
   handed out ([gc] and [reset] drop a set that outgrew the live nodes).
   A fresh manager numbers its nodes densely, so they land in distinct
   slots.  The set is the view's, so a walk started inside another
   walk's callback on the same view would overwrite it: it raises
   [Invalid_argument] instead. *)

let epoch_bits = 16
let epoch_mask = (1 lsl epoch_bits) - 1

let walk_begin man =
  if man.walking then invalid_arg "Core_dd: nested node walk on one manager";
  man.walking <- true;
  man.seen_count <- 0;
  if Array.length man.seen = 0 then man.seen <- Array.make seen_min 0;
  if man.epoch = epoch_mask then begin
    Array.fill man.seen 0 (Array.length man.seen) 0;
    man.epoch <- 1
  end
  else man.epoch <- man.epoch + 1

(* Double the set, keeping the current walk's ids. *)
let seen_grow man =
  let s = Array.make (2 * Array.length man.seen) 0 in
  let mask = Array.length s - 1 in
  Array.iter
    (fun key ->
       if key land epoch_mask = man.epoch then begin
         let i = ref ((key lsr epoch_bits) land mask) in
         while s.(!i) <> 0 do i := (!i + 1) land mask done;
         s.(!i) <- key
       end)
    man.seen;
  man.seen <- s

let rec probe man s mask key i =
  let x = Array.unsafe_get s i in
  if x = key then false
  else if x land epoch_mask = man.epoch then
    probe man s mask key ((i + 1) land mask)
  else begin
    Array.unsafe_set s i key;
    man.seen_count <- man.seen_count + 1;
    if 2 * man.seen_count > mask + 1 then seen_grow man;
    true
  end

(* Add node [id] to the current walk's set; [false] if it was there. *)
let[@inline] first_visit man id =
  let s = man.seen in
  let mask = Array.length s - 1 in
  probe man s mask ((id lsl epoch_bits) lor man.epoch) (id land mask)

let walk_slots man = Array.length man.seen

let grow_bytes b needed =
  let b' = Bytes.make (next_pow2 (needed + 1) (max 1024 (Bytes.length b))) '\000' in
  Bytes.blit b 0 b' 0 (Bytes.length b);
  b'

let walk_run man go fs =
  match List.iter (fun e -> go e.node) fs with
  | () -> man.walking <- false
  | exception ex ->
    man.walking <- false;
    raise ex

(* [k] sees every node reachable from [fs] once, terminal included,
   depth-first with then before else. *)
let walk man fs k =
  walk_begin man;
  let rec go n =
    if first_visit man n.id then begin
      k n;
      if n.var <> const_var then begin
        go n.n_hi.node;
        go n.n_lo.node
      end
    end
  in
  walk_run man go fs

(* Children first: [k id var hi lo] sees each internal node after both
   of its children, with the node's own (stored, unallocated) edges. *)
let iter_nodes_post man fs k =
  walk_begin man;
  let rec go n =
    if first_visit man n.id && n.var <> const_var then begin
      go n.n_hi.node;
      go n.n_lo.node;
      k n.id n.var n.n_hi n.n_lo
    end
  in
  walk_run man go fs

let iter_nodes man f k = walk man [ f ] (fun n -> k n.id n.var)

let shared_size man fs =
  let count = ref 0 in
  walk man fs (fun _ -> incr count);
  !count

let size man f = shared_size man [ f ]

(* A variable is listed once, the first time the walk meets it; the
   marks are cleared from the list afterwards. *)
let support man f =
  let vars = ref [] in
  walk man [ f ] (fun n ->
      let v = n.var in
      if v <> const_var then begin
        if v >= Bytes.length man.var_marks then
          man.var_marks <- grow_bytes man.var_marks v;
        if Bytes.unsafe_get man.var_marks v = '\000' then begin
          Bytes.unsafe_set man.var_marks v '\001';
          vars := v :: !vars
        end
      end);
  List.iter (fun v -> Bytes.unsafe_set man.var_marks v '\000') !vars;
  List.sort compare !vars

let eval f assign =
  let rec go e =
    if is_const e then not e.neg
    else go (if assign e.node.var then hi e else lo e)
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
        let d = 0.5 *. (density (hi e) +. density (lo e)) in
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
    agree_recursions : int;
    interned_cubes : int;
    gc_runs : int;
    gc_reclaimed : int;
  }

  let hit_rate s =
    if s.cache_lookups = 0 then 0.0
    else float_of_int s.cache_hits /. float_of_int s.cache_lookups

  (* The one spelled-out list of the counters: every printed, summed or
     serialized view derives from it. *)
  let fields s =
    [
      ("vars", s.vars);
      ("live_nodes", s.live_nodes);
      ("peak_live_nodes", s.peak_live_nodes);
      ("interned_total", s.interned_total);
      ("unique_capacity", s.unique_capacity);
      ("external_refs", s.external_refs);
      ("cache_entries", s.cache_entries);
      ("cache_capacity", s.cache_capacity);
      ("cache_lookups", s.cache_lookups);
      ("cache_hits", s.cache_hits);
      ("cache_stores", s.cache_stores);
      ("cache_evictions", s.cache_evictions);
      ("ite_recursions", s.ite_recursions);
      ("and_recursions", s.and_recursions);
      ("xor_recursions", s.xor_recursions);
      ("constrain_recursions", s.constrain_recursions);
      ("restrict_recursions", s.restrict_recursions);
      ("quantify_recursions", s.quantify_recursions);
      ("and_exists_recursions", s.and_exists_recursions);
      ("agree_recursions", s.agree_recursions);
      ("interned_cubes", s.interned_cubes);
      ("gc_runs", s.gc_runs);
      ("gc_reclaimed", s.gc_reclaimed);
    ]

  let pp ppf s =
    Format.fprintf ppf "@[<v>";
    List.iter (fun (k, v) -> Format.fprintf ppf "%-21s %d@," k v) (fields s);
    Format.fprintf ppf "%-21s %.1f%%@]" "cache_hit_rate" (100.0 *. hit_rate s)

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
      agree_recursions = after.agree_recursions - before.agree_recursions;
      interned_cubes = after.interned_cubes - before.interned_cubes;
      gc_runs = after.gc_runs - before.gc_runs;
      gc_reclaimed = after.gc_reclaimed - before.gc_reclaimed;
    }
end

(* The table quantities (live nodes, peak, interned total, capacity) are
   the store's, summed over its stripes; the cache and recursion counters
   stay the view's own.  The stripes peak at different moments, so on a
   striped store the summed peak is an upper bound on the store's peak
   (exact on a one-stripe store). *)
let snapshot man : Stats.t =
  let sum = store_sum man.store in
  {
    Stats.vars = man.vars;
    live_nodes = sum (fun t -> t.count) + 1;
    peak_live_nodes = sum (fun t -> t.peak) + 1;
    interned_total = sum (fun t -> t.made);
    unique_capacity = sum (fun t -> t.mask + 1);
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
    agree_recursions = man.n_agree;
    interned_cubes = man.next_iarr;
    gc_runs = man.gc_runs;
    gc_reclaimed = man.gc_nodes;
  }

(* Structural audit of the manager's store: every stored node satisfies
   the canonical-form invariants, no (var, then, else) key appears
   twice anywhere in the store, and every stripe's live count matches
   its slots.  Returns the live node count. *)
let self_check man =
  let sh = man.store in
  let fail what = failwith ("Bdd.self_check: " ^ what) in
  let seen = Hashtbl.create 4096 in
  let total = ref 0 in
  Array.iter
    (fun t ->
       Mutex.lock t.lock;
       let count = ref 0 in
       Array.iter
         (fun n ->
            if n != sh.sh_terminal then begin
              incr count;
              if n.n_hi.neg then fail "complemented then-edge";
              if n.var >= n.n_hi.node.var || n.var >= n.n_lo.node.var then
                fail "level order violated";
              if n.n_hi.node == n.n_lo.node && n.n_hi.neg = n.n_lo.neg then
                fail "redundant node";
              let key = (n.var, n.n_hi.node.id, uid n.n_lo) in
              if Hashtbl.mem seen key then fail "duplicate node (canonicity)";
              Hashtbl.add seen key ()
            end)
         t.slots;
       let drifted = !count <> t.count in
       Mutex.unlock t.lock;
       if drifted then fail "live count drifted";
       total := !total + !count)
    sh.sh_stripes;
  !total

(* ----- Concurrent manager tier: the striped store's public face ----- *)

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

  let create ?(stripes = 64) () =
    if stripes < 1 then invalid_arg "Shared.create: stripes";
    make_store ~solo:false ~nvars:0
      ~stripes:(min 1024 (next_pow2 stripes 1))
      ~min_capacity:min_stripe_capacity

  let attach sh = make_view sh

  (* A private manager's solo store is not shareable. *)
  let store_of man = if man.store.sh_solo then None else Some man.store

  (* Deregistration drops the view's roots: nodes only it kept alive
     become garbage at the next collection. *)
  let detach man =
    match store_of man with
    | None -> invalid_arg "Shared.detach: private manager"
    | Some sh ->
      Mutex.lock sh.sh_lock;
      sh.sh_views <- List.filter (fun v -> v != man) sh.sh_views;
      sh.sh_free <- List.filter (fun v -> v != man) sh.sh_free;
      Mutex.unlock sh.sh_lock;
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

  let telemetry sh =
    let sum = store_sum sh in
    {
      stripes = Array.length sh.sh_stripes;
      views = view_count sh;
      live_nodes = sum (fun t -> t.count);
      peak_live_nodes = sum (fun t -> t.peak);
      interned_total = sum (fun t -> t.made);
      intern_retries = Atomic.get sh.sh_intern_retries;
      gc_runs = Atomic.get sh.sh_gc_runs;
      gc_reclaimed = Atomic.get sh.sh_gc_reclaimed;
      barrier_waits = 0;
      barrier_wait_ns = 0;
    }
end
