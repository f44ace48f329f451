(* Engine storage-layer tests: the lossy computed cache, unique-table
   garbage collection, the external-reference API, and the statistics
   counters.  The differential properties compare a stressed manager
   (tiny forced-eviction cache, forced GC cycles) against a fresh default
   manager through truth tables, which is exactly the guarantee the
   engine makes: evictions and collections may cost recomputation or
   canonicity of stale edges, never correctness. *)

module Tt = Logic.Truth_table

let nvars = 4

(* Deterministic function family from a seed. *)
let tt_of_seed n seed =
  let st = Random.State.make [| seed; n; 0xcafe |] in
  Tt.create n (fun _ -> Random.State.bool st)

let gen_seeds =
  QCheck2.Gen.(
    let* a = int_bound 0xFFFFF in
    let* b = int_bound 0xFFFFF in
    return (a, b))

(* Run every binary/unary operator of interest on (f, c) and return the
   results as truth tables, so they can be compared across managers. *)
let op_results man f c =
  let c_nz = if Bdd.is_zero c then Bdd.one man else c in
  let results =
    [
      Bdd.dand man f c;
      Bdd.dor man f c;
      Bdd.dxor man f c;
      Bdd.ite man f c (Bdd.compl c);
      Bdd.constrain man f c_nz;
      Bdd.restrict man f c_nz;
      Bdd.exists man [ 0; 2 ] f;
      Bdd.forall man [ 1 ] c;
      Bdd.and_exists man [ 0; 1 ] f c;
      Bdd.compose man f ~var:1 c;
    ]
  in
  List.map (fun g -> Tt.of_bdd man ~nvars g) results

let tiny_cache_differential =
  Util.qtest ~count:150 "4-entry lossy cache computes the same functions"
    gen_seeds
    (fun (s1, s2) ->
       (* cache_bits = 2 and a budget that forbids growth: every probe
          conflicts constantly, so most lookups are forced evictions. *)
       let small = Bdd.create ~cache_bits:2 ~cache_bytes:0 () in
       let big = Bdd.create () in
       let ft = tt_of_seed nvars s1 and ct = tt_of_seed nvars s2 in
       let r_small =
         op_results small (Tt.to_bdd small ft) (Tt.to_bdd small ct)
       in
       let r_big = op_results big (Tt.to_bdd big ft) (Tt.to_bdd big ct) in
       List.for_all2 Tt.equal r_small r_big)

let forced_gc_differential =
  Util.qtest ~count:150 "forced GC cycles never change operator results"
    gen_seeds
    (fun (s1, s2) ->
       let man = Bdd.create () in
       let big = Bdd.create () in
       let ft = tt_of_seed nvars s1 and ct = tt_of_seed nvars s2 in
       let f = Tt.to_bdd man ft and c = Tt.to_bdd man ct in
       (* Root the inputs, then interleave operator runs with full
          collections: results computed before a GC become stale garbage,
          and recomputing them afterwards must give the same functions. *)
       Bdd.ref_ man f;
       Bdd.ref_ man c;
       let r1 = op_results man f c in
       ignore (Bdd.gc man);
       let r2 = op_results man f c in
       ignore (Bdd.gc man);
       ignore (Bdd.gc man);
       let r3 = op_results man f c in
       let r_big = op_results big (Tt.to_bdd big ft) (Tt.to_bdd big ct) in
       List.for_all2 Tt.equal r1 r_big
       && List.for_all2 Tt.equal r2 r_big
       && List.for_all2 Tt.equal r3 r_big)

let kernel_vs_ite_differential =
  Util.qtest ~count:200 "specialized and/or/xor kernels agree with raw ite"
    gen_seeds
    (fun (s1, s2) ->
       let man = Bdd.create () in
       let f = Tt.to_bdd man (tt_of_seed nvars s1) in
       let g = Tt.to_bdd man (tt_of_seed nvars s2) in
       (* The 3-operand encodings the kernels replace.  [ite] itself
          dispatches binary shapes to the kernels, so the reference here
          is the Shannon expansion built from cofactors — an independent
          path through the engine. *)
       let ite_ref a b c =
         (* a·b + ¬a·c computed pointwise on truth tables *)
         let tt x = Tt.of_bdd man ~nvars x in
         Tt.to_bdd man
           (Tt.bor (Tt.band (tt a) (tt b)) (Tt.band (Tt.bnot (tt a)) (tt c)))
       in
       let cases =
         [
           (Bdd.and_ man f g, ite_ref f g (Bdd.zero man));
           (Bdd.or_ man f g, ite_ref f (Bdd.one man) g);
           (Bdd.xor man f g, ite_ref f (Bdd.compl g) g);
           (* complemented operands exercise the XOR sign factoring and
              the AND uid-ordering *)
           (Bdd.and_ man (Bdd.compl f) g, ite_ref (Bdd.compl f) g (Bdd.zero man));
           (Bdd.xor man (Bdd.compl f) (Bdd.compl g),
            ite_ref (Bdd.compl f) g (Bdd.compl g));
           (Bdd.xor man f (Bdd.compl g), ite_ref f g (Bdd.compl g));
         ]
       in
       List.for_all (fun (a, b) -> Bdd.equal a b) cases)

let kernel_counters () =
  let man = Bdd.create () in
  let x i = Bdd.ithvar man i in
  ignore (Bdd.and_ man (x 0) (x 1));
  ignore (Bdd.xor man (x 2) (x 3));
  let s = Bdd.snapshot man in
  Util.checkb "and kernel counted" (s.Bdd.Stats.and_recursions > 0);
  Util.checkb "xor kernel counted" (s.Bdd.Stats.xor_recursions > 0);
  (* De Morgan: or_ must reuse the and_ cache, not a separate opcode *)
  Bdd.clear_caches man;
  let f = Bdd.and_ man (x 0) (x 1) in
  let s1 = Bdd.snapshot man in
  let g = Bdd.or_ man (Bdd.compl (x 0)) (Bdd.compl (x 1)) in
  Util.checkb "De Morgan result" (Bdd.equal g (Bdd.compl f));
  let s2 = Bdd.snapshot man in
  Util.checkb "or_ hits the and_ cache"
    (s2.Bdd.Stats.cache_hits > s1.Bdd.Stats.cache_hits)

let stats_delta () =
  let man = Bdd.create () in
  let x i = Bdd.ithvar man i in
  let before = Bdd.snapshot man in
  let f = Bdd.and_ man (x 0) (Bdd.xor man (x 1) (x 2)) in
  let after = Bdd.snapshot man in
  let d = Bdd.Stats.delta ~before ~after in
  (* monotone counters are after - before... *)
  Util.checkb "work attributed to the window"
    (d.Bdd.Stats.and_recursions > 0 && d.Bdd.Stats.xor_recursions > 0);
  Util.checki "lookup delta"
    (after.Bdd.Stats.cache_lookups - before.Bdd.Stats.cache_lookups)
    d.Bdd.Stats.cache_lookups;
  Util.checki "interned delta"
    (after.Bdd.Stats.interned_total - before.Bdd.Stats.interned_total)
    d.Bdd.Stats.interned_total;
  (* ...while level quantities are the after-side values as-is *)
  Util.checki "live nodes are a level, not a delta"
    after.Bdd.Stats.live_nodes d.Bdd.Stats.live_nodes;
  Util.checki "vars are a level" after.Bdd.Stats.vars d.Bdd.Stats.vars;
  (* a fully cache-served window deltas to zero work *)
  let b2 = Bdd.snapshot man in
  ignore (Bdd.and_ man (x 0) (Bdd.xor man (x 1) (x 2)));
  let d2 = Bdd.Stats.delta ~before:b2 ~after:(Bdd.snapshot man) in
  Util.checki "no new recursions beyond the cached roots"
    d2.Bdd.Stats.cache_lookups d2.Bdd.Stats.cache_hits;
  Util.checki "nothing interned when served from cache" 0
    d2.Bdd.Stats.interned_total;
  Util.checki "no stores when served from cache" 0 d2.Bdd.Stats.cache_stores;
  ignore f

let canonicity_after_gc_churn =
  Util.qtest ~count:100 "equal iff same uid holds after GC under churn"
    gen_seeds
    (fun (s1, s2) ->
       let man = Bdd.create () in
       let f = Tt.to_bdd man (tt_of_seed nvars s1) in
       let c = Tt.to_bdd man (tt_of_seed nvars s2) in
       Bdd.ref_ man f;
       Bdd.ref_ man c;
       let ok = ref true in
       for round = 0 to 4 do
         (* churn: build and abandon garbage, then collect it *)
         ignore (Bdd.dxor man f (Bdd.ithvar man (round mod nvars)));
         ignore (Bdd.restrict man (Bdd.dor man f c) c);
         ignore (Bdd.gc man);
         (* the same function built two ways from rooted inputs must be
            one edge (same uid), and a different function must not *)
         let a = Bdd.dand man f c in
         let b = Bdd.compl (Bdd.dor man (Bdd.compl f) (Bdd.compl c)) in
         let d = Bdd.dor man f c in
         ok :=
           !ok && Bdd.equal a b
           && Bdd.uid a = Bdd.uid b
           && (Bdd.equal a d = (Bdd.uid a = Bdd.uid d))
       done;
       !ok)

let gc_reclaims_and_roots_survive () =
  let man = Bdd.create () in
  let x i = Bdd.ithvar man i in
  let kept = Bdd.dand man (x 0) (Bdd.dor man (x 1) (x 2)) in
  Bdd.ref_ man kept;
  let kept_uid = Bdd.uid kept in
  (* garbage: a sizable parity cone nothing roots *)
  let parity =
    List.fold_left (fun acc i -> Bdd.dxor man acc (x i)) (x 3)
      [ 4; 5; 6; 7; 8 ]
  in
  let live_before = (Bdd.snapshot man).Bdd.Stats.live_nodes in
  Util.checkb "garbage is live before gc" (Bdd.size man parity > 2);
  let reclaimed = Bdd.gc man in
  let s = Bdd.snapshot man in
  Util.checkb "something was reclaimed" (reclaimed > 0);
  Util.checki "live accounting" (live_before - reclaimed) s.Bdd.Stats.live_nodes;
  Util.checki "gc runs counted" 1 s.Bdd.Stats.gc_runs;
  Util.checki "reclaimed total counted" reclaimed s.Bdd.Stats.gc_reclaimed;
  Util.checki "audit after gc" (s.Bdd.Stats.live_nodes - 1) (Bdd.self_check man);
  (* the rooted cone still canonical: rebuilding it finds the same node *)
  let again = Bdd.dand man (x 0) (Bdd.dor man (x 1) (x 2)) in
  Util.checkb "rooted edge kept its identity" (Bdd.uid again = kept_uid);
  (* deref, and the cone becomes collectable *)
  Bdd.deref man kept;
  let reclaimed2 = Bdd.gc man in
  Util.checkb "deref makes the cone dead" (reclaimed2 > 0);
  Util.checki "only projection vars remain"
    (9 + 1)
    (Bdd.snapshot man).Bdd.Stats.live_nodes

let with_root_protects () =
  let man = Bdd.create () in
  let x i = Bdd.ithvar man i in
  let f = Bdd.dand man (x 0) (x 1) in
  let uid_inside =
    Bdd.with_root man f (fun f ->
        ignore (Bdd.gc man);
        (* still canonical inside the scope *)
        Bdd.uid (Bdd.dand man (x 0) (x 1)) = Bdd.uid f)
  in
  Util.checkb "rooted within with_root" uid_inside;
  Util.checki "root released on exit" 0
    (Bdd.snapshot man).Bdd.Stats.external_refs

let eviction_counters () =
  let man = Bdd.create ~cache_bits:1 ~cache_bytes:0 () in
  let x i = Bdd.ithvar man i in
  (* enough distinct operations to overflow a 2-entry cache many times *)
  let acc = ref (Bdd.zero man) in
  for i = 0 to 7 do
    acc := Bdd.dor man !acc (Bdd.dand man (x i) (x (i + 8)))
  done;
  let s = Bdd.snapshot man in
  Util.checkb "lookups counted" (s.Bdd.Stats.cache_lookups > 0);
  Util.checkb "stores counted" (s.Bdd.Stats.cache_stores > 0);
  Util.checkb "evictions happen in a 2-entry cache"
    (s.Bdd.Stats.cache_evictions > 0);
  Util.checkb "cache stayed within its budget"
    (s.Bdd.Stats.cache_capacity = 2);
  Util.checkb "apply recursions counted" (s.Bdd.Stats.and_recursions > 0)

let cache_growth_bounded () =
  (* 4-entry start, budget for exactly 64 entries: growth must stop there *)
  let man = Bdd.create ~cache_bits:2 ~cache_bytes:(64 * 32) () in
  let x i = Bdd.ithvar man i in
  let acc = ref (Bdd.zero man) in
  for i = 0 to 11 do
    acc := Bdd.dxor man !acc (Bdd.dand man (x i) (x (i + 12)))
  done;
  let s = Bdd.snapshot man in
  Util.checkb "cache grew" (s.Bdd.Stats.cache_capacity > 4);
  Util.checkb "cache bounded by the byte budget"
    (s.Bdd.Stats.cache_capacity <= 64)

(* Only a caller collects.  The same 12-latch relation, built twice by
   the un-rooted fold [Symbolic.transition_relation] uses, on a manager
   holding one rooted edge: without a collection in between, the two
   builds are the very same edge. *)
let no_collection_without_a_caller () =
  let man = Bdd.create () in
  let n = 12 in
  let x i = Bdd.ithvar man i in
  Bdd.ref_ man (Bdd.dand man (x 0) (x 1));
  let build () =
    Array.fold_left (Bdd.dand man) (Bdd.one man)
      (Array.init n (fun j ->
           Bdd.dxnor man
             (x (n + j))
             (Bdd.dxor man (x j)
                (Bdd.dand man (x ((j + 1) mod n)) (x ((j + 3) mod n))))))
  in
  let first = build () in
  let second = build () in
  Util.checki "no collection ran" 0 (Bdd.snapshot man).Bdd.Stats.gc_runs;
  Util.checkb "both builds are the same edge" (Bdd.equal first second)

let stats_labels_honest () =
  let man = Bdd.create () in
  let x i = Bdd.ithvar man i in
  let f = Bdd.dand man (x 0) (x 1) in
  ignore (Bdd.dor man f (x 2));
  let s = Bdd.snapshot man in
  (* live and interned agree before any gc (plus the terminal) *)
  Util.checki "live = interned + terminal before gc"
    (s.Bdd.Stats.interned_total + 1) s.Bdd.Stats.live_nodes;
  ignore (Bdd.gc man);
  let s' = Bdd.snapshot man in
  Util.checkb "gc separates live from interned"
    (s'.Bdd.Stats.live_nodes < s'.Bdd.Stats.interned_total + 1);
  Util.checkb "peak is sticky"
    (s'.Bdd.Stats.peak_live_nodes >= s.Bdd.Stats.live_nodes);
  let fields = Bdd.Stats.fields s' in
  Util.checkb "fields name the record's fields, in order"
    (List.map fst fields
     = [ "vars"; "live_nodes"; "peak_live_nodes"; "interned_total";
         "unique_capacity"; "external_refs"; "cache_entries";
         "cache_capacity"; "cache_lookups"; "cache_hits"; "cache_stores";
         "cache_evictions"; "ite_recursions"; "and_recursions";
         "xor_recursions"; "constrain_recursions"; "restrict_recursions";
         "quantify_recursions"; "and_exists_recursions"; "agree_recursions";
         "interned_cubes"; "gc_runs"; "gc_reclaimed" ]);
  Util.checki "fields carry live nodes" s'.Bdd.Stats.live_nodes
    (List.assoc "live_nodes" fields);
  Util.checki "fields carry the gc run" 1 (List.assoc "gc_runs" fields)

(* [agree] against the building test it replaces, on random instances
   whose operands range over their functions, complements, constants
   and covers of [[f; c]] (so both verdicts occur): it must give the
   same answer and intern nothing. *)
let agree_differential =
  Util.qtest ~count:300 "agree c f g = is_zero (c & (f ^ g)); leq likewise"
    QCheck2.Gen.(
      pair Util.gen_instance (triple (int_bound 9) (int_bound 9) (int_bound 9)))
    (fun (((n, fseed, cseed) as desc), (i, j, k)) ->
       let man = Util.man in
       let f, c = Util.build_instance desc in
       let g, _ = Util.build_instance (n, cseed, fseed) in
       let ops =
         [| f; c; g; Bdd.compl f; Bdd.compl c; Bdd.one man; Bdd.zero man;
            Bdd.dand man f c; Bdd.dor man f (Bdd.compl c); Bdd.dand man g c |]
       in
       let a = ops.(i) and b = ops.(j) and d = ops.(k) in
       let interned () = (Bdd.snapshot man).Bdd.Stats.interned_total in
       let before = interned () in
       let agreed = Bdd.agree man a b d and contained = Bdd.leq man a b in
       let built_nothing = interned () = before in
       built_nothing
       && agreed = Bdd.is_zero (Bdd.dand man a (Bdd.dxor man b d))
       && contained = Bdd.is_zero (Bdd.dand man a (Bdd.compl b)))

let agree_budgeted () =
  let man = Bdd.create () in
  let tt seed = Tt.to_bdd man (tt_of_seed 6 seed) in
  let c = tt 1 and f = tt 2 and g = tt 3 in
  let steps () = (Bdd.snapshot man).Bdd.Stats.agree_recursions in
  let b = Bdd.Budget.create ~max_steps:1 () in
  Util.checkb "a 1-step budget aborts inside agree"
    (match Bdd.with_budget man b (fun () -> Bdd.agree man c f g) with
     | _ -> false
     | exception Bdd.Budget_exhausted (Bdd.Budget.Steps _) -> steps () = 1);
  Util.checkb "the unbudgeted retry decides it"
    (Bdd.agree man c f g
     = Bdd.is_zero (Bdd.dand man c (Bdd.dxor man f g)));
  Util.checkb "recursions counted" (steps () > 1)

(* [agree2] against [agree] on the built product, for every operand
   tuple over a pool of three functions, two of their complements, a
   product and the constants: so [c = d], [c = ¬d], constant care sets,
   [f = ¬g] and operands equal to [c], [d] or their complements all
   occur.  The verdicts are taken first, so they must intern nothing. *)
let agree2_differential =
  Util.qtest ~count:30 "agree2 c d f g = agree (c & d) f g"
    Util.gen_instance
    (fun ((n, fseed, cseed) as desc) ->
       let man = Util.man in
       let x, y = Util.build_instance desc in
       let z, _ = Util.build_instance (n, cseed, fseed) in
       let pool =
         [| x; Bdd.compl x; y; z; Bdd.compl z; Bdd.dand man x y; Bdd.one man;
            Bdd.zero man |]
       in
       let k = Array.length pool in
       let tuple t = (pool.(t / (k * k * k)), pool.(t / (k * k) mod k),
                      pool.(t / k mod k), pool.(t mod k)) in
       let interned () = (Bdd.snapshot man).Bdd.Stats.interned_total in
       let before = interned () in
       let verdicts =
         Array.init (k * k * k * k) (fun t ->
             let c, d, f, g = tuple t in
             Bdd.agree2 man c d f g)
       in
       interned () = before
       && Array.for_all Fun.id
         (Array.mapi
            (fun t v ->
               let c, d, f, g = tuple t in
               v = Bdd.agree man (Bdd.dand man c d) f g)
            verdicts))

let agree2_budgeted () =
  let man = Bdd.create () in
  let tt seed = Tt.to_bdd man (tt_of_seed 6 seed) in
  let c = tt 1 and d = Bdd.compl (tt 4) and f = tt 2 and g = tt 3 in
  let steps () = (Bdd.snapshot man).Bdd.Stats.agree_recursions in
  let b = Bdd.Budget.create ~max_steps:1 () in
  Util.checkb "a 1-step budget aborts inside agree2"
    (match Bdd.with_budget man b (fun () -> Bdd.agree2 man c d f g) with
     | _ -> false
     | exception Bdd.Budget_exhausted (Bdd.Budget.Steps _) -> steps () = 1);
  Util.checkb "the unbudgeted retry decides it"
    (Bdd.agree2 man c d f g
     = Bdd.is_zero (Bdd.dand man (Bdd.dand man c d) (Bdd.dxor man f g)));
  Util.checkb "recursions counted" (steps () > 1)

let sat_count_undersized_space () =
  let man = Util.man in
  let x i = Bdd.ithvar man i in
  let f = Bdd.dand man (x 0) (Bdd.dand man (x 1) (x 2)) in
  Util.checkb "raises on nvars < support size"
    (match Bdd.sat_count man f ~nvars:2 with
     | exception Invalid_argument _ -> true
     | _ -> false);
  Util.checkb "exact support size is fine"
    (Bdd.sat_count man f ~nvars:3 = 1.0);
  (* non-contiguous support: 2 variables with a large top index is legal
     over any 2-dimensional space *)
  let g = Bdd.dand man (x 0) (x 9) in
  Util.checkb "sparse support counts by dimension"
    (Bdd.sat_count man g ~nvars:2 = 1.0)

let cube_interning () =
  let man = Bdd.create () in
  Util.checki "sorted/deduped identity"
    (Bdd.cube_id man [ 3; 1; 2; 1 ])
    (Bdd.cube_id man [ 1; 2; 3 ]);
  Util.checkb "distinct sets get distinct ids"
    (Bdd.cube_id man [ 1; 2 ] <> Bdd.cube_id man [ 1; 2; 3 ]);
  let n = Bdd.interned_sets man in
  ignore (Bdd.cube_id man [ 2; 3; 1 ]);
  Util.checki "re-interning allocates nothing" n (Bdd.interned_sets man);
  ignore (Bdd.cube_id man [ 7 ]);
  Util.checkb "a new set is counted" (Bdd.interned_sets man > n);
  Util.checki "snapshot reports the same counter"
    (Bdd.interned_sets man)
    (Bdd.snapshot man).Bdd.Stats.interned_cubes

let quantify_cache_persists () =
  let man = Bdd.create () in
  let f = Tt.to_bdd man (tt_of_seed 6 0xbeef) in
  let g = Bdd.exists man [ 0; 2; 4 ] f in
  let s1 = Bdd.snapshot man in
  Util.checkb "first exists recursed" (s1.Bdd.Stats.quantify_recursions > 0);
  (* same cube, same operand: the packed cache answers at the root, so
     the recursion counter must not move — this is the persistence the
     per-call Hashtbl scheme could not provide *)
  let g' = Bdd.exists man [ 0; 2; 4 ] f in
  let s2 = Bdd.snapshot man in
  Util.checkb "same result" (Bdd.equal g g');
  Util.checki "second identical exists adds no recursions"
    s1.Bdd.Stats.quantify_recursions s2.Bdd.Stats.quantify_recursions;
  (* a different cube over the same operand is a different key *)
  ignore (Bdd.exists man [ 1; 3 ] f);
  let s3 = Bdd.snapshot man in
  Util.checkb "different cube recomputes"
    (s3.Bdd.Stats.quantify_recursions > s2.Bdd.Stats.quantify_recursions)

let and_exists_counted () =
  let man = Bdd.create () in
  let f = Tt.to_bdd man (tt_of_seed 6 0x1234) in
  let g = Tt.to_bdd man (tt_of_seed 6 0x5678) in
  let r = Bdd.and_exists man [ 0; 1; 2 ] f g in
  Util.checkb "fused = exists of and"
    (Bdd.equal r (Bdd.exists man [ 0; 1; 2 ] (Bdd.dand man f g)));
  let s = Bdd.snapshot man in
  Util.checkb "and_exists kernel counted"
    (s.Bdd.Stats.and_exists_recursions > 0);
  (* the fused walk persists too *)
  ignore (Bdd.and_exists man [ 0; 1; 2 ] f g);
  Util.checki "repeat is answered from the cache"
    s.Bdd.Stats.and_exists_recursions
    (Bdd.snapshot man).Bdd.Stats.and_exists_recursions

let clear_caches_keeps_nodes () =
  let man = Bdd.create () in
  let x i = Bdd.ithvar man i in
  let f = Bdd.dand man (x 0) (x 1) in
  let live = (Bdd.snapshot man).Bdd.Stats.live_nodes in
  Bdd.clear_caches man;
  let s = Bdd.snapshot man in
  Util.checki "unique table untouched" live s.Bdd.Stats.live_nodes;
  Util.checki "cache emptied" 0 s.Bdd.Stats.cache_entries;
  Util.checkb "canonicity kept"
    (Bdd.uid (Bdd.dand man (x 0) (x 1)) = Bdd.uid f)

(* ----- cache reset completeness ----- *)

(* A random op: three seeded functions of [n] variables, then apply steps
   whose operands are picked from everything built so far.  Every result
   is rooted, and apply kernels intern only nodes of their results, so a
   collection between two runs sweeps nothing the op touches. *)
let gen_op ~vars =
  QCheck2.Gen.(
    let* n = vars in
    let* seed = int_bound 0xFFFFF in
    let* steps =
      list_size (int_range 1 12) (quad (int_bound 3) nat nat nat)
    in
    return (n, seed, steps))

let run_op man (n, seed, steps) =
  let pool =
    ref (Array.init 3 (fun i -> Tt.to_bdd man (tt_of_seed n (seed + i))))
  in
  Array.iter (Bdd.ref_ man) !pool;
  List.iter
    (fun (k, a, b, c) ->
       let p = !pool in
       let pick i = p.(i mod Array.length p) in
       let r =
         match k with
         | 0 -> Bdd.and_ man (pick a) (pick b)
         | 1 -> Bdd.or_ man (pick a) (pick b)
         | 2 -> Bdd.xor man (pick a) (pick b)
         | _ -> Bdd.ite man (pick a) (pick b) (pick c)
       in
       Bdd.ref_ man r;
       pool := Array.append p [| r |])
    steps

(* One [clear; op] run: whether the clear left the cache empty, the
   op's cache traffic, and whether the cache grew during the op. *)
let cleared_run ~clear man op =
  clear man;
  let before = Bdd.snapshot man in
  run_op man op;
  let after = Bdd.snapshot man in
  let d = Bdd.Stats.delta ~before ~after in
  ( before.Bdd.Stats.cache_entries = 0,
    Bdd.Stats.(d.cache_lookups, d.cache_hits, d.cache_stores, d.cache_evictions),
    after.Bdd.Stats.cache_capacity > before.Bdd.Stats.cache_capacity )

(* [clear; op] twice on one manager: both clears must leave the cache
   empty, and the second run must see exactly the traffic of the first —
   a slot a clear missed would show up as extra hits. *)
let reset_is_complete ~clear man op =
  let e1, t1, _ = cleared_run ~clear man op in
  let e2, t2, _ = cleared_run ~clear man op in
  e1 && e2 && t1 = t2

let clear_by_gc man = ignore (Bdd.gc man)

(* 4096 slots that never grow: the touched-slot log starts at 1024
   entries and doubles to 2048, half the slots; larger ops overflow it
   into the full fill. *)
let fixed_cache () = Bdd.create ~cache_bits:12 ~cache_bytes:0 ()

let reset_complete_fixed =
  Util.qtest ~count:60 "reset: clear_caches empties every filled slot"
    (gen_op ~vars:(QCheck2.Gen.int_range 2 9))
    (fun op -> reset_is_complete ~clear:Bdd.clear_caches (fixed_cache ()) op)

let reset_complete_gc =
  Util.qtest ~count:40 "reset: gc empties every filled slot"
    (gen_op ~vars:(QCheck2.Gen.int_range 2 9))
    (fun op -> reset_is_complete ~clear:clear_by_gc (fixed_cache ()) op)

(* 16 slots that may double up to 1024: growth fires mid-op and
   rehashes into a rebuilt log.  Runs repeat until one no longer grows;
   that run's clear followed a growth, and the next run starts from the
   same capacity, so the two must see the same traffic. *)
let reset_complete_after_growth =
  Util.qtest ~count:40 "reset: growth, then clear_caches empties every slot"
    (gen_op ~vars:(QCheck2.Gen.int_range 6 9))
    (fun op ->
       let man = Bdd.create ~cache_bits:4 ~cache_bytes:(1024 * 32) () in
       let run () = cleared_run ~clear:Bdd.clear_caches man op in
       let e0, _, grew0 = run () in
       let rec settle emptied =
         let e, t, grew = run () in
         if grew then settle (emptied && e) else (emptied && e, t)
       in
       let emptied, t1 = settle e0 in
       let e2, t2, grew2 = run () in
       grew0 && emptied && e2 && (not grew2) && t1 = t2)

(* Every path for certain: ops of growing size that fill fewer slots
   than the first log holds, enough to double it, and more than the
   doubled log holds. *)
let reset_complete_by_size () =
  let fills =
    List.map
      (fun n ->
         let man = fixed_cache () in
         let op = (n, 0x5eed, List.init 12 (fun i -> (i mod 4, i, i + 1, i + 2))) in
         run_op man op;
         let filled = (Bdd.snapshot man).Bdd.Stats.cache_entries in
         Util.checkb
           (Printf.sprintf "%d-variable op: both runs see the same traffic" n)
           (reset_is_complete ~clear:Bdd.clear_caches man op);
         filled)
      [ 4; 9; 10; 11 ]
  in
  let some p what =
    Util.checkb
      (Printf.sprintf "an op %s (fills %s)" what
         (String.concat " " (List.map string_of_int fills)))
      (List.exists p fills)
  in
  some (fun f -> f <= 1024) "stays within the first log";
  some (fun f -> f > 1024 && f <= 2048) "doubles the log";
  some (fun f -> f > 2048) "overflows the log"

(* [Bdd.reset] against a fresh manager: a manager that grew its unique
   table and computed cache, interned cubes, rooted nodes, collected and
   tripped a budget reads, after the reset, exactly what a fresh one
   reads, and the same build then gives the same node ids on both. *)
let reset_matches_fresh () =
  let fresh () = Bdd.create ~cache_bits:4 () in
  let build man =
    let x i = Bdd.ithvar man i in
    let f = ref (Bdd.zero man) in
    for i = 0 to 13 do
      f := Bdd.dxor man !f (Bdd.dand man (x i) (x ((i * 5) mod 14)))
    done;
    let g = Bdd.exists man [ 1; 3; 5 ] !f in
    (!f, Bdd.restrict man !f (Bdd.dor man g (x 2)))
  in
  let man = fresh () in
  ignore (build man);
  Bdd.ref_ man (Bdd.ithvar man 3);
  ignore (Bdd.gc man);
  let big =
    let st = Random.State.make [| 31 |] in
    Util.Tt.to_bdd man (Util.Tt.create 16 (fun _ -> Random.State.bool st))
  in
  (match
     Bdd.with_budget man (Bdd.Budget.create ~max_steps:3 ()) (fun () ->
         Bdd.dxor man big (Bdd.ithvar man 20))
   with
   | _ -> Alcotest.fail "the step budget should trip"
   | exception Bdd.Budget_exhausted _ -> ());
  Bdd.set_budget man (Some (Bdd.Budget.create ~max_nodes:1_000_000 ()));
  let grown = Bdd.snapshot man in
  Util.checkb "the unique table grew" (grown.unique_capacity > 4096);
  Util.checkb "the cache grew" (grown.cache_capacity > 16);
  Bdd.reset man;
  let blank = fresh () in
  Util.checkb "snapshot equals a fresh manager's, field for field"
    (Bdd.Stats.fields (Bdd.snapshot man) = Bdd.Stats.fields (Bdd.snapshot blank));
  Util.checkb "no budget left" (Bdd.current_budget man = None);
  Util.checki "self_check: an empty store" 0 (Bdd.self_check man);
  let f, r = build man and f', r' = build blank in
  Util.checki "same node ids as a fresh manager" (Bdd.node_id f') (Bdd.node_id f);
  Util.check Alcotest.string "same Store text"
    (Bdd.Store.save blank [ ("f", f'); ("r", r') ])
    (Bdd.Store.save man [ ("f", f); ("r", r) ]);
  Util.checkb "same counters after the same work"
    (Bdd.Stats.fields (Bdd.snapshot man) = Bdd.Stats.fields (Bdd.snapshot blank));
  ignore (Bdd.self_check man);
  let view = Bdd.Shared.attach (Bdd.Shared.create ~stripes:2 ()) in
  Util.checkb "a shared store's view refuses"
    (match Bdd.reset view with
     | () -> false
     | exception Invalid_argument _ -> true)

(* The walker's visited set follows the largest walk, not the ids a
   manager hands out: ids climbing through many collected rounds leave
   it at its first size, and [gc] and [reset] drop a set that a large
   walk grew past what the live nodes need. *)
let walker_scratch_bounded () =
  let man = Bdd.create () in
  let st = Random.State.make [| 7 |] in
  for _ = 1 to 200 do
    let f =
      Util.Tt.to_bdd man (Util.Tt.create 10 (fun _ -> Random.State.bool st))
    in
    ignore (Bdd.size man f);
    ignore (Bdd.Store.save man [ ("f", f) ]);
    ignore (Bdd.gc man)
  done;
  let slots = Bdd.walk_slots man in
  Util.checki "the set kept its first size" 1024 slots;
  Util.checkb "ids climbed far past it"
    ((Bdd.snapshot man).interned_total > 16 * slots);
  let chain () =
    ignore (Bdd.ithvar man 39_999);
    let e = ref (Bdd.one man) in
    for v = 39_999 downto 0 do
      e := Bdd.mk man v ~hi:!e ~lo:(Bdd.zero man)
    done;
    Util.checki "a 40,000-node walk" 40_001 (Bdd.size man !e);
    Util.checkb "grows the set" (Bdd.walk_slots man > 65_536)
  in
  chain ();
  ignore (Bdd.gc man);
  Util.checki "gc drops it once the chain is dead" 0 (Bdd.walk_slots man);
  chain ();
  Bdd.reset man;
  Util.checki "reset drops it" 0 (Bdd.walk_slots man);
  ignore (Bdd.size man (Bdd.ithvar man 3));
  Bdd.reset man;
  Util.checki "reset keeps a small one" 1024 (Bdd.walk_slots man)

let nested_walk_refused () =
  let man = Bdd.create () in
  let other = Bdd.create () in
  let x i = Bdd.ithvar man i in
  let f = Bdd.dxor man (x 0) (Bdd.dand man (x 1) (x 2)) in
  let g = Bdd.ithvar other 0 in
  Util.checkb "a walk inside a walk on one manager raises"
    (match Bdd.iter_nodes man f (fun _ _ -> ignore (Bdd.size man f)) with
     | () -> false
     | exception Invalid_argument _ -> true);
  Util.checkb "support inside iter_nodes_post raises too"
    (match
       Bdd.iter_nodes_post man [ f ] (fun _ _ _ _ -> ignore (Bdd.support man f))
     with
     | () -> false
     | exception Invalid_argument _ -> true);
  Util.checki "the manager walks again afterwards" 4 (Bdd.size man f);
  let sizes = ref [] in
  Bdd.iter_nodes man f (fun _ _ -> sizes := Bdd.size other g :: !sizes);
  Util.checkb "walks on another manager nest"
    (List.length !sizes = 4 && List.for_all (( = ) 2) !sizes);
  (* the epoch wraps every 255 walks without losing a visit *)
  for _ = 1 to 600 do
    Util.checki "size across epoch wraps" 4 (Bdd.size man f)
  done;
  Util.checkb "support" (Bdd.support man f = [ 0; 1; 2 ])

let suite =
  [
    tiny_cache_differential;
    forced_gc_differential;
    kernel_vs_ite_differential;
    agree_differential;
    Alcotest.test_case "agree under a step budget" `Quick agree_budgeted;
    agree2_differential;
    Alcotest.test_case "agree2 under a step budget" `Quick agree2_budgeted;
    canonicity_after_gc_churn;
    Alcotest.test_case "kernel counters and cache sharing" `Quick
      kernel_counters;
    Alcotest.test_case "gc reclaims, roots survive" `Quick
      gc_reclaims_and_roots_survive;
    Alcotest.test_case "with_root protects" `Quick with_root_protects;
    Alcotest.test_case "eviction counters" `Quick eviction_counters;
    Alcotest.test_case "cache growth bounded" `Quick cache_growth_bounded;
    Alcotest.test_case "no collection without a caller" `Quick
      no_collection_without_a_caller;
    Alcotest.test_case "stats labels honest" `Quick stats_labels_honest;
    Alcotest.test_case "stats delta windows" `Quick stats_delta;
    Alcotest.test_case "sat_count rejects undersized space" `Quick
      sat_count_undersized_space;
    Alcotest.test_case "cube interning" `Quick cube_interning;
    Alcotest.test_case "quantify cache persists across calls" `Quick
      quantify_cache_persists;
    Alcotest.test_case "and_exists counted and cached" `Quick
      and_exists_counted;
    Alcotest.test_case "clear_caches keeps nodes" `Quick
      clear_caches_keeps_nodes;
    reset_complete_fixed;
    reset_complete_gc;
    reset_complete_after_growth;
    Alcotest.test_case "reset: log, log doubling and full-fill fallback"
      `Quick reset_complete_by_size;
    Alcotest.test_case "manager reset matches a fresh manager" `Quick
      reset_matches_fresh;
    Alcotest.test_case "nested walk on one manager refused" `Quick
      nested_walk_refused;
    Alcotest.test_case "walker scratch follows live nodes" `Quick
      walker_scratch_bounded;
  ]
