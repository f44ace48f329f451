(* Symbolic encoding: BDD next-state/output functions agree with concrete
   simulation; transition relation; image computation strategies. *)

module N = Fsm.Netlist
module Sym = Fsm.Symbolic
module Img = Fsm.Image

let random_nl seed =
  Circuits.Random_fsm.make
    { Circuits.Random_fsm.latches = 4; inputs = 2; depth = 3; seed }

(* Drive the netlist [steps] cycles with pseudo-random inputs, checking at
   each step that the symbolic outputs and next state match the simulator. *)
let symbolic_matches_simulation =
  Util.qtest ~count:50 "symbolic functions = concrete simulation"
    QCheck2.Gen.(
      let* seed = int_bound 10000 in
      let* steps = int_range 1 8 in
      return (seed, steps))
    (fun (seed, steps) ->
       let nl = random_nl seed in
       let man = Bdd.create () in
       let sym = Sym.of_netlist man nl in
       let rng = Random.State.make [| seed; steps |] in
       let state = ref (N.sim_initial nl) in
       let ok = ref true in
       for _ = 1 to steps do
         let input_val =
           List.map (fun (n, _) -> (n, Random.State.bool rng)) (N.inputs nl)
         in
         let env name = List.assoc name input_val in
         (* Symbolic evaluation point: current state + inputs. *)
         let latch_bits =
           Array.of_list (List.map snd (N.sim_latch_values nl !state))
         in
         let assign v =
           (* state vars are interleaved with next vars; inputs after *)
           match
             List.find_opt (fun (_, iv) -> iv = v) sym.Sym.input_vars
           with
           | Some (n, _) -> env n
           | None ->
             let rec find j =
               if sym.Sym.state_vars.(j) = v then latch_bits.(j)
               else find (j + 1)
             in
             find 0
         in
         let outs, next = N.sim_step nl !state env in
         List.iter
           (fun (n, expected) ->
              let g = List.assoc n sym.Sym.output_fns in
              if Bdd.eval g assign <> expected then ok := false)
           outs;
         List.iteri
           (fun j (_, expected) ->
              if Bdd.eval sym.Sym.next_fns.(j) assign <> expected then
                ok := false)
           (N.sim_latch_values nl next);
         state := next
       done;
       !ok)

let init_is_initial_state () =
  let nl = Circuits.Counter.make ~width:4 () in
  let man = Bdd.create () in
  let sym = Sym.of_netlist man nl in
  Util.checkb "one state"
    (Bdd.sat_count man sym.Sym.init ~nvars:(Sym.num_state_vars sym) = 1.0);
  let zero_state = Sym.state_cube_of_ints sym (Array.make 4 false) in
  Util.checkb "counter starts at 0" (Bdd.equal sym.Sym.init zero_state)

let strategies_agree =
  Util.qtest ~count:40 "image strategies agree on random FSMs and state sets"
    QCheck2.Gen.(
      let* seed = int_bound 10000 in
      let* sseed = int_bound 10000 in
      return (seed, sseed))
    (fun (seed, sseed) ->
       let nl = random_nl seed in
       let man = Bdd.create () in
       let sym = Sym.of_netlist man nl in
       (* random non-empty state set over the state variables *)
       let st = Random.State.make [| sseed |] in
       let tt =
         Logic.Truth_table.create 4 (fun m -> m = 0 || Random.State.bool st)
       in
       let s =
         Bdd.rename man
           (Logic.Truth_table.to_bdd man tt)
           (List.init 4 (fun j -> (j, sym.Sym.state_vars.(j))))
       in
       let a = Img.image_monolithic sym s in
       let b = Img.image_partitioned sym s in
       let c = Img.image_by_range sym s in
       let d = Img.image_clustered sym s in
       (* a small bound forces several clusters; a huge one degenerates
          to the monolithic walk *)
       let e = Img.image_clustered ~cluster_bound:4 sym s in
       let f = Img.image_clustered ~cluster_bound:1_000_000 sym s in
       Bdd.equal a b && Bdd.equal b c && Bdd.equal c d && Bdd.equal d e
       && Bdd.equal e f)

let image_empty_and_total () =
  let nl = Circuits.Counter.make ~width:3 () in
  let man = Bdd.create () in
  let sym = Sym.of_netlist man nl in
  Util.checkb "image of empty is empty"
    (Bdd.is_zero (Img.image sym (Bdd.zero man)));
  (* successor of state 2 with enable free: {2, 3} *)
  let s2 = Sym.state_cube_of_ints sym [| false; true; false |] in
  let img = Img.image sym s2 in
  Util.checkb "2 stays or increments"
    (Bdd.equal img
       (Bdd.dor man s2 (Sym.state_cube_of_ints sym [| true; true; false |])))

let image_matches_simulation () =
  (* image of the initial state of the tlc contains exactly the concrete
     successors under both input values *)
  let nl = Circuits.Tlc.make () in
  let man = Bdd.create () in
  let sym = Sym.of_netlist man nl in
  let succ_states =
    List.map
      (fun car ->
         let _, next =
           N.sim_step nl (N.sim_initial nl) (fun _ -> car)
         in
         let bits =
           Array.of_list (List.map snd (N.sim_latch_values nl next))
         in
         Sym.state_cube_of_ints sym bits)
      [ false; true ]
  in
  let expected = Bdd.disj man succ_states in
  Util.checkb "tlc image" (Bdd.equal (Img.image sym sym.Sym.init) expected)

let preimage_duality =
  Util.qtest ~count:30 "s' in image(s) iff s intersects preimage(s')"
    QCheck2.Gen.(int_bound 10000)
    (fun seed ->
       let nl = random_nl seed in
       let man = Bdd.create () in
       let sym = Sym.of_netlist man nl in
       let img = Img.image sym sym.Sym.init in
       (* Every single successor state's preimage intersects init. *)
       let ok = ref true in
       Bdd.Cube.iter_cubes ~limit:8 img (fun cube ->
           (* complete the cube to a full state *)
           let full =
             Array.init (Sym.num_state_vars sym) (fun j ->
                 match
                   List.assoc_opt sym.Sym.state_vars.(j) cube
                 with
                 | Some b -> b
                 | None -> false)
           in
           let state = Sym.state_cube_of_ints sym full in
           if Bdd.leq man state img then begin
             let pre = Img.preimage sym state in
             if Bdd.is_zero (Bdd.dand man pre sym.Sym.init) then ok := false
           end);
       !ok)


let orderings_agree =
  Util.qtest ~count:20 "variable orderings do not change semantics"
    QCheck2.Gen.(int_bound 10000)
    (fun seed ->
       let nl = random_nl seed in
       let count ordering =
         let man = Bdd.create () in
         let sym = Sym.of_netlist ~ordering man nl in
         let _, st = Fsm.Reach.reachable sym in
         st.Fsm.Reach.reached_states
       in
       let a = count Sym.Interleaved in
       a = count Sym.Topological && a = count Sym.Inputs_first)

let latch_rank_is_permutation =
  Util.qtest ~count:30 "latch_rank is a permutation"
    QCheck2.Gen.(int_bound 10000)
    (fun seed ->
       let nl = random_nl seed in
       List.for_all
         (fun ordering ->
            let rank = Sym.latch_rank nl ordering in
            List.sort compare (Array.to_list rank)
            = List.init (Array.length rank) Fun.id)
         [ Sym.Interleaved; Sym.Topological; Sym.Inputs_first ])

let suite =
  [
    symbolic_matches_simulation;
    Alcotest.test_case "initial state" `Quick init_is_initial_state;
    strategies_agree;
    Alcotest.test_case "image basics" `Quick image_empty_and_total;
    Alcotest.test_case "image = concrete successors (tlc)" `Quick
      image_matches_simulation;
    preimage_duality;
    orderings_agree;
    latch_rank_is_permutation;
  ]
