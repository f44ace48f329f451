(* Matching-graph solvers: DAG sinks/assignment (Proposition 10) and the
   greedy clique cover (Theorem 15's heuristic). *)

module G = Minimize.Graph

let dag_of_edges edges i j = List.mem (i, j) edges

let sinks_basic () =
  (* 0 -> 1 -> 3, 2 -> 3: sinks = {3} *)
  let edge = dag_of_edges [ (0, 1); (1, 3); (2, 3); (0, 3) ] in
  Alcotest.(check (list int)) "sinks" [ 3 ] (G.dag_sinks ~n:4 ~edge);
  let a = G.dag_assignment ~n:4 ~edge in
  Alcotest.(check (list int)) "assignment" [ 3; 3; 3; 3 ]
    (Array.to_list a)

let sinks_multiple () =
  let edge = dag_of_edges [ (0, 1); (2, 3) ] in
  Alcotest.(check (list int)) "sinks" [ 1; 3; 4 ] (G.dag_sinks ~n:5 ~edge);
  let a = G.dag_assignment ~n:5 ~edge in
  Util.checki "0 -> 1" 1 a.(0);
  Util.checki "2 -> 3" 3 a.(2);
  Util.checki "4 -> itself" 4 a.(4)

let assignment_reaches_sink =
  Util.qtest ~count:200 "assignment always lands on a sink (random DAGs)"
    QCheck2.Gen.(
      let* n = int_range 1 12 in
      let* seed = int_bound 0xFFFF in
      return (n, seed))
    (fun (n, seed) ->
       let st = Random.State.make [| seed; n |] in
       (* random DAG: only edges i -> j with i < j *)
       let adj = Array.make_matrix n n false in
       for i = 0 to n - 1 do
         for j = i + 1 to n - 1 do
           adj.(i).(j) <- Random.State.int st 3 = 0
         done
       done;
       let edge i j = adj.(i).(j) in
       let sinks = G.dag_sinks ~n ~edge in
       let a = G.dag_assignment ~n ~edge in
       Array.for_all (fun s -> List.mem s sinks) a
       && List.for_all (fun s -> a.(s) = s) sinks)

let clique_cover_valid =
  Util.qtest ~count:200 "clique cover: partition into genuine cliques"
    QCheck2.Gen.(
      let* n = int_range 1 14 in
      let* seed = int_bound 0xFFFF in
      let* by_degree = bool in
      let* weighted = bool in
      return (n, seed, by_degree, weighted))
    (fun (n, seed, by_degree, weighted) ->
       let st = Random.State.make [| seed; n; 7 |] in
       let adj = Array.make_matrix n n false in
       for i = 0 to n - 1 do
         for j = i + 1 to n - 1 do
           let b = Random.State.int st 2 = 0 in
           adj.(i).(j) <- b;
           adj.(j).(i) <- b
         done
       done;
       let adjacent i j = adj.(i).(j) in
       let edge_weight =
         if weighted then Some (fun i j -> float_of_int ((i * 7 + j) mod 5))
         else None
       in
       let cliques =
         G.clique_cover ~n ~adjacent ~order_by_degree:by_degree ?edge_weight ()
       in
       let members = List.concat cliques in
       let covers_all =
         List.sort compare members = List.init n Fun.id
       in
       let all_cliques =
         List.for_all
           (fun clique ->
              List.for_all
                (fun i ->
                   List.for_all
                     (fun j -> i = j || adj.(i).(j))
                     clique)
                clique)
           cliques
       in
       covers_all && all_cliques)

let clique_cover_complete_graph () =
  let cliques =
    G.clique_cover ~n:6 ~adjacent:(fun i j -> i <> j) ()
  in
  Util.checki "complete graph = one clique" 1 (List.length cliques)

let clique_cover_empty_graph () =
  let cliques = G.clique_cover ~n:5 ~adjacent:(fun _ _ -> false) () in
  Util.checki "no edges = singletons" 5 (List.length cliques)

let degree_order_finds_big_clique () =
  (* The §3.3.2 motivating situation: vertex v in a 2-clique and a
     bigger clique; seeding by degree should recover the big clique. *)
  (* vertices 0..4 form K5; vertex 5 attaches only to 0. *)
  let adjacent i j =
    (i < 5 && j < 5 && i <> j) || (i = 5 && j = 0) || (i = 0 && j = 5)
  in
  let cliques = G.clique_cover ~n:6 ~adjacent ~order_by_degree:true () in
  let sizes = List.sort compare (List.map List.length cliques) in
  Alcotest.(check (list int)) "5-clique found" [ 1; 5 ] sizes

(* The adjacency is symmetric, so [clique_cover] asks each vertex pair
   once, smaller index first. *)
let clique_cover_probes_each_pair_once () =
  List.iter
    (fun n ->
       let calls = ref 0 and ordered = ref true in
       let adjacent i j =
         incr calls;
         if i >= j then ordered := false;
         (i + j) mod 3 = 0
       in
       ignore (G.clique_cover ~n ~adjacent ());
       Util.checki (Printf.sprintf "n(n-1)/2 probes at n = %d" n)
         (n * (n - 1) / 2) !calls;
       Util.checkb "only i < j" !ordered)
    [ 0; 1; 2; 7; 13 ]

let zero_vertices () =
  Util.checki "empty" 0 (List.length (G.clique_cover ~n:0 ~adjacent:(fun _ _ -> true) ()));
  Alcotest.(check (list int)) "no sinks" [] (G.dag_sinks ~n:0 ~edge:(fun _ _ -> false))

let suite =
  [
    Alcotest.test_case "sinks basic" `Quick sinks_basic;
    Alcotest.test_case "multiple sinks" `Quick sinks_multiple;
    assignment_reaches_sink;
    clique_cover_valid;
    Alcotest.test_case "complete graph" `Quick clique_cover_complete_graph;
    Alcotest.test_case "empty graph" `Quick clique_cover_empty_graph;
    Alcotest.test_case "degree order finds the big clique" `Quick
      degree_order_finds_big_clique;
    Alcotest.test_case "each vertex pair probed once" `Quick
      clique_cover_probes_each_pair_once;
    Alcotest.test_case "zero vertices" `Quick zero_vertices;
  ]
