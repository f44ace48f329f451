type bucket = All | Low | Mid | High

let bucket_name = function
  | All -> "all calls"
  | Low -> "c_onset_size < 5%"
  | Mid -> "5% <= c_onset_size <= 95%"
  | High -> "c_onset_size > 95%"

let buckets = [ All; Low; Mid; High ]

let in_bucket bucket (c : Capture.call) =
  match bucket with
  | All -> true
  | Low -> c.c_onset_fraction < 0.05
  | Mid -> c.c_onset_fraction >= 0.05 && c.c_onset_fraction <= 0.95
  | High -> c.c_onset_fraction > 0.95

type row = {
  name : string;
  total_size : int;
  pct_of_min : float;
  runtime : float;
  rank : int;
  dnf : int;
}

type table = {
  bucket : bucket;
  ncalls : int;
  min_total : int;
  low_bd_total : int;
  rows : row list;
}

let size_opt (c : Capture.call) name =
  match name with
  | "min" -> Some c.min_size
  | "low_bd" -> Some c.low_bd
  | _ -> (
      match List.assoc_opt name c.sizes with
      | Some s -> Some s
      | None ->
        if List.mem_assoc name c.dnf then None
        else invalid_arg ("Stats.size_of: unknown minimizer " ^ name))

let size_of (c : Capture.call) name =
  match size_opt c name with
  | Some s -> s
  | None ->
    invalid_arg ("Stats.size_of: minimizer did not finish: " ^ name)

let time_of (c : Capture.call) name =
  match List.assoc_opt name c.times with Some t -> t | None -> 0.0

let dnf_of (c : Capture.call) name = List.mem_assoc name c.dnf

let aggregate ~names bucket calls =
  let calls = List.filter (in_bucket bucket) calls in
  let ncalls = List.length calls in
  (* Calls a minimizer DNF'd on contribute nothing to its total (there is
     no size to add): totals are only comparable between rows with equal
     [dnf] counts.  Without budgets every [dnf] is 0 and the totals are
     the ungoverned ones. *)
  let total name =
    List.fold_left
      (fun acc c ->
         match size_opt c name with Some s -> acc + s | None -> acc)
      0 calls
  in
  let dnf_count name =
    List.fold_left
      (fun acc c -> if dnf_of c name then acc + 1 else acc)
      0 calls
  in
  let min_total = total "min" in
  let low_bd_total = total "low_bd" in
  let unranked =
    List.map
      (fun name ->
         let t = total name in
         let rt = List.fold_left (fun acc c -> acc +. time_of c name) 0.0 calls in
         (name, t, rt, dnf_count name))
      names
  in
  let sorted =
    List.stable_sort (fun (_, a, _, _) (_, b, _, _) -> compare a b) unranked
  in
  (* Competition ranking: equal totals share a rank. *)
  let rows =
    List.mapi
      (fun i (name, t, rt, dn) ->
         let rank =
           1 + List.length (List.filter (fun (_, t', _, _) -> t' < t) sorted)
         in
         ignore i;
         {
           name;
           total_size = t;
           pct_of_min =
             (if min_total = 0 then 0.0
              else 100.0 *. float_of_int t /. float_of_int min_total);
           runtime = rt;
           rank;
           dnf = dn;
         })
      sorted
  in
  { bucket; ncalls; min_total; low_bd_total; rows }

let head_to_head ~names calls =
  let n = List.length names in
  let arr = Array.of_list names in
  let ncalls = List.length calls in
  let m = Array.make_matrix n n 0.0 in
  if ncalls > 0 then
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        let wins =
          List.length
            (List.filter
               (fun c ->
                  match (size_opt c arr.(i), size_opt c arr.(j)) with
                  | Some si, Some sj -> si < sj
                  | _ -> false (* a DNF on either side is not a win *))
               calls)
        in
        m.(i).(j) <- 100.0 *. float_of_int wins /. float_of_int ncalls
      done
    done;
  m

let within_curve ~name ~percents calls =
  let ncalls = List.length calls in
  List.map
    (fun x ->
       let ok =
         List.length
           (List.filter
              (fun (c : Capture.call) ->
                 match size_opt c name with
                 | Some s ->
                   float_of_int s
                   <= float_of_int c.min_size
                      *. (1.0 +. (float_of_int x /. 100.0))
                 | None -> false)
              calls)
       in
       ( x,
         if ncalls = 0 then 0.0
         else 100.0 *. float_of_int ok /. float_of_int ncalls ))
    percents

let achieving_lower_bound ~name calls =
  let ncalls = List.length calls in
  if ncalls = 0 then 0.0
  else
    let hits =
      List.length
        (List.filter
           (fun (c : Capture.call) ->
              match size_opt c name with
              | Some s -> s <= c.Capture.low_bd
              | None -> false)
           calls)
    in
    100.0 *. float_of_int hits /. float_of_int ncalls
