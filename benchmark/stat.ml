(* Order statistics over timing samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stat.median: no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The highest percentile with at least ten samples above it: with [n]
   sorted samples that is the [(n - 10)]-th smallest, at percentile
   [100 (n - 10) / n] (p98 of 500, p99.9 of 10 000).  Ten samples or
   fewer have no such percentile; the maximum stands in, reported at
   percentile 100.  Returns (value, percentile). *)
let tail xs =
  let beyond = 10 in
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stat.tail: no samples"
  else if n <= beyond then (a.(n - 1), 100.0)
  else
    (a.(n - beyond - 1), 100.0 *. float_of_int (n - beyond) /. float_of_int n)

let sum xs = List.fold_left ( +. ) 0.0 xs
