(* Typed, labeled metrics with Prometheus text exposition.

   Layout: one process-global table of families; each family holds its
   series as an ordered assoc of label-value vectors to cells.  Cells
   are plain [Atomic.t]s (histograms: one per bucket plus sum and
   count), so the registry mutex guards only registration and label
   resolution — the per-update fast path is a single fetch-and-add with
   no lock, safe from any domain. *)

type kind = Counter | Gauge | Histogram

let nbuckets = 32

(* Bucket 0 holds v <= 1, bucket i >= 1 holds 2^i <= v < 2^(i+1). *)
let bucket_of v =
  if v <= 1 then 0
  else begin
    let rec go v i = if v <= 1 then i else go (v lsr 1) (i + 1) in
    min (nbuckets - 1) (go v 0)
  end

type hist = {
  buckets : int Atomic.t array;
  sum : int Atomic.t;
  count : int Atomic.t;
}

type cell = Ccell of int Atomic.t | Gcell of int Atomic.t | Hcell of hist

type fam = {
  name : string;
  help : string;
  kind : kind;
  label_names : string list;
  mutable series : (string list * cell) list;  (* creation order *)
}

type 'a family = { fam : fam; inj : cell -> 'a }

type counter = int Atomic.t
type gauge = int Atomic.t
type histogram = hist

(* ----- registry ----- *)

let lock = Mutex.create ()

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let families : (string, fam) Hashtbl.t = Hashtbl.create 32

let valid_metric_name n =
  n <> ""
  && (match n.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true
               | _ -> false)
       n

let valid_label_name n =
  n <> ""
  && (match n.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true
               | _ -> false)
       n

let register ~kind ~help ~labels name inj =
  if not (valid_metric_name name) then
    invalid_arg (Printf.sprintf "Obs.Metrics: invalid metric name %S" name);
  List.iter
    (fun l ->
       if not (valid_label_name l) then
         invalid_arg
           (Printf.sprintf "Obs.Metrics: invalid label name %S (metric %s)" l
              name))
    labels;
  locked @@ fun () ->
  match Hashtbl.find_opt families name with
  | Some f ->
    if f.kind <> kind || f.help <> help || f.label_names <> labels then
      invalid_arg
        (Printf.sprintf
           "Obs.Metrics: %s already registered with a different \
            kind/help/label set"
           name);
    { fam = f; inj }
  | None ->
    let f = { name; help; kind; label_names = labels; series = [] } in
    Hashtbl.add families name f;
    { fam = f; inj }

let counter ?(help = "") ?(labels = []) name =
  register ~kind:Counter ~help ~labels name (function
    | Ccell a -> a
    | _ -> assert false)

let gauge ?(help = "") ?(labels = []) name =
  register ~kind:Gauge ~help ~labels name (function
    | Gcell a -> a
    | _ -> assert false)

let histogram ?(help = "") ?(labels = []) name =
  register ~kind:Histogram ~help ~labels name (function
    | Hcell h -> h
    | _ -> assert false)

let new_cell = function
  | Counter -> Ccell (Atomic.make 0)
  | Gauge -> Gcell (Atomic.make 0)
  | Histogram ->
    Hcell
      {
        buckets = Array.init nbuckets (fun _ -> Atomic.make 0);
        sum = Atomic.make 0;
        count = Atomic.make 0;
      }

let labels { fam; inj } values =
  if List.length values <> List.length fam.label_names then
    invalid_arg
      (Printf.sprintf "Obs.Metrics: %s expects %d label value(s), got %d"
         fam.name
         (List.length fam.label_names)
         (List.length values));
  locked @@ fun () ->
  match List.assoc_opt values fam.series with
  | Some cell -> inj cell
  | None ->
    let cell = new_cell fam.kind in
    fam.series <- fam.series @ [ (values, cell) ];
    inj cell

let handle f = labels f []

(* ----- updates ----- *)

let inc (c : counter) = Atomic.incr c

let add (c : counter) n =
  if n < 0 then invalid_arg "Obs.Metrics.add: counters only go up";
  ignore (Atomic.fetch_and_add c n)

let counter_value (c : counter) = Atomic.get c

let set (g : gauge) v = Atomic.set g v
let gauge_add (g : gauge) d = ignore (Atomic.fetch_and_add g d)
let gauge_value (g : gauge) = Atomic.get g

let observe (h : histogram) v =
  ignore (Atomic.fetch_and_add h.buckets.(bucket_of v) 1);
  ignore (Atomic.fetch_and_add h.sum (max v 0));
  ignore (Atomic.fetch_and_add h.count 1)

(* ----- scraping ----- *)

type value =
  | Counter_v of int
  | Gauge_v of int
  | Histogram_v of { buckets : int array; sum : int; count : int }

type series = { labels : (string * string) list; value : value }

type family_snapshot = {
  name : string;
  help : string;
  kind : kind;
  series : series list;
}

let cell_value = function
  | Ccell a -> Counter_v (Atomic.get a)
  | Gcell a -> Gauge_v (Atomic.get a)
  | Hcell h ->
    Histogram_v
      {
        buckets = Array.map Atomic.get h.buckets;
        sum = Atomic.get h.sum;
        count = Atomic.get h.count;
      }

let snapshot () =
  let fams =
    locked @@ fun () ->
    Hashtbl.fold (fun _ (f : fam) acc -> (f, f.series) :: acc) families []
    |> List.sort (fun ((a : fam), _) (b, _) -> compare a.name b.name)
  in
  List.map
    (fun ((f : fam), series) ->
       {
         name = f.name;
         help = f.help;
         kind = f.kind;
         series =
           List.map
             (fun (values, cell) ->
                {
                  labels = List.combine f.label_names values;
                  value = cell_value cell;
                })
             series;
       })
    fams

(* ----- Prometheus text exposition (v0.0.4) ----- *)

let escape_label_value s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
       match c with
       | '\\' -> Buffer.add_string b "\\\\"
       | '"' -> Buffer.add_string b "\\\""
       | '\n' -> Buffer.add_string b "\\n"
       | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let escape_help s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
       match c with
       | '\\' -> Buffer.add_string b "\\\\"
       | '\n' -> Buffer.add_string b "\\n"
       | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let label_str labels =
  match labels with
  | [] -> ""
  | ls ->
    "{"
    ^ String.concat ","
        (List.map
           (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape_label_value v))
           ls)
    ^ "}"

let kind_str = function
  | Counter -> "counter"
  | Gauge -> "gauge"
  | Histogram -> "histogram"

(* The upper bound of log2 bucket i as an inclusive integer le: bucket 0
   is <= 1, bucket i is < 2^(i+1) i.e. <= 2^(i+1)-1; the last bucket is
   open-ended (+Inf). *)
let le_of_bucket i = (1 lsl (i + 1)) - 1

let expose () =
  let b = Buffer.create 4096 in
  List.iter
    (fun f ->
       if f.help <> "" then
         Buffer.add_string b
           (Printf.sprintf "# HELP %s %s\n" f.name (escape_help f.help));
       Buffer.add_string b
         (Printf.sprintf "# TYPE %s %s\n" f.name (kind_str f.kind));
       List.iter
         (fun s ->
            match s.value with
            | Counter_v v | Gauge_v v ->
              Buffer.add_string b
                (Printf.sprintf "%s%s %d\n" f.name (label_str s.labels) v)
            | Histogram_v { buckets; sum; count } ->
              let cum = ref 0 in
              Array.iteri
                (fun i c ->
                   cum := !cum + c;
                   let le =
                     if i = nbuckets - 1 then "+Inf"
                     else string_of_int (le_of_bucket i)
                   in
                   Buffer.add_string b
                     (Printf.sprintf "%s_bucket%s %d\n" f.name
                        (label_str (s.labels @ [ ("le", le) ]))
                        !cum))
                buckets;
              Buffer.add_string b
                (Printf.sprintf "%s_sum%s %d\n" f.name (label_str s.labels)
                   sum);
              Buffer.add_string b
                (Printf.sprintf "%s_count%s %d\n" f.name (label_str s.labels)
                   count))
         f.series)
    (snapshot ());
  Buffer.contents b

let reset () =
  let zero = function
    | Ccell a | Gcell a -> Atomic.set a 0
    | Hcell h ->
      Array.iter (fun a -> Atomic.set a 0) h.buckets;
      Atomic.set h.sum 0;
      Atomic.set h.count 0
  in
  locked @@ fun () ->
  Hashtbl.iter
    (fun _ (f : fam) -> List.iter (fun (_, c) -> zero c) f.series)
    families
