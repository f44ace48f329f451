(* Spans the benchmark records around its own calls into the program's
   public functions — the program itself is never asked to trace, so a
   traced run does the same work as an untraced one.

   A recorder belongs to one domain: the serve clients keep one per
   connection ([lane]) and their spans are concatenated afterwards.
   Spans in the [oracle] layer mark checking work done inside a traced
   interval; their time is excluded from every layer and from the
   traced wall time. *)

type span = {
  id : int;
  name : string;
  layer : string;
  start_ns : int64;
  stop_ns : int64;
  parent : int;  (** 0 for a root span *)
  op : int;  (** the call, check or request the span belongs to *)
  lane : int;
}

type t = {
  mutable on : bool;
  lane : int;
  mutable next : int;
  mutable stack : int list;
  mutable op : int;
  mutable spans : span list;
}

let oracle_layer = "oracle"

let create ?(lane = 0) () =
  { on = false; lane; next = 0; stack = []; op = 0; spans = [] }

let now = Obs.Clock.now_ns
let seconds_between a b = Int64.to_float (Int64.sub b a) /. 1e9

let fresh t =
  t.next <- t.next + 1;
  (t.lane lsl 40) lor t.next

let push t id ~layer ~parent name start_ns stop_ns =
  t.spans <-
    { id; name; layer; start_ns; stop_ns; parent; op = t.op; lane = t.lane }
    :: t.spans

(* A span whose interval is known after the fact. *)
let add t ~layer ?(parent = 0) name start_ns stop_ns =
  let id = fresh t in
  push t id ~layer ~parent name start_ns stop_ns;
  id

(* Run [f] inside a span when recording is on, nested under the
   innermost open span. *)
let record t ~layer name f =
  if not t.on then f ()
  else begin
    let parent = match t.stack with p :: _ -> p | [] -> 0 in
    let id = fresh t in
    t.stack <- id :: t.stack;
    let start_ns = now () in
    Fun.protect f ~finally:(fun () ->
        t.stack <- List.tl t.stack;
        push t id ~layer ~parent name start_ns (now ()))
  end

(* Self time of every span: its duration minus the time its children
   cover.  Returns the totals per (layer, name) and per layer, in
   seconds; oracle spans are dropped after their time has been taken out
   of their parents. *)
let self_times spans =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
       if s.parent <> 0 then
         let d = seconds_between s.start_ns s.stop_ns in
         Hashtbl.replace child s.parent
           (d +. Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)))
    spans;
  let by_name = Hashtbl.create 64 and by_layer = Hashtbl.create 8 in
  let bump tbl k v =
    Hashtbl.replace tbl k (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl k))
  in
  List.iter
    (fun s ->
       if s.layer <> oracle_layer then begin
         let self =
           seconds_between s.start_ns s.stop_ns
           -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id)
         in
         bump by_name (s.layer, s.name) self;
         bump by_layer s.layer self
       end)
    spans;
  (by_name, by_layer)

(* Chrome trace-event JSON ("X" complete events, one thread per lane),
   keeping the earliest 50 000 spans. *)
let write_chrome path spans =
  let spans =
    List.sort (fun a b -> Int64.compare a.start_ns b.start_ns) spans
  in
  let spans = List.filteri (fun i _ -> i < 50_000) spans in
  let t0 = match spans with s :: _ -> s.start_ns | [] -> 0L in
  let us a b = Int64.to_float (Int64.sub b a) /. 1e3 in
  let open Serve.Json in
  let event s =
    Obj
      [ ("name", Str s.name); ("cat", Str s.layer); ("ph", Str "X");
        ("ts", Num (us t0 s.start_ns)); ("dur", Num (us s.start_ns s.stop_ns));
        ("pid", int 1); ("tid", int s.lane);
        ("args", Obj [ ("op", int s.op); ("parent", int s.parent); ("id", int s.id) ]) ]
  in
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  output_string oc (print (Obj [ ("traceEvents", Arr (List.map event spans)) ]))
