(* Warm-manager sessions for the serve daemon.

   A session pins one BDD manager — with the client's Store text
   interned into it exactly once — to the connection that opened it, so
   a stream of minimize calls against the same instance skips the
   per-request manager reset + re-intern of the sessionless path.

   Ownership: a session is only visible to the connection that opened
   it ([owner] is the server's connection id); another connection
   presenting the same session id gets "unknown session".  All of a
   connection's sessions are torn down when it disconnects
   ({!drop_conn}).

   Concurrency: managers are domain-local by contract (no internal
   locking), but session requests run on whichever pool worker picks
   them up.  The per-session [lock] serializes every use of the
   manager, and the mutex acquire/release provides the happens-before
   edge that makes cross-domain sequential access safe.  A client
   pipelining several requests against one session simply runs them one
   at a time.

   Capacity: the registry LRU-evicts the stalest session when
   [max_sessions] is reached.  An evicted session that is mid-request
   finishes normally — eviction only unlinks it from the registry (the
   running job still holds the record); subsequent uses fail with
   "unknown session". *)

type session = {
  sid : string;
  man : Bdd.man;
  roots : (string * Bdd.t) list;  (* as named in the uploaded Store *)
  lock : Mutex.t;  (* serializes manager access across pool workers *)
  owner : int;  (* connection id *)
  baseline_nodes : int;  (* live nodes right after interning *)
  mutable last_used : int;  (* registry LRU clock value *)
}

type t = {
  reg_lock : Mutex.t;
  table : (string, session) Hashtbl.t;
  max_sessions : int;
  mutable clock : int;
  mutable next_sid : int;
  on_evict : string -> unit;
}

let create ?(max_sessions = 64) ?(on_evict = fun _ -> ()) () =
  if max_sessions < 1 then
    invalid_arg "Serve.Session.create: max_sessions must be >= 1";
  {
    reg_lock = Mutex.create ();
    table = Hashtbl.create 32;
    max_sessions;
    clock = 0;
    next_sid = 0;
    on_evict;
  }

let with_reg t f =
  Mutex.lock t.reg_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.reg_lock) (fun () -> f ())

let count t = with_reg t @@ fun () -> Hashtbl.length t.table

let evict_lru_locked t =
  let victim = ref None in
  Hashtbl.iter
    (fun _ s ->
       match !victim with
       | Some v when v.last_used <= s.last_used -> ()
       | _ -> victim := Some s)
    t.table;
  match !victim with
  | None -> None
  | Some s ->
    Hashtbl.remove t.table s.sid;
    Some s.sid

(* Intern [text] into a fresh manager and register the session.  The
   intern runs {e outside} the registry lock — it is the expensive part
   and must not serialize unrelated opens.  Evicted session ids are
   reported through [on_evict] after the lock drops. *)
let open_ t ~owner ~text =
  match
    let man = Bdd.create () in
    (man, Bdd.Store.load man text)
  with
  | _, Error msg -> Error ("bad bdd payload: " ^ msg)
  | man, Ok roots ->
    let baseline = (Bdd.snapshot man).Bdd.Stats.live_nodes in
    let evicted = ref [] in
    let session =
      with_reg t @@ fun () ->
      while Hashtbl.length t.table >= t.max_sessions do
        match evict_lru_locked t with
        | Some sid -> evicted := sid :: !evicted
        | None -> raise Exit (* unreachable: table non-empty *)
      done;
      t.next_sid <- t.next_sid + 1;
      t.clock <- t.clock + 1;
      let s =
        { sid = Printf.sprintf "s%d" t.next_sid;
          man; roots;
          lock = Mutex.create ();
          owner;
          baseline_nodes = baseline;
          last_used = t.clock }
      in
      Hashtbl.replace t.table s.sid s;
      s
    in
    List.iter t.on_evict (List.rev !evicted);
    Ok session

(* Look a session up for use: owner-checked, LRU-touched. *)
let find t ~owner sid =
  with_reg t @@ fun () ->
  match Hashtbl.find_opt t.table sid with
  | Some s when s.owner = owner ->
    t.clock <- t.clock + 1;
    s.last_used <- t.clock;
    Some s
  | Some _ | None -> None

(* Close one session; [false] if it wasn't the caller's to close. *)
let close t ~owner sid =
  with_reg t @@ fun () ->
  match Hashtbl.find_opt t.table sid with
  | Some s when s.owner = owner ->
    Hashtbl.remove t.table sid;
    true
  | Some _ | None -> false

(* Disconnect teardown: drop every session the connection owns.
   Returns how many were dropped. *)
let drop_conn t ~owner =
  with_reg t @@ fun () ->
  let mine =
    Hashtbl.fold
      (fun sid s acc -> if s.owner = owner then sid :: acc else acc)
      t.table []
  in
  List.iter (Hashtbl.remove t.table) mine;
  List.length mine

(* Run [f] with exclusive use of the session's manager.  Touches the
   GC opportunistically on the way out: a long-lived manager accretes
   garbage from every request, so once live nodes exceed 8x the
   post-intern baseline, collect down to the session roots plus
   whatever extra roots the request wants kept. *)
let with_session s f =
  Mutex.lock s.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock s.lock) @@ fun () ->
  let r = f s.man in
  let live = (Bdd.snapshot s.man).Bdd.Stats.live_nodes in
  if live > 8 * (max 256 s.baseline_nodes) then
    ignore (Bdd.gc ~roots:(List.map snd s.roots) s.man);
  r
