(* Synchronous client for the serve protocol.

   One outstanding request at a time: [request] writes a frame and
   blocks on the next reply frame, so replies can never interleave.
   (The server does answer pipelined requests in completion order — a
   client wanting that can speak [Protocol] directly.) *)

type addr = Tcp of string * int | Unix_path of string

type t = { fd : Unix.file_descr; mutable next_id : int }

let parse_addr s =
  (* "host:port" is TCP, anything else a unix-socket path *)
  match String.rindex_opt s ':' with
  | Some i -> begin
      match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
      | Some port -> Tcp (String.sub s 0 i, port)
      | None -> Unix_path s
    end
  | None -> Unix_path s

let addr_to_string = function
  | Tcp (host, port) -> Printf.sprintf "%s:%d" host port
  | Unix_path path -> path

let connect addr =
  let fd =
    match addr with
    | Tcp (host, port) ->
      let ip =
        try Unix.inet_addr_of_string host
        with Failure _ ->
          (match Unix.getaddrinfo host "" [ Unix.AI_FAMILY Unix.PF_INET ] with
           | { Unix.ai_addr = Unix.ADDR_INET (ip, _); _ } :: _ -> ip
           | _ -> failwith ("cannot resolve " ^ host))
      in
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      (try Unix.connect fd (Unix.ADDR_INET (ip, port))
       with e -> (try Unix.close fd with Unix.Unix_error _ -> ()); raise e);
      fd
    | Unix_path path ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      (try Unix.connect fd (Unix.ADDR_UNIX path)
       with e -> (try Unix.close fd with Unix.Unix_error _ -> ()); raise e);
      fd
  in
  { fd; next_id = 1 }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let request c ?budget ?trace ?explain fields =
  let id = c.next_id in
  c.next_id <- id + 1;
  let payload = Protocol.render_request ~id ?budget ?trace ?explain fields in
  match Protocol.write_frame c.fd payload with
  | () -> begin
      match Protocol.read_frame c.fd with
      | Ok (`Frame reply) -> Protocol.parse_reply reply
      | Ok `Eof -> Error "server closed the connection"
      | Error msg -> Error msg
    end
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)

let budget_json ?max_nodes ?max_steps ?timeout_ms () =
  Protocol.render_budget ?max_nodes ?max_steps ?timeout_ms ()

let minimize c ?max_nodes ?max_steps ?timeout_ms ?(heuristic = "sched")
    ?trace ?explain source =
  let budget = budget_json ?max_nodes ?max_steps ?timeout_ms () in
  let source_field =
    match source with
    | Protocol.Store_text text -> ("bdd", Json.Str text)
    | Protocol.Pla_text text -> ("pla", Json.Str text)
    | Protocol.Session_ref sid -> ("session", Json.Str sid)
  in
  request c ?budget ?trace ?explain
    [ ("op", Json.Str "minimize"); source_field;
      ("heuristic", Json.Str heuristic) ]

(* Open a warm-manager session over [text] (Store format); the returned
   session id feeds [minimize (Session_ref sid)]. *)
let session_open c text =
  match
    request c [ ("op", Json.Str "session_open"); ("bdd", Json.Str text) ]
  with
  | Error _ as e -> e
  | Ok r when r.Protocol.status = "ok" -> begin
      match Json.string_field "session" r.Protocol.result with
      | Some sid -> Ok (`Session sid)
      | None -> Error "session_open reply carried no session id"
    end
  | Ok r ->
    Error
      (Option.value r.Protocol.message
         ~default:("session_open failed: " ^ r.Protocol.status))

let session_close c sid =
  request c [ ("op", Json.Str "session_close"); ("session", Json.Str sid) ]

let machine_fields ~bench ~blif = function
  | Protocol.Bench name -> (bench, Json.Str name)
  | Protocol.Blif_text text -> (blif, Json.Str text)

let reach c ?max_nodes ?max_steps ?timeout_ms machine =
  let budget = budget_json ?max_nodes ?max_steps ?timeout_ms () in
  request c ?budget
    [ ("op", Json.Str "reach");
      machine_fields ~bench:"bench" ~blif:"blif" machine ]

let equiv c ?max_nodes ?max_steps ?timeout_ms a b =
  let budget = budget_json ?max_nodes ?max_steps ?timeout_ms () in
  request c ?budget
    [ ("op", Json.Str "equiv");
      machine_fields ~bench:"bench1" ~blif:"blif1" a;
      machine_fields ~bench:"bench2" ~blif:"blif2" b ]

let ping c = request c [ ("op", Json.Str "ping") ]
let metrics c = request c [ ("op", Json.Str "metrics") ]
let dump c = request c [ ("op", Json.Str "dump") ]
let shutdown c = request c [ ("op", Json.Str "shutdown") ]
