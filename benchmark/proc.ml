(* Processes: memory high-water marks and the serve daemon's lifetime. *)

(* [VmHWM] of a process, in MB. *)
let peak_rss_mb ?(pid = "self") () =
  let ic = open_in ("/proc/" ^ pid ^ "/status") in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
      Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> failwith "no VmHWM in /proc status"
  in
  scan ()

(* Scratch files of a run (daemon sockets and logs, traces) live under
   this directory of the checkout. *)
let out_dir = ".bench_out"

let ensure_out_dir () =
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755

type daemon = { pid : int; sock : string; log : string; flight : string }

let live = ref []

let remove_file path = try Sys.remove path with Sys_error _ -> ()

let rec wait_exit pid ~until =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ when Unix.gettimeofday () < until ->
    Unix.sleepf 0.01;
    wait_exit pid ~until
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true

let kill d =
  (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (wait_exit d.pid ~until:(Unix.gettimeofday () +. 10.0));
  live := List.filter (fun x -> x.pid <> d.pid) !live

(* A daemon must not outlive the run, whatever ends it. *)
let () = at_exit (fun () -> List.iter kill !live)

let ping addr =
  match Serve.Client.connect addr with
  | exception Unix.Unix_error _ -> false
  | c ->
    Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
    (match Serve.Client.ping c with
     | Ok r -> r.Serve.Protocol.status = "ok"
     | Error _ -> false)

let addr d = Serve.Client.Unix_path d.sock

(* Start [bddmin serve] on a unix socket inside the checkout and return
   once it answers [ping].  The socket path is relative: unix socket
   paths are limited to about 100 bytes, a checkout path is not. *)
let spawn ~bddmin ~workers tag =
  ensure_out_dir ();
  let base = Printf.sprintf "%s/serve-%d-%s" out_dir (Unix.getpid ()) tag in
  let sock = base ^ ".sock" and log = base ^ ".log" in
  let flight = base ^ ".flight.json" in
  remove_file sock;
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let logfd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close devnull; Unix.close logfd)
      (fun () ->
         Unix.create_process bddmin
           [| bddmin; "serve"; "--unix"; sock; "--workers"; string_of_int workers;
              "--flight-dump"; flight |]
           devnull devnull logfd)
  in
  let d = { pid; sock; log; flight } in
  live := d :: !live;
  let until = Unix.gettimeofday () +. 30.0 in
  let rec await () =
    if ping (addr d) then ()
    else if Unix.gettimeofday () > until || wait_exit pid ~until:0.0 then begin
      kill d;
      failwith ("bddmin serve did not answer ping; see " ^ log)
    end
    else begin
      Unix.sleepf 0.002;
      await ()
    end
  in
  await ();
  d

(* Ask the daemon to shut down and wait for it to exit. *)
let stop d =
  (match Serve.Client.connect (addr d) with
   | c ->
     ignore (Serve.Client.shutdown c);
     Serve.Client.close c
   | exception Unix.Unix_error _ -> ());
  if wait_exit d.pid ~until:(Unix.gettimeofday () +. 10.0) then begin
    live := List.filter (fun x -> x.pid <> d.pid) !live;
    List.iter remove_file [ d.sock; d.log; d.flight ]
  end
  else kill d
