(* The client side: spawning [selest serve], the readiness probe,
   lock-step request/reply over the Unix socket, and the server's
   /proc counters. *)

let now_ns = Selest.Obs.Clock.now_ns

type conn = {
  fd : Unix.file_descr;
  buf : Bytes.t;
  mutable off : int;  (* first unread byte *)
  mutable len : int;  (* unread bytes *)
  mutable line_off : int;  (* last line read: start ... *)
  mutable line_len : int;  (* ... and length, newline included *)
}

let try_connect path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () ->
    Some { fd; buf = Bytes.create 65536; off = 0; len = 0; line_off = 0; line_len = 0 }
  | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED | Unix.EAGAIN), _, _) ->
    Unix.close fd;
    None

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let write_all fd s =
  let n = String.length s in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write_substring fd s !off (n - !off)
  done

(* Index of the first newline in [buf[i..stop)], or -1. *)
let rec scan_nl buf i stop =
  if i >= stop then -1 else if Bytes.unsafe_get buf i = '\n' then i else scan_nl buf (i + 1) stop

let rec fill_line c from =
  let nl = scan_nl c.buf from (c.off + c.len) in
  if nl >= 0 then begin
    c.line_off <- c.off;
    c.line_len <- nl + 1 - c.off;
    c.len <- c.len - c.line_len;
    c.off <- nl + 1
  end
  else begin
    if c.off + c.len = Bytes.length c.buf then begin
      if c.off = 0 then failwith "reply line longer than the client buffer";
      Bytes.blit c.buf c.off c.buf 0 c.len;
      c.off <- 0
    end;
    let scanned = c.off + c.len in
    let r = Unix.read c.fd c.buf scanned (Bytes.length c.buf - scanned) in
    if r = 0 then raise End_of_file;
    c.len <- c.len + r;
    fill_line c scanned
  end

(* Buffer until a whole line is available and mark it in
   [line_off]/[line_len].  Allocation-free. *)
let next_line c =
  if c.len = 0 then c.off <- 0;
  fill_line c c.off

let rec eq_from buf off s i n =
  i = n || (Bytes.unsafe_get buf (off + i) = String.unsafe_get s i && eq_from buf off s (i + 1) n)

(* Does the last line read equal [s] (newline included)?  Allocation-free. *)
let line_is c s = c.line_len = String.length s && eq_from c.buf c.line_off s 0 c.line_len

let line c = Bytes.sub_string c.buf c.line_off (c.line_len - 1)

(* One request, one reply; an [OK lines=<k>] header pulls its [k]
   payload lines too.  Allocates: control traffic only. *)
let request c req =
  write_all c.fd (req ^ "\n");
  next_line c;
  let head = line c in
  match Scanf.sscanf_opt head "OK lines=%d%!" Fun.id with
  | None -> head
  | Some k ->
    let lines = List.init k (fun _ -> next_line c; line c) in
    String.concat "\n" (head :: lines)

(* ---- the spawned server ------------------------------------------------- *)

type server = { pid : int; sock : string; mutable reaped : bool }

let live : server list ref = ref []

let reap srv =
  if not srv.reaped then begin
    srv.reaped <- true;
    live := List.filter (fun s -> s != srv) !live
  end

(* Wait up to [timeout_s] for the server to exit, then kill it. *)
let wait_exit ?(timeout_s = 10.0) srv =
  if not srv.reaped then begin
    let deadline = Unix.gettimeofday () +. timeout_s in
    let rec poll () =
      match Unix.waitpid [ Unix.WNOHANG ] srv.pid with
      | 0, _ when Unix.gettimeofday () < deadline -> Unix.sleepf 0.005; poll ()
      | 0, _ ->
        (try Unix.kill srv.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] srv.pid)
      | _ -> ()
      | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
    in
    poll ();
    reap srv;
    (try Sys.remove srv.sock with Sys_error _ -> ())
  end

let kill_all () =
  List.iter
    (fun srv ->
      (try Unix.kill srv.pid Sys.sigkill with Unix.Unix_error _ -> ());
      wait_exit ~timeout_s:5.0 srv)
    !live

let spawn ~exe ~sock ~log =
  (try Sys.remove sock with Sys_error _ -> ());
  let logfd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644 in
  let pid =
    Unix.create_process exe
      [| exe; "serve"; "-d"; "tb"; "--learn"; "--socket"; sock |]
      Unix.stdin logfd logfd
  in
  Unix.close logfd;
  let srv = { pid; sock; reaped = false } in
  live := srv :: !live;
  srv

(* Readiness probe: a plain connect plus PING every millisecond until
   the first PONG.  No exponential backoff, so set-up time is not
   rounded up to a retry step.  Returns the PONG time and the
   connection, which stays open for the workload. *)
let wait_ready ?(timeout_s = 120.0) srv =
  let start = Unix.gettimeofday () in
  let rec loop () =
    (match Unix.waitpid [ Unix.WNOHANG ] srv.pid with
    | 0, _ -> ()
    | _ ->
      reap srv;
      failwith "selest serve exited during start-up");
    match try_connect srv.sock with
    | Some c ->
      write_all c.fd "PING\n";
      next_line c;
      let t = now_ns () in
      if not (line_is c "PONG\n") then failwith ("readiness probe: unexpected reply " ^ line c);
      (t, c)
    | None ->
      if Unix.gettimeofday () -. start > timeout_s then failwith "selest serve never became ready";
      Unix.sleepf 0.001;
      loop ()
  in
  loop ()

let shutdown srv c =
  (try
     write_all c.fd "SHUTDOWN\n";
     next_line c
   with Unix.Unix_error _ | End_of_file -> ());
  close c;
  wait_exit srv

(* ---- /proc -------------------------------------------------------------- *)

let read_file path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> In_channel.input_all ic)

(* CPU time of the whole process in nanoseconds: the sum of its threads'
   schedstat run times.  Unlike the 10 ms ticks of /proc/<pid>/stat it
   resolves the CPU time of one block. *)
let cpu_ns pid =
  let dir = Printf.sprintf "/proc/%d/task" pid in
  Array.fold_left
    (fun acc tid ->
      match read_file (Printf.sprintf "%s/%s/schedstat" dir tid) with
      | s -> acc + Scanf.sscanf s "%d" Fun.id
      | exception Sys_error _ -> acc)
    0 (Sys.readdir dir)

let vm_hwm_kb pid =
  let s = read_file (Printf.sprintf "/proc/%d/status" pid) in
  match
    List.find_map
      (fun l -> Scanf.sscanf_opt l "VmHWM: %d kB" Fun.id)
      (String.split_on_char '\n' s)
  with
  | Some kb -> kb
  | None -> failwith "no VmHWM in /proc/<pid>/status"


(* ---- host speed ------------------------------------------------------------ *)

(* The host's speed drifts: a shared VM runs the same code up to 30%
   faster or slower for spells of 0.1 s to minutes.  [calibrate] times a
   fixed CPU-bound loop of the client's own (pseudo-random updates of a
   256 KiB array, the best of three passes of about 0.2 ms), which no
   change to selest can move.  Dividing a time by it reads the time in
   units of the host's current speed. *)
let calib_buf = Array.make 32768 0

let calibrate () =
  let best = ref max_int in
  for _ = 1 to 3 do
    let t0 = now_ns () in
    let x = ref 12345 in
    for i = 0 to 99_999 do
      let j = !x land 32767 in
      Array.unsafe_set calib_buf j (Array.unsafe_get calib_buf j + i);
      x := ((!x * 1103515245) + 12345) land 0x3fffffff
    done;
    best := min !best (now_ns () - t0)
  done;
  !best
