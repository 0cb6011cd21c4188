(* One executor shard's connection event loop.

   The listener hands accepted fds to a shard through a small
   mutex-guarded mailbox — the only synchronized structure here, and it
   is touched once per *connection*, never per request.  From then on
   the shard owns the connection exclusively: its [poll] loop reads
   whatever bytes are available, slices complete protocol messages out
   of a per-connection buffer (text lines or length-prefixed binary
   frames after the BIN upgrade), and calls back into the server's
   dispatch with no locking whatsoever — the shard's caches, telemetry
   shard and arena are all domain-local.

   A self-pipe wakes the loop out of [poll] when the listener enqueues
   a connection or a shutdown is requested; the short poll timeout is
   belt-and-braces so a lost wakeup can only delay, never hang, the
   loop.  [poll(2)] (a C stub), unlike [select], watches fds of any
   number, so a shard can own more than FD_SETSIZE connections. *)

type conn = {
  fd : Unix.file_descr;
  mutable inbuf : Bytes.t;
  mutable start : int;  (* first unconsumed byte *)
  mutable len : int;  (* end of valid data *)
  mutable scanned : int;  (* text mode: no '\n' in [start, scanned) *)
  mutable mode : [ `Text | `Bin ];
  mutable alive : bool;
}

type t = {
  sid : int;
  mailbox : Unix.file_descr Queue.t;
  mb_lock : Mutex.t;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
}

let create ~sid =
  let wake_r, wake_w = Unix.pipe () in
  Unix.set_nonblock wake_w;
  {
    sid;
    mailbox = Queue.create ();
    mb_lock = Mutex.create ();
    wake_r;
    wake_w;
  }

let sid t = t.sid

let wake t =
  (* A full pipe already guarantees a pending wakeup; EAGAIN is fine. *)
  try ignore (Unix.write t.wake_w (Bytes.make 1 '!') 0 1)
  with Unix.Unix_error _ -> ()

let submit t fd =
  Mutex.lock t.mb_lock;
  Queue.push fd t.mailbox;
  Mutex.unlock t.mb_lock;
  wake t

let drain_mailbox t =
  Mutex.lock t.mb_lock;
  let fds = Queue.fold (fun acc fd -> fd :: acc) [] t.mailbox in
  Queue.clear t.mailbox;
  Mutex.unlock t.mb_lock;
  List.rev fds

let drain_wake_pipe t =
  let scratch = Bytes.create 64 in
  let rec go () =
    match Unix.read t.wake_r scratch 0 64 with
    | 64 -> go ()
    | _ -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error _ -> ()
  in
  go ()

let new_conn fd =
  { fd; inbuf = Bytes.create 4096; start = 0; len = 0; scanned = 0;
    mode = `Text; alive = true }

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write fd b !off (n - !off)
  done

let write_line fd s =
  write_all fd (s ^ "\n")

(* Ensure room for one more read chunk, compacting the consumed prefix
   first and growing only when a single message spans the whole buffer. *)
let chunk = 4096

let ensure_room c =
  if c.start > 0 then begin
    Bytes.blit c.inbuf c.start c.inbuf 0 (c.len - c.start);
    c.len <- c.len - c.start;
    c.scanned <- max 0 (c.scanned - c.start);
    c.start <- 0
  end;
  if Bytes.length c.inbuf - c.len < chunk then begin
    let grown = Bytes.create (2 * Bytes.length c.inbuf) in
    Bytes.blit c.inbuf 0 grown 0 c.len;
    c.inbuf <- grown
  end

let close_conn c =
  c.alive <- false;
  (try Unix.close c.fd with Unix.Unix_error _ -> ())

(* Index of the next '\n' in the buffered data, or -1.  The scan
   resumes where the last one stopped, so a line arriving in many reads
   is scanned once, not once per read.  Top-level recursion: an inner
   [let rec] would close over [c] and allocate on every scan. *)
let rec find_nl_from c i =
  if i >= c.len then -1
  else if Bytes.unsafe_get c.inbuf i = '\n' then i
  else find_nl_from c (i + 1)

let find_nl c =
  let nl = find_nl_from c (max c.start c.scanned) in
  c.scanned <- (if nl < 0 then c.len else nl);
  nl

(* Frame-length read without the [Int32] box [Bytes.get_int32_be]
   would allocate — the warm binary path must not touch the heap. *)
let read_u32_be b i =
  (Bytes.get_uint16_be b i lsl 16) lor Bytes.get_uint16_be b (i + 2)

(* Process every complete message currently buffered on [c].  Returns
   [`Stop] when a handler requested server shutdown (its response has
   already been written).

   Each message is first offered to the fast handler as a slice of the
   connection buffer — [on_line_fast] / [on_frame_fast] get the fd and
   (buffer, off, len) and return [true] when they recognized, served
   and answered the request without any string ever being built.  Only
   on [false] is the line / frame payload copied out for the reference
   handlers.  The fast handlers only match [EST] requests, so the [BIN]
   hello and every other verb always reach the reference path.  Written
   as a tail recursion over constant constructors: the warm loop itself
   allocates nothing. *)
(* Top-level recursion with the handlers threaded as plain arguments: a
   [let rec go ()] closure inside [process_conn] would capture six
   values and be rebuilt on every call — the warm loop must not touch
   the heap. *)
let rec process_go c on_line_fast on_frame_fast on_line on_frame
    on_protocol_error =
  if not c.alive then `Continue
  else
    match c.mode with
    | `Text ->
      let nl = find_nl c in
      if (if nl < 0 then c.len else nl) - c.start > Protocol.Bin.max_frame
      then begin
        (* A text line is capped like a frame: the stream cannot be
           resynchronized cheaply, so answer and drop the connection. *)
        on_protocol_error ();
        write_line c.fd
          (Protocol.err
             (Printf.sprintf "line length exceeds %d" Protocol.Bin.max_frame));
        close_conn c;
        `Continue
      end
      else if nl < 0 then `Continue
      else begin
        let stop =
          if nl > c.start && Bytes.unsafe_get c.inbuf (nl - 1) = '\r' then
            nl - 1
          else nl
        in
        let off = c.start and len = stop - c.start in
        if on_line_fast c.fd c.inbuf ~off ~len then begin
          c.start <- nl + 1;
          process_go c on_line_fast on_frame_fast on_line on_frame
            on_protocol_error
        end
        else begin
          let line = Bytes.sub_string c.inbuf off len in
          c.start <- nl + 1;
          if String.uppercase_ascii (String.trim line) = Protocol.Bin.hello
          then begin
            (* Upgrade: acknowledge in text, switch framing.  The hello
               itself is not a counted request. *)
            write_line c.fd Protocol.Bin.hello_ok;
            c.mode <- `Bin;
            process_go c on_line_fast on_frame_fast on_line on_frame
              on_protocol_error
          end
          else begin
            let response, action = on_line line in
            write_line c.fd response;
            if action = `Stop then begin
              close_conn c;
              `Stop
            end
            else
              process_go c on_line_fast on_frame_fast on_line on_frame
                on_protocol_error
          end
        end
      end
    | `Bin ->
      if c.len - c.start < 4 then `Continue
      else begin
        let flen = read_u32_be c.inbuf c.start in
        if flen > Protocol.Bin.max_frame then begin
          (* Unrecoverable: the stream cannot be resynchronized. *)
          on_protocol_error ();
          write_all c.fd
            (Protocol.Bin.encode_response
               (Protocol.Bin.Berr
                  (Printf.sprintf "bin: frame length %d exceeds %d" flen
                     Protocol.Bin.max_frame)));
          close_conn c;
          `Continue
        end
        else if c.len - c.start - 4 < flen then `Continue
        else begin
          let off = c.start + 4 in
          if on_frame_fast c.fd c.inbuf ~off ~len:flen then begin
            c.start <- c.start + 4 + flen;
            process_go c on_line_fast on_frame_fast on_line on_frame
              on_protocol_error
          end
          else begin
            let payload = Bytes.sub c.inbuf off flen in
            c.start <- c.start + 4 + flen;
            write_all c.fd (on_frame payload);
            process_go c on_line_fast on_frame_fast on_line on_frame
              on_protocol_error
          end
        end
      end

let process_conn c ~on_line_fast ~on_frame_fast ~on_line ~on_frame
    ~on_protocol_error =
  try process_go c on_line_fast on_frame_fast on_line on_frame on_protocol_error
  with Unix.Unix_error _ | Sys_error _ ->
    close_conn c;
    `Continue

(* Read whatever is available on [c]; 0 bytes means the peer closed. *)
let read_into c =
  ensure_room c;
  match Unix.read c.fd c.inbuf c.len chunk with
  | 0 -> close_conn c
  | n -> c.len <- c.len + n
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    -> ()
  | exception Unix.Unix_error _ -> close_conn c

(* One readable connection's turn: read, then answer what is buffered. *)
let serve_conn c ~on_line_fast ~on_frame_fast ~on_line ~on_frame ~on_protocol_error =
  read_into c;
  if c.alive then
    process_conn c ~on_line_fast ~on_frame_fast ~on_line ~on_frame ~on_protocol_error
  else `Continue

external poll : Unix.file_descr array -> int array -> int -> int -> int
  = "selest_shard_poll"

(* The connections a loop owns, in arrays that live across wakeups:
   [fds.(0)] is the wakeup pipe, [fds.(i + 1)] is [conns.(i)]'s socket,
   and [poll] writes each fd's readiness into [revents] — a wakeup
   allocates nothing. *)
type set = {
  mutable conns : conn array;
  mutable fds : Unix.file_descr array;
  mutable revents : int array;
  mutable n : int;  (* connections owned *)
}

let add s c =
  if s.n + 1 >= Array.length s.fds then begin
    let cap = 2 * Array.length s.fds in
    let grow a fill = Array.init cap (fun i -> if i < Array.length a then a.(i) else fill) in
    s.conns <- grow s.conns c;
    s.fds <- grow s.fds c.fd;
    s.revents <- Array.make cap 0
  end;
  s.conns.(s.n) <- c;
  s.fds.(s.n + 1) <- c.fd;
  s.n <- s.n + 1

(* Drop the closed connections, keeping the others in order; the freed
   slots are overwritten with [none] so their buffers can be reclaimed. *)
let reap s none ~on_close =
  let w = ref 0 in
  for i = 0 to s.n - 1 do
    let c = s.conns.(i) in
    if c.alive then begin
      if !w < i then begin
        s.conns.(!w) <- c;
        s.fds.(!w + 1) <- c.fd
      end;
      incr w
    end
    else on_close ()
  done;
  Array.fill s.conns !w (s.n - !w) none;
  s.n <- !w

let poll_ms = 250

let run t ~stop ~request_stop ~on_line_fast ~on_frame_fast ~on_line ~on_frame
    ~on_close ~on_protocol_error ~on_conn_error () =
  let none = { (new_conn t.wake_r) with inbuf = Bytes.empty; alive = false } in
  let s =
    { conns = Array.make 16 none; fds = Array.make 16 t.wake_r; revents = Array.make 16 0;
      n = 0 }
  in
  while not (Atomic.get stop) do
    if poll s.fds s.revents (s.n + 1) poll_ms > 0 then begin
      let closed = ref false in
      for i = 0 to s.n - 1 do
        let c = s.conns.(i) in
        if s.revents.(i + 1) <> 0 && c.alive then begin
          (match
             serve_conn c ~on_line_fast ~on_frame_fast ~on_line ~on_frame
               ~on_protocol_error
           with
          | `Continue -> ()
          | `Stop -> request_stop ()
          | exception e ->
            (* A handler that raises loses its connection, not the
               shard: every other connection keeps being served. *)
            close_conn c;
            on_conn_error e);
          if not c.alive then closed := true
        end
      done;
      if !closed then reap s none ~on_close;
      if s.revents.(0) <> 0 then begin
        drain_wake_pipe t;
        List.iter (fun fd -> add s (new_conn fd)) (drain_mailbox t)
      end
    end
  done;
  (* Shutdown: close every owned connection and anything still queued. *)
  for i = 0 to s.n - 1 do
    if s.conns.(i).alive then close_conn s.conns.(i);
    on_close ()
  done;
  List.iter
    (fun fd ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      on_close ())
    (drain_mailbox t)

let destroy t =
  (try Unix.close t.wake_r with Unix.Unix_error _ -> ());
  (try Unix.close t.wake_w with Unix.Unix_error _ -> ())

(* ---- loopback harness ----------------------------------------------------- *)

(* Drive one connection synchronously over an fd the caller already
   owns (a socketpair end): no mailbox, no [poll], no domain.  The
   front-end benchmark and the tests use this to measure the true
   socket-read → answer-write path — fast handlers included — without
   standing up a listener. *)
module Loopback = struct
  type nonrec conn = conn

  let connect fd = new_conn fd
  let upgrade_bin c = c.mode <- `Bin
  let alive c = c.alive

  let step c ~on_line_fast ~on_frame_fast ~on_line ~on_frame =
    read_into c;
    if c.alive then
      ignore
        (process_conn c ~on_line_fast ~on_frame_fast ~on_line ~on_frame
           ~on_protocol_error:ignore)
end
