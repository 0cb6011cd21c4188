(* One executor shard's connection event loop.

   The listener hands accepted connections to a shard through a small
   mutex-guarded mailbox — the only synchronized structure here, and it
   is touched once per *connection*, never per request.  From then on
   the shard owns the connection exclusively: its [poll] loop reads
   whatever bytes are available, slices complete protocol messages out
   of a per-connection buffer (text lines or length-prefixed binary
   frames after the BIN upgrade), hands each to the server's handler
   with no locking whatsoever — the shard's caches, telemetry shard and
   arena are all domain-local — and writes the reply the handler
   returns.  This loop is the only code that reads from or writes to a
   connection.

   Every system call goes through an [io] record, so the same loop runs
   over real descriptors in production and over a simulated network in
   tests and benchmarks.

   A self-pipe wakes the loop out of [poll] when the listener enqueues
   a connection or a shutdown is requested; the short poll timeout is
   belt-and-braces so a lost wakeup can only delay, never hang, the
   loop.  [poll(2)] (a C stub), unlike [select], watches fds of any
   number, so a shard can own more than FD_SETSIZE connections. *)

type 'fd io = {
  poll : 'fd array -> int array -> int -> int -> int;
  read : 'fd -> Bytes.t -> int -> int -> int;
  write : 'fd -> Bytes.t -> int -> int -> int;
  close : 'fd -> unit;
  pipe : unit -> 'fd * 'fd;
}

external unix_poll : Unix.file_descr array -> int array -> int -> int -> int
  = "selest_shard_poll"

let unix =
  {
    poll = unix_poll;
    read = Unix.read;
    write = Unix.write;
    close = Unix.close;
    pipe =
      (fun () ->
        (* both ends non-blocking: draining an empty pipe must not block *)
        let r, w = Unix.pipe () in
        Unix.set_nonblock r;
        Unix.set_nonblock w;
        (r, w));
  }

type 'fd conn = {
  fd : 'fd;
  mutable inbuf : Bytes.t;
  mutable start : int;  (* first unconsumed byte *)
  mutable len : int;  (* end of valid data *)
  mutable scanned : int;  (* text mode: no '\n' in [start, scanned) *)
  mutable mode : [ `Text | `Bin ];
  mutable alive : bool;
}

type 'fd t = {
  sid : int;
  io : 'fd io;
  mailbox : 'fd Queue.t;
  mb_lock : Mutex.t;
  wake_r : 'fd;
  wake_w : 'fd;
  drain : Bytes.t;  (* scratch the wake pipe is drained into *)
}

let create io ~sid =
  let wake_r, wake_w = io.pipe () in
  { sid; io; mailbox = Queue.create (); mb_lock = Mutex.create (); wake_r; wake_w;
    drain = Bytes.create 64 }

let sid t = t.sid

let bang = Bytes.make 1 '!'

let wake t =
  (* A full pipe already guarantees a pending wakeup; EAGAIN is fine. *)
  try ignore (t.io.write t.wake_w bang 0 1) with Unix.Unix_error _ -> ()

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

let rec drain_wake_pipe t =
  match t.io.read t.wake_r t.drain 0 64 with
  | 64 -> drain_wake_pipe t
  | _ -> ()
  | exception Unix.Unix_error _ -> ()

let new_conn fd =
  { fd; inbuf = Bytes.create 4096; start = 0; len = 0; scanned = 0;
    mode = `Text; alive = true }

(* Top-level recursion: a local loop would close over its arguments and
   allocate on every reply. *)
let rec write_from io fd b off n =
  if off < n then write_from io fd b (off + io.write fd b off (n - off)) n

let write_all io fd s =
  let b = Bytes.unsafe_of_string s in
  write_from io fd b 0 (Bytes.length b)

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

let close_conn io c =
  c.alive <- false;
  try io.close c.fd with Unix.Unix_error _ -> ()

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

let is_space = function ' ' | '\t' | '\n' | '\r' | '\012' -> true | _ -> false

(* Is the line slice the [BIN] hello, in any case with blanks around
   it?  Tested on the slice without allocating. *)
let is_hello buf ~off ~len =
  let h = Protocol.Bin.hello in
  let lo = ref off and hi = ref (off + len) and i = ref 0 in
  while !lo < !hi && is_space (Bytes.unsafe_get buf !lo) do incr lo done;
  while !hi > !lo && is_space (Bytes.unsafe_get buf (!hi - 1)) do decr hi done;
  if !hi - !lo = String.length h then
    while !i < String.length h && Char.uppercase_ascii (Bytes.get buf (!lo + !i)) = h.[!i] do
      incr i
    done;
  !i = String.length h

let hello_ok_line = Protocol.Bin.hello_ok ^ "\n"

let line_too_long =
  Protocol.err (Printf.sprintf "line length exceeds %d" Protocol.Bin.max_frame) ^ "\n"

(* Answer every complete message currently buffered on [c]: slice it out
   of the buffer, hand the slice to [on_line] / [on_frame] and write the
   reply they return.  A text line that is the [BIN] hello is answered
   here and switches the framing.  Once [stop] is set nothing more is
   answered.  Top-level recursion with the handlers threaded as plain
   arguments: a [let rec go ()] closure would capture them and be
   rebuilt on every call — the warm loop must not touch the heap. *)
let rec process_go io c stop on_line on_frame on_protocol_error =
  if c.alive && not (Atomic.get stop) then
    match c.mode with
    | `Text ->
      let nl = find_nl c in
      if (if nl < 0 then c.len else nl) - c.start > Protocol.Bin.max_frame then begin
        (* A text line is capped like a frame: the stream cannot be
           resynchronized cheaply, so answer and drop the connection. *)
        on_protocol_error ();
        write_all io c.fd line_too_long;
        close_conn io c
      end
      else if nl >= 0 then begin
        let last =
          if nl > c.start && Bytes.unsafe_get c.inbuf (nl - 1) = '\r' then nl - 1 else nl
        in
        let off = c.start and len = last - c.start in
        c.start <- nl + 1;
        if is_hello c.inbuf ~off ~len then begin
          (* The hello itself is not a counted request. *)
          write_all io c.fd hello_ok_line;
          c.mode <- `Bin
        end
        else write_all io c.fd (on_line c.inbuf ~off ~len);
        process_go io c stop on_line on_frame on_protocol_error
      end
    | `Bin ->
      if c.len - c.start >= 4 then begin
        let flen = read_u32_be c.inbuf c.start in
        if flen > Protocol.Bin.max_frame then begin
          (* Unrecoverable: the stream cannot be resynchronized. *)
          on_protocol_error ();
          write_all io c.fd
            (Protocol.Bin.encode_response
               (Protocol.Bin.Berr
                  (Printf.sprintf "bin: frame length %d exceeds %d" flen
                     Protocol.Bin.max_frame)));
          close_conn io c
        end
        else if c.len - c.start - 4 >= flen then begin
          let off = c.start + 4 in
          c.start <- off + flen;
          write_all io c.fd (on_frame c.inbuf ~off ~len:flen);
          process_go io c stop on_line on_frame on_protocol_error
        end
      end

(* One readable connection's turn: read whatever is available (0 bytes
   means the peer closed), then answer what is buffered.  An I/O error
   closes the connection; anything else a handler raises propagates. *)
let serve_conn io c stop on_line on_frame on_protocol_error =
  ensure_room c;
  match io.read c.fd c.inbuf c.len chunk with
  | 0 -> close_conn io c
  | n -> (
    c.len <- c.len + n;
    try process_go io c stop on_line on_frame on_protocol_error
    with Unix.Unix_error _ | Sys_error _ -> close_conn io c)
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error _ -> close_conn io c

(* The connections a loop owns, in arrays that live across wakeups:
   [fds.(0)] is the wakeup pipe, [fds.(i + 1)] is [conns.(i)]'s handle,
   and [poll] writes each one's readiness into [revents] — a wakeup
   allocates nothing. *)
type 'fd set = {
  mutable conns : 'fd conn array;
  mutable fds : 'fd array;
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

let run t ~stop ~on_line ~on_frame ~on_close ~on_protocol_error ~on_conn_error =
  let io = t.io in
  let none = { (new_conn t.wake_r) with inbuf = Bytes.empty; alive = false } in
  let s =
    { conns = Array.make 16 none; fds = Array.make 16 t.wake_r; revents = Array.make 16 0;
      n = 0 }
  in
  (* On the way out, normal or not: close every owned connection and
     anything still queued. *)
  let close_all () =
    for i = 0 to s.n - 1 do
      if s.conns.(i).alive then close_conn io s.conns.(i);
      on_close ()
    done;
    s.n <- 0;
    List.iter
      (fun fd ->
        (try io.close fd with Unix.Unix_error _ -> ());
        on_close ())
      (drain_mailbox t)
  in
  Fun.protect ~finally:close_all (fun () ->
      while not (Atomic.get stop) do
        if io.poll s.fds s.revents (s.n + 1) poll_ms > 0 then begin
          let closed = ref false in
          for i = 0 to s.n - 1 do
            let c = s.conns.(i) in
            if s.revents.(i + 1) <> 0 && c.alive then begin
              (try serve_conn io c stop on_line on_frame on_protocol_error
               with e ->
                 (* A handler that raises loses its connection, not the
                    shard: every other connection keeps being served. *)
                 close_conn io c;
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
      done)

let destroy t =
  (try t.io.close t.wake_r with Unix.Unix_error _ -> ());
  try t.io.close t.wake_w with Unix.Unix_error _ -> ()
