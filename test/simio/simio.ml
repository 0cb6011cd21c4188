(* A simulated network under the shard loop's I/O record.  Everything
   runs on the loop's own domain: [poll] is where the simulation moves
   (it answers from the peers' state, and runs the next queued step when
   nothing is ready), [read] hands out a peer's bytes in seeded chunk
   sizes, and [write] takes a seeded share of the reply.  Nothing here
   allocates on the minor heap once a run is under way (a peer's reply
   buffer grows in major-heap blocks), so a benchmark can count the
   words the loop itself allocates. *)

open Selest_serve

type wake = { mutable pending : int }

type peer = {
  out : string array;  (* messages, in the order the peer sends them *)
  max_chunk : int;
  lockstep : bool;
  mutable msg : int;  (* the message being sent *)
  mutable pos : int;  (* bytes of [out.(msg)] already read *)
  mutable held : bool;  (* lockstep: no reply yet to the last message *)
  mutable eof_read : bool;
  mutable received : Bytes.t;  (* [rlen] bytes written by the loop *)
  mutable rlen : int;
  mutable closed : bool;
  mutable dropped : bool;
}

type fd = Peer of peer | Wake_r of wake | Wake_w of wake

type t = {
  rng : Random.State.t;
  short_writes : bool;
  on_write : unit -> unit;
  mutable steps : (unit -> unit) list;
  mutable idle : bool;
  mutable on_done : unit -> unit;
  mutable shard : fd Shard.t option;
  mutable pending : fd list;  (* connected before [shard] *)
}

let create ?(seed = 0) ?(short_writes = false) ?(on_write = ignore) () =
  { rng = Random.State.make [| seed |]; short_writes; on_write; steps = []; idle = false;
    on_done = ignore; shard = None; pending = [] }

let eagain = Unix.Unix_error (Unix.EAGAIN, "read", "")

let sending p = p.msg < Array.length p.out

let ready = function
  | Wake_r w -> w.pending > 0
  | Wake_w _ -> false
  | Peer p -> (not p.closed) && if sending p then not p.held else not p.eof_read

let scan fds revents n =
  let count = ref 0 in
  for i = 0 to n - 1 do
    let r = ready (Array.unsafe_get fds i) in
    revents.(i) <- (if r then 1 else 0);
    if r then incr count
  done;
  !count

(* Nothing is ready: run the next step, or report the network done. *)
let poll t fds revents n _timeout_ms =
  match scan fds revents n with
  | 0 ->
    (match t.steps with
    | step :: rest ->
      t.steps <- rest;
      step ()
    | [] ->
      if not t.idle then begin
        t.idle <- true;
        t.on_done ()
      end
      else Unix.sleepf 0.001);
    scan fds revents n
  | k -> k

let draw t max = if max = max_int then max else 1 + Random.State.int t.rng max

(* A read takes at most one drawn chunk and, in lockstep, never runs
   past the end of the current message. *)
let read_peer t p buf off len =
  if not (sending p) then begin
    p.eof_read <- true;
    0
  end
  else if p.held then raise eagain
  else begin
    let want = min len (draw t p.max_chunk) and n = ref 0 in
    while !n < want && sending p && not p.held do
      let m = Array.unsafe_get p.out p.msg in
      let k = min (want - !n) (String.length m - p.pos) in
      Bytes.blit_string m p.pos buf (off + !n) k;
      n := !n + k;
      p.pos <- p.pos + k;
      if p.pos = String.length m then begin
        p.msg <- p.msg + 1;
        p.pos <- 0;
        p.held <- p.lockstep
      end
    done;
    !n
  end

let io t =
  {
    Shard.poll = poll t;
    read =
      (fun fd buf off len ->
        match fd with
        | Peer p -> read_peer t p buf off len
        | Wake_r w ->
          if w.pending = 0 then raise eagain
          else begin
            let k = min len w.pending in
            w.pending <- w.pending - k;
            k
          end
        | Wake_w _ -> invalid_arg "Simio: read on a write end");
    write =
      (fun fd buf off len ->
        match fd with
        | Peer p ->
          let k = if t.short_writes then draw t len else len in
          if p.rlen + k > Bytes.length p.received then begin
            (* at least 4 KiB: a major-heap block, no minor words *)
            let grown = Bytes.create (2 * (p.rlen + k)) in
            Bytes.blit p.received 0 grown 0 p.rlen;
            p.received <- grown
          end;
          Bytes.blit buf off p.received p.rlen k;
          p.rlen <- p.rlen + k;
          p.held <- false;
          t.on_write ();
          k
        | Wake_w w ->
          w.pending <- w.pending + len;
          len
        | Wake_r _ -> invalid_arg "Simio: write on a read end");
    close =
      (function
        | Peer p ->
          p.closed <- true;
          p.dropped <- not p.eof_read
        | Wake_r _ | Wake_w _ -> ());
    pipe =
      (fun () ->
        let w = { pending = 0 } in
        (Wake_r w, Wake_w w));
  }

let shard t ~sid =
  let rt = Shard.create (io t) ~sid in
  t.shard <- Some rt;
  List.iter (Shard.submit rt) (List.rev t.pending);
  t.pending <- [];
  rt

let connect t ?(max_chunk = max_int) ?(lockstep = false) msgs =
  let fd =
    Peer
      { out = Array.of_list (List.filter (fun m -> m <> "") msgs); max_chunk; lockstep;
        msg = 0; pos = 0; held = false; eof_read = false; received = Bytes.create 4096; rlen = 0;
        closed = false; dropped = false }
  in
  (match t.shard with
  | Some rt -> Shard.submit rt fd
  | None -> t.pending <- fd :: t.pending);
  fd

let when_idle t step = t.steps <- t.steps @ [ step ]

let serve server sims =
  let left = Atomic.make (List.length sims) in
  let rts =
    List.mapi
      (fun sid sim ->
        sim.on_done <-
          (fun () -> if Atomic.fetch_and_add left (-1) = 1 then Server.shutdown server);
        shard sim ~sid)
      sims
  in
  (match rts with
  | [ rt ] -> Server.run_shard server rt
  | _ ->
    List.iter Domain.join
      (List.map (fun rt -> Domain.spawn (fun () -> Server.run_shard server rt)) rts));
  List.iter Shard.destroy rts

let peer = function Peer p -> p | Wake_r _ | Wake_w _ -> invalid_arg "Simio: not a peer"
let received fd =
  let p = peer fd in
  Bytes.sub_string p.received 0 p.rlen
let dropped fd = (peer fd).dropped
