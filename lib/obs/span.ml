type record = {
  name : string;
  id : int;
  parent : int;
  depth : int;
  start_ns : int;
  end_ns : int;
  attrs : (string * string) list;
}

type sink = record -> unit

(* Per-domain open-span bookkeeping.  Ids are seeded from the domain id
   so two domains never hand out the same id within one trace log. *)
type dstate = {
  mutable local_sink : sink option;
  mutable cur_id : int;
  mutable cur_depth : int;
  mutable next_id : int;
}

type t = {
  s_name : string;
  s_id : int;
  s_parent : int;
  s_depth : int;
  s_start : int;
  mutable s_attrs : (string * string) list;  (* accumulated reversed *)
  s_live : bool;
  s_st : dstate;  (* the opening domain's state: [exit] needs no DLS read *)
}

let null =
  { s_name = ""; s_id = 0; s_parent = 0; s_depth = 0; s_start = 0;
    s_attrs = []; s_live = false;
    s_st = { local_sink = None; cur_id = 0; cur_depth = 0; next_id = 0 } }

let dkey =
  Domain.DLS.new_key (fun () ->
      { local_sink = None;
        cur_id = 0;
        cur_depth = 0;
        next_id = (((Domain.self () :> int) land 0xfff) lsl 40) lor 1 })

let state () = Domain.DLS.get dkey

let global_sink : sink option Atomic.t = Atomic.make None
let set_global_sink s = Atomic.set global_sink s

(* Per-domain sinks installed right now, across all domains.  While it
   is zero and no global sink is set, the disabled check is two plain
   loads and never reads the domain-local state. *)
let local_sinks = Atomic.make 0

(* No structural equality on [sink option]: sinks are closures. *)
let no_sink = function None -> true | Some _ -> false

let all_off () = Atomic.get local_sinks = 0 && no_sink (Atomic.get global_sink)
let disabled st = no_sink st.local_sink && no_sink (Atomic.get global_sink)
let enabled () = not (all_off () || disabled (state ()))

let live sp = sp.s_live

let add sp key value = if sp.s_live then sp.s_attrs <- (key, value) :: sp.s_attrs

let emit st r =
  (match st.local_sink with Some f -> f r | None -> ());
  match Atomic.get global_sink with Some f -> f r | None -> ()

(* Closure-free open/close: a disabled [enter] reads the sinks and
   returns the shared {!null} (no allocation), so callers on zero-alloc
   paths bracket their stages with [enter]/[exit] directly.  The [_at]
   forms take a timestamp the caller already read, so a stage whose
   boundaries are timed anyway costs no extra clock read when traced. *)
let open_at st attrs name start_ns =
  let id = st.next_id in
  st.next_id <- id + 1;
  let sp =
    { s_name = name; s_id = id; s_parent = st.cur_id; s_depth = st.cur_depth;
      s_start = start_ns;
      s_attrs = List.rev attrs;
      s_live = true;
      s_st = st }
  in
  st.cur_id <- id;
  st.cur_depth <- st.cur_depth + 1;
  sp

let enter ?(attrs = []) name =
  if all_off () then null
  else
    let st = state () in
    if disabled st then null else open_at st attrs name (Clock.now_ns ())

let enter_at name start_ns =
  if all_off () then null
  else
    let st = state () in
    if disabled st then null else open_at st [] name start_ns

let exit_at sp end_ns =
  if sp.s_live then begin
    let st = sp.s_st in
    st.cur_id <- sp.s_parent;
    st.cur_depth <- sp.s_depth;
    emit st
      { name = sp.s_name; id = sp.s_id; parent = sp.s_parent; depth = sp.s_depth;
        start_ns = sp.s_start; end_ns; attrs = List.rev sp.s_attrs }
  end

let exit sp = if sp.s_live then exit_at sp (Clock.now_ns ())

let next sp name =
  if sp.s_live then begin
    let t = Clock.now_ns () in
    exit_at sp t;
    enter_at name t
  end
  else enter name

let with_ ?attrs name f =
  let sp = enter ?attrs name in
  match f sp with
  | x -> exit sp; x
  | exception e -> exit sp; raise e

let collect f =
  let st = state () in
  let buf = ref [] in
  let saved = st.local_sink in
  st.local_sink <- Some (fun r -> buf := r :: !buf);
  Atomic.incr local_sinks;
  let restore () =
    st.local_sink <- saved;
    Atomic.decr local_sinks
  in
  match f () with
  | x -> restore (); (x, List.rev !buf)
  | exception e -> restore (); raise e

let duration_us r = Clock.ns_to_us (r.end_ns - r.start_ns)
