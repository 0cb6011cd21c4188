(** Flat "bytecode" executor for compiled plans.

    {!Plan.execute}'s generic path rebuilds restricted [Factor.t] values
    and allocates fresh intermediate tables on every request.  This
    module lowers one {e restricted-variable shape} of a plan — its
    factors, the set of evidence slots, and the memoized elimination
    order — into a linear program of two step kinds executed over
    arena-allocated float buffers sized at compile time:

    - {b Gather}: copy the slice [factor | bound values] into an arena
      buffer with precomputed strides, writing exact [0.0] for entries a
      mask slot disallows (the compiled form of the per-request
      {!Selest_prob.Factor.restrict} chain composed with
      {!Selest_prob.Factor.observe_mask} — pure data movement, bitwise
      identical by construction);
    - {b Contract}: one variable-elimination step, the fused
      multiply-then-sum odometer kernel of
      {!Selest_prob.Factor.sum_out_product} with the union scope,
      operand stride tables and output offsets all precomputed.

    The read-out replays [Ve.run]'s [total_of] (Kahan sum per surviving
    buffer, left-fold product), so results are {e bit-identical} to the
    generic engine — [Ve.Reference] remains the oracle for both.

    A warm {!load} + {!run} pair performs {e zero} GC allocation (gate:
    [Gc.minor_words] delta over N requests = 0) and no closure dispatch:
    arenas, odometer digit arrays and operand index arrays live in a
    per-domain {!state} and are reset in place.  Contractions bump
    {!Selest_obs.Hotpath.kernel} exactly like the generic kernels, so
    [max_factor_entries] and per-model metrics keep working. *)

type program
(** An immutable compiled program.  Shareable across domains; all
    mutation happens in per-domain {!state} values. *)

type state
(** Per-domain execution state: evidence slots, arena buffers, odometer
    scratch, and the 1-cell result.  Never share one across domains. *)

val compile :
  factors:Selest_prob.Factor.t list ->
  slots:int list ->
  masked:int list ->
  static:(int * int) list ->
  order:int list ->
  program
(** [compile ~factors ~slots ~masked ~static ~order] lowers the
    elimination of [order]'s variables from [factors] under evidence on
    [slots @ List.map fst static @ masked].  [slots] are per-request
    value variables (bound to one value each by {!load}); [masked] are
    per-request {e mask} variables (range/set predicates — {!load}
    merges their allowed-value bitsets and Gather zeroes the disallowed
    entries); [static] fixes variables to compile-time values (the
    plan's join indicators).  Buffers alias the factors' live tables
    where possible ({!Selest_prob.Factor.unsafe_data}), so the factors
    must outlive the program; scopes are read in place, never copied.
    Raises [Invalid_argument] if a slot variable appears in no factor,
    is duplicated, or a static value is out of range, or if two factors
    disagree on a variable's cardinality. *)

val state_for : program -> state
(** The calling domain's state for this program, created on first use.
    States hang off the program in a slot array indexed by domain id
    (grown by copy-and-CAS, never shrunk), so a state — its arenas,
    and through their aliases the model's factor tables — lives exactly
    as long as its program: when a plan cache drops a stale model's
    plan, its programs' states go with it.  O(1); warm calls allocate
    nothing. *)

(** {2 The evidence writer}

    The only way evidence enters a state: {!begin_load}, one write per
    predicate, then {!finish_load}.  Predicates on the same variable
    intersect as they arrive ([Ve.merged_masks] semantics): an [Eq]
    keeps one value, a range or set narrows an allowed-value mask, and
    an empty intersection is a contradiction.  [node] is a network
    variable; a predicate on a variable this program has no request
    slot for makes the load a misfit.  Values are range-checked as they
    arrive, raising [Invalid_argument "Ve: evidence value out of
    range"] like [Ve.prepare].  Warm writes allocate nothing. *)

val begin_load : program -> state -> unit
val write_eq : program -> state -> int -> int -> unit
val write_range : program -> state -> int -> int -> int -> unit
(** [write_range prog st node lo hi]: the values [lo..hi]. *)

val begin_set : program -> state -> int -> unit
(** A set predicate on [node]: {!add_set} each member, then
    {!end_set}. *)

val add_set : program -> state -> int -> unit
val end_set : program -> state -> unit

val finish_load : program -> state -> [ `Ok | `No_match | `Contradiction ]
(** Classify every request slot by its allowed count — one value binds
    a value slot, two or more a mask slot.  [`Ok]: every slot bound,
    ready to {!run}.  [`No_match]: the evidence does not fit this
    program's shape (a misfit predicate, an unbound slot, or a
    value/mask kind disagreement) — the caller should try another
    program or compile this shape.  [`Contradiction]: a slot with no
    allowed value; the event is empty and the estimate is [0.0]
    {e without} touching any buffer. *)

val load :
  program ->
  state ->
  (int * Selest_db.Query.pred) list ->
  [ `Ok | `No_match | `Contradiction ]
(** Feed a binding list through the evidence writer, in binding order:
    {!begin_load}, one write per predicate, {!finish_load}.  Stops
    feeding at the first predicate the program has no slot for.  Warm
    calls allocate nothing. *)

val run : state -> unit
(** Execute the loaded program: gathers, contractions, read-out.  The
    scalar lands in {!result}.  Must follow a [`Ok] {!load} on the same
    state.  Allocates nothing. *)

val result : state -> float
(** The scalar produced by the last {!run}. *)

(** {2 Introspection} *)

val n_steps : program -> int
(** Step count (gathers + contractions). *)

val arena_entries : program -> int
(** Total float entries across the program's arena buffers (the arena
    footprint of one state, excluding aliased factor tables). *)
