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
    must outlive the program.  Raises [Invalid_argument] if a slot
    variable appears in no factor, is duplicated, or a static value is
    out of range. *)

val state_for : program -> state
(** The calling domain's state for this program, created on first use.
    States hang off the program in a slot array indexed by domain id
    (grown by copy-and-CAS, never shrunk), so a state — its arenas,
    and through their aliases the model's factor tables — lives exactly
    as long as its program: when a plan cache drops a stale model's
    plan, its programs' states go with it.  O(1); warm calls allocate
    nothing. *)

val load :
  program ->
  state ->
  (int * Selest_db.Query.pred) list ->
  [ `Ok | `No_match | `Contradiction ]
(** Write the binding's evidence into the state's slots.  All-[Eq]
    bindings against mask-free programs take an O(1)-per-predicate fast
    path; anything else merges the predicates into per-slot
    allowed-value masks ([Ve.merged_masks] semantics) and classifies
    each slot by its allowed count (1 = value, >=2 = mask).  [`Ok]:
    every slot bound, ready to {!run}.  [`No_match]: the binding does
    not fit this program's shape (an unknown node, an unbound slot, or
    a value/mask kind disagreement) — the caller should fall back to
    another program or compile this shape.  [`Contradiction]: a slot
    with no allowed value; the event is empty and the estimate is [0.0]
    {e without} touching any buffer.  Values are range-checked in
    binding order with the same [Invalid_argument] as [Ve.prepare], and
    — like the generic engine — the contradiction verdict is only
    delivered after the whole binding has been validated.  Warm calls
    allocate nothing. *)

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
