(** The compiled query plan IR: compile once, bind many.

    The paper's online phase is two-staged — build the query-evaluation
    Bayesian network from the upward-closed query (Defs. 3.3/3.5), then
    run inference — and everything that depends only on the {e query
    skeleton} (tuple variables, joins, the set of selected attributes) is
    identical across all bindings of that skeleton.  The work splits in
    three:
    {ul
    {- {b per model}: each family's CPD tabulated over its table's local
       ids, built once on first use ({!Selest_prm.Model.attr_table});}
    {- {b per skeleton}, {!compile}: upward closure, one strided
       relabelling of each family's table into the network's node ids
       ({!relabel}), binding-slot layout, join-evidence templating,
       elimination scheduling on factor {e shapes} (the variables a
       binding restricts are dropped from the scopes; no table is
       sliced) and the bytecode program for the compile query's shape;}
    {- {b per binding}, {!execute}: write the bound predicates into the
       program's evidence slots and run its contractions.}}

    A plan is an introspectable value — closure tables, factor shapes,
    binding slots, the elimination steps with their predicted
    intermediate sizes — rendered by {!pp} (the CLI explain mode) and
    the server's [EXPLAIN] verb.

    Plans are immutable apart from internal schedule and program memos
    (the restricted-variable set of a binding determines the factor
    shapes, hence the schedule and the bytecode program), which are
    replaced under a mutex on a miss and read lock-free: one plan may be
    executed concurrently from many domains.  Program-memo hits and
    misses are counted only in the domain-local {!Selest_obs.Hotpath}
    counters ([program_hits] / [program_misses]), which the server
    surfaces in [STATS] and as [selest_program_memo_{hits,misses}] in
    [METRICS]. *)

type t

type binding = (int * Selest_db.Query.pred) list
(** Per-request constants: the plan's select slots (node ids) paired with
    the bound predicates, in query-select order.  Obtain one with
    {!bind}. *)

val compile : Selest_prm.Model.t -> Selest_db.Query.t -> t
(** Build the plan for the query's skeleton: compute the upward closure,
    relabel the model's per-family tables into the query-evaluation
    network's factors, lay out binding slots for every selected
    attribute (also indexed by tuple-variable position in name order
    and attribute id, for {!execute_scratch}), template the
    join-indicator evidence, and seed the schedule and program memos
    with the compile query's own binding shape.  The skeleton key and
    node names are rendered only when {!skeleton} or {!pp} ask.  Any
    query with the same {!skeleton_key} can be bound against the
    result.  Nodes are numbered from the selected attributes in
    (tuple variable, attribute) order, not select order, so every
    query of one skeleton compiles the same network and gets the same
    bits whichever of them compiled it.  Wrapped in a ["plan.compile"]
    span. *)

val relabel : Selest_prob.Factor.t -> int array -> Selest_prob.Factor.t
(** [relabel f nodes]: [f] with its [i]-th variable ([vars f].(i))
    renamed [nodes.(i)] — the scope re-sorted by the new ids and the
    table re-laid out with one strided gather.  Cells are copied, never
    recomputed, so relabelling a model's {!Selest_prm.Model.attr_table}
    is bit-identical to tabulating the CPD under the renaming
    ([Cpd.to_factor ~var_of]).  Raises [Invalid_argument] unless
    [nodes] is injective and one per variable. *)

val bind : t -> Selest_db.Query.t -> binding
(** Map the query's selects onto the plan's binding slots.  Raises
    [Invalid_argument] if the query selects an attribute the plan has no
    slot for (i.e. a different skeleton). *)

val execute : t -> binding -> float
(** P(selects ∧ all closure joins) under the model, on the plan's
    compiled bytecode program ({!Exec}) — the only serving engine:
    evidence-slot writes — one value per [Eq]-shaped slot, an
    allowed-value mask per range/set slot — then strided contractions
    over preallocated arenas and a scalar read-out, with zero GC
    allocation and no closure dispatch once the program for the
    binding's (value nodes, mask nodes) shape exists (the compile
    query's shape is pre-compiled).  Results are bit-identical to
    [Ve.Reference.prob_of_evidence] on {!factors} with the binding and
    {!join_evidence}, the oracle tests and benchmarks check it
    against.  The two stages open the
    spans ["exec.load"] (program lookup, compiling it on a memo miss,
    and the evidence writes) and ["exec.run"] through the closure-free
    {!Selest_obs.Span.enter}/[exit], so [EXPLAIN] and [SLOWLOG] trace
    the program that serves requests.  Contradictory bindings — mutually
    exclusive predicates on one attribute — describe an empty event and
    return [0.0], never an error, detected in the evidence slots
    {e before} any buffer is touched.  Raises [Invalid_argument] when
    the binding names a join indicator (the program fixes those as
    static evidence); {!bind} never produces one. *)

val execute_scratch : t -> Selest_db.Squery.t -> float
(** {!execute} for a canonicalized scratch whose skeleton is the plan's
    — the served estimate path.  No binding list is built: each select
    is written from the scratch's interned ids straight into the
    program's evidence slots and masks ({!Exec.write_eq} and friends),
    through a (tuple-variable position in name order, attribute index)
    -> node table {!compile} lays out.  Bit-identical to [execute t
    (bind t (Squery.to_query s))].  Raises [Invalid_argument] when a
    selected attribute has no slot (a different skeleton). *)

val fork : t -> t
(** The plan with a program memo of its own: it shares every table,
    schedule and compiled program with [t], but a program it compiles
    for a new evidence shape stays in the copy, so executing the copy
    never changes which shapes [t] has compiled (nor, hence, the
    program hits and misses [t] later counts).  The server's diagnostic
    runs (EXPLAIN, slow-log captures) execute a fork. *)

val program_for : t -> binding -> Exec.program option
(** The compiled bytecode program for the binding's evidence shape —
    the (value nodes, mask nodes) partition of its merged predicates —
    compiling and memoizing it on first use.  [None] when the binding
    names a join indicator or is contradictory (there is no schedule to lower).  Uncounted —
    introspection and benchmarks. *)

val estimate : t -> sizes:int array -> Selest_db.Query.t -> float
(** [execute] on [bind], scaled by the closure tables' sizes:
    size(q) ≈ Π |T_i| · P(selects, all J = true).  [sizes] holds each
    table's row count in schema order. *)

val skeleton_key : Selest_db.Query.t -> string
(** Deterministic rendering of the query's skeleton: tuple variables,
    joins, and the {e set} of selected attributes (predicate values
    excluded — they are binding, not skeleton).  Two queries with equal
    keys can share one compiled plan. *)

(** {2 Introspection} *)

val skeleton : t -> string
(** The {!skeleton_key} of the compile query. *)

val query : t -> Selest_db.Query.t
(** The compile query: [compile m (query p)] builds the same skeleton's
    plan for another model [m]. *)

val fingerprint : t -> string
(** The structure fingerprint of the model the plan was compiled for. *)

val closure_tables : t -> (string * string) list
(** The upward closure's tuple variables with their table names, in
    closure order — the Π|T_i| of the scaling factor. *)

val upward_closure : t -> Selest_db.Query.t -> Selest_db.Query.t
(** The closed query (Def. 3.3) for a query of this plan's skeleton:
    same selects, possibly more tuple variables and joins. *)

val factors : t -> Selest_prob.Factor.t list
(** The query-evaluation network's factors, in construction order. *)

val join_evidence : t -> binding
(** The [(join indicator, Eq 1)] template appended to every binding. *)

val scale : t -> sizes:int array -> float
(** Π |T_i| over the closure tables.  Memoized per plan for the last
    [sizes] array seen (compared physically). *)

val steps : t -> Selest_db.Query.t -> Selest_bn.Ve.Schedule.step list
(** The elimination steps {!execute} uses for this query's binding, with
    the planner's predicted intermediate sizes (compare against the
    actual [max_factor_entries] of {!Selest_obs.Hotpath}).  Empty for a
    contradictory binding (nothing is eliminated — the estimate is 0). *)

val pp : Format.formatter -> t -> unit
(** Multi-line human rendering: closure, factor shapes, binding slots and
    the seeded schedule.  The per-step format is shared with the server's
    [EXPLAIN] verb ({!Selest_bn.Ve.Schedule.pp}). *)
