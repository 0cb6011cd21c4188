(* Differential suite for the bytecode executor (Selest_plan.Exec): random
   factor bags × random evidence (equality, and the range/set mix that
   lowers to mask slots) against the naive Ve.Reference oracle, bit-exact.
   The generators deliberately cover the executor's edge set —
   contradictory duplicates, empty evidence, single-variable models,
   static (join-indicator style) slots, full-domain and empty masks — and
   the tests also pin the `No_match routing contract and arena/mask-reuse
   hygiene (a contradiction must not corrupt the state a later request
   reads). *)

open Selest_db
open Selest_bn
open Selest_plan
module Factor = Selest_prob.Factor

let bits = Int64.bits_of_float

(* ---- generators ------------------------------------------------------------------- *)

(* A random factor bag: n variables with cardinalities fixed per variable
   (Exec.compile rejects cardinality disagreements), a handful of factors
   over random scopes, plus a unary factor for any variable no scope
   covered (evidence on a variable outside every factor is an error by
   contract, not a case under test).  Entries are strictly positive so
   products stay meaningful; nothing requires normalization. *)
let gen_model =
  let open QCheck2.Gen in
  let* n_vars = int_range 1 4 in
  let* cards = array_size (return n_vars) (int_range 2 3) in
  let gen_scope =
    let* mask = list_size (return n_vars) bool in
    let vars =
      List.filteri (fun i _ -> List.nth mask i) (List.init n_vars Fun.id)
    in
    return (if vars = [] then [ 0 ] else vars)
  in
  let factor_of vars =
    let vs = Array.of_list vars in
    let cs = Array.map (fun v -> cards.(v)) vs in
    let size = Array.fold_left ( * ) 1 cs in
    let* data = array_size (return size) (float_range 0.05 1.0) in
    return (Factor.create ~vars:vs ~cards:cs data)
  in
  let* scopes = list_size (int_range 1 4) gen_scope in
  let covered = List.sort_uniq compare (List.concat scopes) in
  let uncovered =
    List.filter (fun v -> not (List.mem v covered)) (List.init n_vars Fun.id)
  in
  let* factors = flatten_l (List.map factor_of (scopes @ List.map (fun v -> [ v ]) uncovered)) in
  return (n_vars, cards, factors)

(* Evidence: 0–5 equality entries over the model's variables, duplicates
   allowed — consistent duplicates must collapse, conflicting ones must
   answer `Contradiction. *)
let gen_evidence n_vars cards =
  let open QCheck2.Gen in
  list_size (int_range 0 5)
    (let* v = int_range 0 (n_vars - 1) in
     let* x = int_range 0 (cards.(v) - 1) in
     return (v, Query.Eq x))

(* Mixed-predicate evidence: equality, ranges (possibly empty or
   full-domain) and sets, duplicates allowed so conjunctions of
   different predicate kinds on one variable are exercised. *)
let gen_pred card =
  let open QCheck2.Gen in
  oneof
    [
      (let* x = int_range 0 (card - 1) in
       return (Query.Eq x));
      (let* lo = int_range 0 (card - 1) in
       let* hi = int_range 0 (card - 1) in
       return (Query.Range (min lo hi, max lo hi)));
      (let* xs = list_size (int_range 1 card) (int_range 0 (card - 1)) in
       return (Query.In_set xs));
    ]

let gen_masked_evidence n_vars cards =
  let open QCheck2.Gen in
  list_size (int_range 0 5)
    (let* v = int_range 0 (n_vars - 1) in
     let* p = gen_pred cards.(v) in
     return (v, p))

let gen_case =
  let open QCheck2.Gen in
  let* n_vars, cards, factors = gen_model in
  let* binding = gen_evidence n_vars cards in
  return (factors, binding)

let gen_masked_case =
  let open QCheck2.Gen in
  let* n_vars, cards, factors = gen_model in
  let* binding = gen_masked_evidence n_vars cards in
  return (factors, binding)

let pred_str = function
  | Query.Eq x -> Printf.sprintf "=%d" x
  | Query.Range (lo, hi) -> Printf.sprintf "=%d..%d" lo hi
  | Query.In_set xs ->
    Printf.sprintf "={%s}" (String.concat "," (List.map string_of_int xs))

let print_case (factors, binding) =
  Printf.sprintf "%d factors; evidence [%s]" (List.length factors)
    (String.concat "; "
       (List.map (fun (v, p) -> Printf.sprintf "%d%s" v (pred_str p)) binding))

(* First-occurrence dedup: the consistent "shape" binding a program is
   compiled from, even when the binding under test is contradictory. *)
let dedup binding =
  List.rev
    (List.fold_left
       (fun acc (v, p) -> if List.mem_assoc v acc then acc else (v, p) :: acc)
       [] binding)

(* Compile a program for [shape]'s evidence shape (with [static] split
   out), exactly as Plan.program_for does at the PRM level: merged
   allowed-value masks classify each node as a value slot (one allowed
   value) or a mask slot (two or more). *)
let program_of factors shape static =
  match Ve.prepare factors shape with
  | None -> Alcotest.fail "exec test: shape binding cannot be contradictory"
  | Some prep ->
    let order = Ve.plan_order ~keep:[||] (Ve.prepared_factors prep) in
    let static_vars = List.map fst static in
    let eq = ref [] and masked = ref [] in
    (match Ve.merged_masks factors shape with
    | None -> Alcotest.fail "exec test: shape binding cannot be contradictory"
    | Some merged ->
      List.iter
        (fun (v, m) ->
          if not (List.mem v static_vars) then
            let n = Array.fold_left (fun n ok -> if ok then n + 1 else n) 0 m in
            if n = 1 then eq := v :: !eq else masked := v :: !masked)
        merged);
    let slots = List.sort compare !eq and masked = List.sort compare !masked in
    Exec.compile ~factors ~slots ~masked ~static ~order

(* ---- oracle properties ------------------------------------------------------------ *)

(* Load-and-run against Reference: `Ok answers must be bit-identical,
   `Contradiction must coincide with an exactly-zero oracle. *)
let prop_exec_matches_reference =
  QCheck2.Test.make ~name:"bytecode ≡ Ve.Reference (random models × evidence)"
    ~count:500 ~print:print_case gen_case (fun (factors, binding) ->
      let oracle = Ve.Reference.prob_of_evidence factors binding in
      let prog = program_of factors (dedup binding) [] in
      let st = Exec.state_for prog in
      match Exec.load prog st binding with
      | `Ok ->
        Exec.run st;
        bits (Exec.result st) = bits oracle
      | `Contradiction -> bits oracle = bits 0.0
      | `No_match -> false)

(* Static slots (the join-indicator split): baking a sub-binding into the
   program at compile time must answer exactly like passing the whole
   binding through request slots. *)
let prop_static_slots =
  QCheck2.Test.make ~name:"static slots ≡ request slots" ~count:300
    ~print:print_case gen_case (fun (factors, binding) ->
      let shape = dedup binding in
      match shape with
      | [] -> true (* nothing to split *)
      | (sv, Query.Eq sx) :: rest ->
        let oracle = Ve.Reference.prob_of_evidence factors shape in
        let prog = program_of factors shape [ (sv, sx) ] in
        let st = Exec.state_for prog in
        (match Exec.load prog st rest with
        | `Ok ->
          Exec.run st;
          bits (Exec.result st) = bits oracle
        | `Contradiction | `No_match -> false)
      | _ -> true)

(* Routing contract: a binding whose variable set is not exactly the
   program's slot set must answer `No_match (never a wrong number), and
   non-equality predicates never reach a program in the first place. *)
let prop_no_match_on_missing_slot =
  QCheck2.Test.make ~name:"missing slot ⇒ `No_match" ~count:200
    ~print:print_case gen_case (fun (factors, binding) ->
      match dedup binding with
      | [] -> true
      | _ :: rest as shape ->
        let prog = program_of factors shape [] in
        let st = Exec.state_for prog in
        (match Exec.load prog st rest with
        | `No_match -> true
        | `Ok | `Contradiction -> false))

(* Range/set predicates lower to mask slots; the Gather-time zeroing
   must answer bit-identically to the reference engine's
   observe/restrict pipeline for every predicate mix. *)
let prop_masked_matches_reference =
  QCheck2.Test.make
    ~name:"bytecode mask slots ≡ Ve.Reference (range/set evidence)" ~count:500
    ~print:print_case gen_masked_case (fun (factors, binding) ->
      let oracle = Ve.Reference.prob_of_evidence factors binding in
      match Ve.merged_masks factors binding with
      | None ->
        (* nothing to compile — Plan.execute answers 0 without a program *)
        bits oracle = bits 0.0
      | Some _ -> (
        let prog = program_of factors binding [] in
        let st = Exec.state_for prog in
        match Exec.load prog st binding with
        | `Ok ->
          Exec.run st;
          bits (Exec.result st) = bits oracle
        | `Contradiction -> bits oracle = bits 0.0
        | `No_match -> false))

(* Mask-state hygiene: one program serving two bindings of the same
   shape but different mask values must answer each bit-identically —
   the per-slot masks are fully rewritten between loads. *)
let prop_mask_reload_no_residue =
  QCheck2.Test.make ~name:"mask reload ≡ fresh state" ~count:300
    ~print:(fun (c, _) -> print_case c)
    QCheck2.Gen.(
      let* n_vars, cards, factors = gen_model in
      let* b1 = gen_masked_evidence n_vars cards in
      let* b2 = gen_masked_evidence n_vars cards in
      return ((factors, b1), b2))
    (fun ((factors, b1), b2) ->
      match Ve.merged_masks factors b1 with
      | None -> true
      | Some _ -> (
        let prog = program_of factors b1 [] in
        let st = Exec.state_for prog in
        let run_one b =
          match Exec.load prog st b with
          | `Ok ->
            Exec.run st;
            Some (bits (Exec.result st))
          | `Contradiction -> Some (bits 0.0)
          | `No_match -> None
        in
        ignore (run_one b2);
        (* b1 compiled this program, so it can never be `No_match *)
        match run_one b1 with
        | Some got -> got = bits (Ve.Reference.prob_of_evidence factors b1)
        | None -> false))

(* Arena hygiene: loading a contradictory binding (detected before any
   buffer write) and then a valid one must answer exactly what a fresh
   state answers — the contradiction leaves no residue. *)
let prop_contradiction_leaves_no_residue =
  QCheck2.Test.make ~name:"contradiction then valid request ≡ fresh state"
    ~count:300 ~print:print_case gen_case (fun (factors, binding) ->
      match dedup binding with
      | [] -> true
      | (v, Query.Eq x) :: _ as shape ->
        let prog = program_of factors shape [] in
        let st = Exec.state_for prog in
        let contradictory = (v, Query.Eq x) :: (v, Query.Eq (x + 1)) :: shape in
        (* (x+1) may exceed the card: out-of-range raises in Ve too, so
           only keep the case when it is a genuine in-range conflict *)
        (match Exec.load prog st contradictory with
        | `Contradiction | `No_match -> ()
        | `Ok -> Exec.run st
        | exception Invalid_argument _ -> ());
        (match Exec.load prog st shape with
        | `Ok ->
          Exec.run st;
          bits (Exec.result st)
          = bits (Ve.Reference.prob_of_evidence factors shape)
        | `Contradiction | `No_match -> false)
      | _ -> true)

(* ---- deterministic edges ----------------------------------------------------------- *)

let single_var_factors = [ Factor.create ~vars:[| 0 |] ~cards:[| 3 |] [| 0.2; 0.3; 0.5 |] ]

let test_single_variable_plan () =
  let prog = program_of single_var_factors [ (0, Query.Eq 2) ] [] in
  let st = Exec.state_for prog in
  (match Exec.load prog st [ (0, Query.Eq 2) ] with
  | `Ok -> Exec.run st
  | `Contradiction | `No_match -> Alcotest.fail "single-variable load");
  Alcotest.(check int64) "P(X=2) bit-exact"
    (bits (Ve.Reference.prob_of_evidence single_var_factors [ (0, Query.Eq 2) ]))
    (bits (Exec.result st))

let test_empty_evidence_is_total_mass () =
  let factors =
    [
      Factor.create ~vars:[| 0; 1 |] ~cards:[| 2; 2 |] [| 0.1; 0.2; 0.3; 0.4 |];
      Factor.create ~vars:[| 1 |] ~cards:[| 2 |] [| 0.6; 0.4 |];
    ]
  in
  let prog = program_of factors [] [] in
  let st = Exec.state_for prog in
  (match Exec.load prog st [] with
  | `Ok -> Exec.run st
  | `Contradiction | `No_match -> Alcotest.fail "empty-evidence load");
  Alcotest.(check int64) "total mass bit-exact"
    (bits (Ve.Reference.prob_of_evidence factors []))
    (bits (Exec.result st));
  (* no evidence slots ⇒ any named variable is off-program *)
  match Exec.load prog st [ (0, Query.Eq 1) ] with
  | `No_match -> ()
  | `Ok | `Contradiction -> Alcotest.fail "extra slot must be `No_match"

let test_non_eq_predicate_is_no_match () =
  let prog = program_of single_var_factors [ (0, Query.Eq 0) ] [] in
  let st = Exec.state_for prog in
  match Exec.load prog st [ (0, Query.Range (0, 1)) ] with
  | `No_match -> ()
  | `Ok | `Contradiction -> Alcotest.fail "range predicate must be `No_match"

let test_out_of_range_matches_ve_error () =
  let prog = program_of single_var_factors [ (0, Query.Eq 0) ] [] in
  let st = Exec.state_for prog in
  Alcotest.check_raises "same message as Ve"
    (Invalid_argument "Ve: evidence value out of range") (fun () ->
      ignore (Exec.load prog st [ (0, Query.Eq 7) ]))

(* Warm-path allocation: the zero-allocation contract is gated hard by
   the bench's exec figure over 10k warm requests, but a cheap smoke
   assertion here catches a boxing regression at test time. *)
let test_warm_load_run_allocates_nothing () =
  let prog = program_of single_var_factors [ (0, Query.Eq 1) ] [] in
  let st = Exec.state_for prog in
  let b = [ (0, Query.Eq 1) ] in
  (match Exec.load prog st b with
  | `Ok -> Exec.run st
  | `Contradiction | `No_match -> Alcotest.fail "warm-up load");
  let w0 = Gc.minor_words () in
  for _ = 1 to 1_000 do
    ignore (Exec.load prog st b);
    Exec.run st
  done;
  let delta = Gc.minor_words () -. w0 in
  Alcotest.(check (float 0.0)) "minor words" 0.0 delta

let () =
  let qsuite = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "exec"
    [
      ( "oracle",
        qsuite
          [
            prop_exec_matches_reference;
            prop_static_slots;
            prop_no_match_on_missing_slot;
            prop_masked_matches_reference;
            prop_mask_reload_no_residue;
            prop_contradiction_leaves_no_residue;
          ] );
      ( "edges",
        [
          Alcotest.test_case "single-variable plan" `Quick test_single_variable_plan;
          Alcotest.test_case "empty evidence" `Quick test_empty_evidence_is_total_mass;
          Alcotest.test_case "non-Eq predicate" `Quick test_non_eq_predicate_is_no_match;
          Alcotest.test_case "out-of-range value" `Quick test_out_of_range_matches_ve_error;
          Alcotest.test_case "warm path allocates nothing" `Quick
            test_warm_load_run_allocates_nothing;
        ] );
    ]
