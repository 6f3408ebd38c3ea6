(* Tests for Mbr_ilp.Set_partition: known instances, infeasibility,
   weight-infinity filtering, node limits, and a property test against
   the exhaustive oracle. *)

module Sp = Mbr_ilp.Set_partition

let check = Alcotest.(check bool)

let checkf = Alcotest.(check (float 1e-9))

let cand w elems = { Sp.weight = w; elems }

let solve p = Sp.solve p

let test_singletons_only () =
  let p =
    { Sp.n_elems = 3; candidates = [| cand 1.0 [ 0 ]; cand 1.0 [ 1 ]; cand 1.0 [ 2 ] |] }
  in
  let r = solve p in
  check "optimal" true (r.Sp.status = Sp.Optimal);
  checkf "cost" 3.0 r.Sp.cost;
  Alcotest.(check (list int)) "all chosen" [ 0; 1; 2 ] r.Sp.chosen

let test_merge_wins () =
  (* merging both elements costs 0.5 < 2 singletons *)
  let p =
    {
      Sp.n_elems = 2;
      candidates = [| cand 1.0 [ 0 ]; cand 1.0 [ 1 ]; cand 0.5 [ 0; 1 ] |];
    }
  in
  let r = solve p in
  checkf "cost" 0.5 r.Sp.cost;
  Alcotest.(check (list int)) "merge chosen" [ 2 ] r.Sp.chosen

let test_blocked_merge_loses () =
  (* the paper's weight logic: a pair with one blocker costs 2*2^1 = 4 >
     two singletons (2.0), so the ILP keeps the registers separate *)
  let p =
    {
      Sp.n_elems = 2;
      candidates = [| cand 1.0 [ 0 ]; cand 1.0 [ 1 ]; cand 4.0 [ 0; 1 ] |];
    }
  in
  let r = solve p in
  checkf "cost" 2.0 r.Sp.cost;
  Alcotest.(check (list int)) "singletons chosen" [ 0; 1 ] r.Sp.chosen

let test_paper_fig3_selection () =
  (* Fig. 3 without incomplete MBRs: elements A=0 B=1 C=2 D=3 E=4 F=5.
     Weights from the paper; optimum = {B,F} + {A,C,D} + E = 1/3+1/3+1. *)
  let p =
    {
      Sp.n_elems = 6;
      candidates =
        [|
          cand 1.0 [ 0 ];
          cand 1.0 [ 1 ];
          cand 1.0 [ 2 ];
          cand 1.0 [ 3 ];
          cand 1.0 [ 4 ];
          cand 1.0 [ 5 ];
          cand 0.5 [ 0; 1 ] (* AB *);
          cand 0.5 [ 0; 3 ] (* AD *);
          cand 0.5 [ 0; 2 ] (* AC *);
          cand 4.0 [ 1; 2 ] (* BC, blocked by D *);
          cand 0.5 [ 1; 3 ] (* BD *);
          cand 0.5 [ 2; 3 ] (* CD *);
          cand (1.0 /. 3.0) [ 1; 5 ] (* BF *);
          cand (1.0 /. 3.0) [ 2; 5 ] (* CF *);
          cand (1.0 /. 3.0) [ 0; 1; 3 ] (* ABD *);
          cand (1.0 /. 3.0) [ 1; 2; 3 ] (* BCD *);
          cand 6.0 [ 0; 1; 2 ] (* ABC, blocked by D *);
          cand (1.0 /. 3.0) [ 0; 3; 2 ] (* ADC *);
          cand 0.25 [ 0; 1; 2; 3 ] (* ABCD *);
          cand 8.0 [ 1; 2; 5 ] (* BCF, blocked *);
        |];
    }
  in
  let r = solve p in
  check "optimal" true (r.Sp.status = Sp.Optimal);
  checkf "cost = 1/3 + 1/3 + 1" (1.0 +. (2.0 /. 3.0)) r.Sp.cost;
  (* the chosen set must cover each element exactly once *)
  let covered = List.concat_map (fun i -> p.Sp.candidates.(i).Sp.elems) r.Sp.chosen in
  Alcotest.(check (list int)) "exact cover" [ 0; 1; 2; 3; 4; 5 ]
    (List.sort compare covered)

let test_infeasible_uncovered () =
  let p = { Sp.n_elems = 2; candidates = [| cand 1.0 [ 0 ] |] } in
  check "infeasible" true ((solve p).Sp.status = Sp.Infeasible)

let test_infinite_weight_skipped () =
  let p =
    { Sp.n_elems = 1; candidates = [| cand infinity [ 0 ]; cand 2.0 [ 0 ] |] }
  in
  let r = solve p in
  checkf "finite candidate used" 2.0 r.Sp.cost;
  Alcotest.(check (list int)) "index preserved" [ 1 ] r.Sp.chosen

let test_conflicting_merges () =
  (* two overlapping pairs: only one can be chosen *)
  let p =
    {
      Sp.n_elems = 3;
      candidates =
        [|
          cand 1.0 [ 0 ]; cand 1.0 [ 1 ]; cand 1.0 [ 2 ];
          cand 0.5 [ 0; 1 ]; cand 0.5 [ 1; 2 ];
        |];
    }
  in
  let r = solve p in
  checkf "cost 1.5" 1.5 r.Sp.cost

let test_duplicate_elems_deduped () =
  let p = { Sp.n_elems = 2; candidates = [| cand 0.7 [ 0; 0; 1; 1 ] |] } in
  let r = solve p in
  checkf "cost" 0.7 r.Sp.cost

let test_empty_problem () =
  let r = solve { Sp.n_elems = 0; candidates = [||] } in
  check "optimal empty" true (r.Sp.status = Sp.Optimal);
  checkf "zero cost" 0.0 r.Sp.cost

let test_node_limit () =
  (* tiny node limit still returns a feasible incumbent *)
  let n = 12 in
  let singles = List.init n (fun i -> cand 1.0 [ i ]) in
  let pairs =
    List.concat
      (List.init n (fun i ->
           List.filteri (fun j _ -> j > i) (List.init n (fun j -> cand 0.6 [ i; j ]))))
  in
  let p = { Sp.n_elems = n; candidates = Array.of_list (singles @ pairs) } in
  let r = Sp.solve ~node_limit:5 ~lp_bound:false p in
  check "feasible or optimal" true (r.Sp.status <> Sp.Infeasible)

let test_node_limit_incumbent () =
  (* the limit trips at the very first node: the result must still be
     the seeded greedy(+1-swap) incumbent — a real exact cover with a
     finite cost — never a Feasible with nothing chosen. The instance
     is built so greedy's first pick ({1,2} at share 0.2) conflicts
     with the optimal pairing {0,1}+{2,3}, forcing a non-trivial
     incumbent while the bound (1.5 < incumbent) keeps the root from
     proving optimality outright. *)
  let p =
    {
      Sp.n_elems = 4;
      candidates =
        [|
          cand 1.0 [ 0 ]; cand 1.0 [ 1 ]; cand 1.0 [ 2 ]; cand 1.0 [ 3 ];
          cand 1.1 [ 0; 1 ]; cand 1.1 [ 2; 3 ]; cand 0.4 [ 1; 2 ];
        |];
    }
  in
  let r = Sp.solve ~node_limit:1 ~lp_bound:false p in
  check "feasible, not proven" true (r.Sp.status = Sp.Feasible);
  check "non-empty chosen" true (r.Sp.chosen <> []);
  check "finite cost" true (Float.is_finite r.Sp.cost);
  let covered = List.concat_map (fun i -> p.Sp.candidates.(i).Sp.elems) r.Sp.chosen in
  Alcotest.(check (list int)) "exact cover" [ 0; 1; 2; 3 ] (List.sort compare covered);
  checkf "cost = sum of chosen weights"
    (List.fold_left
       (fun acc i -> acc +. p.Sp.candidates.(i).Sp.weight)
       0.0 r.Sp.chosen)
    r.Sp.cost

(* ---- cancellation (shares the node-limit contract) ---- *)

let test_cancel_keeps_incumbent () =
  (* a token tripping at the very first check behaves like node_limit 0:
     the greedy(+1-swap) incumbent comes back as a real exact cover,
     never an empty Feasible. Same instance as the node-limit test. *)
  let p =
    {
      Sp.n_elems = 4;
      candidates =
        [|
          cand 1.0 [ 0 ]; cand 1.0 [ 1 ]; cand 1.0 [ 2 ]; cand 1.0 [ 3 ];
          cand 1.1 [ 0; 1 ]; cand 1.1 [ 2; 3 ]; cand 0.4 [ 1; 2 ];
        |];
    }
  in
  let t = Mbr_util.Cancel.after_checks 1 in
  let r = Sp.solve ~lp_bound:false ~cancel:t p in
  check "token tripped" true (Mbr_util.Cancel.cancelled t);
  check "feasible, not proven" true (r.Sp.status = Sp.Feasible);
  check "non-empty chosen" true (r.Sp.chosen <> []);
  check "finite cost" true (Float.is_finite r.Sp.cost);
  let covered = List.concat_map (fun i -> p.Sp.candidates.(i).Sp.elems) r.Sp.chosen in
  Alcotest.(check (list int)) "exact cover" [ 0; 1; 2; 3 ] (List.sort compare covered)

let test_cancel_pre_tripped () =
  (* cancelling before the solve even starts = a zero node budget *)
  let p =
    {
      Sp.n_elems = 3;
      candidates =
        [|
          cand 1.0 [ 0 ]; cand 1.0 [ 1 ]; cand 1.0 [ 2 ];
          cand 0.5 [ 0; 1 ]; cand 0.5 [ 1; 2 ];
        |];
    }
  in
  let t = Mbr_util.Cancel.create () in
  Mbr_util.Cancel.cancel t;
  let a = Sp.solve ~lp_bound:false ~cancel:t p in
  let b = Sp.solve ~lp_bound:false ~node_limit:0 p in
  check "same status" true (a.Sp.status = b.Sp.status);
  checkf "same cost" b.Sp.cost a.Sp.cost;
  Alcotest.(check (list int)) "same chosen" b.Sp.chosen a.Sp.chosen;
  Alcotest.(check int) "same nodes" b.Sp.nodes a.Sp.nodes

let test_lp_relaxation_bound () =
  let p =
    {
      Sp.n_elems = 2;
      candidates = [| cand 1.0 [ 0 ]; cand 1.0 [ 1 ]; cand 0.5 [ 0; 1 ] |];
    }
  in
  (match Sp.lp_relaxation p with
  | Some v -> check "lp <= ilp" true (v <= (solve p).Sp.cost +. 1e-9)
  | None -> Alcotest.fail "lp should be feasible");
  check "lp infeasible when uncovered" true
    (Sp.lp_relaxation { Sp.n_elems = 2; candidates = [| cand 1.0 [ 0 ] |] } = None)

(* ---- property: B&B matches the brute-force oracle ---- *)

let problem_gen =
  let open QCheck.Gen in
  int_range 2 7 >>= fun n ->
  let cand_gen =
    map2
      (fun elems w -> cand (Float.of_int w /. 4.0) elems)
      (list_size (int_range 1 3) (int_bound (n - 1)))
      (int_range 1 12)
  in
  list_size (int_range 0 8) cand_gen >>= fun extra ->
  (* always include singletons so the instance is feasible *)
  let singles = List.init n (fun i -> cand 1.0 [ i ]) in
  return { Sp.n_elems = n; candidates = Array.of_list (singles @ extra) }

let print_problem p =
  Printf.sprintf "n=%d cands=[%s]" p.Sp.n_elems
    (String.concat "; "
       (Array.to_list
          (Array.map
             (fun c ->
               Printf.sprintf "%.2f:{%s}" c.Sp.weight
                 (String.concat "," (List.map string_of_int c.Sp.elems)))
             p.Sp.candidates)))

let problem_arb = QCheck.make ~print:print_problem problem_gen

(* Denser instances aimed at the reduction pipeline: up to 20
   candidates (within brute_force's reach), element sets up to 5 wide
   so dominance/decomposition both fire, and singletons sometimes
   missing entirely so infeasible and unique-cover-forced cases
   arise. *)
let dense_problem_gen =
  let open QCheck.Gen in
  int_range 2 8 >>= fun n ->
  bool >>= fun with_singles ->
  let max_extra = if with_singles then 20 - n else 20 in
  int_range 0 max_extra >>= fun n_extra ->
  let cand_gen =
    map2
      (fun elems w -> cand (Float.of_int w /. 8.0) elems)
      (list_size (int_range 1 5) (int_bound (n - 1)))
      (int_range 1 24)
  in
  list_size (return n_extra) cand_gen >>= fun extra ->
  let singles = if with_singles then List.init n (fun i -> cand 1.0 [ i ]) else [] in
  return { Sp.n_elems = n; candidates = Array.of_list (singles @ extra) }

let dense_problem_arb = QCheck.make ~print:print_problem dense_problem_gen

(* The central cancellation contract: a token tripping at the m-th
   check is bit-identical to a node limit of m-1 with no token —
   cancellation at ANY point has node-limit semantics. Costs may both
   be nan (no cover found under a tiny budget without singletons),
   which counts as equal. *)
let cancel_equals_node_limit =
  QCheck.Test.make ~name:"cancel at m-th check = node_limit (m-1)" ~count:300
    QCheck.(pair dense_problem_arb (int_range 1 40))
    (fun (p, m) ->
      let a = Sp.solve ~cancel:(Mbr_util.Cancel.after_checks m) p in
      let b = Sp.solve ~node_limit:(m - 1) p in
      let cost_eq =
        a.Sp.cost = b.Sp.cost
        || (Float.is_nan a.Sp.cost && Float.is_nan b.Sp.cost)
      in
      a.Sp.status = b.Sp.status && cost_eq && a.Sp.chosen = b.Sp.chosen
      && a.Sp.nodes = b.Sp.nodes)

(* And with the bound/reduction machinery disabled the search is
   longest, so the budget lands inside it most often. *)
let cancel_equals_node_limit_raw =
  QCheck.Test.make
    ~name:"cancel = node limit (no LP bound, no reductions)" ~count:300
    QCheck.(pair problem_arb (int_range 1 60))
    (fun (p, m) ->
      let solve_with ~cancel ~node_limit =
        Sp.solve ~lp_bound:false ~reductions:false ?cancel ~node_limit p
      in
      let a =
        solve_with ~cancel:(Some (Mbr_util.Cancel.after_checks m))
          ~node_limit:2_000_000
      in
      let b = solve_with ~cancel:None ~node_limit:(m - 1) in
      let cost_eq =
        a.Sp.cost = b.Sp.cost
        || (Float.is_nan a.Sp.cost && Float.is_nan b.Sp.cost)
      in
      a.Sp.status = b.Sp.status && cost_eq && a.Sp.chosen = b.Sp.chosen
      && a.Sp.nodes = b.Sp.nodes)

let cancelled_solve_still_covers =
  QCheck.Test.make ~name:"a cancelled solve still returns an exact cover"
    ~count:300
    QCheck.(pair problem_arb (int_range 1 20))
    (fun (p, m) ->
      (* problem_arb always includes singletons, so an incumbent exists
         no matter how early the token trips *)
      let r = Sp.solve ~cancel:(Mbr_util.Cancel.after_checks m) p in
      match r.Sp.status with
      | Sp.Infeasible -> false (* singletons make the instance feasible *)
      | Sp.Optimal | Sp.Feasible ->
        r.Sp.chosen <> []
        && Float.is_finite r.Sp.cost
        &&
        let covered =
          List.concat_map
            (fun i -> List.sort_uniq compare p.Sp.candidates.(i).Sp.elems)
            r.Sp.chosen
        in
        List.sort compare covered = List.init p.Sp.n_elems Fun.id)

(* Exhaustive oracle: the optimal cost over every subset of the
   finite-weight candidates, [None] when no subset is an exact cover.
   Exponential in the candidate count, so only for the small generated
   instances (elements fit one int bitmask). *)
let brute_force (p : Sp.problem) =
  let cands =
    Array.of_list
      (List.filter_map
         (fun (c : Sp.candidate) ->
           if Float.is_finite c.Sp.weight && c.Sp.elems <> [] then
             Some (c.Sp.weight, List.fold_left (fun m e -> m lor (1 lsl e)) 0 c.Sp.elems)
           else None)
         (Array.to_list p.Sp.candidates))
  in
  let m = Array.length cands in
  if m > 25 then invalid_arg "brute_force: too many candidates";
  let full = (1 lsl p.Sp.n_elems) - 1 in
  let best = ref infinity in
  for mask = 0 to (1 lsl m) - 1 do
    let covered = ref 0 and cost = ref 0.0 and ok = ref true in
    for k = 0 to m - 1 do
      if mask land (1 lsl k) <> 0 then begin
        let w, set = cands.(k) in
        if !covered land set <> 0 then ok := false;
        covered := !covered lor set;
        cost := !cost +. w
      end
    done;
    if !ok && !covered = full && !cost < !best then best := !cost
  done;
  if Float.is_finite !best then Some !best else None

(* solver status/cost agree with the oracle's optimum *)
let agrees_with_oracle (r : Sp.result) oracle =
  match (r.Sp.status, oracle) with
  | Sp.Optimal, Some cost -> Float.abs (r.Sp.cost -. cost) < 1e-9
  | Sp.Infeasible, None -> true
  | _, _ -> false

let bb_matches_brute_force =
  QCheck.Test.make ~name:"branch-and-bound = brute force optimum" ~count:300
    problem_arb (fun p -> agrees_with_oracle (Sp.solve p) (brute_force p))

let bb_chosen_is_exact_cover =
  QCheck.Test.make ~name:"chosen candidates form an exact cover" ~count:300
    problem_arb (fun p ->
      let r = Sp.solve p in
      match r.Sp.status with
      | Sp.Optimal | Sp.Feasible ->
        let covered =
          List.concat_map
            (fun i -> List.sort_uniq compare p.Sp.candidates.(i).Sp.elems)
            r.Sp.chosen
        in
        List.sort compare covered = List.init p.Sp.n_elems Fun.id
      | Sp.Infeasible -> true)

let reduced_matches_brute_force =
  QCheck.Test.make ~name:"reduced/decomposed solver = brute force" ~count:120
    dense_problem_arb (fun p -> agrees_with_oracle (Sp.solve p) (brute_force p))

let reductions_preserve_result =
  QCheck.Test.make ~name:"reductions never change status or cost" ~count:150
    dense_problem_arb (fun p ->
      let a = Sp.solve p in
      let b = Sp.solve ~reductions:false p in
      a.Sp.status = b.Sp.status
      &&
      match a.Sp.status with
      | Sp.Optimal | Sp.Feasible -> Float.abs (a.Sp.cost -. b.Sp.cost) < 1e-9
      | Sp.Infeasible -> true)

let lp_below_ilp =
  QCheck.Test.make ~name:"LP relaxation lower-bounds the ILP" ~count:200
    problem_arb (fun p ->
      match (Sp.lp_relaxation p, Sp.solve p) with
      | Some lp, { Sp.status = Sp.Optimal; cost; _ } -> lp <= cost +. 1e-6
      | None, _ -> true
      | Some _, { Sp.status = Sp.Infeasible | Sp.Feasible; _ } -> true)

let () =
  Alcotest.run "mbr_ilp"
    [
      ( "set_partition",
        [
          Alcotest.test_case "singletons only" `Quick test_singletons_only;
          Alcotest.test_case "merge wins" `Quick test_merge_wins;
          Alcotest.test_case "blocked merge loses" `Quick test_blocked_merge_loses;
          Alcotest.test_case "paper Fig.3 selection" `Quick test_paper_fig3_selection;
          Alcotest.test_case "infeasible" `Quick test_infeasible_uncovered;
          Alcotest.test_case "infinite weight skipped" `Quick test_infinite_weight_skipped;
          Alcotest.test_case "conflicting merges" `Quick test_conflicting_merges;
          Alcotest.test_case "duplicate elements" `Quick test_duplicate_elems_deduped;
          Alcotest.test_case "empty problem" `Quick test_empty_problem;
          Alcotest.test_case "node limit" `Quick test_node_limit;
          Alcotest.test_case "node limit keeps incumbent" `Quick
            test_node_limit_incumbent;
          Alcotest.test_case "lp relaxation" `Quick test_lp_relaxation_bound;
          Alcotest.test_case "cancel keeps incumbent" `Quick
            test_cancel_keeps_incumbent;
          Alcotest.test_case "pre-tripped cancel = zero budget" `Quick
            test_cancel_pre_tripped;
          QCheck_alcotest.to_alcotest cancel_equals_node_limit;
          QCheck_alcotest.to_alcotest cancel_equals_node_limit_raw;
          QCheck_alcotest.to_alcotest cancelled_solve_still_covers;
          QCheck_alcotest.to_alcotest bb_matches_brute_force;
          QCheck_alcotest.to_alcotest bb_chosen_is_exact_cover;
          QCheck_alcotest.to_alcotest reduced_matches_brute_force;
          QCheck_alcotest.to_alcotest reductions_preserve_result;
          QCheck_alcotest.to_alcotest lp_below_ilp;
        ] );
    ]
