(* bench/main.exe — regenerates every table and figure of the paper's
   evaluation (section 5) on the synthetic D1-D5 designs, runs the
   design-choice ablations, and times the core kernels with bechamel.

   Sections:
     1. Table 1  (Base / Ours / Save per design + section-5 averages)
     2. Fig. 5   (MBR bit-width histograms before/after)
     3. Fig. 6   (ILP vs heuristic allocator, normalized registers)
     4. Ablations (partition bound, weights, incomplete, skew, decompose)
     5. Runtime scaling (flow wall time + per-stage breakdown)
     5b. Allocate-stage parallel scaling (serial vs domain pool)
     5c. ECO recompose (persistent session vs from-scratch re-run)
     6. Kernel microbenchmarks (bechamel)
     7. mbrd service soak
     8. compose <-> decompose recovery loop (worst-corner closure)

   Sections 5, 5b, 5c, 6, 7 and 8 also emit BENCH.json
   (machine-readable numbers for regression tracking; schema documented
   in EXPERIMENTS.md). `--soak` and `--recover` refresh only their own
   section of an existing BENCH.json.

   `bench/main.exe --smoke` instead runs only a tiny design through the
   parallel (jobs = 2) allocate path plus one ECO perturb + recompose
   round and checks both against from-scratch results — the CI smoke
   test for the domain-pool and session code paths (a few seconds, no
   BENCH.json rewrite).

   Expected wall time (full run): tens of minutes — the scaling ladder
   tops out at a >=100k-register design whose generation and flow
   dominate the run. *)

module E = Mbr_harness.Experiments
module P = Mbr_designgen.Profile
module G = Mbr_designgen.Generate
module Eco = Mbr_designgen.Eco
module Flow = Mbr_core.Flow

let banner title =
  Printf.printf "\n%s\n%s\n%s\n\n" (String.make 72 '=') title (String.make 72 '=')

let section_tables () =
  banner "1. Table 1 - industrial design characteristics before/after composition";
  let t0 = Unix.gettimeofday () in
  let runs = List.map E.run_profile P.all in
  print_string (E.table1 runs);
  print_newline ();
  print_string (E.table1_summary runs);
  Printf.printf "\n(table generated in %.1f s)\n" (Unix.gettimeofday () -. t0);

  banner "2. Fig. 5 - MBR bit widths before & after MBR composition";
  print_string (E.fig5 runs);
  print_string
    "(as in the paper: composition shifts mass toward 8-bit MBRs; D4,\n\
     already 8-bit-rich, moves the least)\n";

  banner "3. Fig. 6 - ILP vs maximal-clique heuristic (normalized registers)";
  let _, fig6_text = E.fig6 P.all in
  print_string fig6_text

let section_ablations () =
  banner "4. Ablations (design choices called out in DESIGN.md section 5)";
  let p = P.scaled P.d1 0.5 in
  Printf.printf "profile: %s at half scale (%d registers)\n\n" p.P.name
    p.P.n_registers;
  print_endline "--- 4a. K-partition bound (paper section 3: 30 is the sweet spot) ---";
  print_string (E.ablation_partition_bound p [ 10; 20; 30; 40 ]);
  print_endline "\n--- 4b. placement-aware weights (section 3.2) ---";
  print_string (E.ablation_weights p);
  print_endline "\n--- 4c. incomplete MBRs (section 3) ---";
  print_string (E.ablation_incomplete p);
  print_endline "\n--- 4d. useful skew after composition (Fig. 4) ---";
  print_string (E.ablation_skew p);
  print_endline
    "\n--- 4e. decompose + recompose max-width MBRs (section 5 future work,\n\
     \        implemented) on the 8-bit-rich D4 ---";
  print_string (E.ablation_decompose (P.scaled P.d4 0.5));
  print_endline
    "\n--- 4f. entry point: after global vs after detailed placement ---";
  print_string (E.ablation_global_entry p)

(* ---- bechamel microbenchmarks of the core kernels ---- *)

let kernel_tests () =
  let open Bechamel in
  let rng = Mbr_util.Rng.create 99 in
  (* convex hull of 64 points *)
  let pts =
    List.init 64 (fun _ ->
        Mbr_geom.Point.make (Mbr_util.Rng.float rng 100.0) (Mbr_util.Rng.float rng 100.0))
  in
  let hull_test =
    Test.make ~name:"hull.convex-64pts" (Staged.stage (fun () -> Mbr_geom.Hull.convex pts))
  in
  (* Bron-Kerbosch on a 30-node random graph *)
  let g30 =
    let b = Mbr_graph.Csr.Builder.create 30 in
    for i = 0 to 29 do
      for j = i + 1 to 29 do
        if Mbr_util.Rng.chance rng 0.3 then Mbr_graph.Csr.Builder.add_edge b i j
      done
    done;
    Mbr_graph.Csr.Builder.finish b
  in
  let bk_test =
    Test.make ~name:"bron-kerbosch.30n-p0.3"
      (Staged.stage (fun () -> Mbr_graph.Bron_kerbosch.count_maximal_cliques g30))
  in
  (* set-partition ILP: 20 elements, 120 candidates *)
  let sp_problem =
    let singles = List.init 20 (fun i -> { Mbr_ilp.Set_partition.weight = 1.0; elems = [ i ] }) in
    let pairs =
      List.init 100 (fun k ->
          let a = k mod 20 and b = (k + 1 + (k / 20)) mod 20 in
          if a = b then { Mbr_ilp.Set_partition.weight = 1.0; elems = [ a ] }
          else { Mbr_ilp.Set_partition.weight = 0.5; elems = [ a; b ] })
    in
    { Mbr_ilp.Set_partition.n_elems = 20; candidates = Array.of_list (singles @ pairs) }
  in
  let ilp_test =
    Test.make ~name:"ilp.20elem-120cand"
      (Staged.stage (fun () -> Mbr_ilp.Set_partition.solve sp_problem))
  in
  (* the same kernel at the two candidate-density extremes the staged
     solver was built for: a sparse instance whose overlap graph falls
     apart into six components, and a dense single-component instance
     where the search itself carries the load *)
  let sp_sparse =
    (* 24 singletons + every pair inside disjoint groups of 4 *)
    let singles =
      List.init 24 (fun i -> { Mbr_ilp.Set_partition.weight = 1.0; elems = [ i ] })
    in
    let pairs =
      List.concat
        (List.init 6 (fun g ->
             let base = 4 * g in
             List.concat
               (List.init 4 (fun i ->
                    List.filter_map
                      (fun j ->
                        if j > i then
                          Some
                            {
                              Mbr_ilp.Set_partition.weight =
                                0.5 +. (0.05 *. float_of_int ((i + j) mod 3));
                              elems = [ base + i; base + j ];
                            }
                        else None)
                      (List.init 4 Fun.id)))))
    in
    { Mbr_ilp.Set_partition.n_elems = 24; candidates = Array.of_list (singles @ pairs) }
  in
  let ilp_sparse_test =
    Test.make ~name:"ilp.24elem-60cand-sparse"
      (Staged.stage (fun () -> Mbr_ilp.Set_partition.solve sp_sparse))
  in
  let sp_dense =
    (* 24 singletons + all 276 pairs: one component, maximal overlap *)
    let singles =
      List.init 24 (fun i -> { Mbr_ilp.Set_partition.weight = 1.0; elems = [ i ] })
    in
    let pairs =
      List.concat
        (List.init 24 (fun i ->
             List.filter_map
               (fun j ->
                 if j > i then
                   Some
                     {
                       Mbr_ilp.Set_partition.weight =
                         0.4 +. (0.05 *. float_of_int ((i + j) mod 7));
                       elems = [ i; j ];
                     }
                 else None)
               (List.init 24 Fun.id)))
    in
    { Mbr_ilp.Set_partition.n_elems = 24; candidates = Array.of_list (singles @ pairs) }
  in
  let ilp_dense_test =
    Test.make ~name:"ilp.24elem-300cand-dense"
      (Staged.stage (fun () -> Mbr_ilp.Set_partition.solve sp_dense))
  in
  (* simplex: 30x60 LP *)
  let simplex_test =
    Test.make ~name:"simplex.30rows-60vars"
      (Staged.stage (fun () ->
           let module S = Mbr_lp.Simplex in
           let lp = S.create () in
           let vars = Array.init 60 (fun i -> S.add_var ~obj:(1.0 +. float_of_int (i mod 7)) lp) in
           for r = 0 to 29 do
             let terms = List.init 6 (fun k -> (vars.((r + (k * 5)) mod 60), 1.0)) in
             S.add_constraint lp terms S.Ge (float_of_int (1 + (r mod 4)))
           done;
           S.solve lp))
  in
  (* full STA analysis of a tiny placed design *)
  let tiny = G.generate (P.tiny ~seed:5) in
  let eng = Mbr_sta.Engine.build ~config:tiny.G.sta_config tiny.G.placement in
  let sta_test =
    Test.make ~name:"sta.analyze-tiny" (Staged.stage (fun () -> Mbr_sta.Engine.analyze eng))
  in
  (* CTS over the tiny design *)
  let cts_test =
    Test.make ~name:"cts.synthesize-tiny"
      (Staged.stage (fun () -> Mbr_cts.Synth.synthesize tiny.G.placement))
  in
  [
    hull_test; bk_test; ilp_test; ilp_sparse_test; ilp_dense_test;
    simplex_test; sta_test; cts_test;
  ]

let pretty_ns ns =
  if ns >= 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
  else if ns >= 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
  else if ns >= 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
  else Printf.sprintf "%.0f ns" ns

let section_kernels () =
  banner "6. Kernel microbenchmarks (bechamel, OLS on monotonic clock)";
  let open Bechamel in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  Printf.printf "%-28s %14s %8s\n" "kernel" "time/run" "r^2";
  let out = ref [] in
  List.iter
    (fun test ->
      let raw = Benchmark.all cfg instances test in
      let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
      let rows = Hashtbl.fold (fun name r acc -> (name, r) :: acc) results [] in
      List.iter
        (fun (name, r) ->
          let est =
            match Analyze.OLS.estimates r with
            | Some (e :: _) -> e
            | Some [] | None -> nan
          in
          let r2 = Analyze.OLS.r_square r in
          out := (name, est, r2) :: !out;
          let r2s =
            match r2 with Some v -> Printf.sprintf "%.3f" v | None -> "-"
          in
          Printf.printf "%-28s %14s %8s\n%!" name (pretty_ns est) r2s)
        (List.sort compare rows))
    (kernel_tests ());
  List.rev !out

type scaling_row = {
  sc_profile : string;
  sc_scale : float;
  sc_registers : int;
  sc_cells : int;
  sc_result : Mbr_core.Flow.result;
  sc_metrics : Mbr_obs.Metrics.snapshot;  (* registry state for this run only *)
  sc_rss_mb : float option;
      (* process peak RSS right after the row's flow. VmHWM is monotonic
         over the process lifetime, so with rows ordered smallest to
         largest each value is "peak memory needed up to and including
         this design size" — the bound a capacity planner wants. *)
}

(* ---- allocate-stage parallel scaling (section 5b) ---- *)

type alloc_scaling_row = {
  as_profile : string;
  as_scale : float;
  as_jobs : int;
  as_time_s : float;
  as_speedup : float;  (* serial time / this time *)
  as_identical : bool;  (* selection equals the jobs=1 selection *)
  as_degraded : bool;
      (* jobs exceed the host's cores: the row times oversubscription,
         not parallel speedup, and regression tracking should not gate
         on it *)
  as_block_mean_s : float;
  as_block_max_s : float;
}

(* the decision content of a selection — everything except the timing
   histogram, which legitimately varies run to run *)
let selection_key (s : Mbr_core.Allocate.selection) =
  ( s.Mbr_core.Allocate.merges,
    s.Mbr_core.Allocate.kept,
    s.Mbr_core.Allocate.cost,
    s.Mbr_core.Allocate.n_blocks,
    s.Mbr_core.Allocate.n_candidates,
    s.Mbr_core.Allocate.all_optimal )

(* Build the allocate-stage inputs the way Flow does, once per design,
   so the jobs sweep times exactly the per-block solve fan-out. *)
let allocate_inputs profile =
  let g = G.generate profile in
  let eng = Mbr_sta.Engine.build ~config:g.G.sta_config g.G.placement in
  Mbr_sta.Engine.analyze eng;
  let graph = fst (Mbr_core.Compat.refresh eng g.G.library) in
  let blocker_index = Mbr_geom.Spatial.create () in
  List.iter
    (fun cid ->
      if Mbr_place.Placement.is_placed g.G.placement cid then
        Mbr_geom.Spatial.add blocker_index cid
          (Mbr_place.Placement.center g.G.placement cid))
    (Mbr_netlist.Design.registers g.G.design);
  (graph, g.G.library, blocker_index)

let allocate_sweep ?(jobs_list = [ 1; 2; 4; 8 ]) profile scale =
  let p = P.scaled profile scale in
  let graph, lib, blocker_index = allocate_inputs p in
  let time_run jobs =
    let cache = Mbr_core.Allocate.create_cache () in
    let t0 = Unix.gettimeofday () in
    let sel, _ = Mbr_core.Allocate.run ~jobs cache graph ~lib ~blocker_index in
    (sel, Unix.gettimeofday () -. t0)
  in
  let serial_sel, serial_t = time_run 1 in
  let cores = Mbr_util.Pool.recommended_jobs () in
  List.map
    (fun jobs ->
      let sel, t = if jobs = 1 then (serial_sel, serial_t) else time_run jobs in
      let bt = sel.Mbr_core.Allocate.block_times in
      {
        as_profile = p.P.name;
        as_scale = scale;
        as_jobs = jobs;
        as_time_s = t;
        as_speedup = (if t > 0.0 then serial_t /. t else 1.0);
        as_identical = selection_key sel = selection_key serial_sel;
        as_degraded = jobs > cores;
        as_block_mean_s = bt.Mbr_core.Allocate.mean_s;
        as_block_max_s = bt.Mbr_core.Allocate.max_s;
      })
    jobs_list

let section_allocate_scaling () =
  banner
    "5b. Allocate-stage parallel scaling (per-block ILP solves on a domain \
     pool)";
  Printf.printf "(host reports %d recommended domain(s))\n\n"
    (Mbr_util.Pool.recommended_jobs ());
  Printf.printf "%-8s %-7s %-5s %-10s %-8s %-10s %-10s %-10s %s\n" "design"
    "scale" "jobs" "alloc s" "speedup" "blk mean" "blk max" "identical"
    "degraded";
  let rows =
    List.concat_map (fun scale -> allocate_sweep P.d1 scale) [ 1.0; 2.0 ]
  in
  List.iter
    (fun r ->
      Printf.printf
        "%-8s %-7.2f %-5d %-10.3f %-8.2f %-10.5f %-10.5f %-10s %s\n%!"
        r.as_profile r.as_scale r.as_jobs r.as_time_s r.as_speedup
        r.as_block_mean_s r.as_block_max_s
        (if r.as_identical then "yes" else "NO (BUG)")
        (if r.as_degraded then "yes" else "no");
      if not r.as_identical then
        failwith "parallel allocate diverged from serial — determinism bug")
    rows;
  print_endline
    "\n(results are bit-identical at every jobs setting by construction;\n\
     speedup tracks the host's core count — a single-core container pins\n\
     it near 1.0 and only the scheduling overhead shows)";
  rows

(* ---- ECO recompose: persistent session vs from-scratch flow (5c) ---- *)

type eco_row = {
  ec_profile : string;
  ec_scale : float;
  ec_round : int;
  ec_edits : int;
  ec_blocks : int;
  ec_resolved : int;
  ec_reused : int;
  ec_full_s : float;  (* from-scratch Flow.run on the lockstep copy *)
  ec_recompose_s : float;  (* Session.recompose on the session copy *)
  ec_identical : bool;  (* final metrics match to 1e-6 *)
  ec_metrics : Mbr_obs.Metrics.snapshot;  (* counters of the recompose alone *)
}

let results_close (ra : Flow.result) (rb : Flow.result) =
  let module M = Mbr_core.Metrics in
  let close a b =
    a = b || (Float.is_finite a && Float.is_finite b && Float.abs (a -. b) <= 1e-6)
  in
  ra.Flow.after.M.total_regs = rb.Flow.after.M.total_regs
  && ra.Flow.n_merges = rb.Flow.n_merges
  && close ra.Flow.ilp_cost rb.Flow.ilp_cost
  && close ra.Flow.after.M.wns rb.Flow.after.M.wns
  && close ra.Flow.after.M.tns rb.Flow.after.M.tns

(* Lockstep protocol (same as test_flow_eco): two identically-seeded
   design copies; each round perturbs both with identically-seeded
   batches, then copy A advances by the session's recompose and copy B
   by a from-scratch Flow.run. Determinism keeps the copies in
   lockstep, so the two wall times price the same work. *)
let eco_sweep ?(converge_rounds = 3) ?(eco_rounds = 2) profile scale =
  let p = P.scaled profile scale in
  let ga = G.generate p and gb = G.generate p in
  let session =
    Flow.Session.create ~design:ga.G.design ~placement:ga.G.placement
      ~library:ga.G.library ~sta_config:ga.G.sta_config ()
  in
  let timed f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let recompose () = timed (fun () -> Flow.Session.recompose session) in
  let fresh () =
    timed (fun () ->
        Flow.run ~design:gb.G.design ~placement:gb.G.placement
          ~library:gb.G.library ~sta_config:gb.G.sta_config ())
  in
  (* settle both copies: the first rounds still merge registers *)
  for _ = 1 to converge_rounds do
    ignore (recompose ());
    ignore (fresh ())
  done;
  List.init eco_rounds (fun i ->
      let round = i + 1 in
      let batch_seed = 1000 + (97 * round) in
      let sa = Eco.perturb (Mbr_util.Rng.create batch_seed) ga in
      ignore (Eco.perturb (Mbr_util.Rng.create batch_seed) gb);
      Mbr_obs.Metrics.reset ();
      let ra, ta = recompose () in
      (* snapshot before the lockstep full run so the row's counters
         describe the recompose, not the reference re-run *)
      let ec_metrics = Mbr_obs.Metrics.snapshot () in
      let rb, tb = fresh () in
      {
        ec_profile = p.P.name;
        ec_scale = scale;
        ec_round = round;
        ec_edits = Eco.total sa;
        ec_blocks = ra.Flow.n_blocks;
        ec_resolved = ra.Flow.eco_blocks_resolved;
        ec_reused = ra.Flow.eco_blocks_reused;
        ec_full_s = tb;
        ec_recompose_s = ta;
        ec_identical = results_close ra rb;
        ec_metrics;
      })

let section_eco () =
  banner
    "5c. ECO recompose (persistent session vs from-scratch flow, 10% \
     perturbation)";
  Printf.printf "%-8s %-7s %-6s %-6s %-14s %-8s %-10s %-8s %s\n" "design"
    "scale" "round" "edits" "blocks rslv/n" "reused" "full s" "eco s"
    "identical";
  let rows =
    List.concat_map (fun scale -> eco_sweep P.d1 scale) [ 1.0; 2.0 ]
  in
  List.iter
    (fun r ->
      Printf.printf "%-8s %-7.2f %-6d %-6d %5d/%-8d %-8d %-10.3f %-8.3f %s\n%!"
        r.ec_profile r.ec_scale r.ec_round r.ec_edits r.ec_resolved r.ec_blocks
        r.ec_reused r.ec_full_s r.ec_recompose_s
        (if r.ec_identical then "yes" else "NO (BUG)");
      if not r.ec_identical then
        failwith "recompose diverged from the from-scratch flow";
      if r.ec_reused = 0 || r.ec_resolved >= r.ec_blocks then
        failwith "recompose re-solved every block on a localized ECO")
    rows;
  print_endline
    "\n(identical final metrics by the lockstep protocol; recompose skips\n\
     the blocks the ECO left untouched, so its allocate stage scales with\n\
     the perturbation, not the design)";
  rows

(* ---- --smoke: the CI parallel-path check (tiny design, jobs = 2) ---- *)

let smoke () =
  banner "smoke: parallel allocate path (tiny design, jobs = 2)";
  let rows = allocate_sweep ~jobs_list:[ 1; 2 ] (P.tiny ~seed:1) 1.0 in
  List.iter
    (fun r ->
      Printf.printf "jobs=%d: %.3f s, identical=%b\n" r.as_jobs r.as_time_s
        r.as_identical;
      if not r.as_identical then failwith "smoke: parallel allocate diverged")
    rows;
  (* and once through the full staged flow with the pool engaged *)
  let g = G.generate (P.tiny ~seed:7) in
  let options =
    { Mbr_core.Flow.default_options with Mbr_core.Flow.jobs = Some 2 }
  in
  let r =
    Mbr_core.Flow.run ~options ~design:g.G.design ~placement:g.G.placement
      ~library:g.G.library ~sta_config:g.G.sta_config ()
  in
  Printf.printf "flow (jobs=2): %d MBRs from %d registers, %d blocks, %.1f s\n"
    r.Mbr_core.Flow.n_merges r.Mbr_core.Flow.n_regs_merged
    r.Mbr_core.Flow.n_blocks r.Mbr_core.Flow.runtime_s;
  if r.Mbr_core.Flow.alloc_jobs <> 2 then failwith "smoke: jobs not plumbed";
  if r.Mbr_core.Flow.n_merges <= 0 then failwith "smoke: no merges";
  (* and one ECO perturb + recompose round against a lockstep re-run *)
  let rows = eco_sweep ~converge_rounds:2 ~eco_rounds:1 (P.tiny ~seed:3) 1.0 in
  List.iter
    (fun e ->
      Printf.printf
        "eco: %d edits, %d/%d blocks re-solved (%d reused), identical=%b\n"
        e.ec_edits e.ec_resolved e.ec_blocks e.ec_reused e.ec_identical;
      if not e.ec_identical then failwith "smoke: recompose diverged";
      if e.ec_resolved + e.ec_reused <> e.ec_blocks then
        failwith "smoke: reuse counters do not cover the partition")
    rows;
  print_endline "smoke OK"

let section_scaling () =
  banner "5. Runtime scaling (flow wall time vs design size, D1 profile)";
  Printf.printf "%-10s %-10s %-9s %-9s %-7s | %s\n" "registers" "cells" "flow s"
    "rss MB" "sta b/r" "stage breakdown (s)";
  let rows =
    List.map
      (fun scale ->
        let p = P.scaled P.d1 scale in
        let g = G.generate p in
        let cells = Mbr_netlist.Design.n_cells g.G.design in
        (* reset between runs so each row's counters price one flow;
           compact so a row measures its own flow, not allocation into
           whatever fragmented major heap the previous sections left
           behind (worth ~30-40 % on the small rows' hot stages) *)
        Mbr_obs.Metrics.reset ();
        Gc.compact ();
        let r =
          Mbr_core.Flow.run ~design:g.G.design ~placement:g.G.placement
            ~library:g.G.library ~sta_config:g.G.sta_config ()
        in
        let snap = Mbr_obs.Metrics.snapshot () in
        let rss = Mbr_obs.Rss.peak_mb () in
        let breakdown =
          String.concat " "
            (List.filter_map
               (fun (name, t) ->
                 if t >= 0.05 then Some (Printf.sprintf "%s=%.1f" name t) else None)
               r.Mbr_core.Flow.stage_times)
        in
        Printf.printf "%-10d %-10d %-9.1f %-9s %d/%-5d | %s\n%!" p.P.n_registers
          cells r.Mbr_core.Flow.runtime_s
          (match rss with Some m -> Printf.sprintf "%.0f" m | None -> "n/a")
          r.Mbr_core.Flow.sta_full_builds r.Mbr_core.Flow.sta_refreshes
          breakdown;
        {
          sc_profile = P.d1.P.name;
          sc_scale = scale;
          sc_registers = p.P.n_registers;
          sc_cells = cells;
          sc_result = r;
          sc_metrics = snap;
          sc_rss_mb = rss;
        })
      [ 0.25; 0.5; 1.0; 2.0; 8.0; 70.0 ]
  in
  print_endline
    "(near-linear; the composition stages run through Engine.refresh, which\n\
     rebuilds the timing graph from the design after structural edits and\n\
     re-times only the pins the edits reached; sta b/r counts graph builds\n\
     and seeded refreshes; the 70x row is the >=100k-register\n\
     large-design checkpoint and its rss column bounds the whole ladder)";
  rows

(* ---- section 7: mbrd service soak ----

   Many concurrent sessions, several concurrent clients, a randomized
   ECO request mix — the service-level counterpart of section 5c. The
   numbers that matter: per-verb p50/p99 round-trip latency, zero
   failed or misrouted requests, and the cancelled-deadline path
   exercised on every session.

   GC hygiene: Gc.compact and heap accounting run ONLY at the phase
   boundaries (before the clients start, after the last one joins).
   A compaction inside the soak would stop every domain — including
   the ones mid-request — and bill the pause to whichever latencies
   happen to be in flight, so nothing GC-related runs while any
   request timer does. *)

module Svc_client = Mbr_service.Client
module Svc_protocol = Mbr_service.Protocol
module Svc_server = Mbr_service.Server

type soak_config = {
  sk_sessions : int;
  sk_clients : int;
  sk_reqs_per_session : int;  (* load + mix + deadline + recovery *)
  sk_scale : float;
  sk_queue_limit : int;
}

let default_soak =
  {
    sk_sessions = 24;
    sk_clients = 6;
    sk_reqs_per_session = 84;  (* 24 x 84 = 2016 requests *)
    sk_scale = 0.4;
    sk_queue_limit = 64;
  }

type soak_result = {
  so_config : soak_config;
  so_workers : int;
  so_requests : int;
  so_ok : int;
  so_cancelled : int;  (* deadline recomposes answered `cancelled` *)
  so_failed : int;  (* any other error: must be 0 *)
  so_misrouted : int;  (* served-count mismatches: must be 0 *)
  so_wall_s : float;
  so_heap_mb_before : float;
  so_heap_mb_after : float;
  so_latencies : (string * float list) list;  (* verb -> round-trip seconds *)
}

let heap_mb () =
  float_of_int (Gc.stat ()).Gc.heap_words *. float_of_int (Sys.word_size / 8)
  /. 1048576.0

(* [telemetry] switches the whole observability plane: per-session
   labeled metric series, the periodic sampler, and progress-event
   streaming on every recompose. The overhead section runs the same
   soak both ways and compares tails. *)
let section_soak ?(cfg = default_soak) ?(telemetry = true)
    ?(title = "7. mbrd service soak (concurrent sessions, randomized ECO traffic)")
    () =
  banner title;
  let socket_path =
    Printf.sprintf "%s/mbrd-soak-%d.sock" (Filename.get_temp_dir_name ())
      (Unix.getpid ())
  in
  let workers = Mbr_util.Pool.recommended_jobs () in
  Printf.printf
    "%d sessions, %d clients, %d requests (%d per session), %d worker \
     domain(s), queue limit %d\n%!"
    cfg.sk_sessions cfg.sk_clients
    (cfg.sk_sessions * cfg.sk_reqs_per_session)
    cfg.sk_reqs_per_session workers cfg.sk_queue_limit;
  let ready = Mutex.create () and cond = Condition.create () in
  let up = ref false in
  let server =
    Thread.create
      (fun () ->
        Svc_server.run
          ~on_ready:(fun () ->
            Mutex.lock ready;
            up := true;
            Condition.signal cond;
            Mutex.unlock ready)
          {
            Svc_server.default_config with
            Svc_server.socket_path;
            workers;
            queue_limit = cfg.sk_queue_limit;
            alloc_jobs = 1;
            session_metrics = telemetry;
            sample_period_s = (if telemetry then 0.25 else 0.0);
          })
      ()
  in
  Mutex.lock ready;
  while not !up do
    Condition.wait cond ready
  done;
  Mutex.unlock ready;
  (* phase boundary: all GC work happens before any request timer runs *)
  Gc.compact ();
  let heap_before = heap_mb () in
  let ok = Atomic.make 0
  and cancelled = Atomic.make 0
  and failed = Atomic.make 0 in
  (* client-side expectation of each session's served count, indexed by
     session number; compared against the daemon's own accounting *)
  let expected_served = Array.make cfg.sk_sessions 0 in
  (* per-thread latency sinks, merged after the join: no locking inside
     the measurement loop *)
  let sinks =
    Array.init cfg.sk_clients (fun _ -> ref ([] : (string * float) list))
  in
  let t0 = Mbr_obs.Clock.now_s () in
  let client k () =
    let sink = sinks.(k) in
    (* when the plane is on, every recompose also streams its
       per-stage progress events — the cost of consuming them is part
       of what the overhead section measures *)
    let on_progress =
      if telemetry then Some (fun (_ : Svc_protocol.progress_event) -> ())
      else None
    in
    let c = Svc_client.connect socket_path in
    Fun.protect ~finally:(fun () -> Svc_client.close c) @@ fun () ->
    let timed verb f =
      let t1 = Mbr_obs.Clock.now_s () in
      let r = f () in
      let t2 = Mbr_obs.Clock.now_s () in
      sink := (Svc_protocol.verb_to_string verb, t2 -. t1) :: !sink;
      r
    in
    let count ~expect_cancelled = function
      | Ok _ -> Atomic.incr ok
      | Error { Svc_protocol.code = Svc_protocol.Cancelled; _ }
        when expect_cancelled ->
        Atomic.incr cancelled
      | Error { Svc_protocol.code; message } ->
        Printf.eprintf "soak: unexpected %s: %s\n%!"
          (Svc_protocol.error_code_to_string code)
          message;
        Atomic.incr failed
    in
    let s = ref k in
    while !s < cfg.sk_sessions do
      let session = !s in
      let name = Printf.sprintf "soak-%d" session in
      let rng = Mbr_util.Rng.create (7000 + session) in
      let send ?(expect_cancelled = false) verb f =
        count ~expect_cancelled (timed verb f);
        expected_served.(session) <- expected_served.(session) + 1
      in
      send Svc_protocol.Load (fun () ->
          Svc_client.load c ~session:name ~profile:"tiny" ~scale:cfg.sk_scale
            ~seed:session ());
      (* randomized mix; the last two slots are reserved for the
         deadline + recovery pair *)
      for _ = 1 to cfg.sk_reqs_per_session - 3 do
        if Mbr_util.Rng.float rng 1.0 < 0.45 then
          send Svc_protocol.Perturb (fun () ->
              Svc_client.perturb c ~session:name
                ~seed:(Mbr_util.Rng.int rng 1_000_000)
                ~frac:(0.5 +. Mbr_util.Rng.float rng 1.0)
                ())
        else
          send Svc_protocol.Recompose (fun () ->
              Svc_client.recompose c ~session:name ?on_progress ())
      done;
      (* every session exercises the deadline path, then proves it is
         still usable *)
      send ~expect_cancelled:true Svc_protocol.Recompose (fun () ->
          Svc_client.recompose c ~session:name ~timeout_s:0.0 ?on_progress ());
      send Svc_protocol.Recompose (fun () ->
          Svc_client.recompose c ~session:name ?on_progress ());
      s := !s + cfg.sk_clients
    done
  in
  let threads = Array.init cfg.sk_clients (fun k -> Thread.create (client k) ()) in
  Array.iter Thread.join threads;
  let wall_s = Mbr_obs.Clock.now_s () -. t0 in
  (* every request timer has stopped: GC work is legal again *)
  Gc.compact ();
  let heap_after = heap_mb () in
  (* routing audit straight from the daemon's own per-session counters *)
  let c = Svc_client.connect socket_path in
  let misrouted =
    match Svc_client.query_metrics c with
    | Error _ -> cfg.sk_sessions (* can't audit: count everything wrong *)
    | Ok m -> (
      let module J = Mbr_obs.Json in
      match Option.bind (J.member "sessions" m) J.to_list with
      | None -> cfg.sk_sessions
      | Some rows ->
        let served = Hashtbl.create 32 in
        List.iter
          (fun row ->
            match
              ( Option.bind (J.member "name" row) J.to_str,
                Option.bind (J.member "served" row) J.to_int,
                Option.bind (J.member "pending" row) J.to_int )
            with
            | Some n, Some sv, Some pend -> Hashtbl.replace served n (sv, pend)
            | _ -> ())
          rows;
        let bad = ref 0 in
        Array.iteri
          (fun i expect ->
            match Hashtbl.find_opt served (Printf.sprintf "soak-%d" i) with
            | Some (sv, 0) when sv = expect -> ()
            | _ -> incr bad)
          expected_served;
        !bad)
  in
  ignore (Svc_client.shutdown c);
  Svc_client.close c;
  Thread.join server;
  let latencies =
    List.map
      (fun v ->
        let name = Svc_protocol.verb_to_string v in
        ( name,
          Array.to_list sinks
          |> List.concat_map (fun sink ->
                 List.filter_map
                   (fun (n, dt) -> if n = name then Some dt else None)
                   !sink) ))
      Svc_protocol.[ Load; Perturb; Recompose ]
  in
  let r =
    {
      so_config = cfg;
      so_workers = workers;
      so_requests = cfg.sk_sessions * cfg.sk_reqs_per_session;
      so_ok = Atomic.get ok;
      so_cancelled = Atomic.get cancelled;
      so_failed = Atomic.get failed;
      so_misrouted = misrouted;
      so_wall_s = wall_s;
      so_heap_mb_before = heap_before;
      so_heap_mb_after = heap_after;
      so_latencies = latencies;
    }
  in
  Printf.printf
    "%d requests in %.1f s (%.0f req/s): %d ok, %d cancelled-by-deadline, \
     %d failed, %d misrouted\n"
    r.so_requests wall_s
    (float_of_int r.so_requests /. wall_s)
    r.so_ok r.so_cancelled r.so_failed r.so_misrouted;
  List.iter
    (fun (verb, lats) ->
      if lats <> [] then begin
        let a = Array.of_list lats in
        Printf.printf
          "  %-10s %5d reqs  p50 %7.2f ms  p99 %7.2f ms  max %7.2f ms\n" verb
          (Array.length a)
          (Mbr_util.Stats.percentile a 50.0 *. 1e3)
          (Mbr_util.Stats.percentile a 99.0 *. 1e3)
          (snd (Mbr_util.Stats.min_max a) *. 1e3)
      end)
    r.so_latencies;
  Printf.printf "heap after compaction: %.1f MB -> %.1f MB\n" heap_before
    heap_after;
  if r.so_failed > 0 || r.so_misrouted > 0 then
    failwith "service soak: failed or misrouted requests";
  r

let soak_to_json (r : soak_result) =
  let module J = Mbr_obs.Json in
  let num f = J.Num f in
  let int i = J.Num (float_of_int i) in
  J.Obj
    [
      ("sessions", int r.so_config.sk_sessions);
      ("clients", int r.so_config.sk_clients);
      ("workers", int r.so_workers);
      ("queue_limit", int r.so_config.sk_queue_limit);
      ("scale", num r.so_config.sk_scale);
      ("requests", int r.so_requests);
      ("ok", int r.so_ok);
      ("cancelled_by_deadline", int r.so_cancelled);
      ("failed", int r.so_failed);
      ("misrouted", int r.so_misrouted);
      ("wall_s", num r.so_wall_s);
      ("throughput_rps", num (float_of_int r.so_requests /. r.so_wall_s));
      ("heap_mb_before", num r.so_heap_mb_before);
      ("heap_mb_after", num r.so_heap_mb_after);
      ( "per_verb",
        J.Arr
          (List.filter_map
             (fun (verb, lats) ->
               if lats = [] then None
               else
                 let a = Array.of_list lats in
                 Some
                   (J.Obj
                      [
                        ("verb", J.Str verb);
                        ("count", int (Array.length a));
                        ("p50_ms", num (Mbr_util.Stats.percentile a 50.0 *. 1e3));
                        ("p99_ms", num (Mbr_util.Stats.percentile a 99.0 *. 1e3));
                        ("mean_ms", num (Mbr_util.Stats.mean a *. 1e3));
                        ("max_ms", num (snd (Mbr_util.Stats.min_max a) *. 1e3));
                      ]))
             r.so_latencies) );
    ]

(* ---- section 9: telemetry overhead ----

   The observability plane must be cheap enough to leave on: the same
   (smaller) soak runs twice, once with per-session labeled series +
   the 0.25 s sampler + progress streaming on every recompose, once
   with all of it off, and the per-verb latency tails are compared.
   The acceptance bar lives in EXPERIMENTS.md: recompose p99 within a
   few percent. Ratios are reported rather than enforced here — a
   loaded CI host can blur a 2 ms tail — but the JSON records both
   runs so regressions are visible. *)

let telemetry_soak =
  {
    sk_sessions = 8;
    sk_clients = 4;
    sk_reqs_per_session = 36;  (* 8 x 36 = 288 requests per run *)
    sk_scale = 0.3;
    sk_queue_limit = 64;
  }

type telemetry_overhead = {
  tv_on : soak_result;
  tv_off : soak_result;
}

let percentile_of verb pct (r : soak_result) =
  match List.assoc_opt verb r.so_latencies with
  | Some (_ :: _ as lats) ->
    Some (Mbr_util.Stats.percentile (Array.of_list lats) pct)
  | _ -> None

let section_telemetry_overhead () =
  let on =
    section_soak ~cfg:telemetry_soak ~telemetry:true
      ~title:
        "9. telemetry overhead — soak with the plane ON (labeled series, \
         sampler, progress streaming)"
      ()
  in
  let off =
    section_soak ~cfg:telemetry_soak ~telemetry:false
      ~title:"9 (cont.) — same soak with the plane OFF" ()
  in
  List.iter
    (fun verb ->
      match
        ( percentile_of verb 50.0 on,
          percentile_of verb 99.0 on,
          percentile_of verb 50.0 off,
          percentile_of verb 99.0 off )
      with
      | Some p50_on, Some p99_on, Some p50_off, Some p99_off ->
        Printf.printf
          "  %-10s p50 %7.2f -> %7.2f ms (%+5.1f%%)  p99 %7.2f -> %7.2f ms \
           (%+5.1f%%)\n"
          verb (p50_off *. 1e3) (p50_on *. 1e3)
          (100.0 *. ((p50_on /. Float.max 1e-9 p50_off) -. 1.0))
          (p99_off *. 1e3) (p99_on *. 1e3)
          (100.0 *. ((p99_on /. Float.max 1e-9 p99_off) -. 1.0))
      | _ -> ())
    [ "load"; "perturb"; "recompose" ];
  { tv_on = on; tv_off = off }

let telemetry_overhead_to_json (tv : telemetry_overhead) =
  let module J = Mbr_obs.Json in
  let ratio verb pct =
    match (percentile_of verb pct tv.tv_on, percentile_of verb pct tv.tv_off)
    with
    | Some a, Some b when b > 0.0 -> J.Num (a /. b)
    | _ -> J.Null
  in
  J.Obj
    [
      ("on", soak_to_json tv.tv_on);
      ("off", soak_to_json tv.tv_off);
      ("recompose_p50_ratio", ratio "recompose" 50.0);
      ("recompose_p99_ratio", ratio "recompose" 99.0);
      ("perturb_p99_ratio", ratio "perturb" 99.0);
    ]

(* ---- section 8: compose <-> decompose recovery loop ----

   The scenario the loop exists for. Composition cannot go negative at
   a corner it analyzes — the placement-aware weights and the
   displacement bound share the STA's own (derated) delay model — so
   the loop's work arrives from outside the compose step. Here the
   session composes under typical alone, then two things happen that a
   real ECO queue serves up daily: the composed banks are displaced
   (an incremental-placement pass re-spreads the region, here modeled
   as each bank landing at the die corner farthest from where the flow
   put it), and sign-off widens the corner set to a cell-derated
   stress corner. Every micron of displacement costs load — wire cap
   into the driving cells' delay, a cell-derated term in this model —
   so the derated view prices the same microns at twice the typical
   cost, and banks whose members had little worst-corner headroom go
   negative. The derate set is what forces the decompose rounds: under
   typical alone the identical displacement stays affordable and the
   loop never fires.

   Recovery splits each victim, pins the halves (size-only, so they
   can never re-compose) and re-places them at their nets' centroid —
   restoring the wire the displacement added — then re-enters
   partition → allocate → compose on the affected region. Useful skew
   runs with a tight post-CTS bound: enough range to absorb the mild
   residual violations ordinary corner-aware closure handles, far too
   little for a misplaced bank — splitting is the only repair for
   those, which is exactly the separation under test. The clock period
   is relaxed just enough that the un-composed design is clean at the
   derated corner, so convergence (final worst-corner WNS >= 0) is the
   loop's to win or lose.

   The subject is the flat (aggregation-hostile) profile deliberately:
   its compatible registers are scattered across the die, so composed
   banks serve cones whose centers of gravity lie far apart — long
   nets whose load the stress corner derates hardest. *)

type recovery_row = {
  rc_profile : string;
  rc_registers : int;
  rc_corners : string;
  rc_period : float;  (* relaxed clock period, ps *)
  rc_margin : float;  (* slack headroom added over the probe WNS, ps *)
  rc_drift_um : float;  (* mean manhattan displacement per composed bank *)
  rc_budget : int;
  rc_result : Flow.result;
  rc_wall_s : float;
  rc_converged : bool;  (* final worst-corner WNS >= 0 *)
}

let section_recovery () =
  banner "8. compose <-> decompose recovery loop (worst-corner closure)";
  let p = P.flat ~seed:3 in
  (* stress corner heavy on the cell derate: a drifted bank's microns
     cost load (wire cap into the driving cells' delay — a cell-derated
     term in this model), so the derate multiplies what each micron of
     drift costs and drifted MBRs go worst-corner-negative without ever
     showing up at typical *)
  let corners =
    match Mbr_sta.Corner.parse_set "typical,stress:2.0:2.0:1.2" with
    | Ok c -> c
    | Error m -> failwith m
  in
  let budget = 4 in
  let run_attempt ~period ~recover =
    (* generation is deterministic, so each attempt gets a pristine
       copy — composition mutates the design *)
    let g = G.generate p in
    let sta_config =
      { g.G.sta_config with Mbr_sta.Engine.clock_period = period }
    in
    (* useful skew stays on but with a tight post-CTS bound: it can
       absorb the mild baseline violations the derated corner uncovers
       (that is ordinary corner-aware closure) but not the tens of ps a
       drifted bank loses — those only splitting repairs, which is what
       separates the recovery loop's work from the skew stage's *)
    let options =
      {
        Flow.default_options with
        Flow.skew =
          Some { Mbr_sta.Skew.default_config with Mbr_sta.Skew.bound = 5.0 };
        Flow.corners = [| Mbr_sta.Corner.typical |];
      }
    in
    let session =
      Flow.Session.create ~options ~design:g.G.design ~placement:g.G.placement
        ~library:g.G.library ~sta_config ()
    in
    let first = Flow.Session.recompose session in
    (* post-compose placement drift on the composed banks, through the
       edit-logged placement API (the session refreshes from the log) *)
    let pl = Flow.Session.placement session in
    let fp = Mbr_place.Placement.floorplan pl in
    let total_drift = ref 0.0 in
    List.iter
      (fun cid ->
        let loc = Mbr_place.Placement.location pl cid in
        let box = Mbr_place.Placement.footprint pl cid in
        let w = box.Mbr_geom.Rect.hx -. box.Mbr_geom.Rect.lx in
        let h = box.Mbr_geom.Rect.hy -. box.Mbr_geom.Rect.ly in
        (* of the four die corners, the one farthest from where the
           flow placed the bank (its nets' weighted centroid) *)
        let far =
          List.fold_left
            (fun acc cand ->
              let p = Mbr_place.Floorplan.clamp_ll fp ~w ~h cand in
              if
                Mbr_geom.Point.manhattan p loc
                > Mbr_geom.Point.manhattan acc loc
              then p
              else acc)
            loc
            [
              { Mbr_geom.Point.x = -1e9; y = -1e9 };
              { Mbr_geom.Point.x = -1e9; y = 1e9 };
              { Mbr_geom.Point.x = 1e9; y = -1e9 };
              { Mbr_geom.Point.x = 1e9; y = 1e9 };
            ]
        in
        total_drift := !total_drift +. Mbr_geom.Point.manhattan far loc;
        Mbr_place.Placement.set pl cid far)
      first.Flow.new_mbrs;
    let mean_drift =
      !total_drift /. float_of_int (max 1 (List.length first.Flow.new_mbrs))
    in
    Flow.Session.set_corners session corners;
    let t0 = Unix.gettimeofday () in
    let r = Flow.Session.recompose ~recover session in
    (first, r, Unix.gettimeofday () -. t0, mean_drift)
  in
  (* stress-corner baseline WNS at the calibrated period, un-composed *)
  let wns0, base_period =
    let g = G.generate p in
    let eng =
      Mbr_sta.Engine.build ~config:g.G.sta_config ~corners g.G.placement
    in
    Mbr_sta.Engine.analyze eng;
    let wns, _ = Mbr_sta.Engine.wns_tns eng in
    (wns, g.G.sta_config.Mbr_sta.Engine.clock_period)
  in
  Printf.printf
    "probe: worst-corner WNS %.1f ps at the calibrated period %.1f ps\n" wns0
    base_period;
  (* slack is linear in the clock period, so relax by the probe's
     violation plus a margin small enough that the displaced banks
     cross zero at the derated corner but not at typical; take the
     first margin where the loop both fires (>= 1 round) and closes
     worst-corner timing *)
  let attempt margin =
    let period = base_period -. Float.min wns0 0.0 +. margin in
    let first, r, wall, drift = run_attempt ~period ~recover:budget in
    Printf.printf
      "  margin %5.1f drift %5.1f: period %7.1f, %d merges then rounds %d, \
       splits %3d, final wns %8.1f\n%!"
      margin drift period first.Flow.n_merges r.Flow.recover_rounds
      r.Flow.recover_splits r.Flow.after.Mbr_core.Metrics.wns;
    {
      rc_profile = p.P.name;
      rc_registers = p.P.n_registers;
      rc_corners = Mbr_sta.Corner.set_to_string corners;
      rc_period = period;
      rc_margin = margin;
      rc_drift_um = drift;
      rc_budget = budget;
      rc_result = r;
      rc_wall_s = wall;
      rc_converged = r.Flow.after.Mbr_core.Metrics.wns >= 0.0;
    }
  in
  let rec search = function
    | [] -> failwith "section_recovery: empty scenario ladder"
    | [ m ] -> attempt m
    | m :: rest ->
      let row = attempt m in
      if row.rc_converged && row.rc_result.Flow.recover_rounds >= 1 then row
      else search rest
  in
  let row = search [ 0.0; 2.0; 5.0; -3.0; 8.0; 12.0 ] in
  let r = row.rc_result in
  Printf.printf
    "period %.1f ps (margin %.1f, drift %.1f um): %d recovery rounds, \
     %d registers split, %d merges, converged=%b, %.2f s\n"
    row.rc_period row.rc_margin row.rc_drift_um r.Flow.recover_rounds
    r.Flow.recover_splits r.Flow.n_merges row.rc_converged row.rc_wall_s;
  List.iter
    (fun (name, wns, tns) ->
      Printf.printf "  corner %-10s wns %8.1f  tns %10.1f\n" name wns tns)
    r.Flow.after.Mbr_core.Metrics.corners;
  row

let json_corners (m : Mbr_core.Metrics.t) =
  let module J = Mbr_obs.Json in
  J.Arr
    (List.map
       (fun (name, wns, tns) ->
         J.Obj [ ("name", J.Str name); ("wns", J.Num wns); ("tns", J.Num tns) ])
       m.Mbr_core.Metrics.corners)

let recovery_to_json (row : recovery_row) =
  let module J = Mbr_obs.Json in
  let num f = J.Num f in
  let int i = J.Num (float_of_int i) in
  let r = row.rc_result in
  J.Obj
    [
      ("profile", J.Str row.rc_profile);
      ("registers", int row.rc_registers);
      ("corners", J.Str row.rc_corners);
      ("clock_period_ps", num row.rc_period);
      ("margin_ps", num row.rc_margin);
      ("drift_um", num row.rc_drift_um);
      ("recover_budget", int row.rc_budget);
      ("recover_rounds", int r.Flow.recover_rounds);
      ("recover_splits", int r.Flow.recover_splits);
      ("n_merges", int r.Flow.n_merges);
      ("converged", J.Bool row.rc_converged);
      ("wall_s", num row.rc_wall_s);
      ("before_corners", json_corners r.Flow.before);
      ("after_corners", json_corners r.Flow.after);
    ]

(* `--soak` / `--recover` refresh only their section of an existing
   BENCH.json: parse, bump the schema, splice the section in, pretty
   print. The heavyweight sections keep their recorded numbers. *)
let patch_bench_json ~path ~key value =
  let module J = Mbr_obs.Json in
  let old = In_channel.with_open_text path In_channel.input_all in
  match J.of_string old with
  | J.Obj kvs ->
    let kvs =
      List.map
        (fun (k, v) -> if k = "schema_version" then (k, J.Num 9.0) else (k, v))
        (List.filter (fun (k, _) -> k <> key) kvs)
      @ [ (key, value) ]
    in
    Out_channel.with_open_text path (fun oc ->
        Out_channel.output_string oc (J.to_string_pretty (J.Obj kvs)));
    Printf.printf "\npatched %s (schema_version 9, %s refreshed)\n" path key
  | _ -> failwith (path ^ ": not a JSON object")

(* ---- BENCH.json: the numbers above, machine-readable ---- *)

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_float f =
  if Float.is_finite f then Printf.sprintf "%.6g" f else "null"

(* Counters-only embed of a registry snapshot: the histograms are
   already summarized by the row's own fields, and counters are what
   regression tracking diffs. *)
let json_of_counters (snap : Mbr_obs.Metrics.snapshot) =
  Mbr_obs.Json.to_string
    (Mbr_obs.Json.Obj
       (List.map
          (fun (k, v) -> (k, Mbr_obs.Json.Num (float_of_int v)))
          snap.Mbr_obs.Metrics.counters))

(* Recovery rounds re-run flow stages, so stage_times may carry the
   same stage name several times; a JSON dict wants one key per stage,
   so sum repeats (first-occurrence order preserved). *)
let aggregate_stages stage_times =
  let order = ref [] in
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (name, t) ->
      match Hashtbl.find_opt tbl name with
      | None ->
        order := name :: !order;
        Hashtbl.replace tbl name t
      | Some prev -> Hashtbl.replace tbl name (prev +. t))
    stage_times;
  List.rev_map (fun name -> (name, Hashtbl.find tbl name)) !order

let emit_bench_json ~path ~kernels ~scaling ~alloc_scaling ~eco_rows ~soak
    ~recovery ~telemetry_overhead =
  let oc = open_out path in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"schema_version\": 9,\n";
  p "  \"generated_by\": \"bench/main.exe\",\n";
  (* core count up front: speedup and degraded flags below are only
     interpretable against the parallelism the host actually offers *)
  p "  \"cores\": %d,\n" (Mbr_util.Pool.recommended_jobs ());
  p "  \"kernels\": [\n";
  List.iteri
    (fun i (name, ns, r2) ->
      p "    {\"name\": \"%s\", \"ns_per_run\": %s, \"r2\": %s}%s\n"
        (json_escape name) (json_float ns)
        (match r2 with Some v -> json_float v | None -> "null")
        (if i = List.length kernels - 1 then "" else ","))
    kernels;
  p "  ],\n";
  p "  \"flow_scaling\": [\n";
  List.iteri
    (fun i row ->
      let r = row.sc_result in
      let stages =
        String.concat ", "
          (List.map
             (fun (name, t) ->
               Printf.sprintf "\"%s\": %s" (json_escape name) (json_float t))
             (aggregate_stages r.Mbr_core.Flow.stage_times))
      in
      let corners =
        String.concat ", "
          (List.map
             (fun (name, wns, tns) ->
               Printf.sprintf "{\"name\": \"%s\", \"wns\": %s, \"tns\": %s}"
                 (json_escape name) (json_float wns) (json_float tns))
             r.Mbr_core.Flow.after.Mbr_core.Metrics.corners)
      in
      (* best measured speedup of the parallel allocate sweep at the
         same scale, when section 5b ran it *)
      let speedup =
        List.fold_left
          (fun acc a ->
            if a.as_scale = row.sc_scale && a.as_jobs > 1 then
              match acc with
              | Some best when best >= a.as_speedup -> acc
              | Some _ | None -> Some a.as_speedup
            else acc)
          None alloc_scaling
      in
      let bt = r.Mbr_core.Flow.alloc_block_times in
      (* v9: the skew stage's own counters surfaced per row, so ladder
         diffs see frontier growth without digging into "metrics" *)
      let skew_counter name =
        match
          List.assoc_opt name row.sc_metrics.Mbr_obs.Metrics.counters
        with
        | Some v -> v
        | None -> 0
      in
      p
        "    {\"profile\": \"%s\", \"scale\": %s, \"registers\": %d, \
         \"cells\": %d, \"wall_s\": %s, \"rss_mb\": %s, \"jobs\": %d, \
         \"allocate_parallel_speedup\": %s, \"block_solve_mean_s\": %s, \
         \"block_solve_max_s\": %s, \"sta_full_builds\": %d, \
         \"sta_refreshes\": %d, \"recover_rounds\": %d, \
         \"recover_splits\": %d, \"skew_frontier_pins\": %d, \
         \"skew_level_passes\": %d, \"skew_corner_par\": %d, \
         \"corners\": [%s], \"stages\": {%s}, \
         \"metrics\": %s}%s\n"
        (json_escape row.sc_profile) (json_float row.sc_scale)
        row.sc_registers row.sc_cells
        (json_float r.Mbr_core.Flow.runtime_s)
        (match row.sc_rss_mb with Some m -> json_float m | None -> "null")
        r.Mbr_core.Flow.alloc_jobs
        (match speedup with Some v -> json_float v | None -> "null")
        (json_float bt.Mbr_core.Allocate.mean_s)
        (json_float bt.Mbr_core.Allocate.max_s)
        r.Mbr_core.Flow.sta_full_builds r.Mbr_core.Flow.sta_refreshes
        r.Mbr_core.Flow.recover_rounds r.Mbr_core.Flow.recover_splits
        (skew_counter "sta.skew.frontier_pins")
        (skew_counter "sta.skew.level_passes")
        (skew_counter "sta.skew.corner_par")
        corners stages
        (json_of_counters row.sc_metrics)
        (if i = List.length scaling - 1 then "" else ","))
    scaling;
  p "  ],\n";
  p "  \"allocate_scaling\": [\n";
  List.iteri
    (fun i a ->
      p
        "    {\"profile\": \"%s\", \"scale\": %s, \"jobs\": %d, \
         \"allocate_s\": %s, \"speedup\": %s, \"identical\": %b, \
         \"degraded\": %b, \"block_solve_mean_s\": %s, \
         \"block_solve_max_s\": %s}%s\n"
        (json_escape a.as_profile) (json_float a.as_scale) a.as_jobs
        (json_float a.as_time_s) (json_float a.as_speedup) a.as_identical
        a.as_degraded
        (json_float a.as_block_mean_s) (json_float a.as_block_max_s)
        (if i = List.length alloc_scaling - 1 then "" else ","))
    alloc_scaling;
  p "  ],\n";
  p "  \"eco_recompose\": [\n";
  List.iteri
    (fun i e ->
      p
        "    {\"profile\": \"%s\", \"scale\": %s, \"round\": %d, \
         \"edits\": %d, \"blocks\": %d, \"blocks_resolved\": %d, \
         \"blocks_reused\": %d, \"full_run_s\": %s, \"recompose_s\": %s, \
         \"identical\": %b, \"metrics\": %s}%s\n"
        (json_escape e.ec_profile) (json_float e.ec_scale) e.ec_round
        e.ec_edits e.ec_blocks e.ec_resolved e.ec_reused
        (json_float e.ec_full_s) (json_float e.ec_recompose_s) e.ec_identical
        (json_of_counters e.ec_metrics)
        (if i = List.length eco_rows - 1 then "" else ","))
    eco_rows;
  p "  ],\n";
  p "  \"service_soak\": %s,\n" (Mbr_obs.Json.to_string soak);
  p "  \"telemetry_overhead\": %s,\n" (Mbr_obs.Json.to_string telemetry_overhead);
  p "  \"recovery_loop\": %s\n" (Mbr_obs.Json.to_string recovery);
  p "}\n";
  close_out oc;
  Printf.printf "\nwrote %s\n" path

let () =
  Mbr_util.Runtime.tune ();
  Mbr_obs.Log.setup ();
  (* counters on for the whole harness; each reporting row resets and
     snapshots around the run it describes *)
  Mbr_obs.Metrics.enable ();
  if Array.exists (fun a -> a = "--smoke") Sys.argv then smoke ()
  else if Array.exists (fun a -> a = "--soak") Sys.argv then begin
    (* service soak only; splice the result into the existing
       BENCH.json rather than rerunning the multi-minute sections *)
    let r = section_soak () in
    patch_bench_json ~path:"BENCH.json" ~key:"service_soak" (soak_to_json r)
  end
  else if Array.exists (fun a -> a = "--recover") Sys.argv then begin
    (* recovery loop only; same splice-in-place protocol as --soak *)
    let row = section_recovery () in
    patch_bench_json ~path:"BENCH.json" ~key:"recovery_loop"
      (recovery_to_json row)
  end
  else if Array.exists (fun a -> a = "--telemetry-overhead") Sys.argv then begin
    (* on/off soak pair only; same splice-in-place protocol *)
    let tv = section_telemetry_overhead () in
    patch_bench_json ~path:"BENCH.json" ~key:"telemetry_overhead"
      (telemetry_overhead_to_json tv)
  end
  else begin
    Printf.printf "MBR composition benchmark harness (DAC'17 reproduction)\n";
    section_tables ();
    section_ablations ();
    let scaling = section_scaling () in
    let alloc_scaling = section_allocate_scaling () in
    let eco_rows = section_eco () in
    let kernels = section_kernels () in
    let soak = section_soak () in
    let telemetry_overhead = section_telemetry_overhead () in
    let recovery = section_recovery () in
    emit_bench_json ~path:"BENCH.json" ~kernels ~scaling ~alloc_scaling
      ~eco_rows ~soak:(soak_to_json soak)
      ~recovery:(recovery_to_json recovery)
      ~telemetry_overhead:(telemetry_overhead_to_json telemetry_overhead);
    banner "done";
    print_endline
      "Recorded paper-vs-measured comparisons live in EXPERIMENTS.md;\n\
       the experiment-to-module map is in DESIGN.md section 4."
  end
