(* The in-process workloads: cold-d1x16 and paper-suite.

   One pass takes every design of the workload through
   generate -> Session.create -> recompose (the initial composition),
   then one seeded ECO batch -> recompose (the incremental path), and
   runs the output verifier after each compose. Passes repeat until
   the run's time is used and at least [min_passes] have run; every
   timing is the median over passes. *)

module G = Mbr_designgen.Generate
module P = Mbr_designgen.Profile
module Flow = Mbr_core.Flow
module M = Mbr_core.Metrics
module Obs = Mbr_obs.Metrics

type design = {
  profile : P.t;
  registers : int;  (** registers before composition *)
  cells : int;
  gen_s : float;
  create_s : float;
  compose_s : float;
  eco_s : float;
  first : Flow.result;
  eco : Flow.result;
  violations : string list;
}

type pass = {
  designs : design list;
  setup_s : float;
  pass_compose_s : float;
  pass_eco_s : float;
}

let now = Mbr_obs.Clock.now_s

let timed f =
  let t0 = now () in
  let x = f () in
  (x, now () -. t0)

let report_violations name what = function
  | [] -> []
  | vs ->
    List.iteri
      (fun i v -> if i < 5 then Printf.printf "  VERIFY FAIL %s after %s: %s\n%!" name what v)
      vs;
    List.map (fun v -> what ^ ": " ^ v) vs

let run_design ~jobs ~eco_seed p =
  Gc.compact ();
  Span.with_span "workload.design" @@ fun () ->
  let g, gen_s = timed (fun () -> Span.with_span "designgen.generate" (fun () -> G.generate p)) in
  let session, create_s =
    timed (fun () ->
        Span.with_span "flow.session_create" (fun () ->
            Flow.Session.create
              ~options:{ Flow.default_options with Flow.jobs = Some jobs }
              ~design:g.G.design
              ~placement:g.G.placement ~library:g.G.library
              ~sta_config:g.G.sta_config ()))
  in
  let registers = List.length (Mbr_netlist.Design.registers g.G.design) in
  let cells = Mbr_netlist.Design.n_cells g.G.design in
  let first, compose_s =
    timed (fun () -> Span.with_span "flow.recompose" (fun () -> Flow.Session.recompose session))
  in
  let v1 = report_violations p.P.name "compose" (Verify.check g) in
  ignore
    (Mbr_designgen.Eco.perturb ~config:Mbr_designgen.Eco.default_config
       (Mbr_util.Rng.create eco_seed) g);
  let given = Verify.check g in
  let eco, eco_s =
    timed (fun () ->
        Span.with_span "flow.recompose_eco" (fun () -> Flow.Session.recompose session))
  in
  let v2 = report_violations p.P.name "eco recompose" (Verify.check ~given g) in
  {
    profile = p;
    registers;
    cells;
    gen_s;
    create_s;
    compose_s;
    eco_s;
    first;
    eco;
    violations = v1 @ v2;
  }

let run_pass ~jobs ~eco_seed profiles =
  let designs = List.map (fun p -> run_design ~jobs ~eco_seed p) profiles in
  let sum f = List.fold_left (fun a d -> a +. f d) 0.0 designs in
  {
    designs;
    setup_s = sum (fun d -> d.gen_s +. d.create_s);
    pass_compose_s = sum (fun d -> d.compose_s);
    pass_eco_s = sum (fun d -> d.eco_s);
  }

let median l = Mbr_util.Stats.percentile (Array.of_list l) 50.0

(* Table 1 "Save" columns of first compositions, pooled: the saving of
   the summed column, so large designs weigh by their size. *)
let qor_of (results : Flow.result list) =
  let sum f = List.fold_left (fun a r -> a +. f r) 0.0 results in
  let save f =
    let b = sum (fun r -> f r.Flow.before) and a = sum (fun r -> f r.Flow.after) in
    100.0 *. (b -. a) /. b
  in
  [
    ("regs_saved_pct", save (fun m -> float_of_int m.M.total_regs));
    ("qor.clk_power_saved_pct", save (fun m -> m.M.clk_power));
    ("qor.signal_wl_saved_pct", save (fun m -> m.M.other_wl));
    ("qor.tns_saved_pct", save (fun m -> m.M.tns));
  ]

let qor (ps : pass) = qor_of (List.map (fun d -> d.first) ps.designs)

let stage (r : Flow.result) names =
  List.fold_left
    (fun a n -> a +. Option.value (List.assoc_opt n r.Flow.stage_times) ~default:0.0)
    0.0 names

let counter snap name =
  float_of_int (Option.value (List.assoc_opt name snap.Obs.counters) ~default:0)

(* Per-layer numbers of one traced pass. Stage times describe the
   initial composition (the work compose_s measures); the library's
   counters cover the whole pass; block reuse describes the ECO
   recompose, the only one that can reuse blocks. *)
let layers (ps : pass) snap =
  let sum f = List.fold_left (fun a d -> a +. f d) 0.0 ps.designs in
  let st names = sum (fun d -> stage d.first names) in
  let recompose_s = Span.total "flow.recompose" in
  let all_stages =
    sum (fun d -> List.fold_left (fun a (_, s) -> a +. s) 0.0 d.first.Flow.stage_times)
  in
  let alloc f = sum (fun d -> f d.first.Flow.alloc_block_times) in
  [
    ("designgen.generate_s", Span.total "designgen.generate");
    ( "designgen.generate_alloc_mw",
      Span.sum_by "designgen.generate" (fun s -> s.Span.alloc_words) /. 1e6 );
    ("sta.build_s", Span.total "flow.session_create");
    ("sta.eco_reset_s", st [ "eco-reset" ]);
    ("sta.metrics_s", st [ "metrics-before"; "metrics-after" ]);
    ("sta.skew_s", st [ "skew" ]);
    ("sta.dirty_pins", counter snap "sta.dirty_pins");
    ("sta.rebuild_fallbacks", counter snap "sta.rebuild_fallbacks");
    ("sta.skew_frontier_pins", counter snap "sta.skew.frontier_pins");
    ("sta.skew_level_passes", counter snap "sta.skew.level_passes");
    ("compat.graph_s", st [ "compat-graph" ]);
    ("compat.pairs_checked", counter snap "compat.pairs_checked");
    ("compat.nodes_dirty", counter snap "compat.nodes_dirty");
    ("compat.edges_copied", counter snap "compat.edges_copied");
    ("allocate.s", st [ "allocate" ]);
    ("allocate.block_work_s", alloc (fun t -> t.Mbr_core.Allocate.total_s));
    ("allocate.block_crit_s", alloc (fun t -> t.Mbr_core.Allocate.max_s));
    ( "allocate.blocks_reused_frac",
      sum (fun d -> float_of_int d.eco.Flow.eco_blocks_reused)
      /. Float.max 1.0 (sum (fun d -> float_of_int d.eco.Flow.n_blocks)) );
    ("ilp.solves", counter snap "ilp.solves");
    ("ilp.bb_nodes", counter snap "ilp.bb_nodes");
    ("ilp.node_limit_hits", counter snap "ilp.node_limit_hits");
    ("lp.simplex_pivots", counter snap "lp.simplex_pivots");
    ("pool.tasks", counter snap "pool.tasks");
    ("pool.chunks", counter snap "pool.chunks");
    ("merge.s", st [ "merge" ]);
    ("merge.blocker_index_s", st [ "blocker-index" ]);
    ("merge.n_merges", sum (fun d -> float_of_int d.first.Flow.n_merges));
    ("merge.displacement_um", sum (fun d -> d.first.Flow.merge_displacement));
    ("dft.restitch_s", st [ "scan-restitch" ]);
    ("dft.scan_wl_mm", sum (fun d -> d.first.Flow.scan_chain_wl) /. 1000.0);
    ("resize.s", st [ "resize" ]);
    ("flow.recompose_s", recompose_s);
    ("flow.stage_cover", all_stages /. recompose_s);
    ("flow.recompose_alloc_mw", Span.sum_by "flow.recompose" (fun s -> s.Span.alloc_words) /. 1e6);
    ("flow.major_gcs", Span.sum_by "flow.recompose" (fun s -> float_of_int s.Span.major_gcs));
    ("obs.trace_dropped", float_of_int (Mbr_obs.Trace.dropped_events ()));
  ]

let print_pass (ps : pass) =
  List.iter
    (fun d ->
      Printf.printf
        "  %-4s regs %6d cells %7d  generate %7.3f s  create %6.3f s  compose \
         %7.3f s  eco %7.3f s  regs %d -> %d  tns %.1f ns\n%!"
        d.profile.P.name d.registers d.cells d.gen_s d.create_s d.compose_s
        d.eco_s d.first.Flow.before.M.total_regs d.first.Flow.after.M.total_regs
        (d.first.Flow.after.M.tns /. 1000.0))
    ps.designs

(* The run. [profiles] already carry the seeds derived from the
   workload seed. *)
let run ~workload ~jobs ~min_passes ~eco_seed ~seconds ~trace profiles =
  let deadline = now () +. seconds in
  let pass () =
    let ps = run_pass ~jobs ~eco_seed profiles in
    print_pass ps;
    ps
  in
  let first = pass () in
  (* Untraced: passes repeat while time remains, [min_passes] at
     least. Traced: one more pass, traced; the first pass is the
     untraced reference the overhead ratio divides by. *)
  let passes, traced_layers =
    if not trace then begin
      let rest = ref [] in
      while now () < deadline || List.length !rest + 1 < min_passes do
        rest := pass () :: !rest
      done;
      (first :: List.rev !rest, [])
    end
    else begin
      Obs.reset ();
      Obs.enable ();
      Span.enable ~workload;
      let traced = pass () in
      Span.disable ();
      Obs.disable ();
      let snap = Obs.snapshot () in
      ( [ first; traced ],
        ("obs.trace_overhead_ratio", traced.pass_compose_s /. first.pass_compose_s)
        :: layers traced snap )
    end
  in
  let peak = Option.value (Mbr_obs.Rss.peak_mb ()) ~default:Float.nan in
  (* every pass must reproduce the first one's QoR exactly *)
  let nondet = List.length (List.filter (fun ps -> qor ps <> qor first) passes) in
  if nondet > 0 then Printf.printf "  FAIL: %d pass(es) changed QoR\n%!" nondet;
  let designs = List.concat_map (fun ps -> ps.designs) passes in
  (* each design is verified twice per pass; each later pass is one
     determinism check *)
  let attempted = (2 * List.length designs) + List.length passes - 1 in
  let failed = List.length (List.filter (fun d -> d.violations <> []) designs) + nondet in
  Printf.printf "  %d pass(es): timings are medians over passes\n%!" (List.length passes);
  {
    Table.correct = failed = 0;
    attempted;
    failed;
    values =
      [
        ("setup_s", median (List.map (fun ps -> ps.setup_s) passes));
        ("compose_s", median (List.map (fun ps -> ps.pass_compose_s) passes));
        ("recompose_ms", 1000.0 *. median (List.map (fun ps -> ps.pass_eco_s) passes));
        ("peak_rss_mb", peak);
      ]
      @ qor first @ traced_layers
      @ [ ("failed_frac", float_of_int failed /. float_of_int attempted) ];
  }
