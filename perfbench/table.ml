(* The benchmark's metric names and units, and the result line.

   These lists are the ones BENCHMARK.json declares (the test checks
   that the two agree). Every run prints every metric of its mode: the
   end-to-end list with tracing off, the per-layer list with tracing
   on. An end-to-end metric is defined on every workload and is never
   0; a per-layer metric reads 0 on a workload that does not exercise
   its layer (see README.md). *)

let end_to_end =
  [
    ("setup_s", "s");
    ("compose_s", "s");
    ("recompose_ms", "ms");
    ("peak_rss_mb", "MB");
    ("regs_saved_pct", "%");
  ]

let per_layer =
  [
    ("designgen.generate_s", "s");
    ("designgen.generate_alloc_mw", "Mw");
    ("sta.build_s", "s");
    ("sta.eco_reset_s", "s");
    ("sta.metrics_s", "s");
    ("sta.skew_s", "s");
    ("sta.dirty_pins", "count");
    ("sta.rebuild_fallbacks", "count");
    ("sta.skew_frontier_pins", "count");
    ("sta.skew_level_passes", "count");
    ("compat.graph_s", "s");
    ("compat.pairs_checked", "count");
    ("compat.nodes_dirty", "count");
    ("compat.edges_copied", "count");
    ("allocate.s", "s");
    ("allocate.block_work_s", "s");
    ("allocate.block_crit_s", "s");
    ("allocate.blocks_reused_frac", "ratio");
    ("ilp.solves", "count");
    ("ilp.bb_nodes", "count");
    ("ilp.node_limit_hits", "count");
    ("lp.simplex_pivots", "count");
    ("pool.tasks", "count");
    ("pool.chunks", "count");
    ("merge.s", "s");
    ("merge.blocker_index_s", "s");
    ("merge.n_merges", "count");
    ("merge.displacement_um", "um");
    ("dft.restitch_s", "s");
    ("dft.scan_wl_mm", "mm");
    ("resize.s", "s");
    ("flow.recompose_s", "s");
    ("flow.stage_cover", "ratio");
    ("flow.recompose_alloc_mw", "Mw");
    ("flow.major_gcs", "count");
    ("service.recompose_p50_ms", "ms");
    ("service.recompose_p95_ms", "ms");
    ("service.read_p95_ms", "ms");
    ("service.throughput_rps", "1/s");
    ("service.exec_p50_ms", "ms");
    ("service.nonexec_p50_ms", "ms");
    ("service.nonexec_p95_ms", "ms");
    ("service.load_p50_s", "s");
    ("service.perturb_p50_ms", "ms");
    ("service.telemetry_p50_ms", "ms");
    ("service.query_metrics_p50_ms", "ms");
    ("service.cancelled", "count");
    ("service.overloaded", "count");
    ("service.errors", "count");
    ("service.rss_growth_mb", "MB");
    ("qor.clk_power_saved_pct", "%");
    ("qor.signal_wl_saved_pct", "%");
    ("qor.tns_saved_pct", "%");
    ("obs.trace_dropped", "count");
    ("obs.trace_overhead_ratio", "ratio");
    ("failed_frac", "ratio");
  ]

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  values : (string * float) list;
}

(* %.17g keeps every digit of a double. *)
let num f =
  if not (Float.is_finite f) then invalid_arg "non-finite metric value";
  Printf.sprintf "%.17g" f

let result_line ~trace o =
  let names = if trace then per_layer else end_to_end in
  let metric (name, unit) =
    let v =
      match List.assoc_opt name o.values with
      | Some v -> v
      | None when trace -> 0.0
      | None -> failwith ("end-to-end metric not measured: " ^ name)
    in
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (num v) unit
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    o.correct o.attempted o.failed
    (String.concat ", " (List.map metric names))
