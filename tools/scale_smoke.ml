(* Large-scale smoke check for CI: generate a scaled D1 profile, run
   the full composition flow serially (jobs = 1) and fail loudly if
   wall time or peak RSS blow past the ceilings.

   The point is not a benchmark — BENCH.json owns the numbers — but a
   regression tripwire for the memory-and-scaling work: a quadratic
   slip in the compat graph, candidate enumeration or the STA engine
   turns a ~25 s run into minutes, and a per-pair materialization
   turns ~600 MB into many GB. The ceilings carry generous headroom
   over the measured scale-8 footprint (flow + generate ~26 s, peak
   RSS ~580 MB on a loaded 1-core host) so the check survives machine
   noise while still catching complexity-class regressions.

   The skew stage gets its own ceiling: it used to dominate large runs
   (convergence-driven per-register cone chasing), and the levelized
   batched propagation is exactly the kind of win a quadratic slip
   would silently undo while hiding inside the total wall headroom.

   Merge and scan-restitch get one ceiling each for the same reason:
   both were quadratic (list-based net membership, list-based
   nearest-neighbour chain walk) and took ~0.65 s and ~0.38 s at scale
   8; with O(1) membership edits and the grid walk they take ~0.17 s
   and ~0.06 s on a 2-core host. The ceilings sit between the two, so a
   slip back to the quadratic code trips them while noise does not:
   merge 0.45 s, scan-restitch 0.25 s.

   Usage: scale_smoke.exe [SCALE] [WALL_CEILING_S] [RSS_CEILING_MB] [SKEW_CEILING_S]
   Defaults: 8.0, 180 s, 2048 MB, 20 s. *)

module P = Mbr_designgen.Profile
module G = Mbr_designgen.Generate

let () =
  Mbr_util.Runtime.tune ();
  let arg i default =
    if Array.length Sys.argv > i then float_of_string Sys.argv.(i) else default
  in
  let scale = arg 1 8.0 in
  let wall_ceiling = arg 2 180.0 in
  let rss_ceiling = arg 3 2048.0 in
  let skew_ceiling = arg 4 20.0 in
  let p = P.scaled P.d1 scale in
  Printf.printf "scale-smoke: scale %.1f (%d registers), jobs 1\n%!" scale
    p.P.n_registers;
  let t0 = Unix.gettimeofday () in
  let g = G.generate p in
  let r =
    Mbr_core.Flow.run ~design:g.G.design ~placement:g.G.placement
      ~library:g.G.library ~sta_config:g.G.sta_config ()
  in
  let wall = Unix.gettimeofday () -. t0 in
  let rss = Mbr_obs.Rss.peak_mb () in
  Printf.printf
    "scale-smoke: wall %.1f s (flow %.1f s), merges %d, peak rss %s\n%!" wall
    r.Mbr_core.Flow.runtime_s r.Mbr_core.Flow.n_merges
    (match rss with Some m -> Printf.sprintf "%.0f MB" m | None -> "n/a");
  let failed = ref false in
  List.iter
    (fun (stage, ceiling) ->
      let s =
        match List.assoc_opt stage r.Mbr_core.Flow.stage_times with
        | Some s -> s
        | None -> 0.0
      in
      Printf.printf "scale-smoke: %s stage %.2f s\n%!" stage s;
      if s > ceiling then begin
        Printf.printf "scale-smoke: FAIL %s stage %.2f s > ceiling %.2f s\n%!"
          stage s ceiling;
        failed := true
      end)
    [
      ("skew", skew_ceiling);
      ("merge", 0.45);
      ("scan-restitch", 0.25);
    ];
  if wall > wall_ceiling then begin
    Printf.printf "scale-smoke: FAIL wall %.1f s > ceiling %.0f s\n%!" wall
      wall_ceiling;
    failed := true
  end;
  (match rss with
  | Some m when m > rss_ceiling ->
    Printf.printf "scale-smoke: FAIL peak rss %.0f MB > ceiling %.0f MB\n%!" m
      rss_ceiling;
    failed := true
  | Some _ -> ()
  | None ->
    (* no /proc/self/status (non-Linux): wall ceiling still applies *)
    print_endline "scale-smoke: rss unavailable, skipping memory check");
  if r.Mbr_core.Flow.n_merges = 0 then begin
    print_endline "scale-smoke: FAIL flow produced no merges";
    failed := true
  end;
  if !failed then exit 1;
  print_endline "scale-smoke: ok"
