(* Equivalence properties backing the streaming/worklist rewrites and
   the multi-corner engine:
   - the streaming candidate enumerator, when materialized, is exactly
     the list-building enumeration (same candidates, same order);
   - the worklist-driven skew optimizer is bit-identical to the
     whole-design reference sweep kept here as the oracle — same
     report, same final per-register skews;
   - an engine analyzing one unit-derate corner is bit-identical to
     the default (pre-corner) engine, through builds AND refreshes —
     the corner-indexed arrays are a pure generalization, never a
     numeric drift. *)

module Candidate = Mbr_core.Candidate
module Compat = Mbr_core.Compat
module Allocate = Mbr_core.Allocate
module Spatial = Mbr_geom.Spatial
module Design = Mbr_netlist.Design
module Engine = Mbr_sta.Engine
module Corner = Mbr_sta.Corner
module Skew = Mbr_sta.Skew
module Kpart = Mbr_graph.Kpart
module G = Mbr_designgen.Generate
module P = Mbr_designgen.Profile
module Eco = Mbr_designgen.Eco
module Rng = Mbr_util.Rng

let blocker_index_of graph =
  let idx = Spatial.create () in
  Array.iter
    (fun i -> Spatial.add idx i.Compat.cid i.Compat.center)
    graph.Compat.infos;
  idx

(* Candidate.iter collected into a list must equal Candidate.enumerate
   on every block the partitioner produces — streaming changes when
   work happens, never what is produced. *)
let streaming_matches_materialized =
  QCheck.Test.make ~name:"candidate stream = materialized enumeration"
    ~count:30
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let g = G.generate (P.scaled (P.tiny ~seed:(seed mod 37)) 0.5) in
      let eng = Engine.build ~config:g.G.sta_config g.G.placement in
      let graph = fst (Compat.refresh eng g.G.library) in
      let position v = graph.Compat.infos.(v).Compat.center in
      let blocks = Kpart.partition graph.Compat.adj ~position in
      let blocker_index = blocker_index_of graph in
      let cfg = Candidate.default_config in
      let ok = ref true in
      List.iter
        (fun block ->
          let materialized =
            Candidate.enumerate cfg graph ~block ~lib:g.G.library ~blocker_index
          in
          let streamed = ref [] in
          Candidate.iter cfg graph ~block ~lib:g.G.library ~blocker_index
            (fun c -> streamed := c :: !streamed);
          let streamed = List.rev !streamed in
          if streamed <> materialized then begin
            ok := false;
            QCheck.Test.fail_reportf
              "seed %d: block of %d nodes: stream has %d candidates, \
               materialized %d (or order/content differs)"
              seed (List.length block) (List.length streamed)
              (List.length materialized)
          end)
        blocks;
      !ok)

(* The reference useful-skew sweep: every register's D/Q slacks read
   each iteration, in no particular order, and a damped balancing step
   (δ* = (s_Q − s_D)/2, or the whole violation for a one-sided
   register) applied Jacobi-style, clamped to the bound. Keeps the
   best (tns, wns) assignment seen, like [Skew.optimize]. *)
let reference_skew (cfg : Skew.config) eng =
  Engine.refresh eng;
  let regs, _ = Engine.register_index eng in
  let n = Array.length regs in
  let wns_before, tns_before = Engine.wns_tns eng in
  let clamp v = Float.max (-.cfg.Skew.bound) (Float.min cfg.Skew.bound v) in
  let step s_d s_q =
    if Float.is_finite s_d && Float.is_finite s_q then begin
      if Float.min s_d s_q < 0.0 then (s_q -. s_d) /. 2.0 *. cfg.Skew.damping
      else 0.0
    end
    else if Float.is_finite s_d && s_d < 0.0 then -.s_d *. cfg.Skew.damping
    else if Float.is_finite s_q && s_q < 0.0 then s_q *. cfg.Skew.damping
    else 0.0
  in
  let cur = Array.init n (fun i -> Engine.skew eng regs.(i)) in
  let best = Array.copy cur in
  let best_tns = ref tns_before and best_wns = ref wns_before in
  let sweeps = ref 0 in
  (try
     for _ = 1 to cfg.Skew.iterations do
       incr sweeps;
       let moves = ref [] in
       for i = n - 1 downto 0 do
         let r = regs.(i) in
         let delta =
           step (Engine.reg_d_slack eng r) (Engine.reg_q_slack eng r)
         in
         let next = clamp (cur.(i) +. delta) in
         if Float.abs (next -. cur.(i)) > 0.5 then moves := (i, next) :: !moves
       done;
       if !moves = [] then raise Exit;
       Engine.update_skews eng
         (List.map (fun (i, next) -> (regs.(i), next)) !moves);
       List.iter (fun (i, next) -> cur.(i) <- next) !moves;
       let wns, tns = Engine.wns_tns eng in
       if (tns, wns) > (!best_tns, !best_wns) then begin
         best_tns := tns;
         best_wns := wns;
         Array.blit cur 0 best 0 n
       end
     done
   with Exit -> ());
  let restore = ref [] in
  for i = n - 1 downto 0 do
    if cur.(i) <> best.(i) then restore := (regs.(i), best.(i)) :: !restore
  done;
  if !restore <> [] then Engine.update_skews eng !restore;
  let wns_after, tns_after = Engine.wns_tns eng in
  {
    Skew.wns_before;
    wns_after;
    tns_before;
    tns_after;
    max_abs_skew =
      Array.fold_left (fun acc s -> Float.max acc (Float.abs s)) 0.0 best;
    sweeps_run = !sweeps;
  }

(* The worklist sweep must be indistinguishable from the full sweep:
   identical report fields and identical final skew on every register,
   including designs with real violations (shrunk clock period). *)
let worklist_skew_matches_full_sweep =
  QCheck.Test.make ~name:"worklist skew = full-sweep skew"
    ~count:25
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let g = G.generate (P.scaled (P.tiny ~seed:(seed mod 37)) 0.5) in
      (* shrink the period on odd seeds so violations actually exist *)
      let factor = if seed mod 2 = 0 then 1.0 else 0.55 +. (0.1 *. float_of_int (seed mod 4)) in
      let config =
        { g.G.sta_config with
          Engine.clock_period = g.G.sta_config.Engine.clock_period *. factor }
      in
      let eng_work = Engine.build ~config g.G.placement in
      let eng_full = Engine.build ~config g.G.placement in
      let rep_work = Skew.optimize eng_work in
      let rep_full = reference_skew Skew.default_config eng_full in
      let ok = ref true in
      let fail fmt = ok := false; QCheck.Test.fail_reportf fmt in
      if rep_work <> rep_full then
        fail
          "seed %d: reports differ: worklist (tns %.17g wns %.17g sweeps %d) \
           vs full (tns %.17g wns %.17g sweeps %d)"
          seed rep_work.Skew.tns_after rep_work.Skew.wns_after
          rep_work.Skew.sweeps_run rep_full.Skew.tns_after
          rep_full.Skew.wns_after rep_full.Skew.sweeps_run;
      List.iter
        (fun r ->
          let s_work = Engine.skew eng_work r and s_full = Engine.skew eng_full r in
          if s_work <> s_full then
            fail "seed %d: register %d skew %.17g (worklist) <> %.17g (full)"
              seed r s_work s_full)
        (Design.registers g.G.design);
      !ok)

(* A single unit-derate corner — whatever its name — must be
   indistinguishable from the default engine, bit for bit: same wns /
   tns / failing counts and identical arrival / required on every pin.
   The property must survive {!Engine.refresh} too, because the
   incremental path re-times only dirty regions: both engines watch the
   same design/placement objects, so one ECO batch drives both and any
   corner-indexed refresh bug shows up as a pin-level mismatch. *)
let unit_corner_matches_default =
  QCheck.Test.make ~name:"1 unit corner engine = default engine (bit-exact)"
    ~count:30
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let g = G.generate (P.tiny ~seed:(seed mod 37)) in
      let unit = Corner.make ~name:"u" ~cell:1.0 ~wire:1.0 ~setup:1.0 in
      let eng_default = Engine.build ~config:g.G.sta_config g.G.placement in
      let eng_unit =
        Engine.build ~config:g.G.sta_config ~corners:[| unit |] g.G.placement
      in
      let fail fmt = QCheck.Test.fail_reportf fmt in
      let compare_engines what =
        Engine.analyze eng_default;
        Engine.analyze eng_unit;
        if Engine.wns eng_default <> Engine.wns eng_unit then
          fail "seed %d (%s): wns %.17g (default) <> %.17g (unit corner)" seed
            what (Engine.wns eng_default) (Engine.wns eng_unit);
        if Engine.tns eng_default <> Engine.tns eng_unit then
          fail "seed %d (%s): tns %.17g (default) <> %.17g (unit corner)" seed
            what (Engine.tns eng_default) (Engine.tns eng_unit);
        if
          Engine.failing_endpoints eng_default
          <> Engine.failing_endpoints eng_unit
        then
          fail "seed %d (%s): failing endpoints %d <> %d" seed what
            (Engine.failing_endpoints eng_default)
            (Engine.failing_endpoints eng_unit);
        for pid = 0 to Design.n_pins g.G.design - 1 do
          if Engine.arrival eng_default pid <> Engine.arrival eng_unit pid then
            fail "seed %d (%s): arrival mismatch at pin %d" seed what pid;
          if Engine.required eng_default pid <> Engine.required eng_unit pid
          then fail "seed %d (%s): required mismatch at pin %d" seed what pid
        done
      in
      compare_engines "fresh build";
      (* same ECO batch hits both engines (shared design/placement);
         the refreshed timings must stay bit-identical *)
      let rng = Rng.create ((seed * 13) + 5) in
      for round = 1 to 2 do
        ignore (Eco.perturb rng g);
        Engine.refresh eng_default;
        Engine.refresh eng_unit;
        compare_engines (Printf.sprintf "refresh %d" round)
      done;
      true)

(* The levelized batched [update_skews] must be bit-identical to the
   brute-force reference: set the same skews and run a full [analyze].
   Exercised over random skew batches interleaved with real ECO
   perturbations + [refresh] (which invalidates the cached propagation
   plan), under 1- and 3-corner sets, and with a cancel token tripping
   mid-batch — a batch is atomic, so a tripped token must leave exactly
   the planes an uncancelled call would. Also checks the
   [update_skews_touched] contract: any register whose D/Q slack moved
   is in the reported set. *)
let batched_update_skews_matches_analyze =
  QCheck.Test.make ~name:"batched update_skews = set_skew + analyze"
    ~count:20
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let g = G.generate (P.scaled (P.tiny ~seed:(seed mod 37)) 0.5) in
      let corners =
        if seed mod 2 = 0 then [| Corner.default.(0) |]
        else
          [|
            Corner.make ~name:"fast" ~cell:0.9 ~wire:0.85 ~setup:1.0;
            Corner.make ~name:"typ" ~cell:1.0 ~wire:1.0 ~setup:1.0;
            Corner.make ~name:"slow" ~cell:1.15 ~wire:1.25 ~setup:1.05;
          |]
      in
      let config =
        { g.G.sta_config with
          Engine.clock_period = g.G.sta_config.Engine.clock_period *. 0.7 }
      in
      let eng = Engine.build ~config ~corners g.G.placement in
      let ref_eng = Engine.build ~config ~corners g.G.placement in
      Engine.analyze eng;
      Engine.analyze ref_eng;
      let rng = Rng.create ((seed * 31) + 7) in
      let regs = Array.of_list (Design.registers g.G.design) in
      let fail fmt = QCheck.Test.fail_reportf fmt in
      let compare_engines what =
        if Engine.wns_tns eng <> Engine.wns_tns ref_eng then
          fail "seed %d (%s): wns/tns differ" seed what;
        for pid = 0 to Design.n_pins g.G.design - 1 do
          for k = 0 to Array.length corners - 1 do
            if Engine.corner_slack eng k pid <> Engine.corner_slack ref_eng k pid
            then
              fail "seed %d (%s): corner %d slack mismatch at pin %d" seed what
                k pid
          done
        done
      in
      let slacks_of e =
        Array.map
          (fun r -> (Engine.reg_d_slack e r, Engine.reg_q_slack e r))
          regs
      in
      for round = 1 to 4 do
        (* a random batch: some fresh offsets, some reverts to 0 *)
        let batch = ref [] in
        let n_moves = 1 + Rng.int rng 8 in
        for _ = 1 to n_moves do
          let r = regs.(Rng.int rng (Array.length regs)) in
          let s =
            if Rng.chance rng 0.25 then 0.0 else Rng.float rng 40.0 -. 20.0
          in
          if not (List.mem_assoc r !batch) then batch := (r, s) :: !batch
        done;
        let before = slacks_of eng in
        (* cancel tokens tripping mid-batch must not change the result:
           the batch is atomic *)
        let cancel =
          if round mod 2 = 0 then
            Some (Mbr_util.Cancel.after_checks (1 + Rng.int rng 3))
          else None
        in
        let touched = Engine.update_skews_touched ?cancel eng !batch in
        List.iter (fun (r, s) -> Engine.set_skew ref_eng r s) !batch;
        Engine.analyze ref_eng;
        compare_engines (Printf.sprintf "round %d" round);
        let after = slacks_of eng in
        Array.iteri
          (fun i r ->
            if before.(i) <> after.(i) && not (List.mem r touched) then
              fail "seed %d round %d: register %d slack moved but not touched"
                seed round r)
          regs;
        (* every other round, a real ECO + refresh: the cached
           propagation plan must be rebuilt, not reused stale *)
        if round mod 2 = 1 then begin
          ignore (Eco.perturb rng g);
          Engine.refresh eng;
          Engine.refresh ref_eng;
          compare_engines (Printf.sprintf "post-eco %d" round)
        end
      done;
      true)

(* Per-corner parallel propagation must be bit-identical to the serial
   all-corners pass — planes, wns/tns, and the touched-register list. *)
let parallel_corners_match_serial =
  QCheck.Test.make ~name:"parallel per-corner update_skews = serial"
    ~count:15
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let g = G.generate (P.scaled (P.tiny ~seed:(seed mod 37)) 0.5) in
      let corners =
        [|
          Corner.make ~name:"fast" ~cell:0.9 ~wire:0.85 ~setup:1.0;
          Corner.make ~name:"typ" ~cell:1.0 ~wire:1.0 ~setup:1.0;
          Corner.make ~name:"slow" ~cell:1.15 ~wire:1.25 ~setup:1.05;
        |]
      in
      let config =
        { g.G.sta_config with
          Engine.clock_period = g.G.sta_config.Engine.clock_period *. 0.7 }
      in
      let par = Engine.build ~config ~corners g.G.placement in
      let ser = Engine.build ~config ~corners g.G.placement in
      Engine.analyze par;
      Engine.analyze ser;
      let rng = Rng.create ((seed * 17) + 3) in
      let regs = Array.of_list (Design.registers g.G.design) in
      let fail fmt = QCheck.Test.fail_reportf fmt in
      for round = 1 to 3 do
        let batch = ref [] in
        for _ = 1 to 1 + Rng.int rng 6 do
          let r = regs.(Rng.int rng (Array.length regs)) in
          if not (List.mem_assoc r !batch) then
            batch := (r, Rng.float rng 40.0 -. 20.0) :: !batch
        done;
        let t_par = Engine.update_skews_touched ~jobs:4 par !batch in
        let t_ser = Engine.update_skews_touched ser !batch in
        if t_par <> t_ser then
          fail "seed %d round %d: touched lists differ (%d vs %d)" seed round
            (List.length t_par) (List.length t_ser);
        if Engine.wns_tns par <> Engine.wns_tns ser then
          fail "seed %d round %d: wns/tns differ" seed round;
        for pid = 0 to Design.n_pins g.G.design - 1 do
          for k = 0 to 2 do
            if Engine.corner_slack par k pid <> Engine.corner_slack ser k pid
            then fail "seed %d round %d: corner %d pin %d differs" seed round k pid
          done
        done
      done;
      true)

let () =
  Alcotest.run "mbr.equivalence"
    [
      ( "streaming",
        [ QCheck_alcotest.to_alcotest streaming_matches_materialized ] );
      ( "skew",
        [
          QCheck_alcotest.to_alcotest worklist_skew_matches_full_sweep;
          QCheck_alcotest.to_alcotest batched_update_skews_matches_analyze;
          QCheck_alcotest.to_alcotest parallel_corners_match_serial;
        ] );
      ( "corners",
        [ QCheck_alcotest.to_alcotest unit_corner_matches_default ] );
    ]
