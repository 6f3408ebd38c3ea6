(* Tests for Mbr_route: grid demand accumulation, overflow counting,
   star wirelength and the design-level estimate — the latter also
   against an uncached oracle on generated designs, through a flow and
   random ECO batches. *)

module Point = Mbr_geom.Point
module Rect = Mbr_geom.Rect
module Grid = Mbr_route.Grid
module Estimator = Mbr_route.Estimator
module Design = Mbr_netlist.Design
module Types = Mbr_netlist.Types
module Library = Mbr_liberty.Library
module Presets = Mbr_liberty.Presets
module Floorplan = Mbr_place.Floorplan
module Placement = Mbr_place.Placement
module Flow = Mbr_core.Flow
module G = Mbr_designgen.Generate
module P = Mbr_designgen.Profile
module Eco = Mbr_designgen.Eco
module Rng = Mbr_util.Rng

let check = Alcotest.(check bool)

let checki = Alcotest.(check int)

let checkf = Alcotest.(check (float 1e-9))

let core = Rect.make ~lx:0.0 ~ly:0.0 ~hx:100.0 ~hy:100.0

let grid ?(cap = 2.0) () = Grid.create ~core ~gcell:10.0 ~cap_h:cap ~cap_v:cap

let test_grid_dims () =
  let g = grid () in
  checki "nx" 10 (Grid.nx g);
  checki "ny" 10 (Grid.ny g)

let test_tile_of () =
  let g = grid () in
  check "origin tile" true (Grid.tile_of g (Point.make 0.0 0.0) = (0, 0));
  check "mid tile" true (Grid.tile_of g (Point.make 55.0 25.0) = (5, 2));
  check "clamped" true (Grid.tile_of g (Point.make 1000.0 (-4.0)) = (9, 0))

let test_h_segment_demand () =
  let g = grid () in
  (* segment spanning tiles 1..4 in x crosses 3 edges *)
  Grid.add_h_segment g ~y:5.0 ~x0:15.0 ~x1:45.0 ~demand:1.0;
  checkf "demand" 3.0 (Grid.total_demand g)

let test_v_segment_demand () =
  let g = grid () in
  Grid.add_v_segment g ~x:5.0 ~y0:15.0 ~y1:45.0 ~demand:2.0;
  checkf "demand" 6.0 (Grid.total_demand g)

let test_route_l_symmetric () =
  let g = grid () in
  (* L route across 2 tiles in x and 1 in y: both bends add up to the
     full demand on 3 tile-boundary crossings *)
  Grid.route_l g (Point.make 5.0 5.0) (Point.make 25.0 15.0) ~demand:1.0;
  checkf "total crossings" 3.0 (Grid.total_demand g)

let test_route_l_same_tile () =
  let g = grid () in
  Grid.route_l g (Point.make 2.0 2.0) (Point.make 8.0 8.0) ~demand:1.0;
  checkf "no crossings" 0.0 (Grid.total_demand g)

let test_overflow_counting () =
  let g = grid ~cap:2.0 () in
  checki "no overflow initially" 0 (Grid.overflow_edges g);
  (* push 3 units across one edge: over the 2.0 cap *)
  for _ = 1 to 3 do
    Grid.add_h_segment g ~y:5.0 ~x0:5.0 ~x1:15.0 ~demand:1.0
  done;
  checki "one overflow edge" 1 (Grid.overflow_edges g);
  Grid.reset g;
  checki "reset clears" 0 (Grid.overflow_edges g);
  checkf "reset demand" 0.0 (Grid.total_demand g)

(* ---- Estimator over a real placed design ---- *)

let lib = Presets.default ()

let dff1 = Library.find lib "DFF1_X1"

let attrs =
  Types.
    { lib_cell = dff1; fixed = false; size_only = false; scan = None; gate_enable = None }

let placed_pair () =
  (* two registers connected q1 -> d2, plus a clock net *)
  let d = Design.create ~name:"r" in
  let clk = Design.add_net ~is_clock:true d "clk" in
  let n = Design.add_net d "n" in
  let r1 =
    Design.add_register d "r1" attrs
      (Design.simple_conn ~d:[| None |] ~q:[| Some n |] ~clock:clk)
  in
  let r2 =
    Design.add_register d "r2" attrs
      (Design.simple_conn ~d:[| Some n |] ~q:[| None |] ~clock:clk)
  in
  let fp = Floorplan.make ~core ~row_height:1.2 ~site_width:0.2 in
  let pl = Placement.create fp d in
  Placement.set pl r1 (Point.make 10.0 12.0);
  Placement.set pl r2 (Point.make 40.0 12.0);
  (d, pl, n)

let test_net_star_wl () =
  let _, pl, n = placed_pair () in
  let wl = Estimator.net_star_wl pl n in
  (* two pins: star wl = manhattan distance between them *)
  check "positive" true (wl > 25.0 && wl < 35.0);
  match Placement.net_box pl n with
  | Some box -> checkf "hpwl matches for 2 pins" (Rect.half_perimeter box) wl
  | None -> Alcotest.fail "net has placed pins"

let test_estimate_excludes_clock () =
  let _, pl, n = placed_pair () in
  let r = Estimator.estimate pl in
  (* the clock net spans the same two registers: counting it would
     double the total *)
  checkf "only the data net (clock excluded)" (Estimator.net_star_wl pl n)
    r.Estimator.signal_wl;
  check "wl positive" true (r.Estimator.signal_wl > 0.0);
  checki "no overflow for one net" 0 r.Estimator.overflow_edges

let test_estimate_empty_design () =
  let d = Design.create ~name:"empty" in
  let fp = Floorplan.make ~core ~row_height:1.2 ~site_width:0.2 in
  let pl = Placement.create fp d in
  let r = Estimator.estimate pl in
  checkf "no wl" 0.0 r.Estimator.signal_wl;
  checki "no overflow" 0 r.Estimator.overflow_edges

let test_unplaced_pins_skipped () =
  let d = Design.create ~name:"u" in
  let clk = Design.add_net ~is_clock:true d "clk" in
  let n = Design.add_net d "n" in
  let _r1 =
    Design.add_register d "r1" attrs
      (Design.simple_conn ~d:[| None |] ~q:[| Some n |] ~clock:clk)
  in
  let fp = Floorplan.make ~core ~row_height:1.2 ~site_width:0.2 in
  let pl = Placement.create fp d in
  (* nothing placed: nothing routed *)
  let r = Estimator.estimate pl in
  checkf "nothing routed" 0.0 r.Estimator.signal_wl;
  checki "no demand, no overflow" 0 r.Estimator.overflow_edges

let test_star_center_median () =
  (* three sinks in a line: star center is the median, wl = spread *)
  let d = Design.create ~name:"m" in
  let clk = Design.add_net ~is_clock:true d "clk" in
  let n = Design.add_net d "n" in
  let fp = Floorplan.make ~core ~row_height:1.2 ~site_width:0.2 in
  let pl = Placement.create fp d in
  let reg name x ~drives =
    let conn =
      if drives then Design.simple_conn ~d:[| None |] ~q:[| Some n |] ~clock:clk
      else Design.simple_conn ~d:[| Some n |] ~q:[| None |] ~clock:clk
    in
    let r = Design.add_register d name attrs conn in
    Placement.set pl r (Point.make x 12.0);
    r
  in
  let _ = reg "a" 0.0 ~drives:true in
  let _ = reg "b" 20.0 ~drives:false in
  let _ = reg "c" 50.0 ~drives:false in
  let wl = Estimator.net_star_wl pl n in
  (* pins at x ~ 0/20/50 (pin offsets shift all equally): star from the
     median pin ~= 50 total in x *)
  check "around 50" true (wl > 45.0 && wl < 56.0)

(* ---- the oracle: the estimate over freshly built pin lists ---- *)

(* The estimate as it was before it read the placement's per-net
   cache: every net's pin list rebuilt from the design, skipping dead
   and unplaced cells, then the same star + L-route walk. The library
   must match it bit for bit: same pins, same order, same sums. *)
let oracle_pin_points pl nid =
  let dsg = Placement.design pl in
  List.filter_map
    (fun pid ->
      let p = Design.pin dsg pid in
      if (Design.cell dsg p.Types.p_cell).Types.c_dead then None
      else
        match Placement.location_opt pl p.Types.p_cell with
        | Some _ -> Some (Placement.pin_location pl pid)
        | None -> None)
    (Design.net_pins dsg nid)

let oracle_median xs =
  let arr = Array.of_list xs in
  Array.sort compare arr;
  let n = Array.length arr in
  if n = 0 then 0.0
  else if n mod 2 = 1 then arr.(n / 2)
  else (arr.((n / 2) - 1) +. arr.(n / 2)) /. 2.0

let oracle_estimate pl =
  let cfg = Estimator.default_config in
  let dsg = Placement.design pl in
  let grid =
    Grid.create ~core:(Placement.floorplan pl).Floorplan.core
      ~gcell:cfg.Estimator.gcell ~cap_h:cfg.Estimator.cap_h
      ~cap_v:cfg.Estimator.cap_v
  in
  let wl = ref 0.0 in
  for nid = 0 to Design.n_nets dsg - 1 do
    if not (Design.net dsg nid).Types.n_is_clock then
      match oracle_pin_points pl nid with
      | [] | [ _ ] -> ()
      | pts ->
        let c =
          Point.make
            (oracle_median (List.map (fun (p : Point.t) -> p.x) pts))
            (oracle_median (List.map (fun (p : Point.t) -> p.y) pts))
        in
        List.iter
          (fun p ->
            wl := !wl +. Point.manhattan c p;
            Grid.route_l grid c p ~demand:1.0)
          pts
  done;
  (!wl, Grid.overflow_edges grid)

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* The generators of the ECO-equivalence suite (test_flow_eco): a
   half-scale tiny profile, then identically-seeded perturbation
   batches. Checked on the generated design, after a flow, after each
   ECO batch, and after a flow over the perturbed design. *)
let estimate_matches_oracle =
  QCheck.Test.make ~name:"estimate = uncached oracle through flows and ECOs"
    ~count:20
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let g = G.generate (P.scaled (P.tiny ~seed:(seed mod 37)) 0.5) in
      let pl = g.G.placement in
      let agrees stage =
        let r = Estimator.estimate pl in
        let wl, ovfl = oracle_estimate pl in
        if not (same_bits r.Estimator.signal_wl wl) then
          QCheck.Test.fail_reportf "seed %d %s: signal_wl %h vs oracle %h" seed
            stage r.Estimator.signal_wl wl;
        if r.Estimator.overflow_edges <> ovfl then
          QCheck.Test.fail_reportf "seed %d %s: overflow %d vs oracle %d" seed
            stage r.Estimator.overflow_edges ovfl;
        true
      in
      let flow () =
        ignore
          (Flow.run ~design:g.G.design ~placement:pl ~library:g.G.library
             ~sta_config:g.G.sta_config ())
      in
      agrees "generated"
      && (flow (); agrees "after flow")
      && (ignore (Eco.perturb (Rng.create ((seed * 31) + 1)) g);
          agrees "after ECO 1")
      && (ignore (Eco.perturb (Rng.create ((seed * 31) + 2)) g);
          agrees "after ECO 2")
      && (flow (); agrees "after ECO flow"))

let () =
  Alcotest.run "mbr_route"
    [
      ( "grid",
        [
          Alcotest.test_case "dims" `Quick test_grid_dims;
          Alcotest.test_case "tile_of" `Quick test_tile_of;
          Alcotest.test_case "h segment" `Quick test_h_segment_demand;
          Alcotest.test_case "v segment" `Quick test_v_segment_demand;
          Alcotest.test_case "L route" `Quick test_route_l_symmetric;
          Alcotest.test_case "same tile" `Quick test_route_l_same_tile;
          Alcotest.test_case "overflow" `Quick test_overflow_counting;
        ] );
      ( "estimator",
        [
          Alcotest.test_case "star wl" `Quick test_net_star_wl;
          Alcotest.test_case "clock excluded" `Quick test_estimate_excludes_clock;
          Alcotest.test_case "empty design" `Quick test_estimate_empty_design;
          Alcotest.test_case "unplaced skipped" `Quick test_unplaced_pins_skipped;
          Alcotest.test_case "median star center" `Quick test_star_center_median;
          QCheck_alcotest.to_alcotest estimate_matches_oracle;
        ] );
    ]
