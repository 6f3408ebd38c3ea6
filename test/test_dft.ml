(* Tests for Mbr_dft.Scan_stitch: chain construction, verification,
   ordered-section order, per-bit-scan threading, idempotency, and
   integration with the composition flow. *)

module Scan_stitch = Mbr_dft.Scan_stitch
module Design = Mbr_netlist.Design
module Types = Mbr_netlist.Types
module Library = Mbr_liberty.Library
module Presets = Mbr_liberty.Presets
module Cell_lib = Mbr_liberty.Cell
module Point = Mbr_geom.Point
module Rect = Mbr_geom.Rect
module Floorplan = Mbr_place.Floorplan
module Placement = Mbr_place.Placement
module Flow = Mbr_core.Flow
module G = Mbr_designgen.Generate
module P = Mbr_designgen.Profile

let check = Alcotest.(check bool)

let checki = Alcotest.(check int)

let lib = Presets.default ()

let core = Rect.make ~lx:0.0 ~ly:0.0 ~hx:60.0 ~hy:60.0

let fp = Floorplan.make ~core ~row_height:1.2 ~site_width:0.2

let fresh () =
  let d = Design.create ~name:"dft" in
  let clk = Design.add_net ~is_clock:true d "clk" in
  let _ = Design.add_clock_root d "uclk" clk in
  let rst = Design.add_net d "rst" in
  let se = Design.add_net d "se" in
  let pl = Placement.create fp d in
  (d, pl, clk, rst, se)

let add_scan_reg d pl clk rst se ~name ~cell ~partition ?section x =
  let attrs =
    Types.
      {
        lib_cell = cell;
        fixed = false;
        size_only = false;
        scan = Some { partition; section };
        gate_enable = None;
      }
  in
  let bits = cell.Cell_lib.bits in
  let conn =
    {
      Design.d_nets = Array.make bits None;
      q_nets = Array.make bits None;
      clock = clk;
      reset = Some rst;
      scan_enable = Some se;
      scan_ins = [];
      scan_outs = [];
    }
  in
  let r = Design.add_register d name attrs conn in
  Placement.set pl r (Point.make x 2.4);
  r

let sdffr1 = Library.find lib "SDFFR1_X1"

let sdffr2 = Library.find lib "SDFFR2_X1"

let sdffr4_pb = Library.find lib "SDFFR4_X1_PB"

let test_single_chain () =
  let d, pl, clk, rst, se = fresh () in
  let _r1 = add_scan_reg d pl clk rst se ~name:"a" ~cell:sdffr1 ~partition:0 5.0 in
  let _r2 = add_scan_reg d pl clk rst se ~name:"b" ~cell:sdffr1 ~partition:0 10.0 in
  let _r3 = add_scan_reg d pl clk rst se ~name:"c" ~cell:sdffr1 ~partition:0 15.0 in
  let r = Scan_stitch.stitch pl in
  checki "one chain" 1 r.Scan_stitch.n_chains;
  checki "three hops" 3 r.Scan_stitch.n_hops;
  check "wire measured" true (r.Scan_stitch.wirelength > 0.0);
  Alcotest.(check (list string)) "verified" [] (Scan_stitch.verify d);
  Alcotest.(check (list string)) "netlist valid" [] (Design.validate d)

let test_partitions_get_separate_chains () =
  let d, pl, clk, rst, se = fresh () in
  let _ = add_scan_reg d pl clk rst se ~name:"a" ~cell:sdffr1 ~partition:0 5.0 in
  let _ = add_scan_reg d pl clk rst se ~name:"b" ~cell:sdffr1 ~partition:1 10.0 in
  let r = Scan_stitch.stitch pl in
  checki "two chains" 2 r.Scan_stitch.n_chains;
  check "two SI ports" true
    (Design.find_cell d "scan_si0" <> None && Design.find_cell d "scan_si1" <> None);
  Alcotest.(check (list string)) "verified" [] (Scan_stitch.verify d)

let test_nearest_neighbour_order () =
  (* registers placed 0, 20, 10: chain should visit 0 -> 10 -> 20, not
     input order *)
  let d, pl, clk, rst, se = fresh () in
  let _ = add_scan_reg d pl clk rst se ~name:"a" ~cell:sdffr1 ~partition:0 0.5 in
  let _ = add_scan_reg d pl clk rst se ~name:"b" ~cell:sdffr1 ~partition:0 20.0 in
  let _ = add_scan_reg d pl clk rst se ~name:"c" ~cell:sdffr1 ~partition:0 10.0 in
  let r = Scan_stitch.stitch pl in
  (* greedy walk: total wire ~ 20 plus pin offsets, not ~ 40 *)
  check "short chain" true (r.Scan_stitch.wirelength < 30.0);
  Alcotest.(check (list string)) "verified" [] (Scan_stitch.verify d)

let test_ordered_sections_first_and_in_order () =
  let d, pl, clk, rst, se = fresh () in
  (* section positions deliberately anti-spatial *)
  let _ = add_scan_reg d pl clk rst se ~name:"s2" ~cell:sdffr1 ~partition:0
      ~section:(1, 2) 2.0 in
  let _ = add_scan_reg d pl clk rst se ~name:"s0" ~cell:sdffr1 ~partition:0
      ~section:(1, 0) 20.0 in
  let _ = add_scan_reg d pl clk rst se ~name:"s1" ~cell:sdffr1 ~partition:0
      ~section:(1, 1) 10.0 in
  let _ = add_scan_reg d pl clk rst se ~name:"free" ~cell:sdffr1 ~partition:0 5.0 in
  let _ = Scan_stitch.stitch pl in
  Alcotest.(check (list string)) "verified (order included)" []
    (Scan_stitch.verify d)

let test_internal_scan_mbr_one_hop () =
  let d, pl, clk, rst, se = fresh () in
  let _ = add_scan_reg d pl clk rst se ~name:"m" ~cell:sdffr2 ~partition:0 5.0 in
  let r = Scan_stitch.stitch pl in
  checki "2-bit internal-scan cell = one hop" 1 r.Scan_stitch.n_hops;
  Alcotest.(check (list string)) "verified" [] (Scan_stitch.verify d)

let test_per_bit_scan_threads_every_bit () =
  let d, pl, clk, rst, se = fresh () in
  let _ = add_scan_reg d pl clk rst se ~name:"pb" ~cell:sdffr4_pb ~partition:0 5.0 in
  let r = Scan_stitch.stitch pl in
  checki "4 hops for a per-bit 4-bit cell" 4 r.Scan_stitch.n_hops;
  Alcotest.(check (list string)) "verified" [] (Scan_stitch.verify d)

let test_restitch_idempotent () =
  let d, pl, clk, rst, se = fresh () in
  let _ = add_scan_reg d pl clk rst se ~name:"a" ~cell:sdffr1 ~partition:0 5.0 in
  let _ = add_scan_reg d pl clk rst se ~name:"b" ~cell:sdffr1 ~partition:0 10.0 in
  let r1 = Scan_stitch.stitch pl in
  let r2 = Scan_stitch.stitch pl in
  checki "same hops" r1.Scan_stitch.n_hops r2.Scan_stitch.n_hops;
  Alcotest.(check (list string)) "still verified" [] (Scan_stitch.verify d);
  Alcotest.(check (list string)) "netlist valid after restitch" [] (Design.validate d)

let test_verify_catches_broken_chain () =
  let d, pl, clk, rst, se = fresh () in
  let r1 = add_scan_reg d pl clk rst se ~name:"a" ~cell:sdffr1 ~partition:0 5.0 in
  let _ = add_scan_reg d pl clk rst se ~name:"b" ~cell:sdffr1 ~partition:0 10.0 in
  let _ = Scan_stitch.stitch pl in
  (* snip the chain mid-way *)
  (match Design.pin_of d r1 (Types.Pin_scan_out 0) with
  | Some pid -> Design.disconnect d pid
  | None -> Alcotest.fail "SO pin");
  check "verify reports a problem" true (Scan_stitch.verify d <> [])

(* Reference chain order: the original list-based greedy walk, O(m²)
   per partition. Each step folds over the remaining registers (kept in
   ascending cid order) and keeps the first minimum, so it picks the
   least distance and then the least cid — the contract the grid walk
   in [Scan_stitch.chain_order] must reproduce exactly. *)
let oracle_chain_order pl members =
  let dsg = Placement.design pl in
  let sectioned, free =
    List.partition
      (fun cid ->
        match (Design.reg_attrs dsg cid).Types.scan with
        | Some { Types.section = Some _; _ } -> true
        | Some { Types.section = None; _ } | None -> false)
      members
  in
  let sec_key cid =
    match (Design.reg_attrs dsg cid).Types.scan with
    | Some { Types.section = Some (sec, pos); _ } -> (sec, pos, cid)
    | Some { Types.section = None; _ } | None -> (max_int, 0, cid)
  in
  let sectioned = List.sort (fun a b -> compare (sec_key a) (sec_key b)) sectioned in
  let pos_of cid =
    match Placement.location_opt pl cid with
    | Some _ -> Some (Placement.center pl cid)
    | None -> None
  in
  let placed_free, unplaced_free = List.partition (fun c -> pos_of c <> None) free in
  let start =
    match List.rev sectioned with
    | last :: _ -> pos_of last
    | [] -> None
  in
  let rec walk at remaining acc =
    match remaining with
    | [] -> List.rev acc
    | _ ->
      let dist c =
        match (at, pos_of c) with
        | Some p, Some q -> Point.manhattan p q
        | _, _ -> 0.0
      in
      let next =
        List.fold_left
          (fun best c ->
            match best with
            | Some (b, bd) when bd <= dist c -> Some (b, bd)
            | Some _ | None -> Some (c, dist c))
          None remaining
      in
      (match next with
      | Some (c, _) ->
        walk (pos_of c) (List.filter (fun x -> x <> c) remaining) (c :: acc)
      | None -> List.rev acc)
  in
  let start =
    match (start, placed_free) with
    | None, c :: _ -> pos_of c
    | s, _ -> s
  in
  sectioned @ walk start placed_free [] @ unplaced_free

(* Random partition: positions drawn from a coarse lattice (many exact
   duplicates and ties), from a continuous range, or far outliers;
   some registers unplaced, some in ordered sections. *)
let random_partition seed =
  let rng = Mbr_util.Rng.create seed in
  let d, pl, clk, rst, se = fresh () in
  let n = 1 + Mbr_util.Rng.int rng 80 in
  let lattice = 1 + Mbr_util.Rng.int rng 6 in
  for k = 0 to n - 1 do
    let section =
      if Mbr_util.Rng.chance rng 0.2 then
        Some (Mbr_util.Rng.int rng 3, Mbr_util.Rng.int rng 10)
      else None
    in
    let coord () =
      match Mbr_util.Rng.int rng 10 with
      | 0 -> Mbr_util.Rng.float_in rng 0.0 5000.0
      | 1 | 2 | 3 -> Mbr_util.Rng.float_in rng 0.0 58.0
      | _ -> 2.5 *. float_of_int (Mbr_util.Rng.int rng lattice)
    in
    let x = coord () and y = coord () in
    let r =
      add_scan_reg d pl clk rst se ~name:(Printf.sprintf "r%d" k) ~cell:sdffr1
        ~partition:0 ?section x
    in
    if Mbr_util.Rng.chance rng 0.15 then Placement.remove pl r
    else Placement.set pl r (Point.make x y)
  done;
  (pl, Design.registers d)

let grid_order_matches_oracle =
  QCheck.Test.make ~name:"grid chain order = quadratic-walk oracle" ~count:300
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let pl, members = random_partition seed in
      Scan_stitch.chain_order pl members = oracle_chain_order pl members)

let test_generated_design_chains_ok () =
  let g = G.generate (P.tiny ~seed:606) in
  Alcotest.(check (list string)) "chains verified at generation" []
    (Scan_stitch.verify g.G.design)

let test_flow_restitches () =
  let g = G.generate (P.tiny ~seed:607) in
  let r =
    Flow.run ~design:g.G.design ~placement:g.G.placement ~library:g.G.library
      ~sta_config:g.G.sta_config ()
  in
  check "merges happened" true (r.Flow.n_merges > 0);
  check "scan wl reported" true (r.Flow.scan_chain_wl > 0.0);
  Alcotest.(check (list string)) "chains verified after composition" []
    (Scan_stitch.verify g.G.design);
  Alcotest.(check (list string)) "netlist valid" [] (Design.validate g.G.design)

let () =
  Alcotest.run "mbr_dft"
    [
      ( "stitch",
        [
          Alcotest.test_case "single chain" `Quick test_single_chain;
          Alcotest.test_case "separate partitions" `Quick
            test_partitions_get_separate_chains;
          Alcotest.test_case "nearest-neighbour order" `Quick
            test_nearest_neighbour_order;
          Alcotest.test_case "ordered sections" `Quick
            test_ordered_sections_first_and_in_order;
          Alcotest.test_case "internal scan = one hop" `Quick
            test_internal_scan_mbr_one_hop;
          Alcotest.test_case "per-bit scan threads bits" `Quick
            test_per_bit_scan_threads_every_bit;
          Alcotest.test_case "restitch idempotent" `Quick test_restitch_idempotent;
          Alcotest.test_case "verify catches breaks" `Quick
            test_verify_catches_broken_chain;
        ] );
      ("order", [ QCheck_alcotest.to_alcotest grid_order_matches_oracle ]);
      ( "integration",
        [
          Alcotest.test_case "generated design chains" `Quick
            test_generated_design_chains_ok;
          Alcotest.test_case "flow restitches" `Quick test_flow_restitches;
        ] );
    ]
