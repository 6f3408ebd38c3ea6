(* Tests for Mbr_core.Decompose (the paper's section 5 future work):
   splitting preserves connectivity and legality, skips protected
   registers, and the decompose+recompose flow stays sound. *)

module Decompose = Mbr_core.Decompose
module Flow = Mbr_core.Flow
module Metrics = Mbr_core.Metrics
module Design = Mbr_netlist.Design
module Types = Mbr_netlist.Types
module Library = Mbr_liberty.Library
module Presets = Mbr_liberty.Presets
module Cell_lib = Mbr_liberty.Cell
module Point = Mbr_geom.Point
module Rect = Mbr_geom.Rect
module Floorplan = Mbr_place.Floorplan
module Placement = Mbr_place.Placement
module G = Mbr_designgen.Generate
module P = Mbr_designgen.Profile

let check = Alcotest.(check bool)

let checki = Alcotest.(check int)

let lib = Presets.default ()

let dff8 = Library.find lib "DFF8_X1"

let dff4 = Library.find lib "DFF4_X1"

let core = Rect.make ~lx:0.0 ~ly:0.0 ~hx:60.0 ~hy:60.0

let fp = Floorplan.make ~core ~row_height:1.2 ~site_width:0.2

let attrs ?(fixed = false) ?scan cell =
  Types.{ lib_cell = cell; fixed; size_only = false; scan; gate_enable = None }

(* one 8-bit register with fully wired D/Q nets *)
let eight_bit ?(fixed = false) ?scan () =
  let d = Design.create ~name:"dec" in
  let clk = Design.add_net ~is_clock:true d "clk" in
  let _ = Design.add_clock_root d "uclk" clk in
  let pl = Placement.create fp d in
  let dn =
    Array.init 8 (fun b ->
        let nid = Design.add_net d (Printf.sprintf "d%d" b) in
        let p = Design.add_port d (Printf.sprintf "pi%d" b) Types.In_port nid in
        Placement.set pl p (Point.make 1.0 1.2);
        Some nid)
  in
  let qn =
    Array.init 8 (fun b ->
        let nid = Design.add_net d (Printf.sprintf "q%d" b) in
        let p = Design.add_port d (Printf.sprintf "po%d" b) Types.Out_port nid in
        Placement.set pl p (Point.make 50.0 1.2);
        Some nid)
  in
  let r =
    Design.add_register d "big" (attrs ~fixed ?scan dff8)
      (Design.simple_conn ~d:dn ~q:qn ~clock:clk)
  in
  Placement.set pl r (Point.make 20.0 12.0);
  (d, pl, r, dn, qn)

let test_split_basic () =
  let d, pl, r, dn, qn = eight_bit () in
  let report = Decompose.split_max_width pl lib in
  checki "one split" 1 report.Decompose.n_split;
  checki "two new registers" 2 (List.length report.Decompose.new_ids);
  check "original dead" true (Design.cell d r).Types.c_dead;
  check "netlist valid" true (Design.validate d = []);
  checki "no overlaps" 0 (List.length (Placement.overlapping_registers pl));
  (* every old D/Q net still has exactly one register pin *)
  Array.iter
    (fun n ->
      match n with
      | Some nid ->
        let reg_pins =
          List.filter
            (fun pid ->
              match (Design.cell d (Design.pin d pid).Types.p_cell).Types.c_kind with
              | Types.Register _ -> true
              | _ -> false)
            (Design.net_pins d nid)
        in
        checki "one register pin per net" 1 (List.length reg_pins)
      | None -> ())
    (Array.append dn qn);
  (* bit order: low half keeps d0..d3 *)
  List.iter
    (fun cid ->
      let a = Design.reg_attrs d cid in
      checki "half width" 4 a.Types.lib_cell.Cell_lib.bits)
    report.Decompose.new_ids

let test_split_preserves_low_high_order () =
  let d, pl, _, dn, _ = eight_bit () in
  let report = Decompose.split_max_width pl lib in
  match report.Decompose.new_ids with
  | [ low; high ] ->
    let net_of cid b =
      match Design.pin_of d cid (Types.Pin_d b) with
      | Some pid -> (Design.pin d pid).Types.p_net
      | None -> None
    in
    check "low half bit0 = original d0" true (net_of low 0 = dn.(0));
    check "high half bit0 = original d4" true (net_of high 0 = dn.(4));
    check "high half bit3 = original d7" true (net_of high 3 = dn.(7))
  | _ -> Alcotest.fail "two halves expected"

let test_fixed_not_split () =
  let d, pl, r, _, _ = eight_bit ~fixed:true () in
  let report = Decompose.split_max_width pl lib in
  checki "nothing split" 0 report.Decompose.n_split;
  check "original alive" true (not (Design.cell d r).Types.c_dead)

let test_ordered_scan_not_split () =
  let scan = Types.{ partition = 0; section = Some (1, 3) } in
  let d, pl, r, _, _ = eight_bit ~scan () in
  ignore d;
  ignore r;
  let report = Decompose.split_max_width pl lib in
  checki "ordered section protected" 0 report.Decompose.n_split

let test_free_scan_is_split () =
  (* partition-only scan info splits fine; both halves keep it *)
  let scan = Types.{ partition = 2; section = None } in
  let lib8 = Library.find lib "SDFFR8_X1" in
  let d = Design.create ~name:"s" in
  let clk = Design.add_net ~is_clock:true d "clk" in
  let rst = Design.add_net d "rst" in
  let se = Design.add_net d "se" in
  let pl = Placement.create fp d in
  let conn =
    {
      Design.d_nets = Array.make 8 None;
      q_nets = Array.make 8 None;
      clock = clk;
      reset = Some rst;
      scan_enable = Some se;
      scan_ins = [];
      scan_outs = [];
    }
  in
  let r = Design.add_register d "sbig" (attrs ~scan lib8) conn in
  Placement.set pl r (Point.make 20.0 12.0);
  let report = Decompose.split_max_width pl lib in
  checki "split" 1 report.Decompose.n_split;
  List.iter
    (fun cid ->
      let a = Design.reg_attrs d cid in
      check "scan kept" true (a.Types.scan = Some scan);
      check "scan cell style kept" true
        (a.Types.lib_cell.Cell_lib.scan = Cell_lib.Internal_scan);
      (* the shared control nets follow *)
      check "reset reconnected" true
        (match Design.pin_of d cid Types.Pin_reset with
        | Some pid -> (Design.pin d pid).Types.p_net = Some rst
        | None -> false))
    report.Decompose.new_ids

let test_small_registers_untouched () =
  let d = Design.create ~name:"small" in
  let clk = Design.add_net ~is_clock:true d "clk" in
  let pl = Placement.create fp d in
  let r =
    Design.add_register d "r4" (attrs dff4)
      (Design.simple_conn ~d:(Array.make 4 None) ~q:(Array.make 4 None) ~clock:clk)
  in
  Placement.set pl r (Point.make 10.0 6.0);
  let report = Decompose.split_max_width pl lib in
  checki "4-bit not max width? still max-only rule" 0 report.Decompose.n_split

(* split_cells ~pin:true — the recovery loop's entry point. The halves
   must be valid, placed, legal, and frozen: [size_only] keeps them out
   of any later composition (Compat.is_composable), which is exactly
   what makes recovery rounds monotone. [splittable] must agree with
   what split_cells then does, on both sides. *)
let test_pinned_split_halves_frozen () =
  let d, pl, r, _, _ = eight_bit () in
  check "victim splittable" true (Decompose.splittable pl lib r);
  let report = Decompose.split_cells ~pin:true pl lib [ r ] in
  checki "one split" 1 report.Decompose.n_split;
  checki "two halves" 2 (List.length report.Decompose.new_ids);
  check "original dead" true (Design.cell d r).Types.c_dead;
  Alcotest.(check (list string)) "netlist valid" [] (Design.validate d);
  checki "no overlaps" 0 (List.length (Placement.overlapping_registers pl));
  List.iter
    (fun cid ->
      let a = Design.reg_attrs d cid in
      check "half is size_only (pinned)" true a.Types.size_only;
      check "half placed" true (Placement.is_placed pl cid);
      check "half inside the core" true
        (Rect.contains_rect fp.Floorplan.core (Placement.footprint pl cid));
      (* pinned halves are terminal for the loop: not splittable again *)
      check "half not splittable" true (not (Decompose.splittable pl lib cid)))
    report.Decompose.new_ids;
  (* a second pinned pass over the same ids is a no-op: the original is
     dead, the halves are size_only *)
  let again =
    Decompose.split_cells ~pin:true pl lib (r :: report.Decompose.new_ids)
  in
  checki "nothing left to split" 0 again.Decompose.n_split

(* ---- flow integration ---- *)

let test_flow_with_decompose () =
  let g = G.generate (P.tiny ~seed:4040) in
  let options = { Flow.default_options with Flow.decompose = true } in
  let r =
    Flow.run ~options ~design:g.G.design ~placement:g.G.placement
      ~library:g.G.library ~sta_config:g.G.sta_config ()
  in
  check "some registers split" true (r.Flow.n_split > 0);
  Alcotest.(check (list string)) "valid" [] (Design.validate g.G.design);
  checki "no overlaps" 0
    (List.length (Placement.overlapping_registers g.G.placement));
  check "registers still drop overall" true
    (r.Flow.after.Metrics.total_regs < r.Flow.before.Metrics.total_regs)

let test_decompose_helps_8bit_rich_design () =
  (* a D4-flavoured profile: composition alone leaves the 8-bit mass
     untouched; with decomposition the flow can rebalance it *)
  let p = P.scaled P.d4 0.25 in
  let run decompose =
    let g = G.generate p in
    let options = { Flow.default_options with Flow.decompose } in
    let r =
      Flow.run ~options ~design:g.G.design ~placement:g.G.placement
        ~library:g.G.library ~sta_config:g.G.sta_config ()
    in
    (r, g)
  in
  let off, _ = run false in
  let on, gon = run true in
  check "decompose actually split" true (on.Flow.n_split > 0);
  Alcotest.(check (list string)) "valid after heavy restructuring" []
    (Design.validate gon.G.design);
  (* it must not lose ground on register count by more than the split
     remainder, and timing must stay sound *)
  check "tns not degraded vs before" true
    (on.Flow.after.Metrics.tns >= on.Flow.before.Metrics.tns -. 1e-6);
  check "register count comparable or better" true
    (on.Flow.after.Metrics.total_regs
    <= off.Flow.after.Metrics.total_regs + (on.Flow.n_split / 2))

let () =
  Alcotest.run "mbr_core.decompose"
    [
      ( "split",
        [
          Alcotest.test_case "basic" `Quick test_split_basic;
          Alcotest.test_case "low/high order" `Quick test_split_preserves_low_high_order;
          Alcotest.test_case "fixed protected" `Quick test_fixed_not_split;
          Alcotest.test_case "ordered scan protected" `Quick test_ordered_scan_not_split;
          Alcotest.test_case "free scan splits" `Quick test_free_scan_is_split;
          Alcotest.test_case "small untouched" `Quick test_small_registers_untouched;
          Alcotest.test_case "pinned split freezes halves" `Quick
            test_pinned_split_halves_frozen;
        ] );
      ( "flow",
        [
          Alcotest.test_case "flow with decompose" `Quick test_flow_with_decompose;
          Alcotest.test_case "helps 8-bit-rich designs" `Slow
            test_decompose_helps_8bit_rich_design;
        ] );
    ]
