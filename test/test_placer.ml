(* Tests for Mbr_core.Mbr_placer: the §4.2 LP. The weighted-median fast
   path is validated against a simplex oracle (below) on random instances,
   plus hand-checked cases and region clamping. *)

module Mbr_placer = Mbr_core.Mbr_placer
module Point = Mbr_geom.Point
module Rect = Mbr_geom.Rect
module Library = Mbr_liberty.Library
module Presets = Mbr_liberty.Presets
module Cell_lib = Mbr_liberty.Cell
module Simplex = Mbr_lp.Simplex

let check = Alcotest.(check bool)

let checkf = Alcotest.(check (float 1e-6))

let lib = Presets.default ()

let dff2 = Library.find lib "DFF2_X1"

let big_region = Rect.make ~lx:(-100.0) ~ly:(-100.0) ~hx:100.0 ~hy:100.0

let conn ?(off = Point.origin) lx ly hx hy =
  { Mbr_placer.offset = off; box = Rect.make ~lx ~ly ~hx ~hy }

(* ---- the oracle: the §4.2 LP solved with the simplex ---- *)

(* Same program as [Mbr_placer.optimal_corner], linearized the way the
   paper writes it: per connection, wl = (zxh - zxl) + (zyh - zyl) with
   zxh >= box.hx, zxh >= x + dx; zxl <= box.lx, zxl <= x + dx (and the
   same in y). The corner ranges over the region minus the footprint,
   degenerating to the region's corner when the region is too small.
   [None] when the simplex reports anything but an optimum. *)
let lp_corner ~(cell : Cell_lib.t) ~conns ~(region : Rect.t) =
  let xlo = region.Rect.lx and ylo = region.Rect.ly in
  let xhi = Float.max xlo (region.Rect.hx -. cell.Cell_lib.width) in
  let yhi = Float.max ylo (region.Rect.hy -. cell.Cell_lib.height) in
  let lp = Simplex.create () in
  let x = Simplex.add_var ~lb:xlo ~ub:xhi lp in
  let y = Simplex.add_var ~lb:ylo ~ub:yhi lp in
  List.iter
    (fun (c : Mbr_placer.conn_box) ->
      let zxh = Simplex.add_var ~lb:neg_infinity ~obj:1.0 lp in
      let zxl = Simplex.add_var ~lb:neg_infinity ~obj:(-1.0) lp in
      let zyh = Simplex.add_var ~lb:neg_infinity ~obj:1.0 lp in
      let zyl = Simplex.add_var ~lb:neg_infinity ~obj:(-1.0) lp in
      let ge v rhs = Simplex.add_constraint lp v Simplex.Ge rhs in
      let le v rhs = Simplex.add_constraint lp v Simplex.Le rhs in
      ge [ (zxh, 1.0) ] c.box.Rect.hx;
      ge [ (zxh, 1.0); (x, -1.0) ] c.offset.Point.x;
      le [ (zxl, 1.0) ] c.box.Rect.lx;
      le [ (zxl, 1.0); (x, -1.0) ] c.offset.Point.x;
      ge [ (zyh, 1.0) ] c.box.Rect.hy;
      ge [ (zyh, 1.0); (y, -1.0) ] c.offset.Point.y;
      le [ (zyl, 1.0) ] c.box.Rect.ly;
      le [ (zyl, 1.0); (y, -1.0) ] c.offset.Point.y)
    conns;
  match Simplex.solve lp with
  | { Simplex.status = Simplex.Optimal; objective; values; _ } ->
    Some (Point.make values.(x) values.(y), objective)
  | { Simplex.status = Simplex.Infeasible | Simplex.Unbounded; _ } -> None

let test_single_point_target () =
  (* one pin with offset o connecting to a point net at p: corner = p - o *)
  let off = Cell_lib.d_pin_offset dff2 0 in
  let conns = [ { Mbr_placer.offset = off; box = Rect.make ~lx:10.0 ~ly:8.0 ~hx:10.0 ~hy:8.0 } ] in
  let corner, wl = Mbr_placer.optimal_corner ~cell:dff2 ~conns ~region:big_region in
  checkf "x" (10.0 -. off.Point.x) corner.Point.x;
  checkf "y" (8.0 -. off.Point.y) corner.Point.y;
  checkf "zero wl" 0.0 wl

let test_inside_box_free () =
  (* pin whose net box is large: anywhere inside costs the box HPWL *)
  let conns = [ conn 0.0 0.0 20.0 10.0 ] in
  let _, wl = Mbr_placer.optimal_corner ~cell:dff2 ~conns ~region:big_region in
  checkf "box half-perimeter" 30.0 wl

let test_median_of_three () =
  (* three point nets at x = 0, 6, 100 (same y): optimal x tracks the
     median net *)
  let conns = [ conn 0.0 0.0 0.0 0.0; conn 6.0 0.0 6.0 0.0; conn 100.0 0.0 100.0 0.0 ] in
  let corner, _ = Mbr_placer.optimal_corner ~cell:dff2 ~conns ~region:big_region in
  (* all offsets are 0 here: corner x = median = 6 *)
  checkf "median x" 6.0 corner.Point.x

let test_region_clamp () =
  let conns = [ conn 50.0 50.0 50.0 50.0 ] in
  let region = Rect.make ~lx:0.0 ~ly:0.0 ~hx:10.0 ~hy:10.0 in
  let corner, _ = Mbr_placer.optimal_corner ~cell:dff2 ~conns ~region in
  check "inside region" true
    (Rect.contains_rect region (Cell_lib.footprint_at dff2 corner))

let test_tight_region_degenerates () =
  (* region smaller than the footprint: corner pinned to region corner *)
  let region = Rect.make ~lx:5.0 ~ly:5.0 ~hx:5.5 ~hy:5.5 in
  let corner, _ =
    Mbr_placer.optimal_corner ~cell:dff2 ~conns:[ conn 0.0 0.0 1.0 1.0 ] ~region
  in
  checkf "x pinned" 5.0 corner.Point.x;
  checkf "y pinned" 5.0 corner.Point.y

let test_lp_agrees_on_simple_case () =
  let conns = [ conn 0.0 0.0 0.0 0.0; conn 10.0 4.0 10.0 4.0 ] in
  let _, fast = Mbr_placer.optimal_corner ~cell:dff2 ~conns ~region:big_region in
  match lp_corner ~cell:dff2 ~conns ~region:big_region with
  | Some (_, lp) -> checkf "objectives equal" lp fast
  | None -> Alcotest.fail "lp feasible"

(* ---- property: fast path = simplex on random instances ---- *)

let conns_gen =
  let open QCheck.Gen in
  let box =
    map2
      (fun (x0, y0) (dx, dy) ->
        conn (Float.of_int x0) (Float.of_int y0)
          (Float.of_int (x0 + dx))
          (Float.of_int (y0 + dy))
          ~off:Point.origin)
      (pair (int_range (-30) 30) (int_range (-30) 30))
      (pair (int_bound 20) (int_bound 20))
  in
  list_size (int_range 1 10) box

let conns_arb =
  QCheck.make
    ~print:(fun cs ->
      String.concat ";"
        (List.map
           (fun c ->
             Printf.sprintf "[%g,%g]x[%g,%g]" c.Mbr_placer.box.Rect.lx
               c.Mbr_placer.box.Rect.hx c.Mbr_placer.box.Rect.ly
               c.Mbr_placer.box.Rect.hy)
           cs))
    conns_gen

let fast_matches_lp =
  QCheck.Test.make ~name:"weighted-median placement = simplex LP" ~count:150
    conns_arb (fun conns ->
      let _, fast = Mbr_placer.optimal_corner ~cell:dff2 ~conns ~region:big_region in
      match lp_corner ~cell:dff2 ~conns ~region:big_region with
      | Some (_, lp) -> Float.abs (fast -. lp) < 1e-5
      | None -> false)

let optimum_no_worse_than_probes =
  QCheck.Test.make ~name:"no probe point beats the reported optimum" ~count:150
    conns_arb (fun conns ->
      let corner, best =
        Mbr_placer.optimal_corner ~cell:dff2 ~conns ~region:big_region
      in
      ignore corner;
      let eval (p : Point.t) =
        List.fold_left
          (fun acc c ->
            let px = p.Point.x +. c.Mbr_placer.offset.Point.x in
            let py = p.Point.y +. c.Mbr_placer.offset.Point.y in
            let b = c.Mbr_placer.box in
            acc
            +. (Float.max b.Rect.hx px -. Float.min b.Rect.lx px)
            +. (Float.max b.Rect.hy py -. Float.min b.Rect.ly py))
          0.0 conns
      in
      let ok = ref true in
      for x = -8 to 8 do
        for y = -8 to 8 do
          let p = Point.make (Float.of_int (4 * x)) (Float.of_int (4 * y)) in
          if eval p < best -. 1e-9 then ok := false
        done
      done;
      !ok)

let () =
  Alcotest.run "mbr_core.placer"
    [
      ( "optimal_corner",
        [
          Alcotest.test_case "single point target" `Quick test_single_point_target;
          Alcotest.test_case "inside box free" `Quick test_inside_box_free;
          Alcotest.test_case "median of three" `Quick test_median_of_three;
          Alcotest.test_case "region clamp" `Quick test_region_clamp;
          Alcotest.test_case "tight region" `Quick test_tight_region_degenerates;
          Alcotest.test_case "lp agrees (simple)" `Quick test_lp_agrees_on_simple_case;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest fast_matches_lp;
          QCheck_alcotest.to_alcotest optimum_no_worse_than_probes;
        ] );
    ]
