module Point = Mbr_geom.Point
module Rect = Mbr_geom.Rect
module Design = Mbr_netlist.Design
module Types = Mbr_netlist.Types
module Placement = Mbr_place.Placement
module Cell_lib = Mbr_liberty.Cell
module Piecewise = Mbr_lp.Piecewise

type conn_box = { offset : Point.t; box : Rect.t }

let net_box pl ~exclude nid =
  let pts =
    List.filter_map
      (fun (_, cid, pt) -> if List.mem cid exclude then None else Some pt)
      (Placement.net_pin_points pl nid)
  in
  match pts with [] -> None | _ -> Some (Rect.of_points pts)

let conn_boxes pl ~cell ~assignment ~exclude =
  List.concat_map
    (fun (bit, d_net, q_net) ->
      let of_net offset nid =
        match net_box pl ~exclude nid with
        | Some box -> [ { offset; box } ]
        | None -> []
      in
      let d =
        match d_net with
        | Some nid -> of_net (Cell_lib.d_pin_offset cell bit) nid
        | None -> []
      in
      let q =
        match q_net with
        | Some nid -> of_net (Cell_lib.q_pin_offset cell bit) nid
        | None -> []
      in
      d @ q)
    assignment

let corner_bounds ~cell ~(region : Rect.t) =
  let xlo = region.Rect.lx and xhi = region.Rect.hx -. cell.Cell_lib.width in
  let ylo = region.Rect.ly and yhi = region.Rect.hy -. cell.Cell_lib.height in
  (* A region tighter than the footprint degenerates to its corner. *)
  let xhi = Float.max xlo xhi and yhi = Float.max ylo yhi in
  ((xlo, xhi), (ylo, yhi))

let optimal_corner ~cell ~conns ~region =
  let (xlo, xhi), (ylo, yhi) = corner_bounds ~cell ~region in
  let xterms =
    List.map
      (fun c ->
        Piecewise.
          {
            lo = c.box.Rect.lx;
            hi = c.box.Rect.hx;
            offset = c.offset.Point.x;
            weight = 1.0;
          })
      conns
  in
  let yterms =
    List.map
      (fun c ->
        Piecewise.
          {
            lo = c.box.Rect.ly;
            hi = c.box.Rect.hy;
            offset = c.offset.Point.y;
            weight = 1.0;
          })
      conns
  in
  let x, fx = Piecewise.minimize ~bounds:(xlo, xhi) xterms in
  let y, fy = Piecewise.minimize ~bounds:(ylo, yhi) yterms in
  (Point.make x y, fx +. fy)
