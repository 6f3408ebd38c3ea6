module Point = Mbr_geom.Point
module Design = Mbr_netlist.Design
module Types = Mbr_netlist.Types
module Placement = Mbr_place.Placement
module Floorplan = Mbr_place.Floorplan

type config = { gcell : float; cap_h : float; cap_v : float }

let default_config = { gcell = 10.0; cap_h = 14.0; cap_v = 12.0 }

type result = { signal_wl : float; overflow_edges : int }

let median xs =
  let arr = Array.of_list xs in
  Array.sort compare arr;
  let n = Array.length arr in
  if n = 0 then 0.0
  else if n mod 2 = 1 then arr.(n / 2)
  else (arr.((n / 2) - 1) +. arr.(n / 2)) /. 2.0

let star_center pts =
  Point.make
    (median (List.map (fun (p : Point.t) -> p.x) pts))
    (median (List.map (fun (p : Point.t) -> p.y) pts))

(* the placement's cached pin list, same order as the design's *)
let pin_points pl nid =
  List.map (fun (_, _, p) -> p) (Placement.net_pin_points pl nid)

let net_star_wl pl nid =
  match pin_points pl nid with
  | [] | [ _ ] -> 0.0
  | pts ->
    let c = star_center pts in
    List.fold_left (fun acc p -> acc +. Point.manhattan c p) 0.0 pts

let estimate pl =
  let dsg = Placement.design pl in
  let fp = Placement.floorplan pl in
  let { gcell; cap_h; cap_v } = default_config in
  let grid = Grid.create ~core:fp.Floorplan.core ~gcell ~cap_h ~cap_v in
  let signal_wl = ref 0.0 in
  for nid = 0 to Design.n_nets dsg - 1 do
    if not (Design.net dsg nid).Types.n_is_clock then begin
      match pin_points pl nid with
      | [] | [ _ ] -> ()
      | pts ->
        let c = star_center pts in
        List.iter
          (fun p ->
            signal_wl := !signal_wl +. Point.manhattan c p;
            Grid.route_l grid c p ~demand:1.0)
          pts
    end
  done;
  { signal_wl = !signal_wl; overflow_edges = Grid.overflow_edges grid }
