module Point = Mbr_geom.Point
module Rect = Mbr_geom.Rect
module Design = Mbr_netlist.Design
module Types = Mbr_netlist.Types
module Placement = Mbr_place.Placement
module Floorplan = Mbr_place.Floorplan

type config = { gcell : float; cap_h : float; cap_v : float }

let default_config = { gcell = 10.0; cap_h = 14.0; cap_v = 12.0 }

type result = {
  signal_wl : float;
  overflow_edges : int;
  max_utilization : float;
  n_routed_nets : int;
}

let net_pin_points pl nid =
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

let net_star_wl pl nid =
  match net_pin_points pl nid with
  | [] | [ _ ] -> 0.0
  | pts ->
    let c = star_center pts in
    List.fold_left (fun acc p -> acc +. Point.manhattan c p) 0.0 pts

let net_hpwl pl nid =
  match net_pin_points pl nid with
  | [] | [ _ ] -> 0.0
  | pts -> Rect.half_perimeter (Rect.of_points pts)

let estimate ?(config = default_config) pl =
  let dsg = Placement.design pl in
  let fp = Placement.floorplan pl in
  let grid =
    Grid.create ~core:fp.Floorplan.core ~gcell:config.gcell ~cap_h:config.cap_h
      ~cap_v:config.cap_v
  in
  let signal_wl = ref 0.0 in
  let n_routed = ref 0 in
  for nid = 0 to Design.n_nets dsg - 1 do
    let n = Design.net dsg nid in
    if not n.Types.n_is_clock then begin
      match net_pin_points pl nid with
      | [] | [ _ ] -> ()
      | pts ->
        let c = star_center pts in
        List.iter
          (fun p ->
            signal_wl := !signal_wl +. Point.manhattan c p;
            Grid.route_l grid c p ~demand:1.0)
          pts;
        incr n_routed
    end
  done;
  {
    signal_wl = !signal_wl;
    overflow_edges = Grid.overflow_edges grid;
    max_utilization = Grid.max_utilization grid;
    n_routed_nets = !n_routed;
  }
