(* Output verifier for the in-process workloads, built from public API
   only. After every compose it checks that the netlist is valid, that
   every scan chain is intact, that no two register footprints overlap
   and that every register lies inside the core. An empty list means
   the design passed.

   An ECO batch moves and adds registers without legalizing them, so
   the input of an ECO recompose may already break placement legality.
   The flow must not break it further: [~given] is the result of
   [check] on that input, and only violations outside it count. *)

module G = Mbr_designgen.Generate

let check ?(given = []) (g : G.t) =
  let d = g.G.design and pl = g.G.placement in
  let known = Hashtbl.create (List.length given) in
  List.iter (fun v -> Hashtbl.replace known v ()) given;
  let fp = Mbr_place.Placement.floorplan pl in
  let tag what l = List.map (fun m -> what ^ ": " ^ m) l in
  let outside =
    List.filter_map
      (fun id ->
        match Mbr_place.Placement.footprint pl id with
        | r when Mbr_place.Floorplan.inside fp r -> None
        | _ -> Some (Printf.sprintf "register %d outside the core" id)
        | exception Not_found -> Some (Printf.sprintf "register %d unplaced" id))
      (Mbr_netlist.Design.registers d)
  in
  tag "Design.validate" (Mbr_netlist.Design.validate d)
  @ tag "Scan_stitch.verify" (Mbr_dft.Scan_stitch.verify d)
  @ tag "Placement.overlapping_registers"
      (List.map
         (fun (a, b) ->
           Printf.sprintf "registers %d and %d overlap" (min a b) (max a b))
         (Mbr_place.Placement.overlapping_registers pl))
  @ tag "Floorplan.inside" outside
  |> List.filter (fun v -> not (Hashtbl.mem known v))
