module Point = Mbr_geom.Point
module Rect = Mbr_geom.Rect
module Spatial = Mbr_geom.Spatial
module Trace = Mbr_obs.Trace
module Design = Mbr_netlist.Design
module Types = Mbr_netlist.Types
module Placement = Mbr_place.Placement
module Cell_lib = Mbr_liberty.Cell

type report = { n_chains : int; n_hops : int; wirelength : float }

(* Scannable live registers grouped by partition. *)
let by_partition dsg =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun cid ->
      match (Design.reg_attrs dsg cid).Types.scan with
      | Some s ->
        let cur =
          match Hashtbl.find_opt tbl s.Types.partition with
          | Some l -> l
          | None -> []
        in
        Hashtbl.replace tbl s.Types.partition (cid :: cur)
      | None -> ())
    (Design.registers dsg);
  List.sort compare (Hashtbl.fold (fun p l acc -> (p, List.rev l) :: acc) tbl [])

(* The SI/SO hop pins a register contributes, in chain order. *)
let hops dsg cid =
  let a = Design.reg_attrs dsg cid in
  let bit_pair b =
    match
      (Design.pin_of dsg cid (Types.Pin_scan_in b),
       Design.pin_of dsg cid (Types.Pin_scan_out b))
    with
    | Some si, Some so -> Some (si, so)
    | _, _ -> None
  in
  match a.Types.lib_cell.Cell_lib.scan with
  | Cell_lib.No_scan -> []
  | Cell_lib.Internal_scan -> ( match bit_pair 0 with Some p -> [ p ] | None -> [] )
  | Cell_lib.Per_bit_scan ->
    List.filter_map bit_pair (List.init a.Types.lib_cell.Cell_lib.bits Fun.id)

let disconnect_scan_wiring dsg =
  List.iter
    (fun cid ->
      List.iter
        (fun pid ->
          match (Design.pin dsg pid).Types.p_kind with
          | Types.Pin_scan_in _ | Types.Pin_scan_out _ -> Design.disconnect dsg pid
          | Types.Pin_d _ | Types.Pin_q _ | Types.Pin_clock | Types.Pin_reset
          | Types.Pin_scan_enable | Types.Pin_in _ | Types.Pin_out | Types.Pin_port
            ->
            ())
        (Design.pins_of dsg cid))
    (Design.registers dsg)

(* Grid pitch for the nearest-neighbour walk: about two registers per
   bucket over the members' bounding box. *)
let walk_pitch pts =
  let box = Rect.of_points pts in
  let n = float_of_int (List.length pts) in
  let pitch =
    Float.max
      (sqrt (2.0 *. Rect.area box /. n))
      ((Rect.width box +. Rect.height box) /. n)
  in
  if pitch > 0.0 then pitch else 1.0

(* Chain order within one partition: section runs first, then unordered
   registers nearest-neighbour from the previous chain endpoint, each
   step taking the closest remaining register (the smaller cid on a
   tie). *)
let chain_order ?scanned pl members =
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
  let placed_free, unplaced_free = List.partition (Placement.is_placed pl) free in
  match List.map (fun c -> (c, Placement.center pl c)) placed_free with
  | [] -> sectioned @ unplaced_free
  | (_, first_pos) :: _ as placed ->
    let index = Spatial.create ~bucket:(walk_pitch (List.map snd placed)) () in
    List.iter (fun (c, p) -> Spatial.add index c p) placed;
    let start =
      match List.rev sectioned with
      | last :: _ when Placement.is_placed pl last -> Placement.center pl last
      | _ :: _ | [] -> first_pos
    in
    let rec walk at acc =
      match Spatial.nearest ?scanned index at with
      | None -> List.rev acc
      | Some (c, p) ->
        Spatial.remove index c p;
        walk p (c :: acc)
    in
    sectioned @ walk start [] @ unplaced_free

let m_nn_cells_scanned = Mbr_obs.Metrics.counter "dft.nn_cells_scanned"

let stitch pl =
  let dsg = Placement.design pl in
  Trace.with_span ~name:"dft.unwire" (fun () -> disconnect_scan_wiring dsg);
  let chains =
    Trace.with_span ~name:"dft.order" (fun () ->
        let scanned = ref 0 in
        let chains =
          List.map
            (fun (partition, members) -> (partition, chain_order ~scanned pl members))
            (by_partition dsg)
        in
        Mbr_obs.Metrics.incr ~by:!scanned m_nn_cells_scanned;
        chains)
  in
  Trace.with_span ~name:"dft.thread" @@ fun () ->
  let n_hops = ref 0 in
  let wirelength = ref 0.0 in
  let stitch_one (partition, ordered) =
    let hop_list = List.concat_map (fun cid -> hops dsg cid) ordered in
    match hop_list with
    | [] -> false
    | _ ->
      let port_net name dir =
        let nid =
          match Design.find_cell dsg name with
          | Some cell_id -> (
            (* reuse the existing port's net *)
            match (Design.cell dsg cell_id).Types.c_pins with
            | pid :: _ -> (
              match (Design.pin dsg pid).Types.p_net with
              | Some n -> n
              | None ->
                let n = Design.add_net dsg (name ^ "_net") in
                Design.connect dsg pid n;
                n)
            | [] -> Design.add_net dsg (name ^ "_net"))
          | None ->
            let n = Design.add_net dsg (name ^ "_net") in
            ignore (Design.add_port dsg name dir n);
            n
        in
        nid
      in
      let si_net = port_net (Printf.sprintf "scan_si%d" partition) Types.In_port in
      let so_net = port_net (Printf.sprintf "scan_so%d" partition) Types.Out_port in
      let pin_pos pid =
        let cid = (Design.pin dsg pid).Types.p_cell in
        match Placement.location_opt pl cid with
        | Some _ -> Some (Placement.pin_location pl pid)
        | None -> None
      in
      let rec thread prev_so = function
        | [] ->
          (* close the chain into the scan-out port *)
          Design.connect dsg prev_so so_net
        | (si, so) :: rest ->
          let nid = Design.add_net dsg (Printf.sprintf "scan%d_%d" partition !n_hops) in
          Design.connect dsg prev_so nid;
          Design.connect dsg si nid;
          incr n_hops;
          (match (pin_pos prev_so, pin_pos si) with
          | Some a, Some b -> wirelength := !wirelength +. Point.manhattan a b
          | _, _ -> ());
          thread so rest
      in
      (match hop_list with
      | (first_si, first_so) :: rest ->
        (* scan-in port drives the first SI directly *)
        Design.connect dsg first_si si_net;
        incr n_hops;
        thread first_so rest
      | [] -> ());
      true
  in
  let n_chains = List.length (List.filter stitch_one chains) in
  { n_chains; n_hops = !n_hops; wirelength = !wirelength }

let verify dsg =
  let problems = ref [] in
  let bad fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let chains = by_partition dsg in
  List.iter
    (fun (partition, members) ->
      let expected_hops =
        List.fold_left (fun acc cid -> acc + List.length (hops dsg cid)) 0 members
      in
      if expected_hops > 0 then begin
        match Design.find_cell dsg (Printf.sprintf "scan_si%d" partition) with
        | None -> bad "partition %d has scan registers but no scan-in port" partition
        | Some port -> (
          let start_net =
            match (Design.cell dsg port).Types.c_pins with
            | pid :: _ -> (Design.pin dsg pid).Types.p_net
            | [] -> None
          in
          match start_net with
          | None -> bad "partition %d scan-in port unconnected" partition
          | Some nid ->
            (* walk SI -> (register) -> SO -> next SI *)
            let visited_regs = Hashtbl.create 16 in
            let section_watch = ref [] in
            let rec follow nid steps =
              if steps > expected_hops + 2 then
                bad "partition %d chain does not terminate" partition
              else begin
                let sis =
                  List.filter
                    (fun pid ->
                      match (Design.pin dsg pid).Types.p_kind with
                      | Types.Pin_scan_in _ -> true
                      | _ -> false)
                    (Design.sinks dsg nid)
                in
                match sis with
                | [] ->
                  (* must be the scan-out port *)
                  let is_so_port =
                    List.exists
                      (fun pid ->
                        let c = Design.cell dsg (Design.pin dsg pid).Types.p_cell in
                        c.Types.c_name = Printf.sprintf "scan_so%d" partition)
                      (Design.sinks dsg nid)
                  in
                  if not is_so_port then
                    bad "partition %d chain dead-ends mid-way" partition
                | [ si ] -> (
                  let p = Design.pin dsg si in
                  let cid = p.Types.p_cell in
                  let bit =
                    match p.Types.p_kind with Types.Pin_scan_in b -> b | _ -> 0
                  in
                  Hashtbl.replace visited_regs (cid, bit) ();
                  (match (Design.reg_attrs dsg cid).Types.scan with
                  | Some { Types.section = Some (sec, pos); _ } ->
                    section_watch := (sec, pos) :: !section_watch
                  | Some { Types.section = None; _ } | None -> ());
                  match Design.pin_of dsg cid (Types.Pin_scan_out bit) with
                  | Some so -> (
                    match (Design.pin dsg so).Types.p_net with
                    | Some next -> follow next (steps + 1)
                    | None -> bad "partition %d: SO of %s bit %d unconnected"
                                partition (Design.cell dsg cid).Types.c_name bit)
                  | None -> bad "partition %d: missing SO pin" partition)
                | _ :: _ :: _ -> bad "partition %d: net fans out to several SIs" partition
              end
            in
            follow nid 0;
            let n_visited = Hashtbl.length visited_regs in
            if n_visited <> expected_hops then
              bad "partition %d: chain visits %d of %d hops" partition n_visited
                expected_hops;
            (* ordered sections must appear in ascending position *)
            let per_section = Hashtbl.create 4 in
            List.iter
              (fun (sec, pos) ->
                let cur =
                  match Hashtbl.find_opt per_section sec with Some l -> l | None -> []
                in
                Hashtbl.replace per_section sec (pos :: cur))
              (List.rev !section_watch);
            Hashtbl.iter
              (fun sec poss ->
                let order = List.rev poss in
                if order <> List.sort compare order then
                  bad "partition %d: section %d out of order" partition sec)
              per_section)
      end)
    chains;
  List.rev !problems
