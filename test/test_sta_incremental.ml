(* Property: Engine.refresh after an arbitrary batch of real netlist /
   placement edits produces exactly the timing of throwing the engine
   away and rebuilding from scratch — every pin, every corner, and the
   wns/tns sums to the last bit. The edit batches are drawn from the
   operations the composition flow actually performs — cell moves,
   register retypes (sizing), Compose.execute merges and max-width
   decomposition — applied through the public APIs so the design and
   placement edit logs are exercised end to end. *)

module Point = Mbr_geom.Point
module Rect = Mbr_geom.Rect
module Design = Mbr_netlist.Design
module Types = Mbr_netlist.Types
module Library = Mbr_liberty.Library
module Cell_lib = Mbr_liberty.Cell
module Floorplan = Mbr_place.Floorplan
module Placement = Mbr_place.Placement
module Engine = Mbr_sta.Engine
module Corner = Mbr_sta.Corner
module Compose = Mbr_core.Compose
module Decompose = Mbr_core.Decompose
module G = Mbr_designgen.Generate
module P = Mbr_designgen.Profile
module Rng = Mbr_util.Rng

let three_corners =
  [|
    Corner.make ~name:"fast" ~cell:0.9 ~wire:0.85 ~setup:1.0;
    Corner.make ~name:"typ" ~cell:1.0 ~wire:1.0 ~setup:1.0;
    Corner.make ~name:"slow" ~cell:1.15 ~wire:1.25 ~setup:1.05;
  |]

(* One random edit batch against the live design/placement. *)
let random_edits rng g =
  let dsg = g.G.design in
  let pl = g.G.placement in
  let lib = g.G.library in
  let core = (Placement.floorplan pl).Floorplan.core in
  let random_point () =
    Point.make
      (Rng.float_in rng core.Rect.lx core.Rect.hx)
      (Rng.float_in rng core.Rect.ly core.Rect.hy)
  in
  (* moves *)
  List.iter
    (fun r ->
      if Placement.is_placed pl r && Rng.chance rng 0.15 then
        Placement.set pl r (random_point ()))
    (Design.registers dsg);
  (* retype: swap a register for a pin-compatible sibling *)
  if Rng.chance rng 0.6 then begin
    match Design.registers dsg with
    | [] -> ()
    | regs ->
      let r = Rng.pick_list rng regs in
      let cur = (Design.reg_attrs dsg r).Types.lib_cell in
      let siblings =
        List.filter
          (fun (c : Cell_lib.t) ->
            c.Cell_lib.scan = cur.Cell_lib.scan
            && c.Cell_lib.name <> cur.Cell_lib.name)
          (Library.cells_of lib ~func_class:cur.Cell_lib.func_class
             ~bits:cur.Cell_lib.bits)
      in
      (match siblings with
      | [] -> ()
      | _ -> (
        try Design.retype_register dsg r (Rng.pick_list rng siblings)
        with Invalid_argument _ -> ()))
  end;
  (* compose: merge two same-class registers into a wider MBR *)
  if Rng.chance rng 0.7 then begin
    let placed =
      List.filter (fun r -> Placement.is_placed pl r) (Design.registers dsg)
    in
    match placed with
    | a :: _ :: _ -> (
      let ca = (Design.reg_attrs dsg a).Types.lib_cell in
      let partners =
        List.filter
          (fun r ->
            r <> a
            &&
            let c = (Design.reg_attrs dsg r).Types.lib_cell in
            c.Cell_lib.func_class = ca.Cell_lib.func_class
            && c.Cell_lib.scan = ca.Cell_lib.scan)
          placed
      in
      match partners with
      | [] -> ()
      | _ -> (
        let b = Rng.pick_list rng partners in
        let cb = (Design.reg_attrs dsg b).Types.lib_cell in
        let targets =
          List.filter
            (fun (c : Cell_lib.t) -> c.Cell_lib.scan = ca.Cell_lib.scan)
            (Library.cells_of lib ~func_class:ca.Cell_lib.func_class
               ~bits:(ca.Cell_lib.bits + cb.Cell_lib.bits))
        in
        match targets with
        | [] -> ()
        | cell :: _ -> (
          let corner = Placement.location pl a in
          try
            ignore
              (Compose.execute pl
                 { Compose.member_cids = [ a; b ]; cell; corner })
          with Invalid_argument _ -> ())))
    | [] | [ _ ] -> ()
  end;
  (* decompose: reopen max-width MBRs *)
  if Rng.chance rng 0.25 then ignore (Decompose.split_max_width pl lib)

let compare_engines ~seed eng fresh dsg =
  let fail fmt = QCheck.Test.fail_reportf fmt in
  if Engine.wns fresh <> Engine.wns eng then
    fail "seed %d: wns %.17g (fresh) vs %.17g (refresh)" seed (Engine.wns fresh)
      (Engine.wns eng);
  if Engine.tns fresh <> Engine.tns eng then
    fail "seed %d: tns %.17g (fresh) vs %.17g (refresh)" seed (Engine.tns fresh)
      (Engine.tns eng);
  if Engine.n_endpoints fresh <> Engine.n_endpoints eng then
    fail "seed %d: endpoint count %d vs %d" seed
      (Engine.n_endpoints fresh) (Engine.n_endpoints eng);
  if Engine.failing_endpoints fresh <> Engine.failing_endpoints eng then
    fail "seed %d: failing count %d vs %d" seed
      (Engine.failing_endpoints fresh)
      (Engine.failing_endpoints eng);
  for pid = 0 to Design.n_pins dsg - 1 do
    if Engine.arrival fresh pid <> Engine.arrival eng pid then
      fail "seed %d: arrival mismatch at pin %d" seed pid;
    if Engine.required fresh pid <> Engine.required eng pid then
      fail "seed %d: required mismatch at pin %d" seed pid;
    for k = 0 to Engine.n_corners fresh - 1 do
      if Engine.corner_slack fresh k pid <> Engine.corner_slack eng k pid then
        fail "seed %d: corner %d slack mismatch at pin %d" seed k pid
    done
  done;
  true

let refresh_equivalence =
  QCheck.Test.make ~name:"refresh = fresh build over random edit batches"
    ~count:100
    QCheck.(pair (int_bound 1_000_000) bool)
    (fun (seed, multi) ->
      let corners = if multi then three_corners else Corner.default in
      let g = G.generate (P.tiny ~seed:(seed mod 37)) in
      let rng = Rng.create (seed * 7 + 1) in
      let eng = Engine.build ~config:g.G.sta_config ~corners g.G.placement in
      Engine.analyze eng;
      let rounds = 1 + Rng.int rng 3 in
      let ok = ref true in
      for _ = 1 to rounds do
        random_edits rng g;
        Engine.refresh eng;
        let fresh =
          Engine.build ~config:g.G.sta_config ~corners g.G.placement
        in
        Engine.analyze fresh;
        ok := !ok && compare_engines ~seed eng fresh g.G.design
      done;
      !ok)

(* A move-only batch must take the incremental path, not rebuild. *)
let test_moves_stay_incremental () =
  let g = G.generate (P.tiny ~seed:5) in
  let eng = Engine.build ~config:g.G.sta_config g.G.placement in
  Engine.analyze eng;
  let regs = Design.registers g.G.design in
  let r = List.nth regs 0 in
  let p = Placement.location g.G.placement r in
  Placement.set g.G.placement r (Point.make (p.Point.x +. 3.0) p.Point.y);
  Engine.refresh eng;
  Alcotest.(check int) "no rebuild" 1 (Engine.full_builds eng);
  Alcotest.(check int) "one refresh" 1 (Engine.refreshes eng);
  let fresh = Engine.build ~config:g.G.sta_config g.G.placement in
  Engine.analyze fresh;
  Alcotest.(check (float 0.0)) "wns equal" (Engine.wns fresh) (Engine.wns eng)

(* A small compose rebuilds the graph but repairs the timing from the
   pins it touched: one seeded refresh, exactly a fresh build's TNS. *)
let test_compose_stays_incremental () =
  let g = G.generate (P.tiny ~seed:11) in
  let pl = g.G.placement in
  let dsg = g.G.design in
  let lib = g.G.library in
  let eng = Engine.build ~config:g.G.sta_config pl in
  Engine.analyze eng;
  let merged =
    let placed = List.filter (fun r -> Placement.is_placed pl r) (Design.registers dsg) in
    let rec try_pairs = function
      | [] -> false
      | a :: rest -> (
        let ca = (Design.reg_attrs dsg a).Types.lib_cell in
        let partner =
          List.find_opt
            (fun b ->
              let cb = (Design.reg_attrs dsg b).Types.lib_cell in
              cb.Cell_lib.func_class = ca.Cell_lib.func_class
              && cb.Cell_lib.scan = ca.Cell_lib.scan
              && Library.cells_of lib ~func_class:ca.Cell_lib.func_class
                   ~bits:(ca.Cell_lib.bits + cb.Cell_lib.bits)
                 <> [])
            rest
        in
        match partner with
        | None -> try_pairs rest
        | Some b -> (
          let cb = (Design.reg_attrs dsg b).Types.lib_cell in
          let cell =
            List.find
              (fun (c : Cell_lib.t) -> c.Cell_lib.scan = ca.Cell_lib.scan)
              (Library.cells_of lib ~func_class:ca.Cell_lib.func_class
                 ~bits:(ca.Cell_lib.bits + cb.Cell_lib.bits))
          in
          try
            ignore
              (Compose.execute pl
                 {
                   Compose.member_cids = [ a; b ];
                   cell;
                   corner = Placement.location pl a;
                 });
            true
          with Invalid_argument _ -> try_pairs rest))
    in
    try_pairs placed
  in
  Alcotest.(check bool) "found a merge" true merged;
  Engine.refresh eng;
  Alcotest.(check int) "one seeded refresh" 1 (Engine.refreshes eng);
  let fresh = Engine.build ~config:g.G.sta_config pl in
  Engine.analyze fresh;
  Alcotest.(check (float 0.0)) "tns equal" (Engine.tns fresh) (Engine.tns eng)

(* A refresh that meets a combinational loop raises with a closed
   witness along real data arcs and leaves the engine untouched: once
   the edit is undone, the next refresh lands on a fresh build. *)
let test_cycle_through_refresh () =
  let g = G.generate (P.tiny ~seed:3) in
  let dsg = g.G.design and pl = g.G.placement in
  let eng = Engine.build ~config:g.G.sta_config pl in
  Engine.analyze eng;
  let out_net cid =
    List.find_map
      (fun pid ->
        match (Design.pin dsg pid).Types.p_kind with
        | Types.Pin_out -> (Design.pin dsg pid).Types.p_net
        | _ -> None)
      (Design.pins_of dsg cid)
  in
  let input, net_in, net_out =
    List.find_map
      (fun cid ->
        match ((Design.cell dsg cid).Types.c_kind, out_net cid) with
        | Types.Comb _, Some n_out ->
          List.find_map
            (fun pid ->
              let p = Design.pin dsg pid in
              match (p.Types.p_kind, p.Types.p_net) with
              | Types.Pin_in _, Some n_in -> Some (pid, n_in, n_out)
              | _ -> None)
            (Design.pins_of dsg cid)
        | _ -> None)
      (Design.live_cells dsg)
    |> Option.get
  in
  (* feed the gate its own output *)
  Design.connect dsg input net_out;
  let witness =
    try
      Engine.refresh eng;
      Alcotest.fail "combinational cycle not detected by refresh"
    with Engine.Combinational_cycle pins -> pins
  in
  Alcotest.(check bool) "witness closed" true
    (match (witness, List.rev witness) with
    | first :: _ :: _, last :: _ -> first = last
    | _ -> false);
  Alcotest.(check bool) "witness runs through the looped gate" true
    (List.mem input witness);
  let data_arc a b =
    let pa = Design.pin dsg a and pb = Design.pin dsg b in
    (pa.Types.p_dir = Types.Output && pb.Types.p_dir = Types.Input
     && pa.Types.p_net <> None && pa.Types.p_net = pb.Types.p_net
     && not (Design.net dsg (Option.get pa.Types.p_net)).Types.n_is_clock)
    || (pa.Types.p_cell = pb.Types.p_cell
       && pa.Types.p_dir = Types.Input && pb.Types.p_dir = Types.Output
       && match (Design.cell dsg pa.Types.p_cell).Types.c_kind with
          | Types.Comb _ -> true
          | _ -> false)
  in
  let rec arcs = function
    | a :: (b :: _ as tl) -> data_arc a b && arcs tl
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "every hop is a data arc" true (arcs witness);
  Alcotest.(check int) "no graph adopted" 1 (Engine.full_builds eng);
  Alcotest.(check int) "no repair ran" 0 (Engine.refreshes eng);
  Design.connect dsg input net_in;
  Engine.refresh eng;
  let fresh = Engine.build ~config:g.G.sta_config pl in
  Engine.analyze fresh;
  Alcotest.(check bool) "refresh after undo = fresh build" true
    (compare_engines ~seed:3 eng fresh dsg)

(* A gate driving two registers: moving the nearer, non-critical one
   changes the gate's load — hence its input-to-output delay — while
   its output's required time stays pinned by the far register. The
   refresh must still re-time the gate's input. *)
let test_load_change_retimes_gate_input () =
  let lib = Mbr_liberty.Presets.default () in
  let attrs =
    Types.
      {
        lib_cell = Library.find lib "DFF1_X1";
        fixed = false;
        size_only = false;
        scan = None;
        gate_enable = None;
      }
  in
  let buf =
    Types.
      {
        gate = "BUF";
        n_inputs = 1;
        drive_res = 2.0;
        intrinsic = 20.0;
        input_cap = 0.5;
        area = 1.0;
        g_width = 1.0;
        g_height = 1.2;
      }
  in
  let d = Design.create ~name:"fanout2" in
  let clk = Design.add_net ~is_clock:true d "clk" in
  let ck = Design.add_clock_root d "uclk" clk in
  let a = Design.add_net d "a" and n = Design.add_net d "n" in
  let pa = Design.add_port d "a" Types.In_port a in
  let gb = Design.add_comb d "g" buf ~inputs:[ a ] ~output:n in
  let reg name =
    Design.add_register d name attrs
      (Design.simple_conn ~d:[| Some n |] ~q:[| None |] ~clock:clk)
  in
  let far = reg "far" and near = reg "near" in
  let fp =
    Floorplan.make
      ~core:(Rect.make ~lx:0.0 ~ly:0.0 ~hx:100.0 ~hy:100.0)
      ~row_height:1.2 ~site_width:0.2
  in
  let pl = Placement.create fp d in
  List.iter
    (fun (c, x, y) -> Placement.set pl c (Point.make x y))
    [ (ck, 0.0, 0.0); (pa, 10.0, 10.0); (gb, 12.0, 10.0); (far, 80.0, 60.0);
      (near, 14.0, 12.0) ];
  let cfg = Engine.default_config in
  let eng = Engine.build ~config:cfg pl in
  Engine.analyze eng;
  let g_in =
    List.find
      (fun pid -> (Design.pin d pid).Types.p_dir = Types.Input)
      (Design.pins_of d gb)
  in
  let before = Engine.required eng g_in in
  Placement.set pl near (Point.make 16.0 8.0);
  Engine.refresh eng;
  let fresh = Engine.build ~config:cfg pl in
  Engine.analyze fresh;
  Alcotest.(check bool) "the gate input's required moved" true
    (Engine.required fresh g_in <> before);
  Alcotest.(check bool) "refresh = fresh build" true
    (compare_engines ~seed:0 eng fresh d)

let () =
  Alcotest.run "mbr_sta.incremental"
    [
      ( "refresh",
        [
          Alcotest.test_case "moves stay incremental" `Quick
            test_moves_stay_incremental;
          Alcotest.test_case "compose stays incremental" `Quick
            test_compose_stays_incremental;
          Alcotest.test_case "cycle through refresh" `Quick
            test_cycle_through_refresh;
          Alcotest.test_case "load change re-times gate input" `Quick
            test_load_change_retimes_gate_input;
          QCheck_alcotest.to_alcotest refresh_equivalence;
        ] );
    ]
