(* Tests for Mbr_core.Power: unit conversions, the paper's 20-40 %
   clock-share claim on generated designs, the headline effect —
   composition lowers clock power — and the signal power against an
   oracle that re-walks every net's pins, through flows and ECOs. *)

module Power = Mbr_core.Power
module Flow = Mbr_core.Flow
module Metrics = Mbr_core.Metrics
module Design = Mbr_netlist.Design
module Types = Mbr_netlist.Types
module Library = Mbr_liberty.Library
module Presets = Mbr_liberty.Presets
module Point = Mbr_geom.Point
module Rect = Mbr_geom.Rect
module Floorplan = Mbr_place.Floorplan
module Placement = Mbr_place.Placement
module Engine = Mbr_sta.Engine
module Synth = Mbr_cts.Synth
module G = Mbr_designgen.Generate
module P = Mbr_designgen.Profile
module Eco = Mbr_designgen.Eco
module Rng = Mbr_util.Rng

let check = Alcotest.(check bool)

let checkf = Alcotest.(check (float 1e-6))

let lib = Presets.default ()

let cfg = { Power.vdd = 1.0; clock_period = 1000.0; data_activity = 0.5 }

let estimate ?(config = cfg) ?sta_config pl =
  Power.estimate ~config ~cts:(Synth.synthesize pl)
    (Engine.build ?config:sta_config pl)

(* a single register, clock pin cap known exactly, everything co-located *)
let single_reg () =
  let d = Design.create ~name:"p" in
  let clk = Design.add_net ~is_clock:true d "clk" in
  let root = Design.add_clock_root d "uclk" clk in
  let cell = Library.find lib "DFF1_X1" in
  let attrs =
    Types.
      { lib_cell = cell; fixed = false; size_only = false; scan = None; gate_enable = None }
  in
  let r =
    Design.add_register d "r" attrs
      (Design.simple_conn ~d:[| None |] ~q:[| None |] ~clock:clk)
  in
  let core = Rect.make ~lx:0.0 ~ly:0.0 ~hx:20.0 ~hy:20.0 in
  let pl = Placement.create (Floorplan.make ~core ~row_height:1.2 ~site_width:0.2) d in
  let at = Point.make 5.0 6.0 in
  Placement.set pl r at;
  Placement.set pl root at;
  (d, pl, cell)

let test_units () =
  (* one sink, zero clock wire (co-located root), no signal nets:
     P = 1000 * C * V^2 / period uW with V=1, period=1000 -> P = C *)
  let _, pl, cell = single_reg () in
  let r = estimate pl in
  (* clock cap here = the register's clock pin plus ~1 um of root wire *)
  check "clock power ~ pin cap" true
    (Float.abs (r.Power.clock_power -. cell.Mbr_liberty.Cell.clock_pin_cap) < 0.5);
  (* the only net is the (driven) clock net: excluded from signal power *)
  checkf "no signal power (clock excluded)" 0.0 r.Power.signal_power;
  checkf "all dynamic power is clock" 1.0 r.Power.clock_fraction

let test_faster_clock_more_power () =
  let _, pl, _ = single_reg () in
  let slow = estimate pl in
  let fast = estimate ~config:{ cfg with Power.clock_period = 500.0 } pl in
  checkf "halving the period doubles clock power"
    (2.0 *. slow.Power.clock_power) fast.Power.clock_power

let test_vdd_quadratic () =
  let _, pl, _ = single_reg () in
  let v1 = estimate pl in
  let v2 = estimate ~config:{ cfg with Power.vdd = 2.0 } pl in
  checkf "4x at double vdd" (4.0 *. v1.Power.clock_power) v2.Power.clock_power

let test_clock_share_in_paper_range () =
  let g = G.generate (P.tiny ~seed:515) in
  let r =
    estimate ~config:(Power.config_of_sta g.G.sta_config)
      ~sta_config:g.G.sta_config g.G.placement
  in
  (* §1: clock is 20-40 % of dynamic power for synchronous designs *)
  check "clock share plausible" true
    (r.Power.clock_fraction > 0.15 && r.Power.clock_fraction < 0.55);
  check "both components positive" true
    (r.Power.clock_power > 0.0 && r.Power.signal_power > 0.0)

let test_composition_reduces_clock_power () =
  let g = G.generate (P.tiny ~seed:616) in
  let r =
    Flow.run ~design:g.G.design ~placement:g.G.placement ~library:g.G.library
      ~sta_config:g.G.sta_config ()
  in
  check "clock power drops" true
    (r.Flow.after.Metrics.clk_power < r.Flow.before.Metrics.clk_power);
  check "share reported" true
    (r.Flow.before.Metrics.clk_power_frac > 0.0
    && r.Flow.before.Metrics.clk_power_frac < 1.0)

(* ---- the oracle: signal cap from freshly built pin lists ---- *)

(* Power as it was before it read the engine's net-load terms: per
   driven non-clock net, the sink pin caps plus wire cap × the HPWL of
   a pin list rebuilt from the design (dead and unplaced cells
   skipped), accumulated as (acc + pin caps) + wire. The library must
   match it bit for bit. *)
let oracle_hpwl pl nid =
  let dsg = Placement.design pl in
  let pts =
    List.filter_map
      (fun pid ->
        let p = Design.pin dsg pid in
        if (Design.cell dsg p.Types.p_cell).Types.c_dead then None
        else
          match Placement.location_opt pl p.Types.p_cell with
          | Some _ -> Some (Placement.pin_location pl pid)
          | None -> None)
      (Design.net_pins dsg nid)
  in
  match pts with
  | [] | [ _ ] -> 0.0
  | pts -> Rect.half_perimeter (Rect.of_points pts)

let oracle_power (cfg : Power.config) ~wire_cap ~(cts : Synth.result) pl =
  let dsg = Placement.design pl in
  let uw ~cap ~activity =
    1000.0 *. cap *. cfg.Power.vdd *. cfg.Power.vdd *. activity
    /. cfg.Power.clock_period
  in
  let clock_power = uw ~cap:cts.Synth.total_cap ~activity:1.0 in
  let signal_cap = ref 0.0 in
  for nid = 0 to Design.n_nets dsg - 1 do
    if (not (Design.net dsg nid).Types.n_is_clock) && Design.driver dsg nid <> None
    then begin
      let pin_caps =
        List.fold_left
          (fun acc pid -> acc +. Design.pin_cap dsg pid)
          0.0 (Design.sinks dsg nid)
      in
      signal_cap := !signal_cap +. pin_caps +. (wire_cap *. oracle_hpwl pl nid)
    end
  done;
  let signal_power = uw ~cap:!signal_cap ~activity:cfg.Power.data_activity in
  let dynamic = clock_power +. signal_power in
  (clock_power, signal_power, if dynamic > 0.0 then clock_power /. dynamic else 0.0)

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* The generators of the ECO-equivalence suite (test_flow_eco): a
   half-scale tiny profile, then identically-seeded perturbation
   batches. One long-lived engine follows the edits the way a session's
   does; [Power.estimate] and the [Metrics.collect] power fields are
   both held to the oracle. *)
let power_matches_oracle =
  QCheck.Test.make ~name:"signal power = pin-walk oracle through flows and ECOs"
    ~count:20
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let g = G.generate (P.scaled (P.tiny ~seed:(seed mod 37)) 0.5) in
      let pl = g.G.placement in
      let eng = Engine.build ~config:g.G.sta_config pl in
      let config = Power.config_of_sta g.G.sta_config in
      let wire_cap = g.G.sta_config.Engine.wire_cap in
      let agrees stage =
        let fail what a b =
          QCheck.Test.fail_reportf "seed %d %s: %s %h vs oracle %h" seed stage
            what a b
        in
        let m = Metrics.collect eng g.G.library in
        let cts = Synth.synthesize pl in
        let r = Power.estimate ~config ~cts eng in
        let clock, signal, frac = oracle_power config ~wire_cap ~cts pl in
        if not (same_bits r.Power.signal_power signal) then
          fail "signal_power" r.Power.signal_power signal;
        if not (same_bits r.Power.clock_fraction frac) then
          fail "clock_fraction" r.Power.clock_fraction frac;
        if not (same_bits m.Metrics.clk_power clock) then
          fail "Metrics clk_power" m.Metrics.clk_power clock;
        if not (same_bits m.Metrics.clk_power_frac frac) then
          fail "Metrics clk_power_frac" m.Metrics.clk_power_frac frac;
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
  Alcotest.run "mbr_core.power"
    [
      ( "model",
        [
          Alcotest.test_case "units" `Quick test_units;
          Alcotest.test_case "frequency scaling" `Quick test_faster_clock_more_power;
          Alcotest.test_case "vdd quadratic" `Quick test_vdd_quadratic;
        ] );
      ( "designs",
        [
          Alcotest.test_case "clock share 20-40%" `Quick test_clock_share_in_paper_range;
          Alcotest.test_case "composition reduces clock power" `Quick
            test_composition_reduces_clock_power;
          QCheck_alcotest.to_alcotest power_matches_oracle;
        ] );
    ]
