module Design = Mbr_netlist.Design
module Types = Mbr_netlist.Types
module Synth = Mbr_cts.Synth
module Engine = Mbr_sta.Engine

type config = { vdd : float; clock_period : float; data_activity : float }

let config_of_sta (sta : Engine.config) =
  { vdd = 0.9; clock_period = sta.Engine.clock_period; data_activity = 0.25 }

type report = {
  clock_power : float;
  signal_power : float;
  clock_fraction : float;
}

(* P[µW] = 1000 * C[fF] * Vdd^2 / period[ps] * activity:
   1 fF*V^2/ps = 1 mW = 1000 µW. *)
let dynamic_uw cfg ~cap ~activity =
  1000.0 *. cap *. cfg.vdd *. cfg.vdd *. activity /. cfg.clock_period

let estimate ~config ~cts eng =
  let dsg = Mbr_place.Placement.design (Engine.placement eng) in
  let clock_power = dynamic_uw config ~cap:cts.Synth.total_cap ~activity:1.0 in
  let signal_cap = ref 0.0 in
  for nid = 0 to Design.n_nets dsg - 1 do
    if (not (Design.net dsg nid).Types.n_is_clock) && Design.driver dsg nid <> None
    then
      signal_cap :=
        !signal_cap +. Engine.net_pin_cap eng nid +. Engine.net_wire_cap eng nid
  done;
  let signal_power =
    dynamic_uw config ~cap:!signal_cap ~activity:config.data_activity
  in
  let dynamic = clock_power +. signal_power in
  {
    clock_power;
    signal_power;
    clock_fraction = (if dynamic > 0.0 then clock_power /. dynamic else 0.0);
  }
