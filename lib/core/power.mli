(** Power estimation — the quantity the paper actually optimizes for
    (§1: clock distribution is 20–40 % of a synchronous design's
    dynamic power).

    Dynamic power follows the standard 0.5·α·f·C·V² model. The clock
    network toggles every cycle (α = 1, twice the data rate is already
    folded into the 0.5·f convention for clocks: two edges per period
    drive CV² of charge through the network per cycle); data nets use a
    configurable activity factor. The clock capacitance comes from the
    clock tree ({!Mbr_cts.Synth}); the signal capacitance is the
    engine's net load (sink pin caps + wire cap × HPWL,
    {!Mbr_sta.Engine.net_pin_cap} / {!Mbr_sta.Engine.net_wire_cap}) — the
    same load every delay is computed from. *)

type config = {
  vdd : float;  (** supply, V (default 0.9 — 28 nm-flavoured) *)
  clock_period : float;  (** ps *)
  data_activity : float;  (** toggles per cycle on signal nets (default 0.25) *)
}

val config_of_sta : Mbr_sta.Engine.config -> config
(** Defaults with the period taken from an STA config. *)

type report = {
  clock_power : float;  (** µW: sinks + clock wire + buffers, every cycle *)
  signal_power : float;  (** µW: driven data nets' loads at [data_activity] *)
  clock_fraction : float;  (** clock_power / total dynamic *)
}

val estimate :
  config:config -> cts:Mbr_cts.Synth.result -> Mbr_sta.Engine.t -> report
(** Clock power from [cts] (a tree synthesized on the engine's current
    placement); signal power from the engine's net loads over every
    driven non-clock net, summed in net-id order. *)
