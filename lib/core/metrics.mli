(** The Table 1 measurement bundle: one snapshot of a placed design,
    collected identically before and after composition so the Save
    percentages are apples-to-apples. *)

type t = {
  cells : int;  (** live cells *)
  area : float;  (** µm², cell area + clock-tree buffer area *)
  clk_wl : float;  (** clock-tree wirelength, µm *)
  other_wl : float;  (** signal (star) wirelength, µm *)
  total_regs : int;
  comp_regs : int;  (** composable under {!Compat.is_composable} *)
  clk_bufs : int;
  clk_cap : float;  (** fF: sinks + clock wire + buffers *)
  clk_power : float;  (** µW at the design's clock period (see {!Power}) *)
  clk_power_frac : float;  (** clock share of dynamic power (§1: 20–40 %) *)
  tns : float;  (** ps, <= 0, worst-corner *)
  wns : float;  (** ps, worst-corner *)
  failing : int;
  endpoints : int;
  ovfl : int;  (** overflow edges *)
  utilization : float;
  corners : (string * float * float) list;
      (** per-corner [(name, wns, tns)], in the engine's corner-set
          order; a single ["typical"] entry for single-corner runs *)
}

val collect : Mbr_sta.Engine.t -> Mbr_liberty.Library.t -> t
(** Refreshes the engine (with whatever useful skew it carries) and
    reads the timing fields from its worst-corner accessors (the
    [corners] rows from {!Mbr_sta.Engine.per_corner_wns_tns}); runs CTS
    and the congestion estimate on the engine's placement with their
    default configs. Net geometry comes from the placement's per-net
    cache and signal power from the engine's net loads, so each number
    has one source. *)

val pp_row : Format.formatter -> t -> unit
(** One-line human-readable summary. *)

val save_pct : before:t -> after:t -> (string * float) list
(** The paper's "Save" row: percent improvement per column (positive =
    better). *)
