(** Design-level wirelength and congestion estimation.

    Signal nets are decomposed into a star from the pin median and each
    branch is L-routed onto the grid; wirelength is the star length
    (a tighter estimate than pure HPWL for multi-pin nets, without a
    full Steiner construction). Pin locations come from the
    placement's per-net cache ({!Mbr_place.Placement.net_pin_points}),
    the same list the timing engine reads. Clock nets are excluded
    here — their wire is owned by the clock tree ({!Mbr_cts}) both in
    the paper's Table 1 ("Wirelength Clk" vs "Other") and in this
    reproduction. *)

type config = {
  gcell : float;  (** tile size, µm *)
  cap_h : float;  (** horizontal tracks per edge *)
  cap_v : float;  (** vertical tracks per edge *)
}

val default_config : config
(** The grid {!estimate} routes on: 10 µm tiles, 14 horizontal and 12
    vertical tracks per edge. *)

type result = {
  signal_wl : float;  (** total star wirelength of non-clock nets, µm *)
  overflow_edges : int;  (** Table 1's "Ovfl Edges" *)
}

val net_star_wl : Mbr_place.Placement.t -> Mbr_netlist.Types.net_id -> float
(** Star wirelength of one net (0 for fewer than 2 placed pins). *)

val estimate : Mbr_place.Placement.t -> result
(** Star wirelength and overflow edges of every signal net on a fresh
    {!default_config} grid. *)
