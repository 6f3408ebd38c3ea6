(** MBR placement (§4.2): the wirelength-minimizing location of a new
    MBR inside the common timing-feasible region.

    Every connected D/Q pin of the new cell contributes the half-
    perimeter of the bounding box spanned by its fan-in/fan-out pins
    and the (unknown) pin location, expressed relative to the cell's
    lower-left corner plus the pin's fixed offset — exactly the LP of
    the paper, with max/min linearized away. Because the objective is
    separable per axis and convex piecewise-linear, the solver is an
    exact weighted-median scan ({!Mbr_lp.Piecewise}). The test suite
    cross-checks it against the same program solved with the simplex
    (helper variables for max/min). *)

type conn_box = {
  offset : Mbr_geom.Point.t;  (** pin offset from the cell corner *)
  box : Mbr_geom.Rect.t;  (** bbox of the pins the MBR pin connects to *)
}

val conn_boxes :
  Mbr_place.Placement.t ->
  cell:Mbr_liberty.Cell.t ->
  assignment:(int * Mbr_netlist.Types.net_id option * Mbr_netlist.Types.net_id option) list ->
  exclude:Mbr_netlist.Types.cell_id list ->
  conn_box list
(** [assignment] maps new-cell bit -> (D net, Q net); pins owned by
    [exclude]d cells (the registers being replaced) and unplaced cells
    do not contribute to the boxes. Bits whose net has no remaining
    pins yield no box. *)

val optimal_corner :
  cell:Mbr_liberty.Cell.t ->
  conns:conn_box list ->
  region:Mbr_geom.Rect.t ->
  Mbr_geom.Point.t * float
(** Exact minimizer (corner, objective). The corner keeps the footprint
    inside [region] when the region is large enough; otherwise it is
    clamped to the region's lower-left corner. *)
