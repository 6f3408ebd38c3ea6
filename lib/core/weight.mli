(** The placement-aware candidate weight of §3.2.

    For a candidate MBR M with [b] total bits whose test polygon (the
    convex hull of its constituent registers' footprint corners)
    contains the centers of [n] foreign registers:

    {v w = 1/b          when n = 0        (clean: bigger is better)
       w = b * 2^n      when 0 < n < b    (intertwined: exponentially bad)
       w = infinity     when n >= b       (rejected outright) v}

    Singleton candidates — keeping an existing register as is, the
    paper's "Original" column in Fig. 3 — cost exactly 1 regardless of
    width: the objective counts registers, and only {e new} merges earn
    the 1/b discount. *)

val test_polygon : Mbr_geom.Rect.t list -> Mbr_geom.Point.t list
(** Convex hull of the footprints' corners. *)

val count_blockers :
  polygon:Mbr_geom.Point.t list ->
  constituents:Mbr_netlist.Types.cell_id list ->
  index:Mbr_netlist.Types.cell_id Mbr_geom.Spatial.t ->
  int
(** Registers in [index] whose center lies inside [polygon], minus the
    constituents. Reads [index] through {!Spatial.query_rect} only —
    safe from multiple domains under the read-only sharing invariant
    of {!Allocate}. *)

val formula : bits:int -> blockers:int -> float
(** The three-case weight above (for multi-register candidates).
    Raises [Invalid_argument] when [bits <= 0]. *)

val candidate_weight :
  n_members:int -> bits:int -> blockers:int -> float
(** [formula] for [n_members >= 2]; exactly 1.0 for a singleton. *)
