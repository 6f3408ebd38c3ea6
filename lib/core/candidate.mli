(** Candidate-MBR enumeration (§3): the valid cliques of a partition
    block of the compatibility graph.

    All cliques are enumerated by ordered DFS (equivalent to
    sub-clique enumeration of the Bron–Kerbosch maximal cliques, but
    with the validity prunes applied {e during} the walk):

    - total bits never exceed the widest library MBR of the class;
    - the running intersection of feasible regions stays non-empty
      (there must be somewhere to put the merged MBR);
    - extension is ordered by distance from the running centroid, and a
      per-block candidate cap keeps dense blocks tractable.

    A clique is a valid candidate when its bit total matches a library
    width exactly, or — when incomplete MBRs are enabled — rounds up to
    the next width while passing the paper's two area rules (area/bit
    below the members' average, and total area within the configured
    overhead of the replaced area). Singletons ("keep this register")
    are always valid and cost exactly 1. *)

type config = {
  allow_incomplete : bool;
  incomplete_area_overhead : float;
      (** e.g. 0.05: incomplete cell area <= (1+5%) × replaced area (§5) *)
  max_per_block : int;  (** enumeration cap (default 6_000) *)
  use_weights : bool;
      (** false = ablation: every merge weighs 1/bits, blockers ignored *)
}

val default_config : config

type t = {
  members : int list;  (** graph-node indices, ascending *)
  member_cids : Mbr_netlist.Types.cell_id list;
  bits : int;  (** connected bits (the paper's b_i) *)
  target_bits : int;  (** library width the candidate maps to *)
  incomplete : bool;
  weight : float;
  region : Mbr_geom.Rect.t;  (** common timing-feasible region *)
  func_class : string;
}

val is_singleton : t -> bool

val iter :
  config ->
  Compat.graph ->
  block:int list ->
  lib:Mbr_liberty.Library.t ->
  blocker_index:Mbr_netlist.Types.cell_id Mbr_geom.Spatial.t ->
  (t -> unit) ->
  unit
(** Streams the candidates of one partition block (node ids refer to
    the full graph) to the callback, each exactly once, without
    materializing the set — peak memory is the per-block dedup table,
    not the candidate list. {!enumerate} is this with a list
    accumulator; consumers that fold candidates into their own
    structures (the ILP problem builder) should use [iter] directly.

    {b Domain safety:} [iter] only reads [graph], [lib] and
    [blocker_index]; all of its working state (the DFS frontier, seen
    sets, tiling cover tables) is allocated per call. Concurrent calls
    from multiple domains on the same inputs are safe as long as nobody
    mutates those inputs — the read-only sharing invariant documented
    in {!Allocate}. *)

val enumerate :
  config ->
  Compat.graph ->
  block:int list ->
  lib:Mbr_liberty.Library.t ->
  blocker_index:Mbr_netlist.Types.cell_id Mbr_geom.Spatial.t ->
  t list
(** Materialized {!iter}, in emission order; weights of infinity are
    filtered out. *)
