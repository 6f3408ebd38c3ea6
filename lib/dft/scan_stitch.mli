(** Scan-chain stitching and verification.

    The paper's scan-compatibility rules (§2) exist to keep the scan
    chains stitchable after composition; this module makes that
    concrete: it wires one chain per scan partition (SI port → SI/SO
    hops → SO port), re-wires after composition, and verifies chain
    integrity.

    Ordering inside a partition: ordered sections first, section by
    section, each in ascending position (§2's order constraint), then
    the unordered registers, greedily nearest-neighbour from the last
    endpoint (short chains = less routing — the §4.1 concern about
    external chains). The walk queries a {!Mbr_geom.Spatial} grid for
    the closest remaining register, so ordering a partition of m
    registers costs about O(m) grid lookups rather than O(m²) distance
    evaluations. Internal-scan MBRs contribute one hop (the chain
    enters SI0 and leaves SO0 through the cell's internal chain);
    per-bit-scan cells contribute one hop per bit, wired externally. *)

type report = {
  n_chains : int;
  n_hops : int;  (** SI/SO pin pairs threaded *)
  wirelength : float;  (** Manhattan length of the stitched nets, µm *)
}

val chain_order :
  ?scanned:int ref ->
  Mbr_place.Placement.t ->
  Mbr_netlist.Types.cell_id list ->
  Mbr_netlist.Types.cell_id list
(** One partition's chain order, [members] given in ascending cid order
    (as {!stitch} passes them): ordered-section members sorted by
    (section, position, cid); then the placed unordered registers, a
    greedy walk from the last section member's center (or, when that is
    unplaced or there is none, from the lowest-cid placed register's)
    that always steps to the remaining register at the least Manhattan
    distance between centers, the smaller cid on a tie; then the
    unplaced unordered registers in input order. [scanned] accumulates
    the grid buckets the walk visited. *)

val stitch : Mbr_place.Placement.t -> report
(** (Re)stitch every partition of the design. Existing scan wiring is
    dropped first, so the call is idempotent; chain ports are created
    on demand (named [scan_si<p>] / [scan_so<p>]). Unplaced scannable
    registers are appended at the end of their partition's chain.

    Traced as three sub-spans: [dft.unwire] (drop the old hops),
    [dft.order] ({!chain_order} per partition; bumps the
    [dft.nn_cells_scanned] counter) and [dft.thread] (new hop nets and
    ports). *)

val verify : Mbr_netlist.Design.t -> string list
(** Chain-integrity violations (empty = healthy): every scannable
    register reachable from its partition's SI port exactly once,
    chains terminate at the SO port, and ordered-section members appear
    in ascending position order along the chain. *)
