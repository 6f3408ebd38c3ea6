(** Domain-safe metrics registry: named counters, gauges and fixed-bin
    histograms.

    Handles are registered once by name (typically at module load or
    stage setup) and bumped from anywhere — including
    {!Mbr_util.Pool} worker domains: every mutation is a single
    [Atomic] operation (a CAS loop for float accumulation), so
    concurrent bumps lose no increments and a {!snapshot} taken between
    fan-outs is deterministic for a deterministic workload regardless
    of the jobs setting (property-tested).

    The registry is {e disabled by default}: a disabled bump is one
    atomic load and nothing else, keeping instrumented hot paths
    (per-block solves, STA worklists, simplex pivots) clean when nobody
    is looking. Registration itself is always live so handles can be
    created eagerly at the top of instrumented modules.

    Histogram bins follow the [Mbr_util.Stats.histogram] convention:
    [bins] holds ascending upper edges, an observation lands in the
    first bin whose edge it does not exceed, and one extra overflow bin
    catches the rest — so [counts] has [length bins + 1] entries. *)

type counter

type gauge

type histogram

val enable : unit -> unit

val disable : unit -> unit

val is_enabled : unit -> bool

val reset : unit -> unit
(** Zero every value; registrations (names, bins, handles) survive. *)

val counter : ?labels:(string * string) list -> string -> counter
(** Register (or retrieve — registration is idempotent) the named
    counter. Raises [Invalid_argument] when the name is already bound
    to a different metric kind.

    [labels] makes this a {e labeled series}: the registry key becomes
    the canonical form [name{k="v",...}] (labels sorted by key, values
    escaped as in the Prometheus text format), so
    [counter ~labels:[("session","a")] "svc.requests"] and the same
    with [("session","b")] are two independent series that appear as
    two entries in every {!snapshot}. Consumers that want the
    structure back use {!split_series}. *)

val incr : ?by:int -> counter -> unit

val counter_value : counter -> int

val gauge : ?labels:(string * string) list -> string -> gauge

val set : gauge -> float -> unit

val histogram :
  ?bins:float array -> ?labels:(string * string) list -> string -> histogram
(** [bins] defaults to a log-spaced seconds scale (0.1 ms .. 3 s)
    suitable for the solve/stage timings this repo observes. The bins
    of the first registration win; re-registering with different bins
    raises [Invalid_argument]. *)

val observe : histogram -> float -> unit

(** {2 Snapshots} *)

type histo_snapshot = {
  bins : float array;  (** ascending upper edges *)
  counts : int array;  (** per-bin counts, length [bins + 1] *)
  sum : float;
  count : int;
}

type snapshot = {
  counters : (string * int) list;  (** sorted by name *)
  gauges : (string * float) list;
  histograms : (string * histo_snapshot) list;
}

val snapshot : unit -> snapshot
(** Point-in-time copy of every registered metric (readable even while
    disabled — values simply stop moving). *)

val snapshot_json : snapshot -> Json.t
(** [{"counters": {...}, "gauges": {...}, "histograms": {name:
    {"bins", "counts", "sum", "count"}}}]. *)

val snapshot_of_json : Json.t -> (snapshot, string) result
(** Inverse of {!snapshot_json} (missing sections read as empty; the
    result is re-sorted by name). This is what remote consumers — the
    [telemetry] verb's clients, [tools/prom_export] — use to get a
    first-class snapshot back from the wire. *)

val escape_label_value : string -> string
(** Backslash, double quote and newline escaped as the Prometheus text
    format requires; everything else byte-for-byte. Label values inside
    {!series_name} keys and the {!Prom} exposition both use it. *)

val series_name : string -> (string * string) list -> string
(** Canonical registry key for [name] under [labels] — [name] itself
    when [labels] is empty. *)

val split_series : string -> string * (string * string) list
(** Parse a snapshot key back into (base name, labels). Total: a key
    that is not in canonical labeled form comes back as
    [(key, \[\])]. Inverse of {!series_name} for well-formed keys. *)

val quantile : histo_snapshot -> float -> float
(** [quantile h q] estimates the [q]-quantile (clamped to [0,1]) of
    the observations by linear interpolation inside the bin where the
    target rank falls, taking 0 as the lower edge of the first bin.
    Ranks landing in the overflow bin report the last finite edge (a
    lower bound). 0 when the histogram is empty. *)

(** Pure functions over snapshots: the delta/merge algebra behind the
    [telemetry] verb's cursor protocol. For snapshots [s1] taken
    before [s2] of the same registry,
    [apply ~base:s1 (diff ~base:s1 s2) = s2] (property-tested). *)
module Snapshot : sig
  type t = snapshot

  val diff : base:t -> t -> t
  (** Per-series change from [base] to the newer snapshot: counters
      and histograms subtract (series absent from [base] pass through
      whole), gauges report the newer value. Series absent from the
      newer snapshot are dropped — the registry only grows, so this
      only happens across a {!reset}. *)

  val apply : base:t -> t -> t
  (** Re-play a {!diff} onto [base]: counters/histograms add, gauges
      take the delta's value; series only in one side pass through. *)
end

val pp : Format.formatter -> snapshot -> unit
(** Human-readable table: counters, gauges, then histograms with
    count/mean/max-bin summaries. *)

val write : string -> unit
(** Current {!snapshot} as JSON to a file. *)
