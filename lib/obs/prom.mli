(** Prometheus text exposition (format 0.0.4) of a {!Metrics}
    snapshot.

    Every snapshot key is split with {!Metrics.split_series}; base
    names are mapped onto the exposition grammar ([mbr_] prefix,
    every character outside [[a-zA-Z0-9]] becomes [_]) and series
    sharing a base name are grouped into one family under a single
    [# TYPE] line. Histograms render as cumulative
    [_bucket{le="..."}] samples plus the [+Inf] bucket, [_sum] and
    [_count]. The output of {!render} always parses: name collisions
    created by sanitization get a [_dup<n>] suffix rather than
    emitting a duplicate family. *)

val render : Metrics.snapshot -> string
(** The whole snapshot as exposition text, one family per metric,
    ending in a newline (empty string for an empty snapshot). *)

val metric_name : string -> string
(** Exposition name for a raw metric base name, e.g.
    ["flow.recompose_s"] → ["mbr_flow_recompose_s"]. Always satisfies
    {!is_legal_metric_name}. *)

val label_name : string -> string
(** Exposition name for a raw label key. Always satisfies
    {!is_legal_label_name} (never starts with the reserved [__]). *)

val float_str : float -> string
(** Sample-value rendering: integral floats without a fraction,
    [NaN]/[+Inf]/[-Inf] spelled the way Prometheus parses them. *)

val is_legal_metric_name : string -> bool
(** [[a-zA-Z_:][a-zA-Z0-9_:]*] — the exposition grammar for metric
    names. *)

val is_legal_label_name : string -> bool
(** [[a-zA-Z_][a-zA-Z0-9_]*] and not starting with [__]. *)
