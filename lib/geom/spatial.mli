(** Point index on a uniform grid, the one spatial index of the repo:
    blocker lookups for the weight heuristic (which registers' centers
    fall inside a candidate's test polygon), other range queries over
    cell centers, and the nearest-neighbour walk that orders scan
    chains. *)

type 'a t

val create : ?bucket:float -> unit -> 'a t
(** [bucket] is the grid pitch in µm (default 25). *)

val add : 'a t -> 'a -> Point.t -> unit

val remove : 'a t -> 'a -> Point.t -> unit
(** Removes one occurrence of the (value, point) pair, if present. *)

val update : 'a t -> 'a -> from:Point.t -> to_:Point.t -> unit
(** Moves one occurrence of [(value, from)] to [(value, to_)].
    Equivalent to [remove] + [add] but rewrites the entry in place when
    both points hash to the same grid cell, so ECO sessions that jitter
    blockers by less than a bucket pitch do not churn the table. If the
    [(value, from)] entry is absent, the value is simply added at
    [to_]. *)

val query_rect : 'a t -> Rect.t -> ('a * Point.t) list
(** All entries whose point lies in the closed rectangle.

    {b Domain safety:} a pure read — it never touches the index's
    mutable state. Any number of domains may query the same index
    concurrently provided no [add]/[remove] runs at the same time;
    the allocate stage upholds this by fully populating the blocker
    index before fanning out (see {!Allocate}). *)

val nearest : ?scanned:int ref -> 'a t -> Point.t -> ('a * Point.t) option
(** The entry at the least Manhattan distance from the point, ties
    broken by the smaller value (polymorphic [compare]); [None] when the
    index is empty. Exact: a ring search outward from the point's grid
    bucket that stops once no unscanned bucket can hold an entry as
    close. Each bucket visited bumps [scanned]. A pure read, domain
    safe like {!query_rect}. *)

val size : 'a t -> int

val n_buckets : 'a t -> int
(** Grid buckets currently allocated; emptied buckets are reclaimed, so
    this tracks the live population, not the historical footprint. *)
