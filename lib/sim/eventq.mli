(** Priority queue of timestamped events.

    A binary min-heap keyed by (time, key, sequence number). The
    sequence number guarantees that two events scheduled for the same
    cycle (and same key) fire in insertion order, which keeps every
    simulation run deterministic. The optional key gives callers a
    second ordering slot between time and insertion order; the sharded
    engine uses it to make cross-shard merges independent of shard
    count. Legacy callers omit it (all keys equal → pure FIFO ties,
    the historical order).

    The heap is stored as structure-of-arrays — time, key and sequence
    number in unboxed [int] arrays, payloads in a parallel array — so
    {!push}, {!min_time} and {!take} allocate nothing once the arrays
    have grown to the queue's peak depth. Taken and cleared slots are
    explicitly nulled so the queue never keeps dead event closures (and
    whatever they capture — engines, buffers, metrics) reachable. *)

type 'a t
(** Mutable event queue holding payloads of type ['a]. *)

val create : unit -> 'a t
(** [create ()] is a fresh empty queue. *)

val is_empty : 'a t -> bool
(** [is_empty q] is [true] iff no event is pending. *)

val length : 'a t -> int
(** [length q] is the number of pending events. *)

val push : 'a t -> time:int -> ?key:int -> 'a -> unit
(** [push q ~time ?key payload] schedules [payload] at cycle [time].
    [key] (default 0) breaks time ties before insertion order.
    Raises [Invalid_argument] if [time < 0]. *)

val min_time : 'a t -> int
(** [min_time q] is the firing time of the earliest event, or [max_int]
    when [q] is empty. Allocates nothing. *)

val take : 'a t -> 'a
(** [take q] removes the earliest event and returns its payload; its
    time is the {!min_time} read just before. Ties fire in (key,
    insertion) order. The vacated heap slot is cleared, so the returned
    payload is the only remaining reference. Allocates nothing. Raises
    [Invalid_argument] if [q] is empty. *)

val peek_time : 'a t -> int option
(** [peek_time q] is the firing time of the earliest event, if any. *)

val pop : 'a t -> (int * 'a) option
(** [pop q] is [Some (min_time q, take q)], or [None] when [q] is
    empty. *)

val clear : 'a t -> unit
(** [clear q] discards all pending events and drops every reference to
    their payloads. *)
