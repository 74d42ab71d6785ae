(** Metrics registry: named counters, gauges and fixed-bucket cycle
    histograms.

    One registry per simulated machine; [Engine], [Udma_engine], [Vm],
    [Scheduler], [Dma_engine] and [Network_interface] all publish into
    it. Counters keep the familiar [Stats] increment API so existing
    call sites port mechanically; histograms replace ad-hoc float
    series for latency-shaped data. *)

type t

val create : unit -> t

(** {1 Counters} *)

val incr : t -> string -> unit
(** Bump a counter by one, creating it at 0. *)

val add : t -> string -> int -> unit

val set : t -> string -> int -> unit
(** Publish an absolute value — used by hardware models that keep
    internal counters and mirror them into the registry. *)

val get : t -> string -> int
(** Counter value, 0 if never touched. *)

val counters : t -> (string * int) list
(** All counters, sorted by name. *)

type counter
(** A pre-resolved handle on one named counter, for hot paths that
    would otherwise hash the name on every bump. The counter is looked
    up (and created at 0) on the handle's first bump, not when the
    handle is made, so holding a handle registers no name. *)

val counter : t -> string -> counter

val bump : counter -> unit
(** [incr] through a handle. *)

val bump_by : counter -> int -> unit
(** [add] through a handle. *)

(** {1 Gauges} — last-write-wins instantaneous values. *)

val set_gauge : t -> string -> float -> unit

val gauge : t -> string -> float option

val gauges : t -> (string * float) list

(** {1 Histograms}

    Fixed upper-edge buckets. A value [v] lands in the first bucket
    whose edge satisfies [v <= edge]; values above the last edge land
    in the overflow bucket. Default edges are powers of two from 1 to
    65536 — a good ladder for cycle counts. *)

val default_buckets : int list

val observe : t -> ?buckets:int list -> string -> int -> unit
(** Record one value into histogram [name], creating the histogram on
    first use ([buckets] only takes effect then; edges must be
    strictly increasing, checked at creation). *)

type series
(** A handle on one named histogram, resolved on its first {!record}
    like a {!counter}. *)

val series : t -> ?buckets:int list -> string -> series
(** [buckets] applies if the first {!record} creates the histogram. *)

val record : series -> int -> unit
(** [observe] through a handle. *)

type histogram = {
  buckets : (int * int) list;  (** (upper edge, count), ascending. *)
  overflow : int;  (** Count of values above the last edge. *)
  count : int;
  sum : int;
}

val histogram : t -> string -> histogram option

val percentile : histogram -> float -> int option
(** [percentile h p] is the smallest bucket upper edge covering [p]
    percent of the observations ([None] for an empty histogram; one
    past the last edge if the percentile falls in the overflow
    bucket). An upper-bound estimate — resolution is the bucket
    ladder. Raises [Invalid_argument] unless [0 < p <= 100]. *)

val histograms : t -> (string * histogram) list

(** {1 Export} *)

val to_json : t -> Json.t
(** [{"counters": {...}, "gauges": {...}, "histograms": {...}}]. *)
