(** Halo-exchange collective over shaped user-level transfers (E16).

    Every mesh node owns a [tile_rows × row_bytes] tile of a
    distributed grid and runs a BSP stencil loop: compute on the tile,
    then exchange one-deep halos with each mesh neighbour and wait for
    theirs. North/south halos are whole boundary rows — contiguous
    sends of [row_bytes]. East/west halos are boundary {e columns}:
    [halo_cols] bytes out of every row, sent with the shaped
    (strided) descriptor path of {!Udma_shrimp.Messaging.send_strided}
    — [chunk = halo_cols], [stride = row_bytes], one transfer per
    iteration instead of [tile_rows] little sends.

    Iteration [k] at a node completes when the halos tagged [k] from
    {e all} its neighbours have been deposited (per-neighbour
    cumulative receive counters; neighbours drift by at most one
    iteration, so counts disambiguate). The per-(node, iteration)
    latency sample is barrier time: iteration start to last halo
    arrival, so stragglers, credit stalls and link contention all land
    in the tail.

    [load] sets compute per iteration from the max-degree node's send
    work [w] (two strided + two contiguous initiations):
    [compute = w·(1/load − 1)], making [load] the fraction of an
    interior node's iteration the CPU spends initiating transfers —
    crank it up and the exchange, not the stencil, dominates. *)

type config = {
  fabric : Fabric.config;
  tile_rows : int;  (** rows per tile; strided span must fit the page *)
  row_bytes : int;  (** bytes per tile row (4-byte multiple) *)
  halo_cols : int;  (** east/west halo bytes per row (4-byte multiple) *)
  iterations : int;  (** measured BSP iterations, >= 1 *)
  warmup_iters : int;  (** leading iterations excluded from stats *)
  load : float;  (** in (0, 1]; send-work fraction of an iteration *)
}

val default_config : config
(** 16 nodes, 32×128-byte tiles, 16-byte east/west halos, 30
    iterations after 2 warmup, load 0.5. *)

type result = {
  iterations : int;  (** measured (post-warmup) iterations *)
  stats : Slo.stats;  (** per-(node, iteration) barrier latency *)
  makespan_cycles : int;  (** first issue to global completion *)
  strided_send_cycles : int;  (** calibrated east/west initiation *)
  contiguous_send_cycles : int;  (** calibrated north/south initiation *)
  compute_cycles : int;  (** derived per-iteration compute *)
  halos_sent : int;
  credit_stalls : int;
  drained : bool;  (** every node finished every iteration *)
}

val validate : config -> unit
(** Raises [Invalid_argument] naming the first field (fabric included)
    outside its documented range; {!run} calls it first. *)

val run : ?probe:(Udma_sim.Engine.t -> unit) -> config -> result
(** Deterministic under [config.fabric.seed]; [probe] receives the
    fabric's engine before the run (for cycle-breakdown collection).
    Raises [Invalid_argument] on a config outside the documented
    ranges (including a strided span that would overrun the source
    page). *)
