(** Experiment harnesses — one per paper table/figure (see DESIGN.md §4
    for the index). Each experiment has two entry points: the typed-row
    function (kept stable for tests) and a [report_*] builder that runs
    the same harness and packages rows, parameters and a cycle
    breakdown into a {!Udma_obs.Report.t}. The paper-style table and
    the JSON document both derive from that one value
    ([Udma_obs.Report.print] / [Udma_obs.Report.to_json]), so
    `bench/main.exe` and `bin/shrimp_sim.exe` can never drift. *)

module Report = Udma_obs.Report

(** {1 E1 — Figure 8: deliberate-update bandwidth vs. message size} *)

type bw_point = {
  size : int;
  cycles_per_msg : float;
  bytes_per_cycle : float;
  pct_of_max : float;
}

val figure8 :
  ?sizes:int list -> ?messages:int -> ?queued:bool -> unit -> bw_point list
(** 2-node SHRIMP, back-to-back blocking sends of each size
    ([messages] per point, default 32), normalised to the maximum
    measured bandwidth, exactly as Figure 8. [queued] (default false)
    swaps in the §7 queued hardware and the pipelined initiator as an
    ablation. *)

val report_figure8 :
  ?sizes:int list -> ?messages:int -> ?queued:bool -> unit -> Report.t

(** {1 E2 — initiation cost (the §8 "2.8 µs" and §1/§2 contrast)} *)

type cost_row = { label : string; cycles : int; us : float }

val initiation_costs : unit -> cost_row list
(** UDMA two-reference initiation vs. the traditional kernel paths
    (pin and copy strategies, 4 B and 4 KB), on the default profile. *)

val report_costs : unit -> Report.t

(** {1 E3 — §1 HIPPI motivation: kernel DMA bandwidth vs. block size} *)

type hippi_row = {
  block : int;
  mbytes_per_s : float;
  pct_of_channel : float;
}

val hippi_motivation : ?blocks:int list -> unit -> hippi_row list
(** Kernel-initiated DMA on the HIPPI cost profile over a ~96 MB/s
    channel; reproduces "2.7 MB/s at 1 KB" and the large-block
    requirement for 80 % utilisation. *)

val report_hippi : ?blocks:int list -> unit -> Report.t

(** {1 E4 — §9 PIO-FIFO vs. UDMA crossover} *)

type crossover_row = {
  xsize : int;
  udma_cycles : float;   (** one-way user-to-user latency *)
  pio_cycles : float;
}

val pio_crossover : ?sizes:int list -> ?trials:int -> unit -> crossover_row list

val report_crossover : ?sizes:int list -> ?trials:int -> unit -> Report.t

(** {1 E5 — §7 queueing ablation} *)

type queueing_row = {
  total_bytes : int;
  basic_cycles : int;
  queued_cycles : (int * int) list;  (** (depth, cycles) *)
}

val queueing_totals : int list
(** The default transfer sizes, 8 KB to 64 KB. *)

val queue_depths : int list
(** The default hardware queue depths, 2 to 16. *)

val queueing : ?total_sizes:int list -> ?depths:int list -> unit -> queueing_row list

val report_queueing :
  ?total_sizes:int list -> ?depths:int list -> unit -> Report.t

(** {1 E6 — I1 atomicity under preemption} *)

type atomicity_row = {
  preempt_pct : int;      (** preemption probability per reference, % *)
  transfers : int;
  retries : int;
  avg_cycles : float;
  violations : int;       (** cross-process pairings observed (must be 0) *)
}

val preempt_pcts : int list
(** The default preemption probabilities, 0 to 50 %. *)

val atomicity_transfers : int
(** The default transfers per probability point (200). *)

val atomicity :
  ?probs_pct:int list -> ?transfers:int -> ?seed:int -> unit ->
  atomicity_row list
(** [seed] (default 42) drives the preemption coin flips; the per-point
    RNG is seeded with [seed + pct] so runs replay exactly. *)

val report_atomicity :
  ?probs_pct:int list -> ?transfers:int -> ?seed:int -> unit -> Report.t

(** {1 E7 — I4 remap-check vs. pinning} *)

type pinning_row = { label : string; value : float; unit_ : string }

val pinning_vs_i4 : unit -> pinning_row list
(** Static per-page costs plus a dynamic paging-under-transfers run
    reporting I4 skips and deferred cleans. *)

val report_pinning : unit -> Report.t

(** {1 E8 — §6 proxy-fault costs} *)

val proxy_fault_costs : unit -> cost_row list
(** Cold (fault + mapping) vs. warm proxy references; the in-core,
    paged-out and illegal cases. *)

val report_proxy_faults : unit -> Report.t

(** {1 E9 — I3 policy ablation (§6's two content-consistency methods)} *)

type i3_row = {
  policy : string;
  transfers_done : int;
  total_cycles : int;
  proxy_faults : int;
  upgrades : int;
  cleans : int;
}

val i3_policies : ?transfers:int -> ?pages:int -> unit -> i3_row list
(** Incoming (device-to-memory) transfers across [pages] buffers with a
    page-cleaning daemon running between rounds, under [Write_upgrade]
    and [Proxy_dirty_union]. The union policy trades upgrade faults
    for paging-code complexity, as §6 predicts. *)

val report_i3 : ?transfers:int -> ?pages:int -> unit -> Report.t

(** {1 E10 — deliberate vs automatic update (§9)} *)

type update_row = {
  workload : string;
  deliberate_cycles : int;
  automatic_cycles : int;
  deliberate_packets : int;
  automatic_packets : int;
}

val update_strategies : unit -> update_row list
(** Word-grain scattered updates vs bulk sequential writes, sent with
    a deliberate-update UDMA transfer per update vs snooped automatic
    update. Automatic update should win fine-grain scattered writes;
    deliberate update should win bulk. *)

val report_updates : unit -> Report.t

(** {1 E11 — traffic saturation (lib/traffic)} *)

val report_saturation :
  ?loads:float list -> ?domains:int -> Udma_traffic.Load_gen.config -> Report.t
(** Latency vs offered load on a mesh driven by
    {!Udma_traffic.Sweep.run} over the config (E11 uses
    {!Udma_traffic.Load_gen.default_config}): one row per load point
    (offered/delivered throughput, latency percentiles, head-of-line
    blocking), with the detected saturation knee flagged in the rows
    and recorded in the meta as [knee_load] (or the string ["none"]).
    Deterministic under the config's [seed]. [domains] (default 1)
    selects the worker-domain count for the sharded engine; per
    {!Udma_traffic.Sweep.use_sharded} the legacy single-engine path —
    and its exact report bytes — is kept whenever [domains = 1] and
    [nodes <= 64]. On the sharded path the meta gains
    [engine]/[domains] fields and the report is identical for every
    [domains] value. A [`Flit] crossing pins the legacy engine and
    adds [crossing]/[flit_words] meta fields, leaving analytic reports
    byte-identical to the pre-flit runner. *)

(** {1 E12 — routing policy comparison (lib/shrimp router)} *)

val adaptive_regime : Udma_traffic.Load_gen.config
(** The E12 link-bound regime: {!Udma_traffic.Load_gen.default_config}
    with 2 KB messages, [link_per_word = 2] and a 100k-cycle window,
    which put the bottleneck on the contended links rather than the
    send initiation path, so the routing policy is visible in the
    knee. *)

val report_adaptive :
  ?loads:float list ->
  ?patterns:Udma_traffic.Pattern.t list ->
  Udma_traffic.Load_gen.config ->
  Report.t
(** The E11 sweep re-run on the config per pattern under both routing
    policies (the config's [pattern] and [routing] are the swept
    axes): one row per pattern with the saturation knee under
    dimension-order ([knee_dim]) and minimal-adaptive
    ([knee_adaptive]), the knee shift, and the heaviest point's
    head-of-line blocking under each. E12 runs it on
    {!adaptive_regime}. Deterministic under the config's [seed]. *)

(** {1 E13 — hotspot saturation vs virtual channels} *)

val hotspot_regime : Udma_traffic.Load_gen.config
(** The E13 regime: {!adaptive_regime} with 8 deposit credits per
    (link, VC) receive FIFO. *)

val report_hotspot :
  ?loads:float list ->
  ?pcts:int list ->
  ?vc_counts:int list ->
  Udma_traffic.Load_gen.config ->
  Report.t
(** The sweep under a hotspot pattern on node 0 (the config's
    [pattern] and [vc_count] are the swept axes): one row per (hotspot
    share, VC count) with the saturation knee and, at the heaviest
    load, the source-side credit stalls and link-queue ceiling. More
    VCs let cold flows backfill around a blocked hotspot packet (the
    knee holds or improves as the share grows); finite [rx_credits]
    convert residual overload into [credit_stalls] instead of
    unbounded link depth. E13 runs it on {!hotspot_regime}.
    Deterministic under the config's [seed]. *)

(** {1 E18 — flit-level wormhole crossing vs the analytic wire} *)

val flit_regime : Udma_traffic.Load_gen.config
(** The E18 regime: {!hotspot_regime} with a 60k-cycle window. *)

val report_flit :
  ?load:float ->
  ?hot_pct:int ->
  ?vc_counts:int list ->
  Udma_traffic.Load_gen.config ->
  Report.t
(** The config (E18 runs it on {!flit_regime}) under a hotspot pattern
    on node 0 (default share 50 %) at one offered load (default 0.5)
    under both wire models, per VC count — the config's [pattern],
    [vc_count] and [crossing] are the swept axes: [hol_delta] is the p99
    latency the packet-granularity analytic crossing under-reports
    (flit p99 minus analytic p99 — head-of-line blocking through the
    per-(link, VC) input FIFOs a stalled worm occupies across links),
    [hol_cycles] counts link flit-cycles a free wire spent blocked on
    VC/credit availability, and [occupancy] is the per-VC mean/max
    buffered-flit profile. Both shrink from 1 VC to 4 as cold flits
    interleave around the blocked worm. Deterministic under the
    config's [seed]. *)

(** {1 E14 — multi-tenant protection backends} *)

val default_tenant_counts : int list
(** 8, 64, 256 and 1024 tenants. *)

val tenants_sweep : quick:bool -> int list * Udma_protect.Tenants.config
(** E14's tenant counts and base config: {!default_tenant_counts} on
    {!Udma_protect.Tenants.default_config}, or the quick set (8 and 256
    tenants, 4000 ops). The registry runs it and [shrimp_sim tenants]
    starts from it. *)

val report_tenants :
  ?tenant_counts:int list ->
  ?kinds:Udma_protect.Backend.kind list ->
  Udma_protect.Tenants.config ->
  Report.t
(** {!Udma_protect.Tenants.run} on the config per (backend, tenant
    count) — the config's [kind] and [tenants] are the swept axes,
    defaulting to all three backends and {!default_tenant_counts}: one
    row with initiation p50/p99/p999, the recovered-fault rate, rogue
    probes denied, grant and invalidation traffic, the IOTLB hit rate
    (IOMMU rows) and the isolation-breach count (always 0). Every
    backend faces the identical op stream, so rows differ only in
    protection-path costs. Every point is validated
    ({!Udma_protect.Tenants.validate}) before the first runs.
    Deterministic under the config's [seed]. *)

(** {1 E15: bandwidth vs transfer shape} *)

type shape_case =
  | Shape_contig
  | Shape_strided of int
      (** source reads 64 bytes every [64 * factor]; destination packs
          densely *)
  | Shape_sg of int
      (** total destination elements across the whole transfer,
          scattered within each initiation's device page *)

type shape_row = {
  sh_label : string;
  sh_basic : int;        (** end-to-end user cycles, basic hardware *)
  sh_queued : int;       (** same, queued hardware (depth 8) *)
  sh_basic_bpc : float;  (** bytes per cycle *)
  sh_queued_bpc : float;
  sh_basic_pct : float;  (** bandwidth as % of contiguous, same mode *)
  sh_queued_pct : float;
}

val shape_total : int
(** The default bytes moved per shape (8192). *)

val shape_strides : int list
(** The default stride factors, 2 to 64. *)

val shape_sg_counts : int list
(** The default scatter-gather element counts, 2 to 256. *)

val default_shape_cases : shape_case list
(** Contiguous, then {!shape_strides}, then {!shape_sg_counts}. *)

val quick_shape_cases : shape_case list
(** The 5-case subset CI anchors check. *)

val validate_shapes : total:int -> shape_case list -> unit
(** Raises [Invalid_argument] unless [total] is a positive page
    multiple, every stride factor divides 64 and every scatter-gather
    count is twice a divisor of the page; both entry points below call
    it before the first transfer. *)

val transfer_shapes :
  ?total:int -> ?cases:shape_case list -> unit -> shape_row list

val report_shapes : ?total:int -> ?cases:shape_case list -> unit -> Report.t
(** Move [total] (default {!shape_total}) bytes to the device in every
    shape, on basic and queued hardware: per-shape end-to-end cycles,
    bytes per cycle and bandwidth relative to the contiguous transfer
    of the same mode. Strided and scatter-gather shapes go through shaped
    initiations ({!Udma.Initiator.start_shaped}); the descriptor-fetch
    and per-element burst-setup costs produce the overhead knee as
    element count rises at fixed total bytes. *)

(** {1 E16 — application workloads over the UDMA fabric (lib/app)} *)

val app_default_loads : float list
(** 0.2..1.2 — the KV / RPC sweep extends past saturation so the open
    loop's SLO knee is inside the sweep. *)

val halo_default_loads : float list
(** 0.2..1.0 — the halo load axis is a work share and cannot exceed 1. *)

val report_kv :
  ?loads:float list -> ?slo:float -> Udma_app.Kv.config -> Report.t
(** {!Udma_app.Kv.run} on the config swept over offered loads (each
    point overwrites [load]; default {!app_default_loads}): one row per
    load with request count, end-to-end latency percentiles (plus the
    cold — non hot-shard — p99), throughput, credit stalls and the
    drain check; the SLO knee (first sustained load where p99 exceeds
    [slo] times the lightest load's p50) lands in the meta. Every point
    and [slo] are validated before the first runs. Deterministic under
    the fabric seed. *)

val kv_vcs_regime : Udma_app.Kv.config
(** The E13 head-of-line regime for the KV store:
    {!Udma_app.Kv.default_config} with 100 % writes, 50 % of key draws
    on shard 0, [link_per_word = 2] and load 0.7. *)

val report_kv_vcs : ?vc_counts:int list -> Udma_app.Kv.config -> Report.t
(** The config (E16 runs it on {!kv_vcs_regime}) at its one load, per
    VC count (default 1 and 4; each point overwrites the fabric's
    [vc_count]): the app-level payoff of virtual channels as a p99 /
    cold-p99 drop. Deterministic under the fabric seed. *)

val report_halo :
  ?loads:float list -> ?slo:float -> Udma_app.Halo.config -> Report.t
(** {!Udma_app.Halo.run} on the config swept over send-work shares
    (default {!halo_default_loads}): one row per load with
    per-(node, iteration) barrier-latency percentiles, the derived
    compute budget, makespan and the drain check; east/west halos go
    through the strided (shaped) send path, whose calibrated cost lands
    in the meta next to the contiguous one. Because the compute budget
    shrinks as the send-work share grows, the SLO knee is detected on
    the exchange {e overhead} (barrier time minus the compute floor),
    not on raw barrier times. Deterministic under the fabric seed. *)

val rpc_regime : Udma_app.Rpc.config
(** {!Udma_app.Rpc.default_config} with a 200k-cycle window, long
    enough for the bursty tail past the knee. *)

val report_rpc :
  ?loads:float list -> ?slo:float -> Udma_app.Rpc.config -> Report.t
(** {!Udma_app.Rpc.run} on the config (E16 runs it on {!rpc_regime})
    swept over target server utilisations (default
    {!app_default_loads}): one row per load with arrival-to-reply
    latency percentiles (backlog wait included), burst count,
    completed vs offered throughput and the drain check; the SLO knee
    in the meta. Deterministic under the fabric seed. *)

type apps = {
  kv : Udma_app.Kv.config;
  halo : Udma_app.Halo.config;
  rpc : Udma_app.Rpc.config;
  loads : float list;  (** the KV and RPC load axis *)
  halo_loads : float list;
  kv_vcs : Udma_app.Kv.config option;  (** the VC-contrast table, if any *)
}
(** One E16 parameter set: a config and load axis per application. *)

val apps_sweep : quick:bool -> apps
(** E16's full set ({!app_default_loads}, {!halo_default_loads}, the
    library defaults, {!rpc_regime} and the {!kv_vcs_regime} table) or
    its quick set (loads 0.3 and 0.8 on 30k/100k-cycle KV/RPC windows,
    one halo point at 0.5 over 12 iterations, no VC table). The
    registry runs it and [shrimp_sim apps] starts from it. *)

val map_app_fabrics :
  (Udma_app.Fabric.config -> Udma_app.Fabric.config) -> apps -> apps
(** Apply one change (e.g. the seed) to every application's fabric. *)

val report_apps :
  ?slo:float -> ?only:[ `Kv | `Halo | `Rpc ] -> apps -> Report.t list
(** The KV, halo and RPC reports and the VC table, or just the [only]
    application. Every point of every selected report is validated
    before the first simulation runs. *)

val simscale_regime : Udma_traffic.Load_gen.config
(** The E17 workload: {!Udma_traffic.Load_gen.default_config} on a
    256-node (16x16) mesh. *)

val report_simscale :
  ?load:float ->
  ?domains_list:int list ->
  Udma_traffic.Load_gen.config ->
  Report.t
(** E17: the sharded conservative engine ({!Udma_traffic.Shard_gen})
    run on the config (E17 uses {!simscale_regime}) at one fixed
    open-loop load (default 0.9) once per entry of [domains_list]
    (default [[1; 2; 4]]). One row
    per domain count with the kernel counters (events, windows,
    cross-shard posts), the traffic result, and the wall-clock
    events/sec + speedup over the first entry. The counters and the
    traffic result are identical across rows — the [deterministic]
    meta flag asserts it — while the rate columns depend on the host
    ([host_cores] meta records {!Domain.recommended_domain_count}).
    [bench --check] compares the deterministic columns (events,
    windows, cross_posts, shards, injected, delivered, mean_latency,
    p99_latency) of the quick run exactly against the baseline. *)

(** {1 Driver} *)

type experiment = {
  exp_name : string;  (** CLI subcommand name, e.g. ["figure8"] *)
  exp_alias : string;  (** short alias, e.g. ["e1"] *)
  exp_doc : string;  (** one-line description *)
  exp_run : quick:bool -> seed:int -> Report.t list;
}

val experiments : experiment list
(** The experiment registry, in E1..E18 order. [all_reports] and the
    [shrimp_sim] command set are both derived from it, so a new
    experiment registers exactly once here. *)

val all_reports : ?quick:bool -> ?seed:int -> unit -> Report.t list
(** Every experiment (E1 basic + queued, E2..E18) as reports, in
    registry order. [quick] (default false) substitutes the small
    deterministic parameter set CI uses for the committed
    [BENCH_baseline.json]; [seed] feeds the randomized experiments
    (E6) and the traffic sweep (E11). Each report carries its own
    cycle breakdown; the breakdown's sum equals the total simulated
    cycles across every engine that experiment created. *)

val run_all : unit -> unit
(** Run and print every experiment (what [bench/main.exe] calls). *)
