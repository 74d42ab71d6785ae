(* Command-line driver: run any single experiment from the paper's
   evaluation with parameter overrides, or all of them. Every
   experiment subcommand takes the same observability flags: --json
   (udma-bench/1 document, the exact schema bench/main.exe --json
   writes), --out FILE, --trace (typed JSON-lines event stream on
   stderr) and --seed. *)

module Runner = Udma_workloads.Runner
module Report = Udma_obs.Report
module Json = Udma_obs.Json
module Event = Udma_obs.Event
module Metrics = Udma_obs.Metrics
module Trace = Udma_sim.Trace
open Cmdliner

(* ------------------------------------------------------------------ *)
(* common flags                                                        *)
(* ------------------------------------------------------------------ *)

type common = { json : bool; out : string option; trace : bool; seed : int }

let common_term =
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit the result as a udma-bench/1 JSON document instead of the \
             paper-style table.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE" ~doc:"Write the output to $(docv) instead of stdout.")
  in
  let trace =
    Arg.(
      value & flag
      & info [ "trace" ]
          ~doc:
            "Stream every typed trace event (proxy references, state-machine \
             transitions, DMA bursts, packets, faults...) as JSON lines on \
             stderr while the experiment runs.")
  in
  let seed =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"N" ~doc:"Seed for the randomized experiments.")
  in
  Term.(
    const (fun json out trace seed -> { json; out; trace; seed })
    $ json $ out $ trace $ seed)

let with_out c f =
  match c.out with
  | None -> f stdout
  | Some path ->
      let oc = open_out path in
      Fun.protect ~finally:(fun () -> close_out oc) (fun () -> f oc)

let doc_meta c =
  [ ("generator", Report.Str "shrimp_sim"); ("seed", Report.Int c.seed) ]

(* Run [mk] (which builds the reports) with the global trace sink
   installed when asked, then render: one schema for --json, the
   derived table otherwise. *)
let emit_reports c mk =
  if c.trace then Trace.set_global_sink (Some (Event.jsonl_sink stderr));
  let reports = mk () in
  Trace.set_global_sink None;
  if c.json then
    with_out c (fun oc ->
        output_string oc
          (Json.to_string ~indent:2 (Report.bench_json ~meta:(doc_meta c) reports));
        output_char oc '\n')
  else with_out c (fun oc -> List.iter (Report.print ~oc) reports)

(* Every report validates its configs before the first simulation
   runs, so an [Invalid_argument] here is a knob outside its range: a
   usage error (exit 124) that names the field. *)
let emit_checked c mk =
  match emit_reports c mk with
  | () -> `Ok ()
  | exception Invalid_argument msg -> `Error (true, msg)

(* A flag for one field of an experiment's config record. Absent, the
   field keeps the value of the record the run starts from (the full
   set, or the registry's quick set under --quick); the help shows
   [shown], the full set's value. *)
let knob kind ?(shown = "") name ~docv ~doc =
  Arg.(value & opt (some ~none:shown kind) None & info [ name ] ~docv ~doc)

let int_knob name field ~docv ~doc =
  knob Arg.int ~shown:(string_of_int field) name ~docv ~doc

let ( |? ) o default = Option.value o ~default

let ints l = String.concat "," (List.map string_of_int l)

let sizes_arg ~doc default =
  Arg.(value & opt (list int) default & info [ "sizes" ] ~docv:"BYTES,..." ~doc)

(* ------------------------------------------------------------------ *)
(* experiment subcommands                                              *)
(*                                                                     *)
(* The set of experiments comes from Runner.experiments — adding an    *)
(* entry there is enough to get a name + eN alias command here. An     *)
(* experiment with interesting parameters can register a richer term   *)
(* in [custom_terms]; everything else gets the generic one (common     *)
(* flags plus --quick).                                                *)
(* ------------------------------------------------------------------ *)

let figure8_term =
  let messages =
    Arg.(
      value & opt int 32
      & info [ "messages" ] ~docv:"N" ~doc:"Messages per size point.")
  in
  let queued =
    Arg.(
      value & flag
      & info [ "queued" ] ~doc:"Use the section-7 queued hardware instead.")
  in
  let run c sizes messages queued =
    emit_reports c (fun () -> [ Runner.report_figure8 ~sizes ~messages ~queued () ])
  in
  Term.(
    const run $ common_term
    $ sizes_arg ~doc:"Message sizes to sweep." Udma_workloads.Sizes.figure8
    $ messages $ queued)

let hippi_term =
  let run c blocks = emit_reports c (fun () -> [ Runner.report_hippi ~blocks () ]) in
  Term.(
    const run $ common_term
    $ sizes_arg ~doc:"Block sizes to sweep." Udma_workloads.Sizes.hippi_blocks)

let crossover_term =
  let trials =
    Arg.(value & opt int 8 & info [ "trials" ] ~docv:"N" ~doc:"Trials per size.")
  in
  let run c sizes trials =
    emit_reports c (fun () -> [ Runner.report_crossover ~sizes ~trials () ])
  in
  Term.(
    const run $ common_term
    $ sizes_arg ~doc:"Message sizes." Udma_workloads.Sizes.crossover
    $ trials)

let queueing_term =
  let depths =
    Arg.(
      value
      & opt (list int) Runner.queue_depths
      & info [ "depths" ] ~docv:"D,..." ~doc:"Hardware queue depths.")
  in
  let run c sizes depths =
    emit_reports c (fun () ->
        [ Runner.report_queueing ~total_sizes:sizes ~depths () ])
  in
  Term.(
    const run $ common_term
    $ sizes_arg ~doc:"Total transfer sizes." Runner.queueing_totals
    $ depths)

let atomicity_term =
  let probs =
    Arg.(
      value
      & opt (list int) Runner.preempt_pcts
      & info [ "probs" ] ~docv:"PCT,..." ~doc:"Preemption probabilities (%).")
  in
  let transfers =
    Arg.(
      value & opt int Runner.atomicity_transfers
      & info [ "transfers" ] ~docv:"N" ~doc:"Transfers per probability point.")
  in
  let run c probs transfers =
    emit_reports c (fun () ->
        [ Runner.report_atomicity ~probs_pct:probs ~transfers ~seed:c.seed () ])
  in
  Term.(const run $ common_term $ probs $ transfers)

(* The traffic knobs as one [Load_gen.config] term: each flag's default
   is the record's, and [seed] comes from the common flags. *)
let traffic_config_term =
  let module Pattern = Udma_traffic.Pattern in
  let module Load_gen = Udma_traffic.Load_gen in
  let d = Load_gen.default_config in
  let pattern_conv =
    Arg.conv
      ( (fun s -> Pattern.parse s |> Result.map_error (fun e -> `Msg e)),
        fun ppf p -> Format.pp_print_string ppf (Pattern.to_string p) )
  in
  let nodes =
    Arg.(
      value & opt int d.nodes
      & info [ "nodes" ] ~docv:"N"
          ~doc:
            "Mesh size, filling complete rows of the squarest covering \
             mesh (4, 6, 9, 12, 16, ...). The legacy engine covers 2..64; \
             larger meshes (up to 1024) run on the sharded engine (see \
             $(b,--domains)).")
  in
  let pattern =
    Arg.(
      value
      & opt pattern_conv d.pattern
      & info [ "pattern" ] ~docv:"PATTERN"
          ~doc:
            "Spatial pattern: $(b,uniform), $(b,transpose), $(b,neighbor) or \
             $(b,hotspot)[:PCT].")
  in
  let msg_bytes =
    Arg.(
      value & opt int d.msg_bytes
      & info [ "msg-bytes" ] ~docv:"BYTES"
          ~doc:"Message size; a 4-byte multiple up to 4092 (one packet).")
  in
  let window =
    Arg.(
      value & opt int d.window_cycles
      & info [ "window" ] ~docv:"CYCLES" ~doc:"Measurement window per point.")
  in
  let warmup =
    Arg.(
      value & opt int d.warmup_cycles
      & info [ "warmup" ] ~docv:"CYCLES" ~doc:"Run-in before measurement.")
  in
  let no_contention =
    Arg.(
      value & flag
      & info [ "no-contention" ]
          ~doc:
            "Disable the router's per-link FIFO model (contention-free \
             latency, the pre-traffic behaviour).")
  in
  let routing =
    Arg.(
      value
      & opt
          (enum
             [ ("dimension", `Dimension_order); ("adaptive", `Minimal_adaptive) ])
          d.routing
      & info [ "routing" ] ~docv:"POLICY"
          ~doc:
            "Router path policy: $(b,dimension) (X then Y, the default) or \
             $(b,adaptive) (minimal-adaptive: the less-busy productive link \
             at every hop; needs the contention model).")
  in
  let link_per_word =
    Arg.(
      value & opt int d.link_per_word
      & info [ "link-per-word" ] ~docv:"CYCLES"
          ~doc:
            "Router cycles per 4-byte word on a mesh link (default 1). \
             Raising it slows the links relative to the send-initiation \
             cost, moving the bottleneck onto the network (the E12 regime).")
  in
  let vcs =
    Arg.(
      value & opt int d.vc_count
      & info [ "vcs" ] ~docv:"N"
          ~doc:
            "Virtual channels per directed mesh link, 1..4 (default 1: the \
             single-FIFO model, bit-for-bit). Extra VCs let other flows \
             backfill the wire around a head-of-line-blocked packet.")
  in
  let rx_credits =
    Arg.(
      value
      & opt (some int) d.rx_credits
      & info [ "rx-credits" ] ~docv:"N"
          ~doc:
            "Deposit slots per (link, VC) receive FIFO (default: unlimited, \
             the pre-credit model). With finite credits sources stall at \
             the injection gate instead of queueing on the wire.")
  in
  let crossing =
    let crossing_conv = Arg.enum [ ("analytic", `Analytic); ("flit", `Flit) ] in
    Arg.(
      value & opt crossing_conv d.crossing
      & info [ "crossing" ] ~docv:"MODEL"
          ~doc:
            "Wire model under contention: $(b,analytic) (default, \
             packet-granularity link reservations — the model every \
             committed anchor was produced on) or $(b,flit) \
             (cycle-accurate wormhole flits through per-(link,VC) input \
             FIFOs; dimension-order only, always on the legacy engine). \
             See also $(b,--flit-words).")
  in
  let flit_words =
    Arg.(
      value & opt int d.flit_words
      & info [ "flit-words" ] ~docv:"N"
          ~doc:"4-byte words per flit in the flit crossing (default 1).")
  in
  let config nodes pattern msg_bytes window_cycles warmup_cycles
      no_contention routing link_per_word vc_count rx_credits crossing
      flit_words =
    {
      d with
      Load_gen.nodes;
      pattern;
      msg_bytes;
      window_cycles;
      warmup_cycles;
      link_contention = not no_contention;
      routing;
      link_per_word;
      vc_count;
      rx_credits;
      crossing;
      flit_words;
    }
  in
  Term.(
    const config $ nodes $ pattern $ msg_bytes $ window $ warmup
    $ no_contention $ routing $ link_per_word $ vcs $ rx_credits $ crossing
    $ flit_words)

let traffic_term =
  let loads =
    Arg.(
      value
      & opt (list float) Udma_traffic.Sweep.default_loads
      & info [ "loads" ] ~docv:"L,..."
          ~doc:
            "Offered loads to sweep, as fractions of one source's calibrated \
             initiation capacity.")
  in
  let domains =
    Arg.(
      value & opt int 1
      & info [ "domains" ] ~docv:"N"
          ~doc:
            "Worker domains for the sharded per-row simulation engine. The \
             default 1 on a mesh of up to 64 nodes keeps the legacy \
             single-queue engine (byte-identical reports); any higher value \
             — or a larger mesh — dispatches to the sharded conservative \
             kernel, whose results are identical for every domain count.")
  in
  let run c loads domains cfg =
    emit_checked c (fun () ->
        [
          Runner.report_saturation ~loads ~domains
            { cfg with Udma_traffic.Load_gen.seed = c.seed };
        ])
  in
  Term.(ret (const run $ common_term $ loads $ domains $ traffic_config_term))

let tenants_term =
  let module Backend = Udma_protect.Backend in
  let module Tenants = Udma_protect.Tenants in
  let counts, d = Runner.tenants_sweep ~quick:false in
  let quick_counts, q = Runner.tenants_sweep ~quick:true in
  let backend_conv =
    Arg.conv
      ( (fun s -> Backend.parse_kind s |> Result.map_error (fun e -> `Msg e)),
        fun ppf k -> Format.pp_print_string ppf (Backend.kind_name k) )
  in
  let quick =
    Arg.(
      value & flag
      & info [ "quick" ]
          ~doc:
            (Printf.sprintf
               "Use the small deterministic CI parameter set (%s tenants, %d \
                ops)."
               (String.concat " and " (List.map string_of_int quick_counts))
               q.ops))
  in
  let backends =
    Arg.(
      value
      & opt (some (list backend_conv)) None
      & info [ "backend" ] ~docv:"KIND,..."
          ~doc:
            "Protection backends to sweep: $(b,proxy), $(b,iommu), \
             $(b,capability) (default: all three).")
  in
  let tenants =
    knob Arg.(list int) "tenants" ~docv:"N,..."
      ~doc:
        (Printf.sprintf
           "Tenant counts to sweep (default %s; $(b,--quick) uses %s)."
           (ints counts) (ints quick_counts))
  in
  let slots =
    int_knob "slots" d.slots ~docv:"N"
      ~doc:"Destination-table slots shared by all tenants."
  in
  let ops =
    knob Arg.int "ops" ~docv:"N"
      ~doc:
        (Printf.sprintf
           "Operations per (backend, tenant count) point (default %d; \
            $(b,--quick) uses %d)."
           d.ops q.ops)
  in
  let churn =
    int_knob "churn" d.churn_pct ~docv:"PCT"
      ~doc:"Per-op probability of descheduling a tenant (%)."
  in
  let evict =
    int_knob "evict" d.evict_pct ~docv:"PCT"
      ~doc:"Per-op probability of evicting a table slot (%)."
  in
  let rogue =
    int_knob "rogue" d.rogue_pct ~docv:"PCT"
      ~doc:"Per-op probability of a rogue cross-tenant probe (%)."
  in
  let sweep quick tenants slots ops churn evict rogue =
    let counts, b = Runner.tenants_sweep ~quick in
    ( tenants |? counts,
      {
        b with
        Tenants.slots = slots |? b.slots;
        ops = ops |? b.ops;
        churn_pct = churn |? b.churn_pct;
        evict_pct = evict |? b.evict_pct;
        rogue_pct = rogue |? b.rogue_pct;
      } )
  in
  let run c kinds (tenant_counts, cfg) =
    emit_checked c (fun () ->
        [
          Runner.report_tenants ~tenant_counts ?kinds
            { cfg with Tenants.seed = c.seed };
        ])
  in
  Term.(
    ret
      (const run $ common_term $ backends
      $ (const sweep $ quick $ tenants $ slots $ ops $ churn $ evict $ rogue)))

let shapes_term =
  let quick =
    Arg.(
      value & flag
      & info [ "quick" ] ~doc:"Use the small deterministic CI parameter set.")
  in
  let shape_kinds =
    Arg.(
      value
      & opt
          (list (enum [ ("contig", `Contig); ("strided", `Strided); ("sg", `Sg) ]))
          [ `Contig; `Strided; `Sg ]
      & info [ "shape" ] ~docv:"KINDS"
          ~doc:
            "Shape families to sweep: comma-separated subset of $(b,contig), \
             $(b,strided) and $(b,sg).")
  in
  let strides =
    Arg.(
      value
      & opt (list int) Runner.shape_strides
      & info [ "stride" ] ~docv:"FACTORS"
          ~doc:
            "Stride factors for the strided family (the source reads 64 \
             bytes every 64*FACTOR; each factor must divide 64).")
  in
  let sg_elems =
    Arg.(
      value
      & opt (list int) Runner.shape_sg_counts
      & info [ "sg-elems" ] ~docv:"COUNTS"
          ~doc:
            "Scatter-gather element counts across the whole transfer (each \
             must be twice a power-of-two divisor of the page size).")
  in
  let total =
    Arg.(
      value & opt int Runner.shape_total
      & info [ "total" ] ~docv:"BYTES"
          ~doc:"Total bytes moved per shape (a page multiple that fits the \
                device's pages).")
  in
  let run c quick kinds strides sg_elems total =
    let strided = List.map (fun f -> Runner.Shape_strided f) strides in
    let sg = List.map (fun n -> Runner.Shape_sg n) sg_elems in
    emit_checked c (fun () ->
        (* every given factor and count is checked, also those of a
           family that --shape or --quick leaves out *)
        Runner.validate_shapes ~total (strided @ sg);
        let cases =
          if quick then Runner.quick_shape_cases
          else
            List.concat_map
              (function
                | `Contig -> [ Runner.Shape_contig ]
                | `Strided -> strided
                | `Sg -> sg)
              kinds
        in
        [ Runner.report_shapes ~total ~cases () ])
  in
  Term.(
    ret
      (const run $ common_term $ quick $ shape_kinds $ strides $ sg_elems
      $ total))

let apps_term =
  let module Kv = Udma_app.Kv in
  let d = (Runner.apps_sweep ~quick:false).kv in
  let quick =
    Arg.(
      value & flag
      & info [ "quick" ] ~doc:"Use the small deterministic CI parameter set.")
  in
  let app_sel =
    Arg.(
      value
      & opt (some (enum [ ("kv", `Kv); ("halo", `Halo); ("rpc", `Rpc) ])) None
      & info [ "app" ] ~docv:"APP"
          ~doc:
            "Run one application: $(b,kv) (sharded key-value store), \
             $(b,halo) (halo-exchange collective) or $(b,rpc) (bursty \
             request-response service). Default: all three, plus the KV \
             VC-contrast table.")
  in
  let nodes =
    int_knob "nodes" d.fabric.nodes ~docv:"N"
      ~doc:
        "Mesh size, 2..64, filling complete rows of the squarest covering \
         mesh (4, 6, 9, 12, 16, ...)."
  in
  let shards =
    knob Arg.int "shards" ~docv:"N"
      ~doc:"KV server shards, on nodes 0..N-1 (default: one per node)."
  in
  let value_bytes =
    int_knob "value-bytes" d.value_bytes ~docv:"BYTES"
      ~doc:"KV value size; a 4-byte multiple (requests must still fit one \
            page)."
  in
  let slo =
    knob Arg.float "slo" ~docv:"MULT"
      ~doc:
        (Printf.sprintf
           "SLO multiple: the knee is the first sustained load whose p99 \
            exceeds MULT times the lightest load's p50 (default %.1f)."
           Udma_app.Slo.default_slo)
  in
  let loads =
    knob Arg.(list float) "loads" ~docv:"L,..."
      ~doc:
        "Offered loads to sweep (halo caps at 1.0; applied to the halo sweep \
         only with an explicit $(b,--app) halo)."
  in
  let vcs =
    int_knob "vcs" d.fabric.vc_count ~docv:"N"
      ~doc:"Virtual channels per directed mesh link for the KV sweep, 1..4."
  in
  let hot_pct =
    int_knob "hot-pct" d.hot_pct ~docv:"PCT"
      ~doc:"Share of KV key draws pinned to shard 0 (the hotspot)."
  in
  let write_pct =
    int_knob "write-pct" d.write_pct ~docv:"PCT"
      ~doc:"Share of KV ops that write."
  in
  let link_per_word =
    int_knob "link-per-word" d.fabric.link_per_word ~docv:"CYCLES"
      ~doc:
        "Router cycles per 4-byte word on a mesh link (>= 2 puts the \
         bottleneck on the wires, the VC regime)."
  in
  let chaos =
    Arg.(
      value & flag
      & info [ "chaos" ]
          ~doc:
            "Run the KV store under a seeded link kill/slow/heal storm (the \
             mesh M_link_fault action); the closed loop must still drain.")
  in
  let run c quick app nodes shards value_bytes slo loads vcs hot_pct write_pct
      link_per_word chaos =
    let a =
      Runner.map_app_fabrics
        (fun f -> { f with nodes = nodes |? f.nodes; seed = c.seed })
        (Runner.apps_sweep ~quick)
    in
    let kv = a.kv in
    let kv =
      {
        kv with
        fabric =
          {
            kv.fabric with
            vc_count = vcs |? kv.fabric.vc_count;
            link_per_word = link_per_word |? kv.fabric.link_per_word;
          };
        shards = shards |? kv.fabric.nodes;
        value_bytes = value_bytes |? kv.value_bytes;
        write_pct = write_pct |? kv.write_pct;
        hot_pct = hot_pct |? kv.hot_pct;
        chaos_links = chaos || kv.chaos_links;
      }
    in
    let a =
      {
        a with
        kv;
        (* the VC table keeps one shard per node *)
        kv_vcs =
          Option.map (fun (v : Kv.config) -> { v with shards = v.fabric.nodes })
            a.kv_vcs;
        loads = loads |? a.loads;
        halo_loads =
          (if app = Some `Halo then loads |? a.halo_loads else a.halo_loads);
      }
    in
    emit_checked c (fun () -> Runner.report_apps ?slo ?only:app a)
  in
  Term.(
    ret
      (const run $ common_term $ quick $ app_sel $ nodes $ shards $ value_bytes
      $ slo $ loads $ vcs $ hot_pct $ write_pct $ link_per_word $ chaos))

let custom_terms =
  [
    ("figure8", figure8_term);
    ("hippi", hippi_term);
    ("crossover", crossover_term);
    ("queueing", queueing_term);
    ("atomicity", atomicity_term);
    ("traffic", traffic_term);
    ("tenants", tenants_term);
    ("shapes", shapes_term);
    ("apps", apps_term);
  ]

let generic_term (e : Runner.experiment) =
  let quick =
    Arg.(
      value & flag
      & info [ "quick" ] ~doc:"Use the small deterministic CI parameter set.")
  in
  let run c quick =
    emit_reports c (fun () -> e.Runner.exp_run ~quick ~seed:c.seed)
  in
  Term.(const run $ common_term $ quick)

(* Each experiment registers under its paper-section name and an
   eN alias, so `shrimp_sim e1 --json` works as EXPERIMENTS.md
   documents. *)
let experiment_cmds =
  List.concat_map
    (fun (e : Runner.experiment) ->
      let term =
        match List.assoc_opt e.Runner.exp_name custom_terms with
        | Some t -> t
        | None -> generic_term e
      in
      let doc = e.Runner.exp_doc in
      [
        Cmd.v (Cmd.info e.Runner.exp_name ~doc) term;
        Cmd.v
          (Cmd.info e.Runner.exp_alias
             ~doc:(Printf.sprintf "Alias for $(b,%s): %s" e.Runner.exp_name doc))
          term;
      ])
    Runner.experiments

let all_cmd =
  let quick =
    Arg.(
      value & flag
      & info [ "quick" ]
          ~doc:"Small deterministic parameters (what CI diffs against the \
                committed BENCH_baseline.json).")
  in
  let run c quick =
    emit_reports c (fun () -> Runner.all_reports ~quick ~seed:c.seed ())
  in
  Cmd.v
    (Cmd.info "all"
       ~doc:"Run every experiment (same series as bench/main.exe).")
    Term.(const run $ common_term $ quick)

(* ------------------------------------------------------------------ *)
(* trace walkthrough                                                   *)
(* ------------------------------------------------------------------ *)

let trace_cmd =
  let run c =
    (* one traced deliberate-update send on a 2-node system *)
    let module System = Udma_shrimp.System in
    let module Messaging = Udma_shrimp.Messaging in
    let module M = Udma_os.Machine in
    let module Scheduler = Udma_os.Scheduler in
    let module Kernel = Udma_os.Kernel in
    if c.trace then Trace.set_global_sink (Some (Event.jsonl_sink stderr));
    let config =
      { System.default_config with
        System.machine = { M.default_config with M.trace_enabled = true } }
    in
    let sys = System.create ~config ~nodes:2 () in
    let snd = System.node sys 0 in
    let sp = Scheduler.spawn snd.System.machine ~name:"sender" in
    let rp = Scheduler.spawn (System.node sys 1).System.machine ~name:"receiver" in
    let ch = Messaging.connect sys ~sender:(0, sp) ~receiver:(1, rp) ~pages:1 () in
    let buf = Kernel.alloc_buffer snd.System.machine sp ~bytes:4096 in
    Kernel.write_user snd.System.machine sp ~vaddr:buf (Bytes.make 256 'x');
    let cpu_s = Kernel.user_cpu snd.System.machine sp in
    let cpu_r = Kernel.user_cpu (System.node sys 1).System.machine rp in
    (match Messaging.send ch cpu_s ~src_vaddr:buf ~nbytes:256 () with
    | Ok seq -> (
        match Messaging.recv_wait ch cpu_r ~seq () with
        | Ok _ -> ()
        | Error msg -> prerr_endline msg)
    | Error e -> Format.eprintf "%a@." Messaging.pp_send_error e);
    System.run_until_idle sys;
    Trace.set_global_sink None;
    let events = Trace.events snd.System.machine.M.trace in
    let counters = Metrics.counters snd.System.machine.M.metrics in
    if c.json then
      with_out c (fun oc ->
          let doc =
            Json.Obj
              [
                ("schema", Json.Str "udma-trace/1");
                ("events", Json.List (List.map Event.to_json events));
                ( "counters",
                  Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) counters) );
              ]
          in
          output_string oc (Json.to_string ~indent:2 doc);
          output_char oc '\n')
    else
      with_out c (fun oc ->
          Printf.fprintf oc
            "--- sender-node trace (256 B deliberate-update send) ---\n";
          List.iter
            (fun ev ->
              Printf.fprintf oc "%8d  %s\n" ev.Event.time (Event.render ev))
            events;
          Printf.fprintf oc "--- sender-node kernel counters ---\n";
          List.iter
            (fun (name, v) -> Printf.fprintf oc "%-28s %d\n" name v)
            counters)
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Run one traced deliberate-update send and dump the hardware \
             and kernel event trace.")
    Term.(const run $ common_term)

(* ------------------------------------------------------------------ *)
(* chaos                                                               *)
(* ------------------------------------------------------------------ *)

let chaos_cmd =
  let module Chaos = Udma_check.Chaos in
  let seeds =
    Arg.(
      value & opt int 256
      & info [ "seeds" ] ~docv:"N" ~doc:"Number of seeds to sweep.")
  in
  let start =
    Arg.(value & opt int 0 & info [ "start" ] ~docv:"SEED" ~doc:"First seed.")
  in
  let steps =
    Arg.(
      value & opt int 40
      & info [ "steps" ] ~docv:"N" ~doc:"Actions per seed's schedule.")
  in
  let replay =
    Arg.(
      value
      & opt (some int) None
      & info [ "replay" ] ~docv:"SEED"
          ~doc:"Replay one seed and print its full schedule (and trace).")
  in
  let mutate =
    let inv_conv =
      Arg.enum
        [
          ("i1", `I1); ("i2", `I2); ("i3", `I3); ("i4", `I4);
          ("n1", `N1); ("n2", `N2); ("f1", `F1); ("f2", `F2);
          ("p1", `P1); ("p2", `P2); ("d1", `D1);
        ]
    in
    Arg.(
      value
      & opt (some inv_conv) None
      & info [ "mutate" ] ~docv:"INVARIANT"
          ~doc:
            "Disable the kernel action maintaining this invariant \
             (deliberate bug); the sweep is then expected to find \
             violations, and the first is reported shrunk. $(b,n1) \
             (credit leak) and $(b,n2) (stuck arbiter) plant router \
             bugs, $(b,f1) (flit leaked on a dead-link retry) and \
             $(b,f2) (arbiter double-grant past the credit check) \
             plant flit-crossing bugs the F1 conservation oracle must \
             catch, $(b,p1) (owner check skipped) and $(b,p2) (stale \
             datapath entry after teardown) plant protection-backend \
             bugs the I5 oracle must catch, and $(b,d1) (per-element \
             page clamp skipped on shaped transfers) plants a \
             DMA-frontend bug the I4 oracle must catch; all seven are \
             meant for $(b,--mesh) sweeps.")
  in
  let mesh =
    Arg.(
      value & flag
      & info [ "mesh" ]
          ~doc:
            "Sweep multi-node mesh schedules instead of single-machine \
             ones: random sends, link faults, credit squeezes, rogue \
             tenants and import-slot revocations on a 2-4 node system \
             with 1-4 VCs (a third of the seeds on the flit-level \
             wormhole crossing), checking I1-I4 and the I5 isolation \
             oracle on every node (proxy, IOMMU and capability \
             backends) and the router's credit (N1), arbitration (N2) \
             and flit-conservation (F1) oracles after every action.")
  in
  let run c seeds start steps replay mutate mesh =
    if c.trace then Trace.set_global_sink (Some (Event.jsonl_sink stderr));
    let skip_invariant = mutate in
    let finish () = Trace.set_global_sink None in
    if mesh then
      with_out c (fun oc ->
          let ppf = Format.formatter_of_out_channel oc in
          match replay with
          | Some seed -> (
              let plan = Chaos.mesh_plan_of_seed ~steps seed in
              Format.fprintf ppf "replaying mesh seed %d: %a@." seed
                Chaos.pp_mesh_setup plan.Chaos.mesh_setup;
              List.iteri
                (fun i a ->
                  Format.fprintf ppf "  %2d. %a@." i Chaos.pp_mesh_action a)
                plan.Chaos.mesh_actions;
              match Chaos.run_mesh_plan ?skip_invariant plan with
              | Chaos.Mesh_pass ->
                  Format.fprintf ppf "no invariant violation.@.";
                  finish ();
                  exit 0
              | Chaos.Mesh_fail f ->
                  output_string oc (Chaos.mesh_report f);
                  finish ();
                  exit (if mutate = None then 1 else 0))
          | None -> (
              let failures =
                Chaos.mesh_sweep ?skip_invariant ~steps ~start ~seeds ()
              in
              match (failures, mutate) with
              | [], None ->
                  Format.fprintf ppf
                    "mesh chaos sweep: %d seeds x %d steps, no I1-I5/N1-N2 \
                     violation.@."
                    seeds steps;
                  finish ()
              | [], Some inv ->
                  Format.fprintf ppf
                    "mesh chaos sweep with %a disabled found no violation \
                     in %d seeds — the oracles missed a planted bug!@."
                    Udma_os.Machine.pp_invariant inv seeds;
                  finish ();
                  exit 1
              | f :: _, _ ->
                  Format.fprintf ppf
                    "mesh chaos sweep: %d of %d seeds violated an \
                     invariant%s@."
                    (List.length failures) seeds
                    (match mutate with
                    | Some _ -> " (expected: a bug was planted)"
                    | None -> "");
                  output_string oc (Chaos.mesh_report f);
                  finish ();
                  if mutate = None then exit 1))
    else
    with_out c (fun oc ->
        let ppf = Format.formatter_of_out_channel oc in
        match replay with
        | Some seed -> (
            let plan = Chaos.plan_of_seed ~steps seed in
            Format.fprintf ppf "replaying seed %d: %a@." seed Chaos.pp_setup
              plan.setup;
            List.iteri
              (fun i a -> Format.fprintf ppf "  %2d. %a@." i Chaos.pp_action a)
              plan.Chaos.actions;
            match Chaos.run_plan ?skip_invariant plan with
            | Chaos.Pass ->
                Format.fprintf ppf "no invariant violation.@.";
                finish ();
                exit 0
            | Chaos.Fail f ->
                output_string oc
                  (Chaos.report ?skip_invariant (Chaos.shrink ?skip_invariant f));
                finish ();
                exit (if mutate = None then 1 else 0))
        | None -> (
            let failures = Chaos.sweep ?skip_invariant ~steps ~start ~seeds () in
            match (failures, mutate) with
            | [], None ->
                Format.fprintf ppf
                  "chaos sweep: %d seeds x %d steps, no I1-I4 violation.@."
                  seeds steps;
                finish ()
            | [], Some inv ->
                Format.fprintf ppf
                  "chaos sweep with %a disabled found no violation in %d \
                   seeds — the oracles missed a planted bug!@."
                  Udma_os.Machine.pp_invariant inv seeds;
                finish ();
                exit 1
            | f :: _, _ ->
                Format.fprintf ppf
                  "chaos sweep: %d of %d seeds violated an invariant%s@."
                  (List.length failures) seeds
                  (match mutate with
                  | Some _ -> " (expected: a kernel bug was planted)"
                  | None -> "");
                output_string oc
                  (Chaos.report ?skip_invariant (Chaos.shrink ?skip_invariant f));
                finish ();
                if mutate = None then exit 1))
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Randomized fault-injection sweep checking the paper's OS \
          invariants I1-I4 after every step; failing seeds are replayed \
          deterministically and shrunk to a minimal schedule. With \
          $(b,--mesh), sweeps multi-node schedules that also exercise the \
          router's virtual-channel credit (N1) and arbitration (N2) \
          oracles.")
    Term.(
      const run $ common_term $ seeds $ start $ steps $ replay $ mutate $ mesh)

let () =
  let info =
    Cmd.info "shrimp_sim" ~version:"1.0.0"
      ~doc:
        "Experiments from 'Protected, User-Level DMA for the SHRIMP Network \
         Interface' (HPCA 1996), reproduced in simulation."
  in
  exit
    (Cmd.eval
       (Cmd.group info (experiment_cmds @ [ trace_cmd; chaos_cmd; all_cmd ])))
