(* perfbench: the simulator's host-cost benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
              [--commit SHA] [--source-digest HEX] [--out DIR]

   Runs one workload (README.md says why each exists) for about S host
   seconds and prints, as its last stdout line, one JSON object
   {correct, attempted, failed, metrics}. With --trace 0 the metrics
   are the end-to-end host figures (sim_cycles_per_s, peak_rss_mb,
   setup_s); with --trace 1 they are the per-layer figures, taken by
   timing the benchmark's own calls into each layer's public functions,
   with spans kept in memory and written out at the end as Chrome Trace
   Event JSON.

   One operation simulates one input of the workload. A run has a fixed
   set of inputs, input i drawn from (seed, i), so the same seed always
   gives the same inputs; it simulates them in turn, over and over, for
   as long as its seconds last, and every repeat must reproduce the
   input's first result. An operation fails when it raises or its
   output check fails. *)

module Engine = Udma_sim.Engine
module Eventq = Udma_sim.Eventq
module Rng = Udma_sim.Rng
module Metrics = Udma_obs.Metrics
module Profiler = Udma_obs.Profiler
module Json = Udma_obs.Json
module Router = Udma_shrimp.Router
module System = Udma_shrimp.System
module Messaging = Udma_shrimp.Messaging
module Packet = Udma_shrimp.Packet
module Load_gen = Udma_traffic.Load_gen
module Shard_gen = Udma_traffic.Shard_gen
module Pattern = Udma_traffic.Pattern
module Arrival = Udma_traffic.Arrival
module Kernel = Udma_os.Kernel
module Scheduler = Udma_os.Scheduler
module M = Udma_os.Machine
module Mmu = Udma_mmu.Mmu
module Tlb = Udma_mmu.Tlb

exception Check_failed of string

let check_fail fmt = Printf.ksprintf (fun s -> raise (Check_failed s)) fmt
let fi = float_of_int

(* Host time. Spans use the monotonic wall clock; the figures a run
   reports use process CPU time (all domains), because on a shared host
   wall time also counts the time other tenants held the cores. *)
let now = Span.now
let cpu = Sys.time

(* The [p]-quantile, interpolating between order statistics. *)
let quantile p = function
  | [] -> nan
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let k = p *. fi (Array.length a - 1) in
      let i = int_of_float k in
      let j = min (i + 1) (Array.length a - 1) in
      a.(i) +. ((a.(j) -. a.(i)) *. (k -. fi i))

let median = quantile 0.5
let mean xs = List.fold_left ( +. ) 0.0 xs /. fi (List.length xs)

(* Inputs in a run's fixed set: enough to average over the inputs'
   own differences in work, which reach a factor of two on
   mesh16_hotspot_flit, few enough that a run of 25 s still repeats
   each input, so that its median operation can be taken. *)
let inputs_per_run = 16

(* The seed of input [i] of a run. *)
let input_seed ~seed i = (seed * 100_003) + i

(* ---- Host process figures ---------------------------------------- *)

(* A field of /proc/self/status in kB (VmHWM = peak resident set). *)
let status_kb field =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec find () =
        match input_line ic with
        | line when String.starts_with ~prefix:(field ^ ":") line ->
            Scanf.sscanf line "%_s %d" Fun.id
        | _ -> find ()
        | exception End_of_file -> failwith ("no " ^ field ^ " in status")
      in
      find ())

(* Words allocated by this domain so far. *)
let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let major_collections () = (Gc.quick_stat ()).Gc.major_collections

(* ---- Model digest ------------------------------------------------- *)

(* A digest covers only modelled (simulated) results, so a change that
   touches host performance alone must leave it unchanged. *)
let digest_of parts = Digest.to_hex (Digest.string (String.concat ";" parts))

(* The first 13 hex digits as a number: exact in a double, so the
   per-layer table can carry the digest as a metric. *)
let digest_value hex = fi (int_of_string ("0x" ^ String.sub hex 0 13))

let ints xs = String.concat "," (List.map string_of_int xs)
let profile_part totals = ints (List.map snd (Profiler.to_list totals))

(* ---- Workload interface ------------------------------------------ *)

type op = {
  input : int;
  sim_s : float;  (* host CPU seconds simulating the input, set-up excluded *)
  cycles : int;  (* simulated cycles of the input *)
  digest : string;
  result : string;  (* what the once-per-run rerun must reproduce *)
  layer : (string * float) list;
}

type setup = {
  setup_s : float;  (* host CPU seconds until the first simulated cycle *)
  tail_s : float;
      (* the part of [setup_s] an operation repeats after the point
         where it starts its own clock, to be subtracted from it *)
  setup_alloc : float;  (* words allocated by the set-up *)
  setup_layer : (string * float) list;
}

type workload = {
  domains : int;
  config : (string * Json.t) list;
  setup : Span.t option -> setup;
  iterate : Span.t option -> setup:setup -> input:int -> op;
  rerun : Span.t option -> setup:setup -> string * (string * float) list;
      (* input 0 again, in the configuration whose result must be
         identical (the sharded workload reruns it at 1 domain) *)
  feed : (Pattern.t * Arrival.t * int) option;
      (* pattern, arrival process and message size that drive the
         standalone Router.send measurement; None when the workload
         does not use the analytic router *)
  depth : int;  (* Eventq depth when the workload cannot sample one *)
}

(* ---- Mesh output checks (model-version independent) -------------- *)

let check_mesh ~min_latency (r : Load_gen.result) =
  if r.Load_gen.delivered < 1 then check_fail "no message delivered";
  if r.Load_gen.delivered > r.Load_gen.injected then
    check_fail "delivered %d > injected %d" r.Load_gen.delivered
      r.Load_gen.injected;
  let l = r.Load_gen.latencies in
  for i = 1 to Array.length l - 1 do
    if l.(i - 1) > l.(i) then check_fail "latency array not sorted at %d" i
  done;
  if
    not
      (r.Load_gen.p50_latency <= r.Load_gen.p99_latency
      && r.Load_gen.p99_latency <= r.Load_gen.max_latency)
  then
    check_fail "percentiles out of order: p50 %d p99 %d max %d"
      r.Load_gen.p50_latency r.Load_gen.p99_latency r.Load_gen.max_latency;
  if Array.length l > 0 && l.(0) < min_latency then
    check_fail "latency %d below the one-hop bound %d" l.(0) min_latency

(* The contention-free one-hop latency of a message: no delivery can
   beat it under any contention model. *)
let one_hop_bound (cfg : Load_gen.config) =
  let r =
    Router.create ~engine:(Engine.create ()) ~nodes:cfg.Load_gen.nodes
      ~config:
        { Router.default_config with
          Router.per_word_cycles = cfg.Load_gen.link_per_word }
      ()
  in
  Router.latency_cycles r ~src:0 ~dst:1 ~bytes:cfg.Load_gen.msg_bytes

let result_part (r : Load_gen.result) =
  [
    ints (Array.to_list r.Load_gen.latencies);
    ints
      [
        r.Load_gen.send_cycles;
        r.Load_gen.injected;
        r.Load_gen.launched;
        r.Load_gen.delivered;
        r.Load_gen.link_wait_cycles;
        r.Load_gen.link_max_depth;
        r.Load_gen.credit_stalls;
        r.Load_gen.flit_hol_cycles;
      ];
    ints
      (List.concat_map
         (fun (s : Router.link_stat) ->
           [ s.Router.xmits; s.Router.busy_cycles; s.Router.wait_cycles ])
         r.Load_gen.links);
  ]

let outcome_layer (r : Load_gen.result) =
  [
    ("load_gen.injected", fi r.Load_gen.injected);
    ("load_gen.delivered", fi r.Load_gen.delivered);
    ("load_gen.p99_cycles", fi r.Load_gen.p99_latency);
  ]

let open_loop ~load ~send_cycles =
  Arrival.Poisson { per_kcycle = load *. 1000.0 /. fi send_cycles }

(* The workload's config, for the manifest. *)
let describe ~engine (c : Load_gen.config) =
  [
    ("engine", Json.Str engine);
    ("nodes", Json.Int c.Load_gen.nodes);
    ("pattern", Json.Str (Pattern.to_string c.Load_gen.pattern));
    ("arrival", Json.Str (Arrival.to_string c.Load_gen.arrival));
    ("msg_bytes", Json.Int c.Load_gen.msg_bytes);
    ("warmup_cycles", Json.Int c.Load_gen.warmup_cycles);
    ("window_cycles", Json.Int c.Load_gen.window_cycles);
    ("link_per_word", Json.Int c.Load_gen.link_per_word);
    ("vcs", Json.Int c.Load_gen.vc_count);
    ( "rx_credits",
      match c.Load_gen.rx_credits with
      | None -> Json.Str "unlimited"
      | Some n -> Json.Int n );
    ( "crossing",
      Json.Str
        (match c.Load_gen.crossing with `Analytic -> "analytic" | `Flit -> "flit") );
  ]

let calibrate tr ~msg_bytes =
  Span.wrap tr "load_gen.calibrate" (fun () -> Load_gen.calibrate ~msg_bytes ())

(* A mesh workload's config for one input. The send cost is calibrated
   exactly as a sweep calibrates it, and the load is relative to it. *)
type mesh = send_cycles:int -> seed:int -> Load_gen.config

(* The calibrated send cost, and the config of input [i]. *)
let mesh_inputs (mesh : mesh) ~seed =
  let msg_bytes = (mesh ~send_cycles:1 ~seed).Load_gen.msg_bytes in
  let send_cycles = calibrate None ~msg_bytes in
  (send_cycles, fun i -> mesh ~send_cycles ~seed:(input_seed ~seed i))

(* ---- Legacy-engine mesh workloads (Load_gen) --------------------- *)

let legacy_mesh (mesh : mesh) ~seed =
  let _, cfg = mesh_inputs mesh ~seed in
  let shape = cfg 0 in
  let msg_bytes = shape.Load_gen.msg_bytes and nodes = shape.Load_gen.nodes in
  let min_latency = one_hop_bound shape in
  let first_setup = ref true in
  (* One set-up: the send-cost calibration, then a run whose window
     ends before the first arrival, which is exactly the system build,
     channel export/import and warm-send calibration. *)
  let setup tr =
    let rss0 = status_kb "VmRSS" in
    let c0 = cpu () in
    ignore (calibrate tr ~msg_bytes);
    let c1 = cpu () in
    let created = ref c1 and rss_made = ref rss0 in
    let a1 = alloc_words () in
    ignore
      (Span.wrap tr "load_gen.run.setup" (fun () ->
           let t1 = now () in
           Load_gen.run
             { shape with Load_gen.warmup_cycles = 0; window_cycles = 1 }
             ~probe:(fun _ ->
               created := cpu ();
               rss_made := status_kb "VmRSS";
               Span.mark tr "system.create" ~start:t1 ~stop:(now ()))));
    let c2 = cpu () in
    let layer =
      [ ("load_gen.calibrate_s", c1 -. c0); ("system.create_s", !created -. c1) ]
    in
    (* only a fresh process's first build grows the resident set by
       the system's own size; later builds reuse the freed heap *)
    let layer =
      if not !first_setup then layer
      else begin
        first_setup := false;
        ("system.rss_mb_per_node", fi (!rss_made - rss0) /. 1024.0 /. fi nodes)
        :: layer
      end
    in
    {
      setup_s = c2 -. c0;
      tail_s = c2 -. !created;
      setup_alloc = alloc_words () -. a1;
      setup_layer = layer;
    }
  in
  let simulate ?(sample = false) tr ~setup ~input =
    let cfg = cfg input in
    let engine = ref None and created = ref 0.0 in
    let depths = ref [] in
    let alarm =
      (* sample the event-queue depth at each major GC: only in the
         traced rerun, so that no measured operation pays for it *)
      if not sample then None
      else
        Some
          (Gc.create_alarm (fun () ->
               match !engine with
               | Some e when Engine.pending_events e > 0 ->
                   depths := fi (Engine.pending_events e) :: !depths
               | Some _ | None -> ()))
    in
    let a0 = alloc_words () and maj0 = major_collections () in
    let c0 = cpu () in
    let r =
      Fun.protect
        ~finally:(fun () -> Option.iter Gc.delete_alarm alarm)
        (fun () ->
          Span.wrap tr "load_gen.run" (fun () ->
              let t0 = now () in
              Load_gen.run cfg ~probe:(fun e ->
                  engine := Some e;
                  created := cpu ();
                  Span.mark tr "system.create" ~start:t0 ~stop:(now ()))))
    in
    let c1 = cpu () in
    let alloc = alloc_words () -. a0 -. setup.setup_alloc in
    let majors = major_collections () - maj0 in
    Span.wrap tr "check" (fun () -> check_mesh ~min_latency r);
    let e = Option.get !engine in
    let em = Engine.metrics e in
    (* the clock starts when the probe fires, so the system build's
       page-fault-heavy and host-dependent cost stays out of it *)
    let sim_s = c1 -. !created -. setup.tail_s in
    let events = Metrics.get em "engine.events_fired" in
    let grants = Metrics.get em "net.flit.grants" in
    let hol = Metrics.get em "net.flit.hol_stall_cycles" in
    let profile = Engine.profile e in
    let width = Router.mesh_width nodes in
    let directed_links = 4 * width * (width - 1) in
    let flit_cycles =
      Engine.now e / (cfg.Load_gen.flit_words * cfg.Load_gen.link_per_word)
    in
    let layer =
      [
        ("engine.events", fi events);
        ("engine.ns_per_event", sim_s *. 1e9 /. fi events);
        ("gc.alloc_words_per_event", alloc /. fi events);
        ("gc.major_collections", fi majors);
        ("router.link_xmits", fi (Metrics.get em "net.link.xmits"));
        ("router.link_wait_cycles", fi (Metrics.get em "net.link.wait_cycles"));
        ("router.flit.grants", fi grants);
        ("router.flit.hol_stall_cycles", fi hol);
        ("system.create_s", !created -. c0);
      ]
      @ (if grants = 0 then []
         else
           [
             ("router.flit.ns_per_grant", sim_s *. 1e9 /. fi grants);
             ( "router.flit.active_link_share",
               fi grants /. fi (directed_links * max 1 flit_cycles) );
           ])
      @ (match !depths with [] -> [] | d -> [ ("eventq.depth", median d) ])
      @ outcome_layer r
      @ List.map
          (fun (c, v) -> ("profile." ^ c, fi v /. fi (max 1 r.Load_gen.launched)))
          (Profiler.to_list profile)
    in
    let digest =
      digest_of (result_part r @ [ ints [ grants; hol ]; profile_part profile ])
    in
    {
      input;
      sim_s;
      cycles = cfg.Load_gen.warmup_cycles + cfg.Load_gen.window_cycles;
      digest;
      result = digest;
      layer;
    }
  in
  let rerun tr ~setup =
    let op = simulate tr ~sample:(tr <> None) ~setup ~input:0 in
    (op.result, List.filter (fun (n, _) -> n = "eventq.depth") op.layer)
  in
  {
    domains = 1;
    config = describe ~engine:"legacy (Load_gen)" shape;
    setup;
    iterate = (fun tr -> simulate tr);
    rerun;
    feed = Some (shape.Load_gen.pattern, shape.Load_gen.arrival, msg_bytes);
    depth = nodes;
  }

let mesh64_uniform ~send_cycles ~seed =
  {
    Load_gen.default_config with
    Load_gen.nodes = 64;
    pattern = Pattern.Uniform;
    arrival = open_loop ~load:0.9 ~send_cycles;
    msg_bytes = 256;
    warmup_cycles = 2_000;
    window_cycles = 400_000;
    link_contention = true;
    vc_count = 1;
    rx_credits = None;
    crossing = `Analytic;
    seed;
  }

let mesh16_hotspot_flit ~send_cycles ~seed =
  {
    Load_gen.default_config with
    Load_gen.nodes = 16;
    pattern = Pattern.Hotspot { node = 0; pct = 50 };
    arrival = open_loop ~load:0.5 ~send_cycles;
    msg_bytes = 2048;
    warmup_cycles = 2_000;
    window_cycles = 20_000;
    link_contention = true;
    link_per_word = 2;
    vc_count = 2;
    rx_credits = Some 8;
    crossing = `Flit;
    flit_words = 1;
    seed;
  }

(* ---- Sharded mesh workload (Shard_gen) --------------------------- *)

let mesh256 ~send_cycles ~seed =
  {
    Load_gen.default_config with
    Load_gen.nodes = 256;
    pattern = Pattern.Uniform;
    arrival = open_loop ~load:0.9 ~send_cycles;
    msg_bytes = 256;
    warmup_cycles = 2_000;
    window_cycles = 40_000;
    seed;
  }

let mesh256_sharded ~seed =
  let domains = 2 in
  let send_cycles, cfg = mesh_inputs mesh256 ~seed in
  let shape = cfg 0 in
  let msg_bytes = shape.Load_gen.msg_bytes in
  let min_latency = one_hop_bound shape in
  let run tr ~domains cfg =
    Span.wrap tr "shard_gen.run_stats" ~args:[ ("domains", Json.Int domains) ]
      (fun () -> Shard_gen.run_stats ~domains ~send_cycles cfg)
  in
  let setup tr =
    let c0 = cpu () in
    ignore (calibrate tr ~msg_bytes);
    let c1 = cpu () in
    let a1 = alloc_words () in
    ignore
      (run tr ~domains { shape with Load_gen.warmup_cycles = 0; window_cycles = 1 });
    let c2 = cpu () in
    {
      setup_s = c2 -. c0;
      tail_s = c2 -. c1;
      setup_alloc = alloc_words () -. a1;
      setup_layer = [ ("load_gen.calibrate_s", c1 -. c0) ];
    }
  in
  let input0_wall = ref nan in
  let iterate tr ~setup ~input =
    let cfg = cfg input in
    let a0 = alloc_words () and maj0 = major_collections () in
    let t0 = now () and c0 = cpu () in
    let r, ks = run tr ~domains cfg in
    let c1 = cpu () in
    if input = 0 then input0_wall := now () -. t0;
    let alloc = alloc_words () -. a0 -. setup.setup_alloc in
    let majors = major_collections () - maj0 in
    Span.wrap tr "check" (fun () -> check_mesh ~min_latency r);
    let sim_s = c1 -. c0 -. setup.tail_s in
    let layer =
      [
        ("shard.events", fi ks.Shard_gen.events);
        ("shard.windows", fi ks.Shard_gen.windows);
        ("shard.cross_posts", fi ks.Shard_gen.cross_posts);
        ("shard.ns_per_window", sim_s *. 1e9 /. fi ks.Shard_gen.windows);
        (* allocation counters are per domain: the main domain's share *)
        ("gc.alloc_words_per_event", alloc /. fi ks.Shard_gen.events);
        ("gc.major_collections", fi majors);
      ]
      @ outcome_layer r
    in
    {
      input;
      sim_s;
      cycles = cfg.Load_gen.warmup_cycles + cfg.Load_gen.window_cycles;
      digest = digest_of (result_part r);
      result = Marshal.to_string r [];
      layer;
    }
  in
  (* --domains is a host knob only: input 0 at 1 domain must give a
     byte-identical result *)
  let rerun tr ~setup:_ =
    let t0 = now () in
    let r, _ = run tr ~domains:1 shape in
    let wall = now () -. t0 in
    (Marshal.to_string r [], [ ("shard.speedup_d2", wall /. !input0_wall) ])
  in
  {
    domains;
    config =
      describe ~engine:"sharded (Shard_gen)" shape @ [ ("domains", Json.Int domains) ];
    setup;
    iterate;
    rerun;
    feed = None;
    (* one pending arrival per source of a 16-node row shard *)
    depth = 16;
  }

(* ---- The paper's mechanism: user-level sends on 2 nodes ---------- *)

let udma_sizes = [| 64; 256; 1024; 4096; 16384 |]
let udma_rounds = 40
let udma_pool_bytes = 65536

type rig = {
  sys : System.t;
  ch : Messaging.channel;
  ucpu : Udma.Initiator.cpu;
  buf : int;
  machine : M.t;
  proc : Udma_os.Proc.t;
}

let udma_send ~seed =
  let max_size = Array.fold_left max 0 udma_sizes in
  let pool =
    let rng = Rng.create seed in
    Bytes.init udma_pool_bytes (fun _ -> Char.chr (Rng.int rng 256))
  in
  (* input i: [udma_rounds] rounds, each sending every size once in a
     seeded order, each payload cut from a seeded offset of the pool so
     a stale deposit cannot pass the read-back check *)
  let payloads i =
    let rng = Rng.create (input_seed ~seed i) in
    List.concat
      (List.init udma_rounds (fun _ ->
           let order = Array.copy udma_sizes in
           Rng.shuffle rng order;
           List.map
             (fun size ->
               let off = 4 * Rng.int rng ((udma_pool_bytes - size) / 4) in
               Bytes.sub pool off size)
             (Array.to_list order)))
  in
  let sends = udma_rounds * Array.length udma_sizes in
  let build tr =
    let c0 = cpu () in
    let sys = Span.wrap tr "system.create" (fun () -> System.create ~nodes:2 ()) in
    let c1 = cpu () in
    let rig =
      Span.wrap tr "messaging.connect" (fun () ->
          let snd = System.node sys 0 and rcv = System.node sys 1 in
          let machine = snd.System.machine in
          let proc = Scheduler.spawn machine ~name:"bench-send" in
          let rp = Scheduler.spawn rcv.System.machine ~name:"bench-recv" in
          let pages = (max_size / 4096) + 1 in
          let ch =
            Messaging.connect sys ~sender:(0, proc) ~receiver:(1, rp) ~pages ()
          in
          let buf = Kernel.alloc_buffer machine proc ~bytes:max_size in
          { sys; ch; ucpu = Kernel.user_cpu machine proc; buf; machine; proc })
    in
    (rig, cpu () -. c0, c1 -. c0)
  in
  let first_setup = ref true in
  let setup tr =
    let rss0 = status_kb "VmRSS" in
    let _, setup_s, create_s = build tr in
    let layer = [ ("system.create_s", create_s) ] in
    let layer =
      if not !first_setup then layer
      else begin
        first_setup := false;
        ("system.rss_mb_per_node", fi (status_kb "VmRSS" - rss0) /. 1024.0 /. 2.0)
        :: layer
      end
    in
    (* operations time their sends directly, with nothing to subtract *)
    { setup_s; tail_s = 0.0; setup_alloc = 0.0; setup_layer = layer }
  in
  let iterate tr ~setup:_ ~input =
    let payloads = payloads input in
    let rig, _, create_s = build tr in
    let e = System.engine rig.sys in
    let c0 = Engine.now e and p0 = Engine.profile e in
    let ev0 = Metrics.get (Engine.metrics e) "engine.events_fired" in
    let sim_s = ref 0.0 and alloc = ref 0.0 in
    let send_us = Hashtbl.create 8 and drain_us = ref [] and depths = ref [] in
    let clocks = ref [] in
    List.iteri
      (fun i payload ->
        let size = Bytes.length payload in
        Kernel.write_user rig.machine rig.proc ~vaddr:rig.buf payload;
        let a0 = alloc_words () and k0 = cpu () in
        let t0 = now () in
        let sent =
          Span.wrap tr "messaging.send_nowait" ~args:[ ("bytes", Json.Int size) ]
            (fun () ->
              Messaging.send_nowait rig.ch rig.ucpu ~src_vaddr:rig.buf
                ~nbytes:size ())
        in
        let t1 = now () in
        let depth = Engine.pending_events e in
        Span.wrap tr "system.run_until_idle" (fun () ->
            System.run_until_idle rig.sys);
        let t2 = now () in
        sim_s := !sim_s +. (cpu () -. k0);
        alloc := !alloc +. (alloc_words () -. a0);
        Hashtbl.replace send_us size
          (((t1 -. t0) *. 1e6)
          :: Option.value (Hashtbl.find_opt send_us size) ~default:[]);
        drain_us := ((t2 -. t1) *. 1e6) :: !drain_us;
        depths := fi depth :: !depths;
        clocks := Engine.now e :: !clocks;
        (match sent with
        | Ok () -> ()
        | Error err ->
            check_fail "send %d (%d B) returned %s" i size
              (Format.asprintf "%a" Messaging.pp_send_error err));
        let got =
          Span.wrap tr "messaging.read_payload" (fun () ->
              Messaging.read_payload rig.ch ~len:size)
        in
        if not (Bytes.equal got payload) then
          check_fail "send %d (%d B) read back different bytes" i size)
      payloads;
    let cycles = Engine.now e - c0 in
    let profile = Profiler.sub_totals (Engine.profile e) p0 in
    if Profiler.sum profile <> cycles then
      check_fail "profile sums to %d, the clock advanced %d"
        (Profiler.sum profile) cycles;
    let events = Metrics.get (Engine.metrics e) "engine.events_fired" - ev0 in
    let sender = (System.node rig.sys 0).System.machine in
    let on_both name =
      List.fold_left
        (fun acc n ->
          acc + Metrics.get (System.node rig.sys n).System.machine.M.metrics name)
        0 [ 0; 1 ]
    in
    let tlb = Mmu.tlb sender.M.mmu in
    let initiations = Metrics.get sender.M.metrics "udma.initiations"
    and completions = Metrics.get sender.M.metrics "udma.completions"
    and hits = Tlb.hits tlb
    and misses = Tlb.misses tlb
    and transfers = on_both "dma.transfers"
    and moved = on_both "dma.bytes_moved" in
    let size_us size =
      median (Option.value (Hashtbl.find_opt send_us size) ~default:[])
    in
    let layer =
      [
        ("engine.events", fi events);
        ("engine.ns_per_event", !sim_s *. 1e9 /. fi events);
        ("eventq.depth", median !depths);
        ("gc.alloc_words_per_event", !alloc /. fi events);
        ("system.create_s", create_s);
        ("messaging.send_us_64B", size_us 64);
        ("messaging.send_us_16KB", size_us 16384);
        ("system.drain_us", median !drain_us);
        ("udma.initiations", fi initiations);
        ("udma.completions", fi completions);
        ("mmu.tlb_hit_ratio", fi hits /. fi (max 1 (hits + misses)));
        ("dma.transfers", fi transfers);
        ("dma.bytes_moved", fi moved);
      ]
      @ List.map
          (fun (c, v) -> ("profile." ^ c, fi v /. fi sends))
          (Profiler.to_list profile)
    in
    let digest =
      digest_of
        [
          ints (List.rev !clocks);
          ints [ initiations; completions; hits; misses; transfers; moved ];
          profile_part profile;
        ]
    in
    {
      input;
      sim_s = !sim_s;
      cycles;
      digest;
      result = digest;
      layer;
    }
  in
  let rerun tr ~setup = ((iterate tr ~setup ~input:0).result, []) in
  {
    domains = 1;
    config =
      [
        ("engine", Json.Str "legacy (System), closed loop");
        ("nodes", Json.Int 2);
        ("sizes", Json.List (Array.to_list (Array.map (fun s -> Json.Int s) udma_sizes)));
        ("sends_per_op", Json.Int sends);
      ];
    setup;
    iterate;
    rerun;
    feed = None;
    depth = 1;
  }

let workloads =
  [
    ("mesh64_uniform", fun ~seed -> legacy_mesh ~seed mesh64_uniform);
    ("mesh16_hotspot_flit", fun ~seed -> legacy_mesh ~seed mesh16_hotspot_flit);
    ("mesh256_sharded", mesh256_sharded);
    ("udma_send", udma_send);
  ]

(* ---- Standalone layer measurements (traced run only) ------------- *)

(* Eventq push+pop pairs in the hold model at a fixed depth. *)
let eventq_push_pop_ns ~seed ~depth =
  let rng = Rng.create seed in
  let gaps = Array.init 4096 (fun _ -> 1 + Rng.int rng 1000) in
  let pairs = 200_000 in
  let once () =
    let q = Eventq.create () in
    for i = 1 to depth do
      Eventq.push q ~time:gaps.(i land 4095) ()
    done;
    let t0 = now () in
    for i = 1 to pairs do
      match Eventq.pop q with
      | Some (t, ()) -> Eventq.push q ~time:(t + gaps.(i land 4095)) ()
      | None -> assert false
    done;
    (now () -. t0) *. 1e9 /. fi pairs
  in
  median (List.init 5 (fun _ -> once ()))

(* Router.send on a contended 64-node analytic router, fed per source
   from the workload's pattern and arrival draws. *)
let router_send_ns ~seed (pattern, arrival, msg_bytes) =
  let nodes = 64 in
  let engine = Engine.create () in
  let router =
    Router.create ~engine ~nodes
      ~config:{ Router.default_config with Router.link_contention = true }
      ()
  in
  for n = 0 to nodes - 1 do
    Router.register router ~node_id:n (fun _ -> ())
  done;
  let width = Router.width router in
  let master = Rng.create seed in
  let rngs = Array.init nodes (fun _ -> Rng.split master) in
  let next = Array.map (fun rng -> Arrival.next_gap arrival rng) rngs in
  let payload = Bytes.make msg_bytes '\000' in
  let sends = 50_000 in
  let busy = ref 0.0 and sent = ref 0 in
  while !sent < sends do
    let src = ref 0 in
    Array.iteri (fun i t -> if t < next.(!src) then src := i) next;
    let s = !src in
    Engine.run_until engine next.(s);
    (match Pattern.dest pattern rngs.(s) ~width ~nodes ~src:s with
    | Some dst ->
        let pkt =
          { Packet.src_node = s; dst_node = dst; dst_paddr = 0; payload; seq = !sent }
        in
        let t0 = now () in
        Router.send router pkt;
        busy := !busy +. (now () -. t0);
        incr sent
    | None -> ());
    next.(s) <- next.(s) + Arrival.next_gap arrival rngs.(s)
  done;
  !busy *. 1e9 /. fi sends

(* ---- Metrics ------------------------------------------------------ *)

(* [exact] metrics are deterministic functions of the inputs; a run
   reports them as the mean over its first [exact_inputs] inputs, so
   they repeat exactly between runs of one seed. Host-time metrics are
   medians over the run's operations. *)
type metric = { name : string; unit_ : string; better : string; exact : bool }

let exact_inputs = 3

let end_to_end =
  [
    { name = "sim_cycles_per_s"; unit_ = "1/s"; better = "higher"; exact = false };
    { name = "peak_rss_mb"; unit_ = "MB"; better = "lower"; exact = false };
    { name = "setup_s"; unit_ = "s"; better = "lower"; exact = false };
  ]

let host name unit_ better = { name; unit_; better; exact = false }

(* a modelled or otherwise deterministic count: "same" means a change
   to host performance alone must leave it identical *)
let count ?(better = "same") name unit_ = { name; unit_; better; exact = true }

let per_layer =
  [
    count "engine.events" "count" ~better:"lower";
    host "engine.ns_per_event" "ns" "lower";
    (* sampled at major GCs on the legacy meshes, so it moves with host
       allocation; the fewer events pending, the cheaper a push/pop *)
    host "eventq.depth" "count" "lower";
    host "eventq.push_pop_ns" "ns" "lower";
    host "gc.alloc_words_per_event" "words" "lower";
    host "gc.major_collections" "count" "lower";
    count "router.link_xmits" "count";
    count "router.link_wait_cycles" "cycles";
    host "router.send_ns" "ns" "lower";
    count "router.flit.grants" "count";
    count "router.flit.hol_stall_cycles" "cycles";
    host "router.flit.ns_per_grant" "ns" "lower";
    count "router.flit.active_link_share" "ratio";
    count "shard.events" "count" ~better:"lower";
    count "shard.windows" "count" ~better:"lower";
    count "shard.cross_posts" "count";
    host "shard.ns_per_window" "ns" "lower";
    host "shard.speedup_d2" "ratio" "higher";
    host "system.create_s" "s" "lower";
    host "system.rss_mb_per_node" "MB" "lower";
    host "load_gen.calibrate_s" "s" "lower";
    count "load_gen.injected" "count";
    count "load_gen.delivered" "count";
    count "load_gen.p99_cycles" "cycles";
    count "model_digest" "hash";
    host "messaging.send_us_64B" "us" "lower";
    host "messaging.send_us_16KB" "us" "lower";
    host "system.drain_us" "us" "lower";
    count "udma.initiations" "count";
    count "udma.completions" "count";
    count "mmu.tlb_hit_ratio" "ratio";
    count "dma.transfers" "count";
    count "dma.bytes_moved" "bytes";
    count "profile.user_ref" "cycles";
    count "profile.kernel" "cycles";
    count "profile.dma" "cycles";
    count "profile.wire" "cycles";
    count "profile.device" "cycles";
    count "profile.idle" "cycles";
    host "trace.overhead" "ratio" "lower";
    count "trace.spans_per_op" "count";
    (* the host's own speed, and the rate before it is normalised *)
    host "host.reference_s" "s" "lower";
    host "host.raw_cycles_per_s" "1/s" "higher";
  ]

(* ---- Measurement loop -------------------------------------------- *)

type run = {
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;
  mutable setups : setup list;
  mutable refs : float list;  (* host CPU seconds of each reference kernel *)
  mutable peak_kb : int;  (* VmHWM before the first reference kernel *)
}

let max_failures_kept = 10

(* One operation: counted as attempted, and as failed when it raises. *)
let operation run f =
  run.attempted <- run.attempted + 1;
  match f () with
  | v -> Some v
  | exception e ->
      run.failed <- run.failed + 1;
      let msg =
        match e with
        | Check_failed s -> "check failed: " ^ s
        | e -> Printexc.to_string e
      in
      if List.length run.failures < max_failures_kept then
        run.failures <- msg :: run.failures;
      None

(* Set-up is timed at least [setup_reps] times, and more often while
   the reps stay under [setup_budget_s], so a millisecond set-up still
   gets a steady median. *)
let setup_reps = 5
let setup_max_reps = 500
let setup_budget_s = 1.0

let do_setups w run =
  let t0 = now () in
  let reps = ref 0 in
  while
    !reps < setup_reps
    || (!reps < setup_max_reps && now () -. t0 < setup_budget_s)
  do
    Gc.full_major ();
    run.setups <- w.setup None :: run.setups;
    incr reps
  done;
  let s = run.setups in
  let med f = median (List.map f s) in
  {
    setup_s = med (fun s -> s.setup_s);
    tail_s = med (fun s -> s.tail_s);
    setup_alloc = med (fun s -> s.setup_alloc);
    setup_layer = [];
  }

(* ---- Host speed reference ----------------------------------------- *)

(* Co-tenants of a shared host slow the whole guest down in phases that
   last from seconds to minutes, longer than a run, and slow the
   memory-heavy workloads most. So a run also times a fixed reference
   kernel between its operations: hash-table and balanced-tree work
   over a few MB, on the OCaml standard library alone, whose host time
   moves with the simulator's under those slowdowns, though less than
   in proportion: over ten runs per workload, the log of the rate fell
   by 0.37 (udma_send) to 0.88 (mesh16_hotspot_flit) times the rise in
   the log of the kernel's time. The simulating time behind
   [sim_cycles_per_s] is reported in reference-host seconds: measured
   seconds x ([reference_nominal_s] / the run's median reference time)
   ** [reference_weight]. The kernel calls nothing in lib/, so a change
   to the simulator moves the reported rate in full. Set-up is
   dominated by page faults and zeroing, which the kernel does not
   track, so [setup_s] stays in measured seconds. *)
let reference_every_s = 1.0
let reference_nominal_s = 0.2
let reference_weight = 0.75
let min_references = 3

module Int_map = Map.Make (Int)

let reference_kernel () =
  let c0 = cpu () in
  let keys = 200_000 and tree = 50_000 in
  let h = Hashtbl.create 16 in
  for i = 1 to keys do
    Hashtbl.replace h (i * 7919) (string_of_int i)
  done;
  let draw = Random.State.make [| 7 |] in
  let m = ref Int_map.empty in
  for i = 1 to tree do
    m := Int_map.add (Random.State.bits draw) i !m
  done;
  let sum = ref 0 in
  for i = 1 to keys do
    match Hashtbl.find_opt h (i * 7919) with
    | Some v -> sum := !sum + String.length v
    | None -> ()
  done;
  let draw = Random.State.make [| 7 |] in
  for _ = 1 to tree do
    match Int_map.find_opt (Random.State.bits draw) !m with
    | Some i -> sum := !sum + i
    | None -> ()
  done;
  ignore (Sys.opaque_identity !sum);
  cpu () -. c0

(* The first reference waits for a full pass over the inputs, so that
   the peak resident set read just before it is the workload's own, and
   follows an unrecorded warm-up kernel. *)
let reference ?tr run =
  if run.peak_kb = 0 then begin
    run.peak_kb <- status_kb "VmHWM";
    (* unrecorded: the first kernel may still grow the heap *)
    ignore (reference_kernel ())
  end;
  Gc.full_major ();
  run.refs <- Span.wrap tr "host.reference" reference_kernel :: run.refs;
  Gc.full_major ()

(* Reference-host seconds of [s] measured host seconds. *)
let normalised run s =
  s *. ((reference_nominal_s /. median run.refs) ** reference_weight)

(* Operations on inputs 0, 1, ..., [inputs_per_run - 1], 0, 1, ... until
   [deadline], and at least once over every input, with a reference
   kernel every [reference_every_s] after the first pass. A repeat must
   reproduce the input's first result. *)
let measure w run tr ~deadline ~setup =
  let ops = ref [] and first = Hashtbl.create 16 in
  let k = ref 0 and last_ref = ref (now ()) in
  while !k < inputs_per_run || now () < deadline do
    if !k >= inputs_per_run && now () -. !last_ref >= reference_every_s then begin
      reference ?tr run;
      last_ref := now ()
    end;
    Gc.full_major ();
    (* the spans of one operation share its number *)
    Option.iter (fun t -> Span.set_op t !k) tr;
    let i = !k mod inputs_per_run in
    let spans0 = Option.fold ~none:0 ~some:Span.created tr in
    (match
       operation run (fun () ->
           let op =
             Span.wrap tr "op" ~args:[ ("input", Json.Int i) ] (fun () ->
                 w.iterate tr ~setup ~input:i)
           in
           (match Hashtbl.find_opt first i with
           | None -> Hashtbl.add first i op.result
           | Some r when r <> op.result ->
               check_fail "input %d simulated again gave a different result" i
           | Some _ -> ());
           op)
     with
    | Some op ->
        (* spans the operation recorded, dropped ones included: a
           function of the input alone *)
        let spans =
          Option.fold ~none:[]
            ~some:(fun t -> [ ("trace.spans_per_op", fi (Span.created t - spans0)) ])
            tr
        in
        ops := { op with layer = op.layer @ spans } :: !ops
    | None -> ());
    incr k
  done;
  !ops

(* The simulated cycles of the run's inputs and the host seconds they
   took, each input timed by the median of its operations, so that the
   inputs' own differences in work stay out of the statistic. *)
let per_input ops =
  let times = Hashtbl.create 16 in
  List.iter
    (fun op ->
      let c, ss =
        Option.value (Hashtbl.find_opt times op.input) ~default:(op.cycles, [])
      in
      Hashtbl.replace times op.input (c, op.sim_s :: ss))
    ops;
  Hashtbl.fold (fun _ (c, ss) (ct, st) -> (ct + c, st +. median ss)) times (0, 0.0)

(* ---- Main --------------------------------------------------------- *)

let values pairs name =
  List.filter_map (fun (n, v) -> if n = name then Some v else None) pairs

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 in
  let trace = ref (-1) and commit = ref "unknown" and source = ref "unknown" in
  let out = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S host seconds to measure");
      ("--trace", Arg.Set_int trace, "0|1 1 = per-layer traced run");
      ("--commit", Arg.Set_string commit, "SHA git commit, for the manifest");
      ("--source-digest", Arg.Set_string source, "HEX source digest, for the manifest");
      ("--out", Arg.Set_string out, "DIR where the result and trace files go");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let make =
    match List.assoc_opt !workload workloads with
    | Some f -> f
    | None ->
        prerr_endline
          ("unknown workload; expected one of "
          ^ String.concat ", " (List.map fst workloads));
        exit 2
  in
  if !seed < 0 || !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "need --seed >= 0, --seconds >= 1 and --trace 0|1";
    exit 2
  end;
  let traced = !trace = 1 in
  let start = now () in
  let seconds = fi !seconds in
  let w = make ~seed:!seed in
  let run =
    { attempted = 0; failed = 0; failures = []; setups = []; refs = []; peak_kb = 0 }
  in
  let setup = do_setups w run in
  (* a traced run spends its first half untraced, to price the tracing *)
  let untraced =
    measure w run None ~setup
      ~deadline:(start +. if traced then seconds /. 2.0 else seconds)
  in
  let tracer = if traced then Some (Span.create ()) else None in
  let ops =
    if traced then measure w run tracer ~setup ~deadline:(start +. seconds)
    else untraced
  in
  Option.iter (fun t -> Span.set_op t (-1)) tracer;
  while List.length run.refs < min_references do
    reference run
  done;
  (* same input, same result: input 0 once more *)
  let input0 = List.find_opt (fun op -> op.input = 0) ops in
  Gc.full_major ();
  let rerun_layer =
    Option.value ~default:[]
      (operation run (fun () ->
           let result, layer = w.rerun tracer ~setup in
           match input0 with
           | None -> check_fail "input 0 has no result to reproduce"
           | Some op when op.result <> result ->
               check_fail "input 0 simulated again gave a different result"
           | Some _ -> layer))
  in
  let peak_rss_mb = fi run.peak_kb /. 1024.0 in
  let exact_ops =
    List.filter_map
      (fun i -> List.find_opt (fun op -> op.input = i) ops)
      (List.init exact_inputs Fun.id)
  in
  let digest =
    if List.length exact_ops < exact_inputs then ""
    else
      digest_of
        (List.map (fun op -> op.digest)
           (List.sort (fun a b -> compare a.input b.input) exact_ops))
  in
  let rates = List.map (fun op -> fi op.cycles /. op.sim_s) ops in
  let input_cycles, input_s = per_input ops in
  let raw_rate = fi input_cycles /. input_s in
  let metrics =
    if not traced then
      [
        (List.nth end_to_end 0, fi input_cycles /. normalised run input_s);
        (List.nth end_to_end 1, peak_rss_mb);
        (List.nth end_to_end 2, setup.setup_s);
      ]
    else begin
      let op_pairs = List.concat_map (fun op -> op.layer) ops in
      let exact_pairs = List.concat_map (fun op -> op.layer) exact_ops in
      let depth =
        match values (op_pairs @ rerun_layer) "eventq.depth" with
        | [] -> w.depth
        | d -> max 1 (int_of_float (median d))
      in
      let eq =
        Span.wrap tracer "eventq.push_pop" (fun () ->
            eventq_push_pop_ns ~seed:!seed ~depth)
      in
      let rs =
        Option.map
          (fun feed ->
            Span.wrap tracer "router.send" (fun () -> router_send_ns ~seed:!seed feed))
          w.feed
      in
      let pairs =
        List.concat_map (fun s -> s.setup_layer) run.setups
        @ op_pairs @ rerun_layer
        @ [
            ("eventq.depth", fi depth);
            ("eventq.push_pop_ns", eq);
            ("trace.overhead", input_s /. snd (per_input untraced));
            ("host.reference_s", median run.refs);
            ("host.raw_cycles_per_s", raw_rate);
          ]
        @ (match rs with None -> [] | Some ns -> [ ("router.send_ns", ns) ])
        @ if digest = "" then [] else [ ("model_digest", digest_value digest) ]
      in
      (* a layer the workload does not exercise reads 0 *)
      List.map
        (fun m ->
          let v =
            if m.exact && m.name <> "model_digest" then
              match values exact_pairs m.name with [] -> 0.0 | vs -> mean vs
            else match values pairs m.name with [] -> 0.0 | vs -> median vs
          in
          (m, v))
        per_layer
    end
  in
  let manifest =
    Json.Obj
      [
        ("benchmark", Json.Str "perfbench/1");
        ("workload", Json.Str !workload);
        ("seed", Json.Int !seed);
        ("seconds", Json.Float seconds);
        ("trace", Json.Bool traced);
        ("iterations", Json.Int run.attempted);
        ("inputs", Json.Int inputs_per_run);
        ("setups", Json.Int (List.length run.setups));
        ("domains", Json.Int w.domains);
        ("host_cores", Json.Int (Domain.recommended_domain_count ()));
        ("ocaml_version", Json.Str Sys.ocaml_version);
        ("git_commit", Json.Str !commit);
        ("source_digest", Json.Str !source);
        ("config", Json.Obj w.config);
      ]
  in
  let correct = run.failed = 0 && digest <> "" in
  let metric_json =
    Json.Obj
      (List.map
         (fun (m, v) ->
           (m.name, Json.Obj [ ("value", Json.Float v); ("unit", Json.Str m.unit_) ]))
         metrics)
  in
  let failures = List.rev run.failures in
  print_endline ("manifest " ^ Json.to_string manifest);
  List.iter
    (fun (m, v) ->
      Printf.printf "metric %-32s %.6g %s (better: %s)\n" m.name v m.unit_ m.better)
    metrics;
  Printf.printf
    "rate over %d operations of %d inputs: per operation q1 %.6g median %.6g \
     q3 %.6g max %.6g, median per input %.6g cycles/s; reference kernel \
     median %.4g s over %d (q1 %.4g q3 %.4g); set-up %.4g s\n"
    (List.length rates) inputs_per_run (quantile 0.25 rates) (median rates)
    (quantile 0.75 rates) (quantile 1.0 rates) raw_rate (median run.refs)
    (List.length run.refs) (quantile 0.25 run.refs) (quantile 0.75 run.refs)
    setup.setup_s;
  Printf.printf "model_digest %s\n" digest;
  List.iter (fun f -> Printf.printf "failure %s\n" f) failures;
  if !out <> "" then begin
    let file suffix =
      Filename.concat !out
        (Printf.sprintf "%s-seed%d-trace%d%s" !workload !seed !trace suffix)
    in
    let doc =
      Json.Obj
        [
          ("manifest", manifest);
          ("correct", Json.Bool correct);
          ("attempted", Json.Int run.attempted);
          ("failed", Json.Int run.failed);
          ("failures", Json.List (List.map (fun f -> Json.Str f) failures));
          ("model_digest", Json.Str digest);
          ("metrics", metric_json);
        ]
    in
    let oc = open_out (file ".json") in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc (Json.to_string ~indent:2 doc));
    Option.iter (fun t -> Span.write_chrome t ~manifest (file ".trace.json")) tracer
  end;
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int run.attempted);
            ("failed", Json.Int run.failed);
            ("metrics", metric_json);
          ]))
