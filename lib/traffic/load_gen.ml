module Engine = Udma_sim.Engine
module Rng = Udma_sim.Rng
module Metrics = Udma_obs.Metrics
module Layout = Udma_mmu.Layout
module M = Udma_os.Machine
module Scheduler = Udma_os.Scheduler
module Kernel = Udma_os.Kernel
module System = Udma_shrimp.System
module Router = Udma_shrimp.Router
module Messaging = Udma_shrimp.Messaging
module Network_interface = Udma_shrimp.Network_interface

type config = {
  nodes : int;
  pattern : Pattern.t;
  arrival : Arrival.t;
  msg_bytes : int;
  warmup_cycles : int;
  window_cycles : int;
  link_contention : bool;
  routing : Router.routing;
  link_per_word : int;
  vc_count : int;
  rx_credits : int option;
  crossing : Router.crossing;
  flit_words : int;
  seed : int;
}

let default_config =
  {
    nodes = 16;
    pattern = Pattern.Uniform;
    arrival = Arrival.Poisson { per_kcycle = 1.0 };
    msg_bytes = 256;
    warmup_cycles = 2_000;
    window_cycles = 50_000;
    link_contention = true;
    routing = `Dimension_order;
    link_per_word = Router.default_config.Router.per_word_cycles;
    vc_count = Router.default_config.Router.vc_count;
    rx_credits = Router.default_config.Router.rx_credits;
    crossing = Router.default_config.Router.crossing;
    flit_words = Router.default_config.Router.flit_words;
    seed = 42;
  }

type result = {
  nodes : int;
  width : int;
  send_cycles : int;
  window_cycles : int;
  injected : int;
  launched : int;
  delivered : int;
  offered_per_kcycle : float;
  delivered_per_kcycle : float;
  latencies : int array;
  mean_latency : float;
  p50_latency : int;
  p95_latency : int;
  p99_latency : int;
  max_latency : int;
  link_wait_cycles : int;
  link_max_depth : int;
  credit_stalls : int;
  credit_stall_cycles : int;
  links : Router.link_stat list;
  flit_hol_cycles : int;
  flit_occupancy : (float * int) array;
      (* per VC: (mean, max) buffered flits; [||] in analytic mode *)
}

(* p-th percentile of a sorted array (nearest-rank). *)
let percentile_sorted arr p =
  let n = Array.length arr in
  if n = 0 then 0
  else
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
    arr.(max 0 (min (n - 1) (rank - 1)))

(* The checks every engine applies, each message naming its field and
   prefixed with the rejecting engine. *)
let validate_common ~engine (cfg : config) =
  let bad msg = invalid_arg (engine ^ ": " ^ msg) in
  if cfg.msg_bytes <= 0 || cfg.msg_bytes land 3 <> 0 || cfg.msg_bytes > 4092
  then bad "msg_bytes must be a positive 4-byte multiple <= 4092";
  if cfg.link_per_word < 1 then bad "link_per_word must be >= 1";
  if cfg.window_cycles <= 0 then bad "window_cycles must be positive";
  if cfg.warmup_cycles < 0 then bad "warmup_cycles must be non-negative"

let validate (cfg : config) =
  if cfg.nodes < 2 || cfg.nodes > 64 then
    invalid_arg "Load_gen: nodes must be in 2..64";
  if not (Router.valid_nodes cfg.nodes) then
    invalid_arg
      "Load_gen: nodes must fill complete mesh rows (2, 4, 6, 9, 12, 16, 20, \
       25, 30, 36, 42, 49, 56 or 64)";
  validate_common ~engine:"Load_gen" cfg;
  if cfg.vc_count < 1 || cfg.vc_count > 4 then
    invalid_arg "Load_gen: vc_count must be in 1..4";
  (match cfg.rx_credits with
  | Some n when n < 1 -> invalid_arg "Load_gen: rx_credits must be >= 1"
  | Some _ | None -> ());
  if cfg.flit_words < 1 then invalid_arg "Load_gen: flit_words must be >= 1";
  match (cfg.crossing, cfg.routing) with
  | `Flit, `Minimal_adaptive ->
      invalid_arg "Load_gen: the flit crossing is dimension-order only"
  | (`Flit | `Analytic), _ -> ()

let make_system (cfg : config) =
  System.create
    ~config:
      { System.default_config with
        System.router =
          { Router.default_config with
            Router.link_contention = cfg.link_contention;
            Router.routing = cfg.routing;
            Router.per_word_cycles = cfg.link_per_word;
            Router.vc_count = cfg.vc_count;
            Router.rx_credits = cfg.rx_credits;
            Router.crossing = cfg.crossing;
            Router.flit_words = cfg.flit_words } }
    ~nodes:cfg.nodes ()

(* One real user-level send (STORE count / LOAD source, blocking until
   the device accepts the payload) measured on a warm channel: the
   per-message CPU occupancy the service model charges each source. *)
let calibrate_on ch cpu ~buf ~msg_bytes sys =
  let engine = System.engine sys in
  let warm () =
    match Messaging.send_nowait ch cpu ~src_vaddr:buf ~nbytes:msg_bytes () with
    | Ok () -> ()
    | Error e ->
        failwith
          (Format.asprintf "Load_gen: calibration send failed: %a"
             Messaging.pp_send_error e)
  in
  warm ();
  System.run_until_idle sys;
  let t0 = Engine.now engine in
  warm ();
  let dt = Engine.now engine - t0 in
  System.run_until_idle sys;
  dt

let calibrate ?(msg_bytes = default_config.msg_bytes) () =
  let sys = System.create ~nodes:2 () in
  let snd = System.node sys 0 in
  let sp = Scheduler.spawn snd.System.machine ~name:"cal-send" in
  let rp =
    Scheduler.spawn (System.node sys 1).System.machine ~name:"cal-recv"
  in
  let ch = Messaging.connect sys ~sender:(0, sp) ~receiver:(1, rp) ~pages:1 () in
  let buf = Kernel.alloc_buffer snd.System.machine sp ~bytes:4096 in
  Kernel.write_user snd.System.machine sp ~vaddr:buf
    (Bytes.init msg_bytes (fun i -> Char.chr (i land 0xff)));
  let cpu = Kernel.user_cpu snd.System.machine sp in
  calibrate_on ch cpu ~buf ~msg_bytes sys

(* A message waiting at its source or in flight. [born] is its arrival
   (enqueue) time, so the recorded latency includes source queueing —
   the quantity that blows up past saturation. *)
type msg = { born : int; on_deliver : (int -> unit) option }

type source = {
  src : int;
  rng : Rng.t;
  q : (int * msg) Queue.t; (* (dst, msg) in arrival order *)
  mutable serving : bool;
}

let run ?probe (cfg : config) =
  validate cfg;
  let sys = make_system cfg in
  (match probe with Some f -> f (System.engine sys) | None -> ());
  let engine = System.engine sys in
  let router = System.router sys in
  let width = Router.width router in
  let nodes = cfg.nodes in
  (* one process per node; channels for every (src, dst) the pattern
     can produce, with sequential NIPT/proxy indices per sender *)
  let procs =
    Array.init nodes (fun i ->
        Scheduler.spawn (System.node sys i).System.machine
          ~name:(Printf.sprintf "traffic%d" i))
  in
  let channels = Array.make_matrix nodes nodes None in
  Array.iteri
    (fun src _ ->
      let next_index = ref 0 in
      List.iter
        (fun dst ->
          let ch =
            Messaging.connect sys ~sender:(src, procs.(src))
              ~receiver:(dst, procs.(dst)) ~first_index:!next_index ~pages:1 ()
          in
          incr next_index;
          channels.(src).(dst) <- Some ch)
        (Pattern.support cfg.pattern ~width ~nodes ~src))
    procs;
  let channel src dst =
    match channels.(src).(dst) with
    | Some ch -> ch
    | None ->
        invalid_arg
          (Printf.sprintf "Load_gen: pattern picked unplanned pair %d->%d" src
             dst)
  in
  (* calibrate the per-message initiation cost with a real warm send on
     the first live channel, before the latency-recording sinks go in *)
  let send_cycles =
    let rec first src =
      if src >= nodes then
        invalid_arg "Load_gen: pattern generates no traffic on this mesh"
      else
        match
          List.find_map (fun d -> channels.(src).(d)) (List.init nodes Fun.id)
        with
        | Some ch -> (src, ch)
        | None -> first (src + 1)
    in
    let src, ch = first 0 in
    let m = (System.node sys src).System.machine in
    let buf = Kernel.alloc_buffer m procs.(src) ~bytes:4096 in
    Kernel.write_user m procs.(src) ~vaddr:buf
      (Bytes.init cfg.msg_bytes (fun i -> Char.chr (i land 0xff)));
    calibrate_on ch (Kernel.user_cpu m procs.(src)) ~buf
      ~msg_bytes:cfg.msg_bytes sys
  in
  let payload = Bytes.init cfg.msg_bytes (fun i -> Char.chr (i land 0xff)) in
  let t0 = Engine.now engine in
  let measure_start = t0 + cfg.warmup_cycles in
  let t_end = measure_start + cfg.window_cycles in
  let em = Engine.metrics engine in
  let m_latency = Metrics.series em "traffic.latency_cycles"
  and m_delivered = Metrics.counter em "traffic.delivered"
  and m_credit_stalls = Metrics.counter em "traffic.credit_stalls"
  and m_credit_stall_cycles = Metrics.counter em "traffic.credit_stall_cycles"
  and m_launched = Metrics.counter em "traffic.launched"
  and m_injected = Metrics.counter em "traffic.injected" in
  (* delivery bookkeeping: per-(src,dst) FIFO of in-flight messages, at
     [src * nodes + dst]. Sound because each message is one packet and
     the router delivers in order per pair — under both routing
     policies (adaptive paths vary, but the router clamps per-pair
     arrivals to send order). *)
  let inflight = Array.init (nodes * nodes) (fun _ -> Queue.create ()) in
  let inflight_q src dst = inflight.((src * nodes) + dst) in
  let injected = ref 0 and launched = ref 0 and delivered = ref 0 in
  let lat_acc = ref [] in
  Array.iteri
    (fun d (node : System.node) ->
      let ni = node.System.ni in
      Router.register router ~node_id:d (fun pkt ->
          Network_interface.receive ni pkt;
          let q = inflight_q pkt.Udma_shrimp.Packet.src_node d in
          if not (Queue.is_empty q) then begin
            let msg = Queue.pop q in
            let now = Engine.now engine in
            if msg.born >= measure_start && now < t_end then begin
              incr delivered;
              let lat = now - msg.born in
              lat_acc := lat :: !lat_acc;
              Metrics.record m_latency lat;
              Metrics.bump m_delivered
            end;
            match msg.on_deliver with
            | Some k -> k (Engine.now engine)
            | None -> ()
          end))
    (Array.init nodes (fun i -> System.node sys i));
  (* service model: each source's CPU initiates queued messages one at
     a time, [send_cycles] each, then hands the packet to the NI.
     With finite rx credits the hand-off first consults the router's
     injection gate: when the first-hop deposit FIFO is out of slots
     the source stalls (counted as a credit stall) until one frees,
     instead of letting the packet queue on the wire without bound. *)
  let credit_stalls = ref 0 and credit_stall_cycles = ref 0 in
  let rec pump (s : source) =
    if (not s.serving) && not (Queue.is_empty s.q) then begin
      s.serving <- true;
      Engine.schedule engine ~delay:send_cycles (fun _ -> launch s)
    end
  and launch (s : source) =
    let dst, _ = Queue.peek s.q in
    let now = Engine.now engine in
    let ready = Router.injection_ready router ~src:s.src ~dst in
    if ready > now then begin
      incr credit_stalls;
      credit_stall_cycles := !credit_stall_cycles + (ready - now);
      Metrics.bump m_credit_stalls;
      Metrics.bump_by m_credit_stall_cycles (ready - now);
      Engine.schedule_at engine ~time:ready (fun _ -> launch s)
    end
    else begin
      let dst, msg = Queue.pop s.q in
      Queue.push msg (inflight_q s.src dst);
      Messaging.inject (channel s.src dst) payload;
      incr launched;
      Metrics.bump m_launched;
      s.serving <- false;
      pump s
    end
  in
  let master = Rng.create cfg.seed in
  let sources =
    Array.init nodes (fun src ->
        { src; rng = Rng.split master; q = Queue.create (); serving = false })
  in
  let enqueue s ?on_deliver dst =
    let now = Engine.now engine in
    if now >= measure_start && now < t_end then begin
      incr injected;
      Metrics.bump m_injected
    end;
    Queue.push (dst, { born = now; on_deliver }) s.q;
    pump s
  in
  (match cfg.arrival with
  | Arrival.Poisson _ | Arrival.Periodic _ ->
      let rec arrive s time =
        if time < t_end then
          Engine.schedule_at engine ~time (fun _ ->
              (match
                 Pattern.dest cfg.pattern s.rng ~width ~nodes ~src:s.src
               with
              | Some dst -> enqueue s dst
              | None -> ());
              arrive s (Engine.now engine + Arrival.next_gap cfg.arrival s.rng))
      in
      Array.iter
        (fun s -> arrive s (t0 + Arrival.next_gap cfg.arrival s.rng))
        sources
  | Arrival.Closed { clients; think_cycles } ->
      if clients <= 0 then invalid_arg "Load_gen: clients must be positive";
      let rec client_turn s =
        if Engine.now engine < t_end then
          match Pattern.dest cfg.pattern s.rng ~width ~nodes ~src:s.src with
          | Some dst ->
              enqueue s dst ~on_deliver:(fun delivered_at ->
                  Engine.schedule_at engine ~time:(delivered_at + think_cycles)
                    (fun _ -> client_turn s))
          | None -> ()
      in
      for c = 0 to clients - 1 do
        let s = sources.(c mod nodes) in
        (* stagger first requests across one think interval *)
        Engine.schedule_at engine
          ~time:(t0 + Rng.int s.rng (max 1 think_cycles))
          (fun _ -> client_turn s)
      done);
  Engine.run_until_idle engine;
  Router.publish_link_gauges router;
  let latencies = Array.of_list !lat_acc in
  Array.sort compare latencies;
  let n = Array.length latencies in
  let mean_latency =
    if n = 0 then 0.0
    else float_of_int (Array.fold_left ( + ) 0 latencies) /. float_of_int n
  in
  let links = Router.link_stats router in
  let per_kcycle count =
    1000.0 *. float_of_int count
    /. float_of_int (cfg.window_cycles * nodes)
  in
  {
    nodes;
    width;
    send_cycles;
    window_cycles = cfg.window_cycles;
    injected = !injected;
    launched = !launched;
    delivered = !delivered;
    offered_per_kcycle = per_kcycle !injected;
    delivered_per_kcycle = per_kcycle !delivered;
    latencies;
    mean_latency;
    p50_latency = percentile_sorted latencies 50.0;
    p95_latency = percentile_sorted latencies 95.0;
    p99_latency = percentile_sorted latencies 99.0;
    max_latency = (if n = 0 then 0 else latencies.(n - 1));
    link_wait_cycles =
      List.fold_left (fun a (l : Router.link_stat) -> a + l.Router.wait_cycles) 0 links;
    link_max_depth =
      List.fold_left (fun a (l : Router.link_stat) -> max a l.Router.max_depth) 0 links;
    credit_stalls = !credit_stalls;
    credit_stall_cycles = !credit_stall_cycles;
    links;
    flit_hol_cycles =
      (* fl_hol_cycles is a per-link counter repeated on each VC row *)
      List.fold_left
        (fun a (s : Router.flit_stat) ->
          if s.Router.fl_vc = 0 then a + s.Router.fl_hol_cycles else a)
        0
        (Router.flit_stats router);
    flit_occupancy = Router.flit_vc_occupancy router;
  }
