(* Unit tests for lib/traffic: arrival processes, spatial patterns,
   the load generator and the saturation sweep. Everything here must
   be deterministic under a fixed seed — the sweep determinism test is
   the same guarantee `shrimp_sim traffic --seed N` documents. *)

module Rng = Udma_sim.Rng
module Arrival = Udma_traffic.Arrival
module Pattern = Udma_traffic.Pattern
module Load_gen = Udma_traffic.Load_gen
module Sweep = Udma_traffic.Sweep
module Router = Udma_shrimp.Router

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* ---------- arrivals ---------- *)

let test_arrival_gaps () =
  let rng = Rng.create 1 in
  (* periodic: exact reciprocal of the rate *)
  for _ = 1 to 10 do
    checki "periodic gap" 250
      (Arrival.next_gap (Arrival.Periodic { per_kcycle = 4.0 }) rng)
  done;
  (* poisson: positive gaps, sample mean near 1000/rate *)
  let p = Arrival.Poisson { per_kcycle = 4.0 } in
  let n = 10_000 in
  let total = ref 0 in
  for _ = 1 to n do
    let g = Arrival.next_gap p rng in
    checkb "gap positive" true (g >= 1);
    total := !total + g
  done;
  let mean = float_of_int !total /. float_of_int n in
  checkb
    (Printf.sprintf "poisson mean %.1f within 10%% of 250" mean)
    true
    (mean > 225.0 && mean < 275.0);
  checkb "closed has no open-loop gap" true
    (try
       ignore
         (Arrival.next_gap (Arrival.Closed { clients = 2; think_cycles = 100 })
            rng);
       false
     with Invalid_argument _ -> true)

let test_arrival_deterministic () =
  let gaps seed =
    let rng = Rng.create seed in
    List.init 200 (fun _ ->
        Arrival.next_gap (Arrival.Poisson { per_kcycle = 2.0 }) rng)
  in
  checkb "same seed, same gaps" true (gaps 9 = gaps 9);
  checkb "different seed, different gaps" true (gaps 9 <> gaps 10)

(* ---------- patterns ---------- *)

let test_pattern_dest_in_support () =
  let rng = Rng.create 3 in
  let nodes = 12 and width = 4 in
  List.iter
    (fun pat ->
      for src = 0 to nodes - 1 do
        let support = Pattern.support pat ~width ~nodes ~src in
        for _ = 1 to 50 do
          match Pattern.dest pat rng ~width ~nodes ~src with
          | None ->
              checkb "silent source has empty support" true (support = [])
          | Some d ->
              checkb "never self" true (d <> src);
              checkb "dest within declared support" true (List.mem d support)
        done
      done)
    [ Pattern.Uniform; Pattern.Transpose; Pattern.Neighbor;
      Pattern.default_hotspot ]

let test_pattern_transpose () =
  let rng = Rng.create 4 in
  (* 3x3: (x,y) -> (y,x); the diagonal is silent *)
  checkb "diagonal silent" true
    (Pattern.dest Pattern.Transpose rng ~width:3 ~nodes:9 ~src:4 = None);
  checkb "corner swaps" true
    (Pattern.dest Pattern.Transpose rng ~width:3 ~nodes:9 ~src:1 = Some 3)

let test_pattern_hotspot () =
  let rng = Rng.create 5 in
  let pat = Pattern.Hotspot { node = 0; pct = 50 } in
  let hits = ref 0 and n = 2000 in
  for _ = 1 to n do
    match Pattern.dest pat rng ~width:4 ~nodes:16 ~src:5 with
    | Some 0 -> incr hits
    | Some _ -> ()
    | None -> Alcotest.fail "hotspot source silent"
  done;
  let frac = float_of_int !hits /. float_of_int n in
  (* 50% direct + uniform share of the rest *)
  checkb (Printf.sprintf "hotspot fraction %.2f" frac) true
    (frac > 0.45 && frac < 0.62)

let test_pattern_parse () =
  checkb "uniform" true (Pattern.parse "uniform" = Ok Pattern.Uniform);
  checkb "hotspot pct" true
    (Pattern.parse "hotspot:40" = Ok (Pattern.Hotspot { node = 0; pct = 40 }));
  checkb "junk rejected" true
    (match Pattern.parse "zipf" with Error _ -> true | Ok _ -> false)

(* ---------- load generator ---------- *)

let small_cfg =
  { Load_gen.default_config with
    Load_gen.nodes = 4;
    arrival = Arrival.Poisson { per_kcycle = 1.0 };
    msg_bytes = 128;
    warmup_cycles = 500;
    window_cycles = 5_000;
    seed = 7 }

let test_load_gen_smoke () =
  let r = Load_gen.run small_cfg in
  checki "nodes" 4 r.Load_gen.nodes;
  checki "width" 2 r.Load_gen.width;
  checkb "calibration found a positive cost" true (r.Load_gen.send_cycles > 0);
  checkb "traffic flowed" true (r.Load_gen.delivered > 0);
  checkb "no invention: delivered <= injected" true
    (r.Load_gen.delivered <= r.Load_gen.injected);
  checkb "latencies sorted" true
    (let l = r.Load_gen.latencies in
     Array.for_all Fun.id (Array.mapi (fun i v -> i = 0 || l.(i - 1) <= v) l));
  checkb "mean positive" true (r.Load_gen.mean_latency > 0.0);
  checkb "percentiles ordered" true
    (r.Load_gen.p50_latency <= r.Load_gen.p95_latency
    && r.Load_gen.p95_latency <= r.Load_gen.p99_latency
    && r.Load_gen.p99_latency <= r.Load_gen.max_latency)

let test_load_gen_deterministic () =
  let a = Load_gen.run small_cfg and b = Load_gen.run small_cfg in
  checkb "same seed, identical results" true (a = b);
  let c = Load_gen.run { small_cfg with Load_gen.seed = 8 } in
  checkb "different seed, different traffic" true
    (a.Load_gen.latencies <> c.Load_gen.latencies)

let test_load_gen_closed_loop () =
  let r =
    Load_gen.run
      { small_cfg with
        Load_gen.arrival = Arrival.Closed { clients = 8; think_cycles = 2_000 }
      }
  in
  checkb "closed-loop traffic flowed" true (r.Load_gen.delivered > 0)

let test_load_gen_contention_metrics () =
  (* drive a 4-node mesh hard enough that some link queues *)
  let r =
    Load_gen.run
      { small_cfg with
        Load_gen.arrival = Arrival.Poisson { per_kcycle = 3.0 } }
  in
  checkb "link stats present" true (r.Load_gen.links <> []);
  checkb "every link stat counts xmits" true
    (List.for_all (fun (l : Router.link_stat) -> l.Router.xmits >= 0)
       r.Load_gen.links)

let test_load_gen_validation () =
  let bad cfg = try ignore (Load_gen.run cfg); false
                with Invalid_argument _ -> true in
  checkb "1 node rejected" true (bad { small_cfg with Load_gen.nodes = 1 });
  (* partial-row counts would route through phantom nodes *)
  checkb "5 nodes rejected" true (bad { small_cfg with Load_gen.nodes = 5 });
  checkb "8 nodes rejected" true (bad { small_cfg with Load_gen.nodes = 8 });
  checkb "unaligned size rejected" true
    (bad { small_cfg with Load_gen.msg_bytes = 130 });
  checkb "oversized message rejected" true
    (bad { small_cfg with Load_gen.msg_bytes = 4096 });
  checkb "slow-link factor below 1 rejected" true
    (bad { small_cfg with Load_gen.link_per_word = 0 });
  checkb "0 VCs rejected" true (bad { small_cfg with Load_gen.vc_count = 0 });
  checkb "5 VCs rejected" true (bad { small_cfg with Load_gen.vc_count = 5 });
  checkb "0 rx credits rejected" true
    (bad { small_cfg with Load_gen.rx_credits = Some 0 })

let test_load_gen_vcs_deterministic () =
  let cfg =
    { small_cfg with
      Load_gen.arrival = Arrival.Poisson { per_kcycle = 3.0 };
      msg_bytes = 1024;
      link_per_word = 2;
      vc_count = 4;
      rx_credits = Some 4 }
  in
  let a = Load_gen.run cfg and b = Load_gen.run cfg in
  checkb "VC + credit run deterministic under seed" true (a = b);
  checkb "VC + credit traffic flowed" true (a.Load_gen.delivered > 0)

(* The tentpole's backpressure shape: a closed loop hammering a tight
   deposit FIFO must stall at the injection gate (credit_stalls > 0)
   instead of queueing without bound on the wire — the same offered
   load with unlimited credits piles deeper into the link FIFOs. *)
let test_load_gen_credit_stalls () =
  let base =
    { small_cfg with
      Load_gen.arrival = Arrival.Closed { clients = 12; think_cycles = 50 };
      msg_bytes = 1024;
      link_per_word = 8;
      window_cycles = 20_000 }
  in
  let credited =
    Load_gen.run { base with Load_gen.rx_credits = Some 1 }
  in
  let unlimited = Load_gen.run base in
  checkb "credited run delivered traffic" true
    (credited.Load_gen.delivered > 0);
  checkb "sources stalled at the injection gate" true
    (credited.Load_gen.credit_stalls > 0);
  checkb "stall cycles accumulated" true
    (credited.Load_gen.credit_stall_cycles > 0);
  checkb "unlimited credits never stall" true
    (unlimited.Load_gen.credit_stalls = 0);
  checkb "backpressure bounds the link FIFOs" true
    (credited.Load_gen.link_max_depth <= unlimited.Load_gen.link_max_depth)

(* ---------- sweep + knee ---------- *)

let mk_point ?(injected = 100) ?(delivered = 100) load mean =
  { Sweep.load;
    result =
      { Load_gen.nodes = 4; width = 2; send_cycles = 600;
        window_cycles = 10_000; injected; launched = delivered; delivered;
        offered_per_kcycle = 0.0; delivered_per_kcycle = 0.0;
        latencies = [||]; mean_latency = mean; p50_latency = 0;
        p95_latency = 0; p99_latency = 0; max_latency = 0;
        link_wait_cycles = 0; link_max_depth = 0; credit_stalls = 0;
        credit_stall_cycles = 0; links = []; flit_hol_cycles = 0;
        flit_occupancy = [||] } }

let test_knee_detection () =
  checkb "no knee on a flat curve" true
    (Sweep.detect_knee
       [ mk_point 0.2 100.0; mk_point 0.5 150.0; mk_point 0.8 190.0 ]
    = None);
  checkb "latency blow-up detected" true
    (Sweep.detect_knee
       [ mk_point 0.2 100.0; mk_point 0.5 150.0; mk_point 0.8 250.0 ]
    = Some 2);
  checkb "lost throughput detected" true
    (Sweep.detect_knee
       [ mk_point 0.2 100.0; mk_point 0.5 120.0;
         mk_point ~delivered:80 0.8 130.0 ]
    = Some 2);
  (* a saturated lightest point is the knee itself — its latency must
     not be trusted as the baseline for later points *)
  checkb "saturated point 0 is the knee" true
    (Sweep.detect_knee
       [ mk_point ~delivered:70 0.2 100.0; mk_point ~delivered:60 0.5 90.0 ]
    = Some 0);
  checkb "zero-delivery point 0 is the knee" true
    (Sweep.detect_knee [ mk_point ~delivered:0 0.2 0.0 ] = Some 0);
  (* ...but a healthy point 0 still anchors the latency baseline *)
  checkb "healthy point 0 is not a knee" true
    (Sweep.detect_knee
       [ mk_point 0.2 100.0; mk_point ~delivered:95 0.5 120.0 ]
    = None);
  checkb "empty curve" true (Sweep.detect_knee [] = None);
  (* regression: a non-monotone dip after a saturated point must not
     make the dip's rebound the knee — the knee is the first point of
     SUSTAINED saturation *)
  checkb "dip after a spike: knee is the sustained onset" true
    (Sweep.detect_knee
       [ mk_point 0.2 100.0; mk_point 0.4 250.0; mk_point 0.6 140.0;
         mk_point 0.8 320.0; mk_point 0.9 330.0 ]
    = Some 3);
  checkb "spike that recovers for good is no knee" true
    (Sweep.detect_knee
       [ mk_point 0.2 100.0; mk_point 0.4 250.0; mk_point 0.6 140.0;
         mk_point 0.8 150.0 ]
    = None)

let sweep_cfg nodes =
  {
    Load_gen.default_config with
    Load_gen.nodes;
    msg_bytes = 128;
    warmup_cycles = 500;
    window_cycles = 4_000;
    seed = 11;
  }

let test_sweep_deterministic () =
  let run () = Sweep.run ~loads:[ 0.3; 1.2 ] (sweep_cfg 4) in
  let a = run () and b = run () in
  checkb "sweep identical under one seed" true (a = b);
  checki "one point per load" 2 (List.length a.Sweep.points);
  (match a.Sweep.knee_index with
  | Some i ->
      checkb "knee_load is the knee point's load" true
        (a.Sweep.knee_load = Some (List.nth a.Sweep.points i).Sweep.load)
  | None -> checkb "no knee, no load" true (a.Sweep.knee_load = None));
  checkb "monotone offered load" true
    (match a.Sweep.points with
    | [ p1; p2 ] ->
        p1.Sweep.result.Load_gen.injected
        < p2.Sweep.result.Load_gen.injected
    | _ -> false)

(* ---------- Shard_gen: the sharded engine's generator ---------- *)

module Shard_gen = Udma_traffic.Shard_gen

let shard_cfg ?(nodes = 64) ?(window = 8_000) () =
  {
    Load_gen.default_config with
    Load_gen.nodes;
    msg_bytes = 128;
    warmup_cycles = 1_000;
    window_cycles = window;
    arrival = Arrival.Poisson { per_kcycle = 4.0 };
    rx_credits = None;
    seed = 11;
  }

let test_shard_gen_domain_invariance () =
  let run domains = Shard_gen.run_stats ~domains (shard_cfg ()) in
  let r1, k1 = run 1 in
  checkb "traffic flows" true (r1.Load_gen.delivered > 0);
  List.iter
    (fun domains ->
      let r, k = run domains in
      checkb
        (Printf.sprintf "result identical at domains=%d" domains)
        true (r = r1);
      checkb
        (Printf.sprintf "kernel counters identical at domains=%d" domains)
        true (k = k1))
    [ 2; 3; 5 ]

let test_shard_gen_repeatable () =
  let a = Shard_gen.run (shard_cfg ()) in
  let b = Shard_gen.run (shard_cfg ()) in
  checkb "same config, same result" true (a = b);
  let c = Shard_gen.run { (shard_cfg ()) with Load_gen.seed = 12 } in
  checkb "seed matters" true (a <> c)

let test_shard_gen_large_mesh () =
  (* beyond the legacy 64-node cap: a short 1024-node (32x32) window *)
  let r, k =
    Shard_gen.run_stats ~domains:2 (shard_cfg ~nodes:1024 ~window:2_000 ())
  in
  checki "one shard per mesh row" 32 k.Shard_gen.shards;
  checkb "deliveries on the big mesh" true (r.Load_gen.delivered > 0);
  checkb "in-order per pair" true (r.Load_gen.injected >= r.Load_gen.delivered)

let test_shard_gen_validation () =
  let reject name cfg =
    match Shard_gen.run cfg with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  reject "adaptive routing"
    { (shard_cfg ()) with Load_gen.routing = `Minimal_adaptive };
  reject "several VCs" { (shard_cfg ()) with Load_gen.vc_count = 2 };
  reject "finite credits" { (shard_cfg ()) with Load_gen.rx_credits = Some 4 };
  reject "closed loop"
    { (shard_cfg ()) with
      Load_gen.arrival = Arrival.Closed { clients = 2; think_cycles = 10 } };
  reject "oversized mesh" { (shard_cfg ()) with Load_gen.nodes = 2048 }

let test_sweep_dispatch () =
  let mesh nodes = { Load_gen.default_config with Load_gen.nodes } in
  checkb "small mesh, one domain: legacy" false
    (Sweep.use_sharded ~domains:1 (mesh 16));
  checkb "small mesh, two domains: sharded" true
    (Sweep.use_sharded ~domains:2 (mesh 16));
  checkb "large mesh always sharded" true
    (Sweep.use_sharded ~domains:1 (mesh 256));
  checkb "flit crossing pins the legacy engine" false
    (Sweep.use_sharded ~domains:2
       { (mesh 16) with Load_gen.crossing = `Flit });
  (* the sharded sweep is domain-count invariant end to end *)
  let sweep domains = Sweep.run ~loads:[ 0.3; 0.9 ] ~domains (sweep_cfg 16) in
  checkb "sweep identical at domains 2 and 3" true (sweep 2 = sweep 3)

(* A bad knob is rejected before calibration, by the engine the sweep
   dispatches to, with a message naming the field. Calibration is a
   real traced send, so a global sink that counted no event proves
   nothing was simulated. *)
let test_sweep_rejects_bad_knobs () =
  let contains hay needle =
    let n = String.length needle in
    let rec go i =
      i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1))
    in
    go 0
  in
  let rejects name ?domains cfg ~field =
    let sink, events = Udma_obs.Event.counting_sink () in
    Udma_sim.Trace.set_global_sink (Some sink);
    let outcome =
      Fun.protect
        ~finally:(fun () -> Udma_sim.Trace.set_global_sink None)
        (fun () ->
          match Sweep.run ~loads:[ 0.5 ] ?domains cfg with
          | exception Invalid_argument msg -> Error msg
          | _ -> Ok ())
    in
    (match outcome with
    | Error msg ->
        checkb
          (Printf.sprintf "%s: message %S names %s" name msg field)
          true (contains msg field)
    | Ok () -> Alcotest.failf "%s: expected Invalid_argument" name);
    checki (name ^ ": nothing simulated") 0 (events ())
  in
  let cfg = sweep_cfg 16 in
  rejects "oversized message" { cfg with Load_gen.msg_bytes = 4096 }
    ~field:"msg_bytes";
  rejects "zero credits" { cfg with Load_gen.rx_credits = Some 0 }
    ~field:"rx_credits";
  rejects "two VCs on the sharded engine" ~domains:2
    { cfg with Load_gen.vc_count = 2 } ~field:"vc_count";
  rejects "sharded engine, shared check" ~domains:2
    { cfg with Load_gen.link_per_word = 0 } ~field:"link_per_word"

let () =
  Alcotest.run "udma_traffic"
    [
      ( "arrival",
        [
          Alcotest.test_case "gap statistics" `Quick test_arrival_gaps;
          Alcotest.test_case "deterministic" `Quick test_arrival_deterministic;
        ] );
      ( "pattern",
        [
          Alcotest.test_case "dest within support, never self" `Quick
            test_pattern_dest_in_support;
          Alcotest.test_case "transpose" `Quick test_pattern_transpose;
          Alcotest.test_case "hotspot bias" `Quick test_pattern_hotspot;
          Alcotest.test_case "parse" `Quick test_pattern_parse;
        ] );
      ( "load_gen",
        [
          Alcotest.test_case "smoke on a 2x2 mesh" `Quick test_load_gen_smoke;
          Alcotest.test_case "deterministic under seed" `Quick
            test_load_gen_deterministic;
          Alcotest.test_case "closed loop" `Quick test_load_gen_closed_loop;
          Alcotest.test_case "contention link stats" `Quick
            test_load_gen_contention_metrics;
          Alcotest.test_case "config validation" `Quick
            test_load_gen_validation;
          Alcotest.test_case "VCs + credits deterministic" `Quick
            test_load_gen_vcs_deterministic;
          Alcotest.test_case "credit backpressure stalls sources" `Quick
            test_load_gen_credit_stalls;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "knee detection rules" `Quick test_knee_detection;
          Alcotest.test_case "deterministic, consistent knee" `Quick
            test_sweep_deterministic;
          Alcotest.test_case "engine dispatch + sharded sweep" `Quick
            test_sweep_dispatch;
          Alcotest.test_case "bad knobs rejected before any work" `Quick
            test_sweep_rejects_bad_knobs;
        ] );
      ( "shard_gen",
        [
          Alcotest.test_case "domain-count invariance" `Quick
            test_shard_gen_domain_invariance;
          Alcotest.test_case "repeatable under seed" `Quick
            test_shard_gen_repeatable;
          Alcotest.test_case "1024-node mesh" `Quick test_shard_gen_large_mesh;
          Alcotest.test_case "config validation" `Quick
            test_shard_gen_validation;
        ] );
    ]
