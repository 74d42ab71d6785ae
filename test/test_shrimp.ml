(* Unit tests for the SHRIMP network stack: NIPT, FIFOs, router, the
   network interface, the multi-node system and the messaging layer. *)

module Engine = Udma_sim.Engine
module Layout = Udma_mmu.Layout
module Phys_mem = Udma_memory.Phys_mem
module Initiator = Udma.Initiator
module Status = Udma.Status
module M = Udma_os.Machine
module Scheduler = Udma_os.Scheduler
module Kernel = Udma_os.Kernel
module Vm = Udma_os.Vm
module Packet = Udma_shrimp.Packet
module Backend = Udma_protect.Backend
module Fifo = Udma_shrimp.Fifo
module Router = Udma_shrimp.Router
module Ni = Udma_shrimp.Network_interface
module System = Udma_shrimp.System
module Messaging = Udma_shrimp.Messaging

let check = Alcotest.check
let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

let pattern n seed = Bytes.init n (fun i -> Char.chr ((i + seed) land 0xff))

(* ---------- NIPT (proxy backend's destination table) ---------- *)

let test_nipt_basic () =
  let t = Backend.create Backend.Proxy ~entries:32 () in
  checki "capacity" 32 (Backend.capacity t);
  checkb "empty" true (Backend.decode t ~index:0 = None);
  ignore (Backend.grant t ~owner:1 ~index:5 ~dst_node:2 ~dst_frame:77);
  (match Backend.decode t ~index:5 with
  | Some e ->
      checki "node" 2 e.Backend.dst_node;
      checki "frame" 77 e.Backend.dst_frame
  | None -> Alcotest.fail "entry lost");
  checki "valid count" 1 (Backend.valid_count t);
  ignore (Backend.revoke t ~index:5);
  checkb "cleared" true (Backend.decode t ~index:5 = None);
  checkb "out of range is None" true (Backend.decode t ~index:99 = None)

(* ---------- Fifo ---------- *)

let pkt ?(len = 100) seq =
  { Packet.src_node = 0; dst_node = 1; dst_paddr = 0;
    payload = Bytes.make len 'x'; seq }

let test_fifo_order_and_capacity () =
  let f = Fifo.create ~capacity_bytes:300 in
  checkb "push 1" true (Fifo.push f (pkt 1));
  checkb "push 2" true (Fifo.push f (pkt 2));
  checkb "third does not fit (2x116 used)" false (Fifo.push f (pkt ~len:100 3));
  checki "rejections" 1 (Fifo.rejections f);
  (match Fifo.pop f with
  | Some p -> checki "fifo order" 1 p.Packet.seq
  | None -> Alcotest.fail "empty");
  checkb "space reclaimed" true (Fifo.push f (pkt 3));
  checki "length" 2 (Fifo.length f)

(* ---------- Router ---------- *)

let test_router_mesh_hops () =
  let engine = Engine.create () in
  let r = Router.create ~engine ~nodes:9 () in
  (* 3x3 mesh, row-major ids *)
  Alcotest.(check (pair int int)) "coords of 4" (1, 1) (Router.coords r 4);
  checki "self" 0 (Router.hops r ~src:4 ~dst:4);
  checki "adjacent" 1 (Router.hops r ~src:0 ~dst:1);
  checki "corner to corner" 4 (Router.hops r ~src:0 ~dst:8)

let test_router_delivery_and_latency () =
  let engine = Engine.create () in
  let r = Router.create ~engine ~nodes:4 () in
  let got = ref [] in
  Router.register r ~node_id:1 (fun p -> got := (p.Packet.seq, Engine.now engine) :: !got);
  let p = { (pkt 7) with Packet.dst_node = 1 } in
  Router.send r p;
  checkb "not yet delivered" true (!got = []);
  Engine.run_until_idle engine;
  (match !got with
  | [ (seq, at) ] ->
      checki "right packet" 7 seq;
      checki "at the modelled latency"
        (Router.latency_cycles r ~src:0 ~dst:1 ~bytes:(Packet.size_bytes p))
        at
  | _ -> Alcotest.fail "expected exactly one delivery");
  checki "counters" 1 (Router.packets_routed r)

let test_router_unregistered_sink () =
  let engine = Engine.create () in
  let r = Router.create ~engine ~nodes:2 () in
  checkb "raises" true
    (try Router.send r (pkt 1); false with Invalid_argument _ -> true)

(* With contention enabled but no competing traffic the per-link walk
   must telescope to exactly the closed-form latency. *)
let contended_router nodes =
  let engine = Engine.create () in
  let r =
    Router.create ~engine ~nodes
      ~config:{ Router.default_config with Router.link_contention = true }
      ()
  in
  (engine, r)

let test_router_contention_idle_closed_form () =
  let engine, r = contended_router 9 in
  let arrivals = ref [] in
  for d = 1 to 8 do
    Router.register r ~node_id:d (fun p ->
        arrivals := (p.Packet.dst_node, Engine.now engine) :: !arrivals)
  done;
  (* one at a time, drained between sends: links are always idle *)
  for d = 1 to 8 do
    let p = { (pkt d) with Packet.dst_node = d } in
    let t0 = Engine.now engine in
    Router.send r p;
    Engine.run_until_idle engine;
    match List.assoc_opt d !arrivals with
    | Some at ->
        checki
          (Printf.sprintf "closed form to node %d" d)
          (t0 + Router.latency_cycles r ~src:0 ~dst:d
                  ~bytes:(Packet.size_bytes p))
          at
    | None -> Alcotest.fail "no delivery"
  done;
  (* idle links never made anyone wait *)
  checki "no wait cycles" 0
    (List.fold_left
       (fun a (l : Router.link_stat) -> a + l.Router.wait_cycles)
       0 (Router.link_stats r))

let test_router_contention_queues_shared_link () =
  (* two packets, same source, back to back: the second must queue
     behind the first's wire occupancy with contention on, and must
     not without *)
  let arrival contention =
    let engine = Engine.create () in
    let r =
      Router.create ~engine ~nodes:4
        ~config:{ Router.default_config with Router.link_contention = contention }
        ()
    in
    let last = ref 0 in
    Router.register r ~node_id:1 (fun _ -> last := Engine.now engine);
    Router.send r { (pkt ~len:1000 0) with Packet.dst_node = 1 };
    Router.send r { (pkt ~len:1000 1) with Packet.dst_node = 1 };
    Engine.run_until_idle engine;
    !last
  in
  let free = arrival false and contended = arrival true in
  checkb "second packet delayed by link occupancy" true (contended > free);
  (* and the delay is at least the first packet's wire occupancy *)
  checkb "delay covers serialisation" true (contended - free >= 250)

(* Regression for the phantom-node bug: 5 nodes cover a 3-wide mesh
   with a partial top row, so the dimension-order path 4 -> 2 used to
   cross node (2,1) = 5 >= node_count. Such counts are now rejected. *)
let test_router_rejects_partial_row () =
  List.iter
    (fun n -> checkb (Printf.sprintf "valid %d" n) true (Router.valid_nodes n))
    [ 2; 4; 6; 9; 12; 16; 20; 25; 36; 64 ];
  List.iter
    (fun n ->
      checkb (Printf.sprintf "invalid %d" n) false (Router.valid_nodes n);
      checkb
        (Printf.sprintf "create %d raises" n)
        true
        (try
           ignore (Router.create ~engine:(Engine.create ()) ~nodes:n ());
           false
         with Invalid_argument _ -> true))
    [ 5; 7; 8; 10; 11 ];
  (* the bug's own example, on the nearest valid count: every hop of
     4 -> 2 on the 6-node (3x2) mesh stays in range *)
  let r = Router.create ~engine:(Engine.create ()) ~nodes:6 () in
  List.iter
    (fun (a, b) ->
      checkb "hop in range" true (a >= 0 && a < 6 && b >= 0 && b < 6))
    (Router.path r ~src:4 ~dst:2)

(* With unlimited credits the shared-wire reservation list never opens
   a gap, so any VC count must time a contended burst identically to
   the single-FIFO model — the degeneration DESIGN.md §12 relies on —
   while the allocator still spreads packets over the VCs. *)
let test_router_vcs_degenerate_timing () =
  let arrivals vc_count =
    let engine = Engine.create () in
    let r =
      Router.create ~engine ~nodes:4
        ~config:
          { Router.default_config with
            Router.link_contention = true;
            Router.vc_count }
        ()
    in
    let got = ref [] in
    for d = 1 to 3 do
      Router.register r ~node_id:d (fun p ->
          got := (d, p.Packet.seq, Engine.now engine) :: !got)
    done;
    for s = 0 to 5 do
      Router.send r { (pkt ~len:800 s) with Packet.dst_node = 1 + (s mod 3) }
    done;
    Engine.run_until_idle engine;
    (List.rev !got, r)
  in
  let base, _ = arrivals 1 in
  List.iter
    (fun vcs ->
      let times, r = arrivals vcs in
      checkb
        (Printf.sprintf "%d VCs time the burst identically" vcs)
        true (times = base);
      (* every VC of the loaded 0->1 link saw at least one grant *)
      let grants =
        List.filter
          (fun (v : Router.vc_stat) ->
            v.Router.vc_from = 0 && v.Router.vc_to = 1
            && v.Router.vc_grants > 0)
          (Router.vc_stats r)
      in
      checkb
        (Printf.sprintf "%d VCs all granted on the shared link" vcs)
        true
        (List.length grants = vcs))
    [ 2; 4 ]

(* Finite deposit credits: a back-to-back burst overruns one slot, so
   later claims stall on the wire (net.credit.stalls), the injection
   gate reports a future ready time mid-burst, conservation holds at
   the end, and a dead link funnels grants through NACK retry polls. *)
let test_router_credit_gate () =
  let engine = Engine.create () in
  let r =
    Router.create ~engine ~nodes:4
      ~config:
        { Router.default_config with
          Router.link_contention = true;
          Router.rx_credits = Some 1 }
      ()
  in
  Router.register r ~node_id:1 (fun _ -> ());
  checkb "idle gate is open" true
    (Router.injection_ready r ~src:0 ~dst:1 = Engine.now engine);
  for s = 0 to 3 do
    Router.send r { (pkt ~len:1000 s) with Packet.dst_node = 1 }
  done;
  checkb "gate closes mid-burst" true
    (Router.injection_ready r ~src:0 ~dst:1 > Engine.now engine);
  Engine.run_until_idle engine;
  let m = Engine.metrics engine in
  checkb "stalls counted" true (Udma_obs.Metrics.get m "net.credit.stalls" > 0);
  checkb "conservation clean" true (Router.check_credits r = None);
  List.iter
    (fun (c : Router.credit_stat) ->
      checki "drained pool all free" c.Router.cr_capacity c.Router.cr_free)
    (Router.credit_stats r);
  (* dead link: the grant is quantised into retry polls *)
  Router.set_link_fault r ~from_node:0 ~to_node:1 Router.Link_dead;
  for s = 4 to 6 do
    Router.send r { (pkt ~len:1000 s) with Packet.dst_node = 1 }
  done;
  Engine.run_until_idle engine;
  checkb "nacks counted across the dead link" true
    (Udma_obs.Metrics.get m "net.credit.nacks" > 0);
  checkb "conservation survives the dead link" true
    (Router.check_credits r = None)

let adaptive_router ?(nodes = 4) () =
  let engine = Engine.create () in
  let r =
    Router.create ~engine ~nodes
      ~config:
        { Router.default_config with
          Router.link_contention = true;
          Router.routing = `Minimal_adaptive }
      ()
  in
  (engine, r)

let link_xmits r ~from_node ~to_node =
  match
    List.find_opt
      (fun (l : Router.link_stat) ->
        l.Router.from_node = from_node && l.Router.to_node = to_node)
      (Router.link_stats r)
  with
  | Some l -> l.Router.xmits
  | None -> 0

(* On an idle mesh minimal-adaptive must reproduce the dimension-order
   path exactly (ties go to the X link). *)
let test_adaptive_idle_matches_dimension_order () =
  let _, r = adaptive_router ~nodes:9 () in
  for src = 0 to 8 do
    for dst = 0 to 8 do
      if src <> dst then
        Alcotest.(check (list (pair int int)))
          (Printf.sprintf "route %d->%d" src dst)
          (Router.path r ~src ~dst)
          (Router.route r ~src ~dst)
    done
  done

(* Links are created on first touch, and a minimal-adaptive cost probe
   touches both productive links: one corner-to-corner packet on an idle
   3x3 mesh crosses 0->1->2->5->8, and [link_stats] lists, in (src, dst)
   order, those four links plus the Y links 0->3 and 1->4 its probes at
   nodes 0 and 1 looked at, never crossed. *)
let test_adaptive_probes_listed () =
  let engine, r = adaptive_router ~nodes:9 () in
  Router.register r ~node_id:8 (fun _ -> ());
  Router.send r { (pkt 1) with Packet.dst_node = 8 };
  Engine.run_until_idle engine;
  Alcotest.(check (list (triple int int int)))
    "touched links and their crossings"
    [ (0, 1, 1); (0, 3, 0); (1, 2, 1); (1, 4, 0); (2, 5, 1); (5, 8, 1) ]
    (List.map
       (fun (l : Router.link_stat) ->
         (l.Router.from_node, l.Router.to_node, l.Router.xmits))
       (Router.link_stats r))

(* 2x2 mesh, X link 0->1 killed: adaptive must take the Y detour
   0->2->3 and never touch the dead link; the detour has the same hop
   count, so the arrival is still the closed form. *)
let test_adaptive_routes_around_dead_link () =
  let engine, r = adaptive_router () in
  Router.set_link_fault r ~from_node:0 ~to_node:1 Router.Link_dead;
  let at = ref 0 in
  Router.register r ~node_id:3 (fun _ -> at := Engine.now engine);
  let p = { (pkt 1) with Packet.dst_node = 3 } in
  Router.send r p;
  Engine.run_until_idle engine;
  checki "dead link untouched" 0 (link_xmits r ~from_node:0 ~to_node:1);
  checki "detour first hop" 1 (link_xmits r ~from_node:0 ~to_node:2);
  checki "detour second hop" 1 (link_xmits r ~from_node:2 ~to_node:3);
  checki "no dead crossings" 0
    (Udma_obs.Metrics.get (Engine.metrics engine) "net.link.dead_crossings");
  checki "closed-form arrival"
    (Router.latency_cycles r ~src:0 ~dst:3 ~bytes:(Packet.size_bytes p))
    !at

(* The same fault under dimension-order: the fixed path has no
   alternative, so the packet crosses the dead link on the slow
   recovery path — counted, and far slower than the closed form. *)
let test_dimension_order_crosses_dead_link () =
  let engine = Engine.create () in
  let r =
    Router.create ~engine ~nodes:4
      ~config:{ Router.default_config with Router.link_contention = true }
      ()
  in
  Router.set_link_fault r ~from_node:0 ~to_node:1 Router.Link_dead;
  let at = ref 0 in
  Router.register r ~node_id:3 (fun _ -> at := Engine.now engine);
  let p = { (pkt 1) with Packet.dst_node = 3 } in
  Router.send r p;
  Engine.run_until_idle engine;
  checki "crossed the dead link" 1 (link_xmits r ~from_node:0 ~to_node:1);
  checki "dead crossing counted" 1
    (Udma_obs.Metrics.get (Engine.metrics engine) "net.link.dead_crossings");
  let occ = (Packet.size_bytes p + 3) / 4 in
  checkb "recovery path is slow" true
    (!at >= Router.dead_crossing_factor * occ)

(* A slowed link stretches the crossing packet's own tail and the
   queueing of the packet behind it. *)
let test_slow_link_stretches_occupancy () =
  let arrival fault =
    let engine = Engine.create () in
    let r =
      Router.create ~engine ~nodes:4
        ~config:{ Router.default_config with Router.link_contention = true }
        ()
    in
    Router.set_link_fault r ~from_node:0 ~to_node:1 fault;
    let last = ref 0 in
    Router.register r ~node_id:1 (fun _ -> last := Engine.now engine);
    Router.send r { (pkt ~len:1000 0) with Packet.dst_node = 1 };
    Router.send r { (pkt ~len:1000 1) with Packet.dst_node = 1 };
    Engine.run_until_idle engine;
    (!last, List.fold_left
              (fun a (l : Router.link_stat) -> a + l.Router.wait_cycles)
              0 (Router.link_stats r))
  in
  let healthy, _ = arrival Router.Link_ok in
  let slowed, waited = arrival (Router.Link_slow 4) in
  (* 251 words: each slow crossing holds the wire 4x251 cycles *)
  checkb "both packets delayed" true (slowed >= healthy + 2 * 3 * 251);
  checkb "second packet queued longer" true (waited > 0)

(* Adaptive reacts to busy state: with the X link 0->1 already claimed
   by an earlier packet, a 0->3 packet turns south first. *)
let test_adaptive_prefers_less_busy_link () =
  let engine, r = adaptive_router () in
  Router.register r ~node_id:1 (fun _ -> ());
  Router.register r ~node_id:3 (fun _ -> ());
  Router.send r { (pkt ~len:1000 0) with Packet.dst_node = 1 };
  Router.send r { (pkt ~len:1000 1) with Packet.dst_node = 3 };
  Engine.run_until_idle engine;
  checki "took the idle Y link first" 1 (link_xmits r ~from_node:0 ~to_node:2);
  checki "adaptive turn counted" 1
    (Udma_obs.Metrics.get (Engine.metrics engine) "net.router.adaptive_turns")

let test_set_link_fault_validates () =
  let engine = Engine.create () in
  let r = Router.create ~engine ~nodes:9 () in
  checkb "non-adjacent raises" true
    (try Router.set_link_fault r ~from_node:0 ~to_node:8 Router.Link_dead; false
     with Invalid_argument _ -> true);
  checkb "bad slow factor raises" true
    (try Router.set_link_fault r ~from_node:0 ~to_node:1 (Router.Link_slow 0);
         false
     with Invalid_argument _ -> true);
  checki "unset fault reads Link_ok" 0
    (match Router.link_fault r ~from_node:0 ~to_node:1 with
    | Router.Link_ok -> 0
    | _ -> 1)

(* ---------- Flit-level crossing (wormhole testbench) ----------

   Hand-computed flit-by-flit schedules on a 2x2 mesh with unit
   timing: base_cycles = 2 (a worm's flits become ready two cycles
   after send), per_hop_cycles = 1 (a granted flit is usable
   downstream the next cycle), per_word_cycles = 1 with flit_words = 1
   (a flit holds its wire for one cycle, and every 32-bit word is its
   own flit, so a len-byte packet is (len + 16 + 3) / 4 flits). *)

let flit_router ?(vc_count = 1) ?rx_credits nodes =
  let engine = Engine.create () in
  let r =
    Router.create ~engine ~nodes
      ~config:
        { Router.default_config with
          Router.link_contention = true;
          crossing = `Flit;
          base_cycles = 2;
          per_hop_cycles = 1;
          per_word_cycles = 1;
          flit_words = 1;
          vc_count;
          rx_credits }
      ()
  in
  (engine, r)

let flit_stat r ~from_node ~to_node ~vc =
  match
    List.find_opt
      (fun (s : Router.flit_stat) ->
        s.Router.fl_from = from_node && s.Router.fl_to = to_node
        && s.Router.fl_vc = vc)
      (Router.flit_stats r)
  with
  | Some s -> s
  | None ->
      Alcotest.fail
        (Printf.sprintf "no flit FIFO (%d,%d) vc%d" from_node to_node vc)

(* One 5-flit worm 0 -> 3 (dimension order: (0,1) then (1,3)) on an
   idle mesh pipelines one flit per cycle. Hand schedule: all flits
   ready at t = 2; flit k crosses (0,1) at t = 2 + k, crosses (1,3)
   at t = 3 + k and ejects at node 3 at t = 4 + k; the tail (k = 4)
   completes the packet at exactly t = 8 = base + hops + 4. *)
let test_flit_pipelined_schedule () =
  let engine, r = flit_router 4 in
  let arrival = ref (-1) in
  Router.register r ~node_id:3 (fun _ -> arrival := Engine.now engine);
  Router.send r { (pkt ~len:4 0) with Packet.dst_node = 3 };
  let injected, _, _ = Router.flit_counts r in
  checki "20 bytes = 5 one-word flits" 5 injected;
  (* end of cycle 4: the head just ejected; flits 1 and 2 sit in the
     two link FIFOs, 3 and 4 are still queued at the source *)
  Engine.run_until engine 4;
  let injected, delivered, buffered = Router.flit_counts r in
  checki "head ejected at t=4" 1 delivered;
  checki "rest still in network" 4 buffered;
  checki "nothing re-injected" 5 injected;
  checkb "conservation holds mid-flight" true (Router.check_flits r = None);
  Engine.run_until_idle engine;
  checki "tail completes at base + hops + 4 trailing flits" 8 !arrival;
  let _, delivered, buffered = Router.flit_counts r in
  checki "all five flits ejected" 5 delivered;
  checki "network drained" 0 buffered;
  (* both wires carried the whole worm; the source wire double-buffers
     (a fresh flit lands each cycle as the previous one leaves for
     (1,3) in the same tick), the last wire drains eject-then-fill *)
  checki "grants on (0,1)" 5
    (flit_stat r ~from_node:0 ~to_node:1 ~vc:0).Router.fl_grants;
  checki "grants on (1,3)" 5
    (flit_stat r ~from_node:1 ~to_node:3 ~vc:0).Router.fl_grants;
  checki "peak occupancy on (0,1)" 2
    (flit_stat r ~from_node:0 ~to_node:1 ~vc:0).Router.fl_max_occ;
  checki "peak occupancy on (1,3)" 1
    (flit_stat r ~from_node:1 ~to_node:3 ~vc:0).Router.fl_max_occ;
  checkb "conservation holds when drained" true (Router.check_flits r = None)

(* Two worms sharing wire (1,3) interleave flit by flit on separate
   virtual channels. Worm A (0 -> 3) and worm B (1 -> 3), 4 flits
   each (len = 0), both sent at t = 0. B's head takes (1,3) on VC 0
   at t = 2 while A's head is still crossing (0,1); A's head then
   claims VC 1 and the wire's round-robin arbiter alternates
   B,A,B,A,... every cycle from t = 3 to t = 9. B's tail ejects at
   t = 9, A's one cycle later — neither worm waits for the other's
   tail, which a single channel would force. *)
let test_flit_vc_interleaving () =
  let engine, r = flit_router ~vc_count:2 4 in
  let arrivals = ref [] in
  Router.register r ~node_id:3 (fun p ->
      arrivals := (p.Packet.src_node, Engine.now engine) :: !arrivals);
  Router.send r { (pkt ~len:0 0) with Packet.dst_node = 3 };
  Router.send r { (pkt ~len:0 1) with Packet.src_node = 1; dst_node = 3 };
  Engine.run_until_idle engine;
  checki "B (1 -> 3) tail at t=9" 9 (List.assoc 1 !arrivals);
  checki "A (0 -> 3) tail at t=10" 10 (List.assoc 0 !arrivals);
  (* each worm rode its own virtual channel of the shared wire *)
  checki "B's four flits on VC 0" 4
    (flit_stat r ~from_node:1 ~to_node:3 ~vc:0).Router.fl_grants;
  checki "A's four flits on VC 1" 4
    (flit_stat r ~from_node:1 ~to_node:3 ~vc:1).Router.fl_grants;
  let injected, delivered, buffered = Router.flit_counts r in
  checki "8 flits injected" 8 injected;
  checki "8 flits delivered" 8 delivered;
  checki "none left behind" 0 buffered;
  checkb "conservation" true (Router.check_flits r = None)

(* A slow wire stretches a worm across two links. With Link_slow 4 on
   (1,3) and single-slot FIFOs, a 4-flit worm crosses (1,3) only
   every 4th cycle (t = 3, 7, 11, 15) while upstream flits sit
   credit-blocked in (0,1)'s slot — the worm holds buffers on both
   links at once, wormhole's defining hazard. Tail eject at t = 16
   returns every credit. *)
let test_flit_blocked_worm_credit_release () =
  let engine, r = flit_router ~rx_credits:1 4 in
  Router.set_link_fault r ~from_node:1 ~to_node:3 (Router.Link_slow 4);
  let arrival = ref (-1) in
  Router.register r ~node_id:3 (fun _ -> arrival := Engine.now engine);
  Router.send r { (pkt ~len:0 0) with Packet.dst_node = 3 };
  (* end of cycle 9: head (t=4) and first body (t=8) have ejected;
     the second body is parked in (0,1)'s only slot waiting for the
     slow wire, pinning its credit, so the tail cannot leave the
     source even though the (0,1) wire itself is idle *)
  Engine.run_until engine 9;
  let s01 = flit_stat r ~from_node:0 ~to_node:1 ~vc:0 in
  checki "slot on (0,1) occupied" 1 s01.Router.fl_occ;
  checki "its credit is pinned" 0 s01.Router.fl_credits;
  let injected, delivered, buffered = Router.flit_counts r in
  checki "two flits through" 2 delivered;
  checki "two still inside" 2 buffered;
  checki "injected" 4 injected;
  checkb "conservation under backpressure" true (Router.check_flits r = None);
  checkb "credit stall with the (0,1) wire idle counts as HOL" true
    (s01.Router.fl_hol_cycles > 0);
  Engine.run_until_idle engine;
  checki "tail ejects at t=16 (one (1,3) crossing per 4 cycles)" 16 !arrival;
  (* the tail's passage released every slot on both links *)
  List.iter
    (fun (s : Router.flit_stat) ->
      checki "drained FIFO empty" 0 s.Router.fl_occ;
      checki "credits restored" s.Router.fl_capacity s.Router.fl_credits)
    (Router.flit_stats r);
  let s13 = flit_stat r ~from_node:1 ~to_node:3 ~vc:0 in
  checkb "the slow wire stalled ready flits without HOL" true
    (s13.Router.fl_stall_cycles > 0 && s13.Router.fl_hol_cycles = 0);
  checkb "conservation when drained" true (Router.check_flits r = None)

(* Idle links cost the flit clock nothing: a tick visits only the links
   a FIFO front targets. One single-flit worm (len = 0 is 4 words, one
   4-word flit) crosses the 8x8 mesh; with per_hop_cycles = 1 it is
   granted one hop per tick. A grant tick visits the granting link and,
   when the flit's next link comes later in the (src, dst) scan order,
   that link too (the scan reads interest live); the eject tick visits
   the last link. 0 -> 63 runs east then south, always to a later link:
   13 grant ticks visit 2 links, the last grant and the eject tick 1
   each, 28 visits. 63 -> 0 runs west then north, always to an earlier
   link: 14 grant ticks and the eject tick visit 1 link each, 15 visits.
   A scan of all 224 links would make 224 visits per tick. *)
let test_flit_idle_links_not_visited () =
  let engine = Engine.create () in
  let r =
    Router.create ~engine ~nodes:64
      ~config:
        { Router.default_config with
          Router.link_contention = true;
          crossing = `Flit;
          base_cycles = 2;
          per_hop_cycles = 1;
          per_word_cycles = 1;
          flit_words = 4 }
      ()
  in
  let arrival = ref (-1) in
  Router.register r ~node_id:63 (fun _ -> arrival := Engine.now engine);
  Router.register r ~node_id:0 (fun _ -> arrival := Engine.now engine);
  Router.send r { (pkt ~len:0 0) with Packet.dst_node = 63 };
  checki "one flit" 1 (let injected, _, _ = Router.flit_counts r in injected);
  Engine.run_until_idle engine;
  checki "0 -> 63 arrives at base + 14 hops" 16 !arrival;
  checki "0 -> 63 visits 2 per hop" 28 (Router.flit_link_visits r);
  let sent = Engine.now engine in
  Router.send r { (pkt ~len:0 1) with Packet.src_node = 63; dst_node = 0 };
  Engine.run_until_idle engine;
  checki "63 -> 0 arrives at base + 14 hops" (sent + 16) !arrival;
  checki "63 -> 0 visits 1 per hop plus the eject" 15
    (Router.flit_link_visits r - 28);
  checkb "bookkeeping matches a recount" true (Router.check_flits r = None)

(* ---------- System + NI end to end ---------- *)

let two_nodes () =
  let sys = System.create ~nodes:2 () in
  let snd = System.node sys 0 and rcv = System.node sys 1 in
  let sp = Scheduler.spawn snd.System.machine ~name:"s" in
  let rp = Scheduler.spawn rcv.System.machine ~name:"r" in
  (sys, snd, rcv, sp, rp)

let test_export_import_plumbing () =
  let sys, snd, rcv, sp, rp = two_nodes () in
  let export = System.export_buffer sys ~node:1 ~proc:rp ~pages:2 in
  checki "two frames" 2 (List.length export.System.frames);
  (* frames are pinned *)
  List.iter
    (fun f -> checkb "pinned" true (M.frame_is_pinned rcv.System.machine f))
    export.System.frames;
  System.import_export sys ~node:0 ~proc:sp ~first_index:3 export;
  (* NIPT entries installed *)
  let backend = Ni.backend snd.System.ni in
  (match Backend.decode backend ~index:3 with
  | Some e ->
      checki "points at receiver" 1 e.Backend.dst_node;
      checki "owned by the sender" sp.Udma_os.Proc.pid e.Backend.owner
  | None -> Alcotest.fail "NIPT entry missing");
  checki "two entries" 2 (Backend.valid_count backend);
  System.release_export sys export;
  List.iter
    (fun f -> checkb "unpinned" false (M.frame_is_pinned rcv.System.machine f))
    export.System.frames

let test_deliberate_update_send () =
  let sys, snd, rcv, sp, rp = two_nodes () in
  let export = System.export_buffer sys ~node:1 ~proc:rp ~pages:1 in
  System.import_export sys ~node:0 ~proc:sp ~first_index:0 export;
  let buf = Kernel.alloc_buffer snd.System.machine sp ~bytes:4096 in
  let data = pattern 1024 5 in
  Kernel.write_user snd.System.machine sp ~vaddr:buf data;
  let cpu = Kernel.user_cpu snd.System.machine sp in
  (match
     Initiator.transfer cpu ~layout:snd.System.machine.M.layout
       ~src:(Initiator.Memory buf)
       ~dst:(Initiator.Device (Kernel.vdev_addr snd.System.machine ~index:0 ~offset:0))
       ~nbytes:1024 ()
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "send failed: %a" Initiator.pp_error e);
  System.run_until_idle sys;
  checki "one packet sent" 1 (Ni.packets_sent snd.System.ni);
  checki "one packet received" 1 (Ni.packets_received rcv.System.ni);
  checki "bytes" 1024 (Ni.bytes_received rcv.System.ni);
  Alcotest.check Alcotest.bytes "payload in receiver memory" data
    (Kernel.read_user rcv.System.machine rp ~vaddr:export.System.vaddr ~len:1024)

let test_ni_alignment_rejected () =
  let sys, snd, _rcv, sp, rp = two_nodes () in
  ignore rp;
  let rcv = System.node sys 1 in
  let rp2 = List.hd rcv.System.machine.M.procs in
  let export = System.export_buffer sys ~node:1 ~proc:rp2 ~pages:1 in
  System.import_export sys ~node:0 ~proc:sp ~first_index:0 export;
  let buf = Kernel.alloc_buffer snd.System.machine sp ~bytes:4096 in
  Kernel.write_user snd.System.machine sp ~vaddr:buf (pattern 64 0);
  let cpu = Kernel.user_cpu snd.System.machine sp in
  (* misaligned count: the NI's validate hook reports a device error,
     which the initiator surfaces as a hard error *)
  match
    Initiator.transfer cpu ~layout:snd.System.machine.M.layout
      ~src:(Initiator.Memory buf)
      ~dst:(Initiator.Device (Kernel.vdev_addr snd.System.machine ~index:0 ~offset:0))
      ~nbytes:10 ()
  with
  | Error (Initiator.Hard_error st) ->
      checkb "device error bits" true (st.Status.device_error <> 0)
  | Ok _ -> Alcotest.fail "misaligned transfer accepted"
  | Error e -> Alcotest.failf "unexpected error: %a" Initiator.pp_error e

let test_ni_unconfigured_page_rejected () =
  let sys, snd, _rcv, sp, _rp = two_nodes () in
  ignore sys;
  (* map the device-proxy page but leave the NIPT empty *)
  (match
     Udma_os.Syscall.map_device_proxy snd.System.machine sp ~vdev_index:5
       ~pdev_index:5 ~writable:true
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "grant failed");
  let buf = Kernel.alloc_buffer snd.System.machine sp ~bytes:4096 in
  Kernel.write_user snd.System.machine sp ~vaddr:buf (pattern 64 0);
  let cpu = Kernel.user_cpu snd.System.machine sp in
  match
    Initiator.transfer cpu ~layout:snd.System.machine.M.layout
      ~src:(Initiator.Memory buf)
      ~dst:(Initiator.Device (Kernel.vdev_addr snd.System.machine ~index:5 ~offset:0))
      ~nbytes:64 ()
  with
  | Error (Initiator.Hard_error _) -> ()
  | Ok _ -> Alcotest.fail "send through empty NIPT entry accepted"
  | Error e -> Alcotest.failf "unexpected error: %a" Initiator.pp_error e

let test_receive_marks_dirty () =
  let sys, snd, rcv, sp, rp = two_nodes () in
  let export = System.export_buffer sys ~node:1 ~proc:rp ~pages:1 in
  System.import_export sys ~node:0 ~proc:sp ~first_index:0 export;
  let vpn = export.System.vaddr / Layout.page_size rcv.System.machine.M.layout in
  let pte =
    Option.get (Udma_mmu.Page_table.find rp.Udma_os.Proc.page_table vpn)
  in
  pte.Udma_mmu.Pte.dirty <- false;
  let buf = Kernel.alloc_buffer snd.System.machine sp ~bytes:4096 in
  Kernel.write_user snd.System.machine sp ~vaddr:buf (pattern 64 0);
  let cpu = Kernel.user_cpu snd.System.machine sp in
  (match
     Initiator.transfer cpu ~layout:snd.System.machine.M.layout
       ~src:(Initiator.Memory buf)
       ~dst:(Initiator.Device (Kernel.vdev_addr snd.System.machine ~index:0 ~offset:0))
       ~nbytes:64 ()
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "send failed: %a" Initiator.pp_error e);
  System.run_until_idle sys;
  checkb "receive dirtied the page (I3 discipline)" true pte.Udma_mmu.Pte.dirty

(* ---------- Messaging ---------- *)

let test_messaging_roundtrip () =
  let sys, snd, _rcv, sp, rp = two_nodes () in
  let ch = Messaging.connect sys ~sender:(0, sp) ~receiver:(1, rp) ~pages:1 () in
  checki "capacity excludes flag" (4096 - 4) (Messaging.capacity ch);
  let buf = Kernel.alloc_buffer snd.System.machine sp ~bytes:4096 in
  let data = pattern 256 9 in
  Kernel.write_user snd.System.machine sp ~vaddr:buf data;
  let cpu_s = Kernel.user_cpu snd.System.machine sp in
  let cpu_r = Kernel.user_cpu (System.node sys 1).System.machine rp in
  let seq =
    match Messaging.send ch cpu_s ~src_vaddr:buf ~nbytes:256 () with
    | Ok seq -> seq
    | Error e -> Alcotest.failf "send: %a" Messaging.pp_send_error e
  in
  checki "first message" 1 seq;
  (match Messaging.recv_wait ch cpu_r ~seq () with
  | Ok polls -> checkb "took some polls" true (polls >= 0)
  | Error msg -> Alcotest.fail msg);
  Alcotest.check Alcotest.bytes "payload" data
    (Bytes.sub (Messaging.read_payload ch ~len:256) 0 256)

let test_messaging_flag_after_payload () =
  (* the flag word must never be observable before the payload *)
  let sys, snd, _rcv, sp, rp = two_nodes () in
  let ch = Messaging.connect sys ~sender:(0, sp) ~receiver:(1, rp) ~pages:1 () in
  let buf = Kernel.alloc_buffer snd.System.machine sp ~bytes:4096 in
  let cpu_s = Kernel.user_cpu snd.System.machine sp in
  let cpu_r = Kernel.user_cpu (System.node sys 1).System.machine rp in
  for round = 1 to 10 do
    let data = pattern 512 round in
    Kernel.write_user snd.System.machine sp ~vaddr:buf data;
    let seq =
      match Messaging.send ch cpu_s ~src_vaddr:buf ~nbytes:512 () with
      | Ok seq -> seq
      | Error e -> Alcotest.failf "send: %a" Messaging.pp_send_error e
    in
    (match Messaging.recv_wait ch cpu_r ~seq () with
    | Ok _ -> ()
    | Error msg -> Alcotest.fail msg);
    Alcotest.check Alcotest.bytes
      (Printf.sprintf "round %d payload complete at flag time" round)
      data
      (Bytes.sub (Messaging.read_payload ch ~len:512) 0 512)
  done

let test_messaging_multi_page () =
  let sys, snd, _rcv, sp, rp = two_nodes () in
  let ch = Messaging.connect sys ~sender:(0, sp) ~receiver:(1, rp) ~pages:3 () in
  let nbytes = 2 * 4096 in
  let buf = Kernel.alloc_buffer snd.System.machine sp ~bytes:nbytes in
  let data = pattern nbytes 3 in
  Kernel.write_user snd.System.machine sp ~vaddr:buf data;
  let cpu_s = Kernel.user_cpu snd.System.machine sp in
  let cpu_r = Kernel.user_cpu (System.node sys 1).System.machine rp in
  let seq =
    match Messaging.send ch cpu_s ~src_vaddr:buf ~nbytes () with
    | Ok seq -> seq
    | Error e -> Alcotest.failf "send: %a" Messaging.pp_send_error e
  in
  (match Messaging.recv_wait ch cpu_r ~seq () with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail msg);
  Alcotest.check Alcotest.bytes "multi-page payload" data
    (Messaging.read_payload ch ~len:nbytes)

let test_messaging_size_checks () =
  let sys, snd, _rcv, sp, rp = two_nodes () in
  ignore snd;
  let ch = Messaging.connect sys ~sender:(0, sp) ~receiver:(1, rp) ~pages:1 () in
  let cpu = Kernel.user_cpu (System.node sys 0).System.machine sp in
  checkb "oversized rejected" true
    (try ignore (Messaging.send ch cpu ~src_vaddr:4096 ~nbytes:8192 ()); false
     with Invalid_argument _ -> true);
  checkb "unaligned rejected" true
    (try ignore (Messaging.send ch cpu ~src_vaddr:4096 ~nbytes:10 ()); false
     with Invalid_argument _ -> true)

let test_queued_system_pipelined_send () =
  let config =
    { System.default_config with
      System.machine =
        { M.default_config with
          M.udma_mode = Some (Udma.Udma_engine.Queued { depth = 8 }) } }
  in
  let sys = System.create ~config ~nodes:2 () in
  let snd = System.node sys 0 in
  let sp = Scheduler.spawn snd.System.machine ~name:"s" in
  let rp = Scheduler.spawn (System.node sys 1).System.machine ~name:"r" in
  let ch = Messaging.connect sys ~sender:(0, sp) ~receiver:(1, rp) ~pages:4 () in
  let nbytes = 3 * 4096 in
  let buf = Kernel.alloc_buffer snd.System.machine sp ~bytes:nbytes in
  let data = pattern nbytes 7 in
  Kernel.write_user snd.System.machine sp ~vaddr:buf data;
  let cpu_s = Kernel.user_cpu snd.System.machine sp in
  let cpu_r = Kernel.user_cpu (System.node sys 1).System.machine rp in
  let seq =
    match Messaging.send_pipelined ch cpu_s ~src_vaddr:buf ~nbytes () with
    | Ok seq -> seq
    | Error e -> Alcotest.failf "send: %a" Messaging.pp_send_error e
  in
  (match Messaging.recv_wait ch cpu_r ~seq () with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail msg);
  check Alcotest.bytes "pipelined multi-page payload" data
    (Messaging.read_payload ch ~len:nbytes)

let test_pipelined_beats_blocking () =
  let run pipelined =
    let config =
      { System.default_config with
        System.machine =
          { M.default_config with
            M.udma_mode = Some (Udma.Udma_engine.Queued { depth = 8 }) } }
    in
    let sys = System.create ~config ~nodes:2 () in
    let snd = System.node sys 0 in
    let sp = Scheduler.spawn snd.System.machine ~name:"s" in
    let rp = Scheduler.spawn (System.node sys 1).System.machine ~name:"r" in
    let ch = Messaging.connect sys ~sender:(0, sp) ~receiver:(1, rp) ~pages:5 () in
    let nbytes = 4 * 4096 in
    let buf = Kernel.alloc_buffer snd.System.machine sp ~bytes:nbytes in
    Kernel.write_user snd.System.machine sp ~vaddr:buf (pattern nbytes 1);
    let cpu = Kernel.user_cpu snd.System.machine sp in
    let send = if pipelined then Messaging.send_pipelined else Messaging.send in
    (* warm *)
    ignore (send ch cpu ~src_vaddr:buf ~nbytes ());
    System.run_until_idle sys;
    let t0 = Engine.now (System.engine sys) in
    (match send ch cpu ~src_vaddr:buf ~nbytes () with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "send: %a" Messaging.pp_send_error e);
    let dt = Engine.now (System.engine sys) - t0 in
    System.run_until_idle sys;
    dt
  in
  let blocking = run false and pipelined = run true in
  checkb
    (Printf.sprintf "pipelined (%d) < blocking (%d)" pipelined blocking)
    true (pipelined < blocking)

let test_nine_node_corner_to_corner () =
  (* 3x3 mesh: corner-to-corner traffic pays 4 hops and still arrives *)
  let sys = System.create ~nodes:9 () in
  let p0 = Scheduler.spawn (System.node sys 0).System.machine ~name:"p0" in
  let p8 = Scheduler.spawn (System.node sys 8).System.machine ~name:"p8" in
  checki "4 hops" 4 (Router.hops (System.router sys) ~src:0 ~dst:8);
  let ch = Messaging.connect sys ~sender:(0, p0) ~receiver:(8, p8) ~pages:1 () in
  let near = Scheduler.spawn (System.node sys 1).System.machine ~name:"p1" in
  let ch_near =
    Messaging.connect sys ~sender:(0, p0) ~receiver:(1, near) ~first_index:4
      ~pages:1 ()
  in
  let m0 = (System.node sys 0).System.machine in
  let buf = Kernel.alloc_buffer m0 p0 ~bytes:4096 in
  Kernel.write_user m0 p0 ~vaddr:buf (pattern 512 3);
  let cpu0 = Kernel.user_cpu m0 p0 in
  let cpu8 = Kernel.user_cpu (System.node sys 8).System.machine p8 in
  let cpu1 = Kernel.user_cpu (System.node sys 1).System.machine near in
  let time_send ch cpu_r =
    let t0 = Engine.now (System.engine sys) in
    let seq =
      match Messaging.send ch cpu0 ~src_vaddr:buf ~nbytes:512 () with
      | Ok seq -> seq
      | Error e -> Alcotest.failf "send: %a" Messaging.pp_send_error e
    in
    (match Messaging.recv_wait ch cpu_r ~seq () with
    | Ok _ -> ()
    | Error msg -> Alcotest.fail msg);
    let dt = Engine.now (System.engine sys) - t0 in
    System.run_until_idle sys;
    dt
  in
  let far = time_send ch cpu8 in
  let nearby = time_send ch_near cpu1 in
  checkb
    (Printf.sprintf "more hops cost more (far %d vs near %d)" far nearby)
    true (far > nearby);
  check Alcotest.bytes "far payload intact" (pattern 512 3)
    (Bytes.sub (Messaging.read_payload ch ~len:512) 0 512)

let test_four_node_all_pairs () =
  let sys = System.create ~nodes:4 () in
  let procs =
    Array.init 4 (fun i ->
        Scheduler.spawn (System.node sys i).System.machine
          ~name:(Printf.sprintf "p%d" i))
  in
  let cpus =
    Array.init 4 (fun i ->
        Kernel.user_cpu (System.node sys i).System.machine procs.(i))
  in
  (* one channel per ordered pair, each with its own NIPT slice *)
  let idx = ref 0 in
  let chans = Hashtbl.create 16 in
  for s = 0 to 3 do
    for r = 0 to 3 do
      if s <> r then begin
        Hashtbl.replace chans (s, r)
          (Messaging.connect sys ~sender:(s, procs.(s)) ~receiver:(r, procs.(r))
             ~first_index:!idx ~pages:1 ());
        incr idx
      end
    done
  done;
  (* every pair sends a distinct message; all must arrive intact *)
  for s = 0 to 3 do
    for r = 0 to 3 do
      if s <> r then begin
        let m = (System.node sys s).System.machine in
        let buf = Kernel.alloc_buffer m procs.(s) ~bytes:4096 in
        let data = pattern 128 ((s * 4) + r) in
        Kernel.write_user m procs.(s) ~vaddr:buf data;
        let ch = Hashtbl.find chans (s, r) in
        let seq =
          match Messaging.send ch cpus.(s) ~src_vaddr:buf ~nbytes:128 () with
          | Ok seq -> seq
          | Error e -> Alcotest.failf "send %d->%d: %a" s r Messaging.pp_send_error e
        in
        match Messaging.recv_wait ch cpus.(r) ~seq () with
        | Ok _ ->
            Alcotest.check Alcotest.bytes
              (Printf.sprintf "payload %d->%d" s r)
              data
              (Bytes.sub (Messaging.read_payload ch ~len:128) 0 128)
        | Error msg -> Alcotest.fail msg
      end
    done
  done;
  System.run_until_idle sys

(* ---------- Automatic update (§9) ---------- *)

module Auto_update = Udma_shrimp.Auto_update

let auto_rig () =
  let sys, snd, rcv, sp, rp = two_nodes () in
  let export = System.export_buffer sys ~node:1 ~proc:rp ~pages:1 in
  let buf = Kernel.alloc_buffer snd.System.machine sp ~bytes:4096 in
  (* make the page resident and dirty so plain stores work *)
  Kernel.write_user snd.System.machine sp ~vaddr:buf (Bytes.make 4096 '\000');
  System.auto_bind sys ~node:0 ~proc:sp ~vaddr:buf export;
  (sys, snd, rcv, sp, rp, export, buf)

let test_auto_update_propagates_word () =
  let sys, snd, rcv, sp, rp, export, buf = auto_rig () in
  ignore rcv;
  let cpu = Kernel.user_cpu snd.System.machine sp in
  cpu.Udma.Initiator.store ~vaddr:(buf + 64) 0xBEEFl;
  (* the combining window must elapse before the update is launched *)
  System.run_until_idle sys;
  checki "one update packet" 1 (Auto_update.updates_sent snd.System.auto);
  let got =
    Kernel.read_user (System.node sys 1).System.machine rp
      ~vaddr:(export.System.vaddr + 64) ~len:4
  in
  Alcotest.check Alcotest.int32 "word arrived at same offset" 0xBEEFl
    (Bytes.get_int32_le got 0)

let test_auto_update_combines_contiguous () =
  let sys, snd, _rcv, sp, rp, export, buf = auto_rig () in
  let cpu = Kernel.user_cpu snd.System.machine sp in
  (* eight contiguous words: one combined packet *)
  for w = 0 to 7 do
    cpu.Udma.Initiator.store ~vaddr:(buf + 128 + (w * 4)) (Int32.of_int w)
  done;
  System.run_until_idle sys;
  checki "single combined packet" 1 (Auto_update.updates_sent snd.System.auto);
  checki "seven merged words" 7 (Auto_update.words_combined snd.System.auto);
  let got =
    Kernel.read_user (System.node sys 1).System.machine rp
      ~vaddr:(export.System.vaddr + 128) ~len:32
  in
  for w = 0 to 7 do
    checki (Printf.sprintf "word %d" w) w
      (Int32.to_int (Bytes.get_int32_le got (w * 4)))
  done

let test_auto_update_discontiguous_flushes () =
  let sys, snd, _rcv, sp, _rp, _export, buf = auto_rig () in
  let cpu = Kernel.user_cpu snd.System.machine sp in
  cpu.Udma.Initiator.store ~vaddr:(buf + 0) 1l;
  cpu.Udma.Initiator.store ~vaddr:(buf + 512) 2l;
  cpu.Udma.Initiator.store ~vaddr:(buf + 1024) 3l;
  System.run_until_idle sys;
  checki "three separate packets" 3 (Auto_update.updates_sent snd.System.auto)

let test_auto_update_unbind_stops () =
  let sys, snd, _rcv, sp, rp, export, buf = auto_rig () in
  let cpu = Kernel.user_cpu snd.System.machine sp in
  cpu.Udma.Initiator.store ~vaddr:buf 7l;
  let frame =
    Option.get
      (Vm.frame_of_vpn snd.System.machine sp
         ~vpn:(buf / Layout.page_size snd.System.machine.M.layout))
  in
  (* unbind flushes the pending run, then silences the page *)
  Auto_update.unbind snd.System.auto ~frame;
  cpu.Udma.Initiator.store ~vaddr:(buf + 256) 8l;
  System.run_until_idle sys;
  checki "only the pre-unbind update" 1 (Auto_update.updates_sent snd.System.auto);
  let got =
    Kernel.read_user (System.node sys 1).System.machine rp
      ~vaddr:export.System.vaddr ~len:4
  in
  Alcotest.check Alcotest.int32 "flushed word arrived" 7l (Bytes.get_int32_le got 0)

let test_auto_update_ignores_other_pages () =
  let sys, snd, _rcv, sp, _rp, _export, _buf = auto_rig () in
  let other = Kernel.alloc_buffer snd.System.machine sp ~bytes:4096 in
  Kernel.write_user snd.System.machine sp ~vaddr:other (Bytes.make 8 'x');
  let cpu = Kernel.user_cpu snd.System.machine sp in
  cpu.Udma.Initiator.store ~vaddr:other 9l;
  System.run_until_idle sys;
  checki "unbound page not propagated" 0 (Auto_update.updates_sent snd.System.auto)

let () =
  Alcotest.run "udma_shrimp"
    [
      ("nipt", [ Alcotest.test_case "basic" `Quick test_nipt_basic ]);
      ("fifo", [ Alcotest.test_case "order + capacity" `Quick test_fifo_order_and_capacity ]);
      ( "router",
        [
          Alcotest.test_case "mesh hops" `Quick test_router_mesh_hops;
          Alcotest.test_case "delivery + latency" `Quick
            test_router_delivery_and_latency;
          Alcotest.test_case "unregistered sink" `Quick test_router_unregistered_sink;
          Alcotest.test_case "contention on idle links = closed form" `Quick
            test_router_contention_idle_closed_form;
          Alcotest.test_case "contention queues a shared link" `Quick
            test_router_contention_queues_shared_link;
          Alcotest.test_case "partial-row node counts rejected" `Quick
            test_router_rejects_partial_row;
          Alcotest.test_case "VCs degenerate to FIFO timing" `Quick
            test_router_vcs_degenerate_timing;
          Alcotest.test_case "credit gate + NACK retry" `Quick
            test_router_credit_gate;
          Alcotest.test_case "adaptive idle = dimension order" `Quick
            test_adaptive_idle_matches_dimension_order;
          Alcotest.test_case "adaptive routes around a dead link" `Quick
            test_adaptive_routes_around_dead_link;
          Alcotest.test_case "adaptive cost probes create links" `Quick
            test_adaptive_probes_listed;
          Alcotest.test_case "dimension order crosses a dead link" `Quick
            test_dimension_order_crosses_dead_link;
          Alcotest.test_case "slow link stretches occupancy" `Quick
            test_slow_link_stretches_occupancy;
          Alcotest.test_case "adaptive prefers the less busy link" `Quick
            test_adaptive_prefers_less_busy_link;
          Alcotest.test_case "set_link_fault validates" `Quick
            test_set_link_fault_validates;
          Alcotest.test_case "flit: pipelined hand schedule" `Quick
            test_flit_pipelined_schedule;
          Alcotest.test_case "flit: 2-VC interleaving hand schedule" `Quick
            test_flit_vc_interleaving;
          Alcotest.test_case "flit: blocked worm + credit release" `Quick
            test_flit_blocked_worm_credit_release;
          Alcotest.test_case "flit: idle links are not visited" `Quick
            test_flit_idle_links_not_visited;
        ] );
      ( "system",
        [
          Alcotest.test_case "export/import plumbing" `Quick
            test_export_import_plumbing;
          Alcotest.test_case "deliberate update send" `Quick
            test_deliberate_update_send;
          Alcotest.test_case "alignment rejected" `Quick test_ni_alignment_rejected;
          Alcotest.test_case "unconfigured NIPT page rejected" `Quick
            test_ni_unconfigured_page_rejected;
          Alcotest.test_case "receive marks dirty" `Quick test_receive_marks_dirty;
        ] );
      ( "auto-update",
        [
          Alcotest.test_case "word propagates" `Quick test_auto_update_propagates_word;
          Alcotest.test_case "contiguous writes combine" `Quick
            test_auto_update_combines_contiguous;
          Alcotest.test_case "discontiguous writes flush" `Quick
            test_auto_update_discontiguous_flushes;
          Alcotest.test_case "unbind stops propagation" `Quick
            test_auto_update_unbind_stops;
          Alcotest.test_case "other pages ignored" `Quick
            test_auto_update_ignores_other_pages;
        ] );
      ( "messaging",
        [
          Alcotest.test_case "roundtrip" `Quick test_messaging_roundtrip;
          Alcotest.test_case "flag after payload" `Quick
            test_messaging_flag_after_payload;
          Alcotest.test_case "multi-page message" `Quick test_messaging_multi_page;
          Alcotest.test_case "size checks" `Quick test_messaging_size_checks;
          Alcotest.test_case "queued system pipelined send" `Quick
            test_queued_system_pipelined_send;
          Alcotest.test_case "pipelined beats blocking" `Quick
            test_pipelined_beats_blocking;
          Alcotest.test_case "9-node corner to corner" `Quick
            test_nine_node_corner_to_corner;
          Alcotest.test_case "4-node all pairs" `Quick test_four_node_all_pairs;
        ] );
    ]
