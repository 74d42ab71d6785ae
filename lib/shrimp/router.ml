module Engine = Udma_sim.Engine
module Trace = Udma_sim.Trace
module Metrics = Udma_obs.Metrics
module Event = Udma_obs.Event

type routing = [ `Dimension_order | `Minimal_adaptive ]
type crossing = [ `Analytic | `Flit ]

type config = {
  base_cycles : int;
  per_hop_cycles : int;
  per_word_cycles : int;
  link_contention : bool;
  routing : routing;
  vc_count : int;
  rx_credits : int option;
  crossing : crossing;
  flit_words : int;
}

let default_config =
  { base_cycles = 20; per_hop_cycles = 8; per_word_cycles = 1;
    link_contention = false; routing = `Dimension_order;
    vc_count = 1; rx_credits = None; crossing = `Analytic; flit_words = 1 }

type fault = Link_ok | Link_slow of int | Link_dead

(* A dead link is crossed only when it is the sole productive link left
   (the recovery/retransmit path); the crossing holds the wire this
   many times the normal occupancy. *)
let dead_crossing_factor = 64

(* On a dead link the deposit side's credit-return notifications are
   lost; the source only learns of a freed slot by retrying and being
   NACK'd, so credit grants are quantised to this polling period. *)
let nack_retry_cycles = 32

type mutation = Credit_leak | Arb_stuck | Flit_leak | Double_grant

(* Round-robin arbitration among the VCs competing for one physical
   link: grant the first ready VC scanning circularly from [rr]. The
   caller advances [rr] to just past the grant, which bounds the wait
   of any continuously-ready VC to [vc_count - 1] skipped rounds (the
   distance from [rr] to that VC strictly shrinks on every skip). *)
let arbitrate_index ~rr ~ready =
  let n = Array.length ready in
  let grant = ref (-1) and k = ref 0 in
  while !grant < 0 && !k < n do
    let v = (rr + !k) mod n in
    if ready.(v) then grant := v;
    incr k
  done;
  !grant

let arbitrate ~rr ~ready =
  let v = arbitrate_index ~rr ~ready in
  if v < 0 then None else Some v

(* One virtual channel of a directed link. [v_tail] is the cycle the
   VC's most recent packet clears the wire — the next packet assigned
   to this VC cannot start before it (FIFO within a VC). *)
type vc = {
  mutable v_tail : int;
  mutable v_inflight : int;
  mutable v_max_depth : int;
  mutable v_grants : int;
  mutable v_skip_streak : int;      (* consecutive ready-but-skipped *)
  mutable v_max_skip : int;
}

(* Deposit-side credit pool for one (link, vc) receive FIFO. The
   [cp_slots] array is the analytic model (the cycle each buffer slot
   frees; a claim takes the earliest); the three counters are the
   runtime token state the N1 oracle checks, advanced by scheduled
   events at reservation / wire start / release so that
   held + inflight + free = capacity at every cycle. *)
type pool = {
  mutable cp_capacity : int;
  mutable cp_slots : int array;
  mutable cp_held : int;
  mutable cp_inflight : int;
  mutable cp_free : int;
}

(* ---- Flit-level crossing state ([crossing = `Flit] only) ----

   A packet decomposes into head/body/tail flits that cross the mesh
   one link per flit-cycle. A worm is the in-network image of one
   packet: its flits all follow the path the head reserves ([w_path],
   as indices into [fl_links]), and [w_vcs] records, per hop, the
   virtual channel the head was granted there (-1 until the head
   crosses that hop), which the body and tail must reuse — the
   wormhole discipline. *)
type worm = {
  w_id : int;
  w_pkt : Packet.t;
  w_flits : int;
  w_path : int array;
  w_vcs : int array;
}

type flit = {
  f_worm : worm;
  f_idx : int;              (* 0 = head, w_flits - 1 = tail *)
  mutable f_hop : int;      (* next hop to traverse; |w_path| once at dst *)
  mutable f_ready : int;    (* cycle the flit is usable where it sits *)
}

(* One (link, VC) input FIFO on the deposit side of a directed link.
   [fb_capacity] flit slots (-1 = unlimited); [fb_credits] is the
   credit counter the sender side spends one of per flit pushed and
   the receiver returns one of per flit popped, so
   [credits + occupancy = capacity] at every flit-cycle — half of the
   F1 conservation oracle. [fb_owner] is the id of the worm whose head
   claimed this VC (freed when its tail pops out). *)
type fbuf = {
  fb_vc : int;
  fb_capacity : int;
  mutable fb_credits : int;
  mutable fb_occ : int;
  mutable fb_owner : int;
  mutable fb_max_occ : int;
  mutable fb_grants : int;
  fb_q : flit Queue.t;
}

(* An input unit competing for one output wire: the node's injection
   FIFO, or one VC of an incoming link's input buffer. *)
type funit = F_inject of flit Queue.t | F_buf of fbuf

type flit_side = {
  fs_index : int;                   (* position in [fl_links] *)
  fs_bufs : fbuf array;             (* input FIFOs at l_dst, per VC *)
  mutable fs_units : funit array;   (* competitors for this wire *)
  (* per-tick scratch, preallocated so arbitration allocates nothing:
     each unit's offer code and ready flag, and the VCs a head could
     claim *)
  mutable fs_offer : int array;
  mutable fs_ready : bool array;
  fs_vc_ready : bool array;
  mutable fs_visited : int;         (* last tick the clock visited this wire *)
  mutable fs_wire_free : int;
  mutable fs_vc_rr : int;           (* rr pointer for head-flit VC grants *)
  mutable fs_flits : int;           (* flits that crossed this wire *)
  mutable fs_stall_cycles : int;    (* cycles with a ready waiter, no grant *)
  mutable fs_hol_cycles : int;      (* of those, cycles the wire was free *)
}

(* One directed mesh link. [busy_until] is the cycle at which the wire
   finishes the last packet that reserved it; [inflight] counts packets
   that have claimed the link and whose tails have not yet cleared it
   (the FIFO depth a head-of-line packet sees). With more than one VC
   the wire is shared by reservation: [l_busy] lists the outstanding
   future reservations (disjoint, sorted by start) so a later claim can
   backfill an idle window instead of queueing behind the last tail. *)
type link = {
  l_src : int;
  l_dst : int;
  mutable busy_until : int;
  mutable inflight : int;
  mutable l_max_depth : int;
  mutable l_xmits : int;
  mutable l_busy_cycles : int;
  mutable l_wait_cycles : int;
  mutable l_fault : fault;
  mutable l_rr : int;
  l_vcs : vc array;
  l_ready : bool array;             (* claim_vc scratch: ready flag per VC *)
  mutable l_busy : (int * int) list;
  mutable l_pools : pool array;     (* [||] = unlimited credits *)
  mutable l_flit : flit_side option;  (* [Some] iff [crossing = `Flit] *)
}

type link_stat = {
  from_node : int;
  to_node : int;
  xmits : int;
  busy_cycles : int;
  wait_cycles : int;
  max_depth : int;
}

type vc_stat = {
  vc_from : int;
  vc_to : int;
  vc_index : int;
  vc_grants : int;
  vc_max_depth : int;
  vc_max_skip : int;
}

type credit_stat = {
  cr_from : int;
  cr_to : int;
  cr_vc : int;
  cr_capacity : int;
  cr_held : int;
  cr_inflight : int;
  cr_free : int;
}

type flit_stat = {
  fl_from : int;
  fl_to : int;
  fl_vc : int;
  fl_capacity : int;    (* -1 = unlimited *)
  fl_occ : int;
  fl_credits : int;
  fl_max_occ : int;
  fl_grants : int;
  fl_stall_cycles : int;
  fl_hol_cycles : int;
}

type t = {
  engine : Engine.t;
  config : config;
  node_count : int;
  width : int;
  flit : bool;                         (* [`Flit] crossing under contention *)
  sinks : (Packet.t -> unit) option array;
  last_arrival : int array;
      (* the in-order guarantee, at [src * nodes + dst]: [send] clamps
         every arrival to after the pair's previous one (-1 before the
         first). Under dimension-order the fixed path plus FIFO links
         already deliver in order and the clamp is a no-op; under
         minimal-adaptive or with several VCs, packets of one pair may
         take different paths or channels, so the clamp is what keeps
         the guarantee (see test_props: checked under contention for
         both policies and with VCs + finite credits) *)
  links : link option array;
      (* node [a]'s outgoing link in direction [d] at [a * 4 + d],
         created on first touch (see [link_at]) *)
  trace : Trace.t;
  mutable packets_routed : int;
  mutable bytes_routed : int;
  mutable rx_credits_now : int option;
  mutable mutation : mutation option;
  mutable leak_used : bool;
  (* flit-crossing state ([fl_links] is [||] in analytic mode) *)
  mutable fl_links : link array;       (* every directed link, (src,dst) order *)
  fl_inject : flit Queue.t array;      (* per-source injection FIFOs *)
  mutable fl_interest : int array;     (* per link: FIFO fronts targeting it *)
  fl_vc_occ : int array;               (* per VC: flits buffered on all links *)
  mutable fl_visits : int;             (* (link, tick) pairs visited *)
  mutable fl_injected : int;
  mutable fl_delivered : int;
  mutable fl_next_worm : int;
  mutable fl_last_tick : int;
  mutable fl_occ_sum : float array;    (* per-VC occupancy, summed per tick *)
  mutable fl_occ_max : int array;
  mutable fl_occ_cycles : int;
  fm_injected : Metrics.counter;
  fm_delivered : Metrics.counter;
  fm_grants : Metrics.counter;
  fm_occupancy : Metrics.series;
  fm_busy_cycles : Metrics.counter;
  fm_stall_cycles : Metrics.counter;
  fm_hol_cycles : Metrics.counter;
  (* analytic-walk handles *)
  am_xmits : Metrics.counter;
  am_wait_cycles : Metrics.counter;
  am_queued : Metrics.counter;
  am_depth : Metrics.series;
  am_dead_crossings : Metrics.counter;
  am_adaptive_turns : Metrics.counter;
  am_vc_grants : Metrics.counter;
  am_vc_grant : Metrics.counter array;  (* net.vc.grants.<vc> *)
  am_vc_depth : Metrics.series;
  am_credit_nacks : Metrics.counter;
  am_credit_stalls : Metrics.counter;
  am_credit_stall_cycles : Metrics.counter;
}

(* Width of the squarest mesh covering [nodes]. *)
let mesh_width nodes =
  let rec go w = if w * w >= nodes then w else go (w + 1) in
  go 1

(* A node count is routable only when it fills complete rows of that
   mesh: a partial top row would put ids >= nodes on dimension-order
   paths (the phantom-node bug — e.g. 5 nodes in a 3-wide mesh route
   4 -> 2 through the nonexistent node 5). *)
let valid_nodes nodes = nodes > 0 && nodes mod mesh_width nodes = 0

let fresh_vc () =
  { v_tail = 0; v_inflight = 0; v_max_depth = 0; v_grants = 0;
    v_skip_streak = 0; v_max_skip = 0 }

let fresh_pool ~now n =
  { cp_capacity = n; cp_slots = Array.make n now; cp_held = 0;
    cp_inflight = 0; cp_free = n }

let fresh_pools t =
  match t.rx_credits_now with
  | None -> [||]
  | Some n ->
      let now = Engine.now t.engine in
      Array.init t.config.vc_count (fun _ -> fresh_pool ~now n)

let fresh_link t a b ~flit =
  { l_src = a; l_dst = b; busy_until = 0; inflight = 0; l_max_depth = 0;
    l_xmits = 0; l_busy_cycles = 0; l_wait_cycles = 0; l_fault = Link_ok;
    l_rr = 0; l_vcs = Array.init t.config.vc_count (fun _ -> fresh_vc ());
    l_ready = Array.make t.config.vc_count false; l_busy = [];
    l_pools = fresh_pools t; l_flit = flit }

(* Directed links are numbered by their source node and a direction:
   [d] = 0 (to [a - width]), 1 ([a - 1]), 2 ([a + 1]), 3 ([a + width]).
   That is ascending neighbour id, so [links] in slot order is in
   (src, dst) order. *)
let dir_y_down = 0
let dir_x_down = 1
let dir_x_up = 2
let dir_y_up = 3

let neighbour t a d =
  if d = dir_y_down then a - t.width
  else if d = dir_x_down then a - 1
  else if d = dir_x_up then a + 1
  else a + t.width

(* The direction of the mesh link [a -> b]; [b] must be a neighbour. *)
let dir_of t a b =
  if b = a - t.width then dir_y_down
  else if b = a - 1 then dir_x_down
  else if b = a + 1 then dir_x_up
  else dir_y_up

let fl_fresh_buf cap vc =
  { fb_vc = vc; fb_capacity = cap; fb_credits = cap; fb_occ = 0;
    fb_owner = -1; fb_max_occ = 0; fb_grants = 0; fb_q = Queue.create () }

(* Flit mode materialises every directed mesh link up front, in
   (src, dst) order, so the per-cycle scan visits them in a fixed order
   (the lazy [link_of] creation order would depend on traffic). *)
let fl_build_links t =
  let w = t.width and n = t.node_count in
  let cap = match t.config.rx_credits with None -> -1 | Some c -> c in
  let pairs = ref [] in
  for id = 0 to n - 1 do
    let x = id mod w and y = id / w in
    List.iter
      (fun (nx, ny) ->
        if nx >= 0 && nx < w && ny >= 0 then begin
          let b = nx + (ny * w) in
          if b < n then pairs := (id, b) :: !pairs
        end)
      [ (x - 1, y); (x + 1, y); (x, y - 1); (x, y + 1) ]
  done;
  t.fl_links <-
    Array.of_list
      (List.mapi
         (fun i (a, b) ->
           let fs =
             {
               fs_index = i;
               fs_bufs = Array.init t.config.vc_count (fl_fresh_buf cap);
               fs_units = [||];
               fs_offer = [||];
               fs_ready = [||];
               fs_vc_ready = Array.make t.config.vc_count false;
               fs_visited = -1;
               fs_wire_free = 0;
               fs_vc_rr = 0;
               fs_flits = 0;
               fs_stall_cycles = 0;
               fs_hol_cycles = 0;
             }
           in
           let l = fresh_link t a b ~flit:(Some fs) in
           t.links.((a * 4) + dir_of t a b) <- Some l;
           l)
         (List.sort compare !pairs));
  t.fl_interest <- Array.make (Array.length t.fl_links) 0;
  (* the input units competing for each wire: the source node's
     injection FIFO first, then each incoming link's input-buffer VCs
     in (src, dst, vc) order *)
  Array.iter
    (fun l ->
      let fs = match l.l_flit with Some fs -> fs | None -> assert false in
      let ins =
        Array.to_list t.fl_links
        |> List.filter (fun l' -> l'.l_dst = l.l_src)
        |> List.concat_map (fun l' ->
               match l'.l_flit with
               | Some fs' ->
                   Array.to_list (Array.map (fun b -> F_buf b) fs'.fs_bufs)
               | None -> [])
      in
      fs.fs_units <- Array.of_list (F_inject t.fl_inject.(l.l_src) :: ins);
      fs.fs_offer <- Array.make (Array.length fs.fs_units) 0;
      fs.fs_ready <- Array.make (Array.length fs.fs_units) false)
    t.fl_links

let create ~engine ~nodes ?(config = default_config) () =
  if nodes <= 0 then invalid_arg "Router.create: nodes must be positive";
  if config.vc_count < 1 || config.vc_count > 4 then
    invalid_arg "Router.create: vc_count must be in 1..4";
  (match config.rx_credits with
  | Some n when n < 1 -> invalid_arg "Router.create: rx_credits must be >= 1"
  | Some _ | None -> ());
  if config.flit_words < 1 then
    invalid_arg "Router.create: flit_words must be >= 1";
  (match (config.crossing, config.routing) with
  | `Flit, `Minimal_adaptive ->
      invalid_arg
        "Router.create: the flit crossing model is dimension-order only \
         (adaptive choice is packet-granularity)"
  | (`Flit | `Analytic), _ -> ());
  let width = mesh_width nodes in
  if nodes mod width <> 0 then
    invalid_arg
      (Printf.sprintf
         "Router.create: %d nodes leaves a partial row in the %d-wide mesh \
          (paths would cross phantom nodes); use a count that fills complete \
          rows, e.g. 2, 4, 6, 9, 12, 16, 25, 36, 64"
         nodes width);
  let flit = config.crossing = `Flit && config.link_contention in
  let em = Engine.metrics engine in
  let t =
    {
      engine;
      config;
      node_count = nodes;
      width;
      flit;
      sinks = Array.make nodes None;
      last_arrival = Array.make (nodes * nodes) (-1);
      links = Array.make (nodes * 4) None;
      trace = Trace.create ~enabled:false ();
      packets_routed = 0;
      bytes_routed = 0;
      rx_credits_now = config.rx_credits;
      mutation = None;
      leak_used = false;
      fl_links = [||];
      fl_inject =
        (if flit then Array.init nodes (fun _ -> Queue.create ()) else [||]);
      fl_interest = [||];
      fl_vc_occ = (if flit then Array.make config.vc_count 0 else [||]);
      fl_visits = 0;
      fl_injected = 0;
      fl_delivered = 0;
      fl_next_worm = 0;
      fl_last_tick = -1;
      fl_occ_sum = (if flit then Array.make config.vc_count 0.0 else [||]);
      fl_occ_max = (if flit then Array.make config.vc_count 0 else [||]);
      fl_occ_cycles = 0;
      fm_injected = Metrics.counter em "net.flit.injected";
      fm_delivered = Metrics.counter em "net.flit.delivered";
      fm_grants = Metrics.counter em "net.flit.grants";
      fm_occupancy = Metrics.series em "net.flit.occupancy";
      fm_busy_cycles = Metrics.counter em "net.link.busy_cycles";
      fm_stall_cycles = Metrics.counter em "net.flit.stall_cycles";
      fm_hol_cycles = Metrics.counter em "net.flit.hol_stall_cycles";
      am_xmits = Metrics.counter em "net.link.xmits";
      am_wait_cycles = Metrics.counter em "net.link.wait_cycles";
      am_queued = Metrics.counter em "net.link.queued";
      am_depth = Metrics.series em "net.link.depth";
      am_dead_crossings = Metrics.counter em "net.link.dead_crossings";
      am_adaptive_turns = Metrics.counter em "net.router.adaptive_turns";
      am_vc_grants = Metrics.counter em "net.vc.grants";
      am_vc_grant =
        Array.init config.vc_count (fun i ->
            Metrics.counter em (Printf.sprintf "net.vc.grants.%d" i));
      am_vc_depth = Metrics.series em "net.vc.depth";
      am_credit_nacks = Metrics.counter em "net.credit.nacks";
      am_credit_stalls = Metrics.counter em "net.credit.stalls";
      am_credit_stall_cycles = Metrics.counter em "net.credit.stall_cycles";
    }
  in
  if flit then fl_build_links t;
  t

let nodes t = t.node_count
let width t = t.width
let rx_credits t = t.rx_credits_now

let set_mutation t m =
  t.mutation <- m;
  t.leak_used <- false

let check_node t id what =
  if id < 0 || id >= t.node_count then
    invalid_arg (Printf.sprintf "Router.%s: node %d out of range" what id)

let coords t id =
  check_node t id "coords";
  (id mod t.width, id / t.width)

let node_id t ~x ~y = x + (y * t.width)

let hops t ~src ~dst =
  let sx, sy = coords t src and dx, dy = coords t dst in
  abs (sx - dx) + abs (sy - dy)

(* The dimension-order path as directed (from, to) node pairs: walk x
   to the destination column, then y to the destination row. *)
let path t ~src ~dst =
  let sx, sy = coords t src and dx, dy = coords t dst in
  let step v goal = if v < goal then v + 1 else v - 1 in
  let rec go x y acc =
    if x <> dx then
      let x' = step x dx in
      go x' y ((node_id t ~x ~y, node_id t ~x:x' ~y) :: acc)
    else if y <> dy then
      let y' = step y dy in
      go x y' ((node_id t ~x ~y, node_id t ~x ~y:y') :: acc)
    else List.rev acc
  in
  go sx sy []

(* Node [a]'s outgoing link in direction [d], created on first touch:
   [link_stats] lists exactly the links some send, probe or fault
   setting has touched. *)
let link_at t a d =
  let i = (a * 4) + d in
  match t.links.(i) with
  | Some l -> l
  | None ->
      let l = fresh_link t a (neighbour t a d) ~flit:None in
      t.links.(i) <- Some l;
      l

let link_of t a b = link_at t a (dir_of t a b)

let iter_links t f =
  Array.iter (function Some l -> f l | None -> ()) t.links

(* Resize the deposit FIFOs under load. Growing adds slots free at
   [now]; shrinking revokes the most-available slots first (largest
   remaining reservation times survive, so in-use buffers are never
   yanked from under a packet). The counter side moves [capacity] and
   [free] by the same delta, so the N1 conservation sum is preserved
   even with reservation/start/release events still queued — [cp_free]
   can go transiently negative on a shrink while revoked buffers drain,
   which models the receiver waiting for occupied slots to empty. *)
let set_rx_credits t credits =
  (match credits with
  | Some n when n < 1 -> invalid_arg "Router.set_rx_credits: credits must be >= 1"
  | Some _ | None -> ());
  t.rx_credits_now <- credits;
  let now = Engine.now t.engine in
  iter_links t (fun l ->
      match credits with
      | None -> l.l_pools <- [||]
      | Some n ->
          if Array.length l.l_pools = 0 then
            l.l_pools <-
              Array.init (Array.length l.l_vcs) (fun _ -> fresh_pool ~now n)
          else
            Array.iter
              (fun p ->
                let old = p.cp_capacity in
                if n <> old then begin
                  let slots = Array.copy p.cp_slots in
                  Array.sort (fun a b -> compare b a) slots;
                  p.cp_slots <-
                    (if n > old then
                       Array.append slots (Array.make (n - old) now)
                     else Array.sub slots 0 n);
                  p.cp_capacity <- n;
                  p.cp_free <- p.cp_free + (n - old)
                end)
              l.l_pools)

let set_link_fault t ~from_node ~to_node fault =
  check_node t from_node "set_link_fault";
  check_node t to_node "set_link_fault";
  if hops t ~src:from_node ~dst:to_node <> 1 then
    invalid_arg
      (Printf.sprintf "Router.set_link_fault: %d-%d is not a mesh link"
         from_node to_node);
  (match fault with
  | Link_slow k when k < 1 ->
      invalid_arg "Router.set_link_fault: slow factor must be >= 1"
  | Link_ok | Link_slow _ | Link_dead -> ());
  (link_of t from_node to_node).l_fault <- fault

let link_fault t ~from_node ~to_node =
  check_node t from_node "link_fault";
  check_node t to_node "link_fault";
  if hops t ~src:from_node ~dst:to_node <> 1 then Link_ok
  else
    match t.links.((from_node * 4) + dir_of t from_node to_node) with
    | Some l -> l.l_fault
    | None -> Link_ok

let occupancy_factor = function
  | Link_ok -> 1
  | Link_slow k -> k
  | Link_dead -> dead_crossing_factor

let dead_rank l =
  match l.l_fault with Link_dead -> 1 | Link_ok | Link_slow _ -> 0

(* The direction of one productive step from node [a] at (x, y) toward
   (dx, dy). Dimension-order always exhausts X first; minimal-adaptive
   picks, among the (at most two) productive links, a live one over a
   dead one and then the one with the smaller [busy_until], taking the
   X link on ties so an idle mesh reproduces the dimension-order path
   exactly. Its cost probes create both candidate links. *)
let next_dir t a ~x ~y ~dx ~dy =
  let xd = if x < dx then dir_x_up else dir_x_down in
  let yd = if y < dy then dir_y_up else dir_y_down in
  if x = dx then
    if y = dy then invalid_arg "Router.next_dir: already at destination"
    else yd
  else if y = dy then xd
  else
    match t.config.routing with
    | `Dimension_order -> xd
    | `Minimal_adaptive ->
        let lx = link_at t a xd and ly = link_at t a yd in
        let rx = dead_rank lx and ry = dead_rank ly in
        if ry < rx || (ry = rx && ly.busy_until < lx.busy_until) then yd
        else xd

(* The links the configured policy would pick right now, against the
   current link state, without claiming anything. Under
   [`Dimension_order] this equals [path]. *)
let route t ~src ~dst =
  check_node t src "route";
  let dx, dy = coords t dst in
  let rec go a acc =
    if a = dst then List.rev acc
    else
      let b =
        neighbour t a
          (next_dir t a ~x:(a mod t.width) ~y:(a / t.width) ~dx ~dy)
      in
      go b ((a, b) :: acc)
  in
  go src []

let register t ~node_id sink =
  check_node t node_id "register";
  t.sinks.(node_id) <- Some sink

let latency_cycles t ~src ~dst ~bytes =
  let words = (bytes + 3) / 4 in
  t.config.base_cycles
  + (hops t ~src ~dst * t.config.per_hop_cycles)
  + (words * t.config.per_word_cycles)

(* Assign the claim to a virtual channel: round-robin among the ready
   VCs (tail already clear of the wire when this head arrives); when
   none is ready, the one that drains first. The [Arb_stuck] mutation
   is the deliberate bug the N2 oracle must catch: it pins every grant
   to VC 0, so a ready VC's skip streak grows past [vc_count]. *)
let claim_vc t l ~head =
  let vcs = l.l_vcs in
  let vcn = Array.length vcs in
  if vcn = 1 then 0
  else begin
    let ready = l.l_ready in
    for i = 0 to vcn - 1 do
      ready.(i) <- vcs.(i).v_tail <= head
    done;
    let c =
      match t.mutation with
      | Some Arb_stuck -> 0
      | Some (Credit_leak | Flit_leak | Double_grant) | None ->
          let v = arbitrate_index ~rr:l.l_rr ~ready in
          if v >= 0 then v
          else begin
            let best = ref 0 in
            for i = 1 to vcn - 1 do
              if vcs.(i).v_tail < vcs.(!best).v_tail then best := i
            done;
            !best
          end
    in
    for i = 0 to vcn - 1 do
      let v = vcs.(i) in
      if i = c then v.v_skip_streak <- 0
      else if ready.(i) then begin
        v.v_skip_streak <- v.v_skip_streak + 1;
        if v.v_skip_streak > v.v_max_skip then v.v_max_skip <- v.v_skip_streak
      end
      else v.v_skip_streak <- 0
    done;
    l.l_rr <- (c + 1) mod vcn;
    c
  end

(* Earliest [start >= earliest] such that [start, start + len) misses
   every reserved interval ([busy] disjoint, sorted by start). *)
let rec fit_gap busy earliest len =
  match busy with
  | [] -> earliest
  | (s, e) :: rest ->
      if earliest + len <= s then earliest
      else if earliest >= e then fit_gap rest earliest len
      else fit_gap rest e len

let rec insert_iv busy s e =
  match busy with
  | [] -> [ (s, e) ]
  | ((s0, _) as iv) :: rest ->
      if s < s0 then (s, e) :: busy else iv :: insert_iv rest s e

let rec prune_iv now busy =
  match busy with
  | (_, e) :: rest when e <= now -> prune_iv now rest
  | _ -> busy

(* Wormhole walk toward the destination: the header claims each link as
   soon as the wire is free, each claim holds the link for the packet's
   full wire occupancy, and the tail crosses the final wire after the
   header ejects. With idle, healthy links this telescopes to exactly
   the closed-form [base + hops·per_hop + words·per_word]. The link
   choice happens here, hop by hop, so minimal-adaptive sees the busy
   state left by every earlier claim — including this packet's own.

   With [vc_count = 1] and unlimited credits the claim below reduces
   exactly to the single-FIFO model (start = max head busy_until, one
   scheduled depth decrement per hop): VC 0's tail equals [busy_until]
   and the credit floor equals the head's arrival, so timing, metrics
   and the event schedule are identical — the property the E1/E2/E11/
   E12 anchors pin down. *)
let contended_arrival t ~now ~src ~dst ~words =
  let occ = words * t.config.per_word_cycles in
  let head = ref (now + t.config.base_cycles) in
  (* the packet's own tail cannot clear a link faster than that link's
     (fault-scaled) occupancy; on healthy links this is always beaten
     by the head+occ term below, so it only matters on slow/dead links *)
  let tail = ref 0 in
  let w = t.width in
  let dx = dst mod w and dy = dst / w in
  let a = ref src in
  while !a <> dst do
    let x = !a mod w and y = !a / w in
    let d = next_dir t !a ~x ~y ~dx ~dy in
    if x <> dx && y <> dy && (d = dir_y_up || d = dir_y_down) then
      (* adaptive took the Y link although X was productive too *)
      Metrics.bump t.am_adaptive_turns;
    let l = link_at t !a d in
    let locc = occ * occupancy_factor l.l_fault in
    (match l.l_fault with
    | Link_dead -> Metrics.bump t.am_dead_crossings
    | Link_ok | Link_slow _ -> ());
    let vcn = Array.length l.l_vcs in
    let ci = claim_vc t l ~head:!head in
    let v = l.l_vcs.(ci) in
    (* deposit-side credit for the receive FIFO behind this link: take
       the slot that frees soonest; on a dead link the grant is pushed
       to the next NACK'd retry poll *)
    let pooled = Array.length l.l_pools > 0 in
    let si = ref 0 and slot_free = ref 0 in
    if pooled then begin
      let slots = l.l_pools.(ci).cp_slots in
      for i = 1 to Array.length slots - 1 do
        if slots.(i) < slots.(!si) then si := i
      done;
      slot_free := slots.(!si)
    end;
    let credit_floor =
      if (not pooled) || !slot_free <= !head then !head
      else
        match l.l_fault with
        | Link_dead ->
            let polls =
              (!slot_free - !head + nack_retry_cycles - 1) / nack_retry_cycles
            in
            Metrics.bump_by t.am_credit_nacks polls;
            !head + (polls * nack_retry_cycles)
        | Link_ok | Link_slow _ -> !slot_free
    in
    let cstall = credit_floor - !head in
    if cstall > 0 then begin
      Metrics.bump t.am_credit_stalls;
      Metrics.bump_by t.am_credit_stall_cycles cstall
    end;
    let earliest = max credit_floor v.v_tail in
    let start =
      if vcn = 1 then max earliest l.busy_until
      else begin
        l.l_busy <- prune_iv now l.l_busy;
        let s = fit_gap l.l_busy earliest locc in
        l.l_busy <- insert_iv l.l_busy s (s + locc);
        s
      end
    in
    let wait = start - !head in
    l.inflight <- l.inflight + 1;
    if l.inflight > l.l_max_depth then l.l_max_depth <- l.inflight;
    if wait > 0 then begin
      l.l_wait_cycles <- l.l_wait_cycles + wait;
      Metrics.bump_by t.am_wait_cycles wait;
      Metrics.bump t.am_queued;
      if Trace.active t.trace then
        Trace.record t.trace ~time:now Event.Ni
          (Event.Link_wait
             { from_node = !a; to_node = l.l_dst; wait; depth = l.inflight })
    end;
    Metrics.record t.am_depth l.inflight;
    if start + locc > l.busy_until then l.busy_until <- start + locc;
    if start + locc > !tail then tail := start + locc;
    l.l_xmits <- l.l_xmits + 1;
    l.l_busy_cycles <- l.l_busy_cycles + locc;
    Metrics.bump t.am_xmits;
    Metrics.bump_by t.fm_busy_cycles locc;
    v.v_tail <- start + locc;
    v.v_inflight <- v.v_inflight + 1;
    if v.v_inflight > v.v_max_depth then v.v_max_depth <- v.v_inflight;
    if vcn > 1 then begin
      v.v_grants <- v.v_grants + 1;
      Metrics.bump t.am_vc_grants;
      Metrics.bump t.am_vc_grant.(ci);
      Metrics.record t.am_vc_depth v.v_inflight
    end;
    if pooled then begin
      let p = l.l_pools.(ci) in
      let rel = start + locc + t.config.per_hop_cycles in
      let leak =
        match t.mutation with
        | Some Credit_leak -> not t.leak_used
        | Some (Arb_stuck | Flit_leak | Double_grant) | None -> false
      in
      if leak then t.leak_used <- true;
      (* a leaked slot never frees: the deposit side forgets to
         return the credit, which is exactly what N1 must catch *)
      p.cp_slots.(!si) <- (if leak then max_int / 2 else rel);
      let reserve_at = max now !slot_free in
      Engine.schedule_at t.engine ~time:reserve_at (fun _ ->
          p.cp_free <- p.cp_free - 1;
          p.cp_held <- p.cp_held + 1);
      Engine.schedule_at t.engine ~time:start (fun _ ->
          p.cp_held <- p.cp_held - 1;
          p.cp_inflight <- p.cp_inflight + 1);
      Engine.schedule_at t.engine ~time:rel (fun _ ->
          p.cp_inflight <- p.cp_inflight - 1;
          if not leak then p.cp_free <- p.cp_free + 1)
    end;
    Engine.schedule_at t.engine ~time:(start + locc) (fun _ ->
        l.inflight <- l.inflight - 1;
        v.v_inflight <- v.v_inflight - 1);
    head := start + t.config.per_hop_cycles;
    a := l.l_dst
  done;
  max (!head + occ) !tail

(* Earliest cycle the first-hop link toward [dst] has a deposit slot
   free on some VC — the injection gate a source consults before
   handing a packet to the NI. Only the first hop is checked (the
   source cannot see deeper credit state); later hops' credit waits
   still surface inside the walk as [net.credit.stalls]. *)
let injection_ready t ~src ~dst =
  let now = Engine.now t.engine in
  if (not t.config.link_contention)
     || src = dst
     || t.rx_credits_now = None
     || t.config.crossing = `Flit
        (* flit-mode backpressure lives inside the network: the source
           FIFO accepts the worm and its head stalls on credits there *)
  then now
  else begin
    check_node t src "injection_ready";
    check_node t dst "injection_ready";
    let w = t.width in
    let l =
      link_at t src
        (next_dir t src ~x:(src mod w) ~y:(src / w) ~dx:(dst mod w)
           ~dy:(dst / w))
    in
    if Array.length l.l_pools = 0 then now
    else begin
      let best = ref max_int in
      Array.iter
        (fun p ->
          Array.iter (fun ft -> if ft < !best then best := ft) p.cp_slots)
        l.l_pools;
      max now !best
    end
  end

(* ---- The flit clock ----

   One engine event per active flit-cycle. Each tick first ejects (at
   most one flit per link), then arbitrates every wire (at most one
   flit crosses per link per flit-cycle), in the fixed [fl_links]
   order — fully deterministic. When a tick makes no progress the
   clock skips ahead to the next flit-ready or wire-free time instead
   of spinning, and goes quiescent when neither exists (empty network,
   or a worm wedged by a planted mutation — which is why the F1 oracle
   and not a hang is how a leak surfaces).

   Both passes visit only the links with work. [fl_interest] counts,
   per link, the FIFO fronts that target it: a front targets its next
   hop, or — once it sits at its destination waiting to eject — the
   link that holds it. Only fronts can eject or be granted, so a link
   with a zero count does nothing in either pass and is skipped. The
   scan reads the counts live, in [fl_links] order, so a pop on one
   link that hands work to a later link is seen in the same tick, as
   a scan of every link would see it. *)

let fl_flit_cycle t fault =
  t.config.per_word_cycles * t.config.flit_words * occupancy_factor fault

let fl_side l = match l.l_flit with Some fs -> fs | None -> assert false

(* The link a FIFO-front flit targets (see above). *)
let fl_target f =
  let p = f.f_worm.w_path in
  if f.f_hop < Array.length p then p.(f.f_hop) else p.(f.f_hop - 1)

let fl_note t f delta =
  let i = fl_target f in
  t.fl_interest.(i) <- t.fl_interest.(i) + delta

(* Every [Queue.add] and [Queue.pop] on a flit FIFO goes through these
   two, which keep [fl_interest] exact: a push onto an empty FIFO makes
   a new front, a pop retires one and exposes the next. A front's
   target never changes while it is the front ([f_hop] only moves
   between a pop and the next push). *)
let fl_push t q f =
  if Queue.is_empty q then fl_note t f 1;
  Queue.add f q

let fl_take t q =
  let f = Queue.pop q in
  fl_note t f (-1);
  if not (Queue.is_empty q) then fl_note t (Queue.peek q) 1;
  f

(* A flit enters input FIFO [fb]; the VC's network-wide occupancy moves
   with the FIFO's. *)
let fl_buf_push t fb f =
  fl_push t fb.fb_q f;
  fb.fb_occ <- fb.fb_occ + 1;
  t.fl_vc_occ.(fb.fb_vc) <- t.fl_vc_occ.(fb.fb_vc) + 1

(* A flit leaves [fb] (forwarded or ejected), returning its credit
   upstream; a tail releases the VC. *)
let fl_buf_take t fb =
  let f = fl_take t fb.fb_q in
  fb.fb_occ <- fb.fb_occ - 1;
  t.fl_vc_occ.(fb.fb_vc) <- t.fl_vc_occ.(fb.fb_vc) - 1;
  if fb.fb_credits >= 0 then fb.fb_credits <- fb.fb_credits + 1;
  if f.f_idx = f.f_worm.w_flits - 1 then fb.fb_owner <- -1;
  f

let fl_unit_queue = function F_inject q -> q | F_buf ub -> ub.fb_q

(* Pop a granted flit out of its input unit. *)
let fl_pop t u =
  match u with
  | F_inject q -> ignore (fl_take t q)
  | F_buf ub -> ignore (fl_buf_take t ub)

let fl_visit t fs now =
  if fs.fs_visited <> now then begin
    fs.fs_visited <- now;
    t.fl_visits <- t.fl_visits + 1
  end

(* The in-order clamp: the pair's arrival no earlier than [nominal] and
   strictly after its previous one. *)
let clamp_arrival t ~src ~dst nominal =
  let i = (src * t.node_count) + dst in
  let arrival = max nominal (t.last_arrival.(i) + 1) in
  t.last_arrival.(i) <- arrival;
  arrival

(* Worm completion: the tail flit ejected. Same in-order clamp as the
   analytic path: the pair's arrival is pushed after its previous one
   (body flits of one pair never interleave on the fixed path, but the
   clamp keeps the delivery contract uniform across crossings). *)
let fl_deliver t w now =
  let pkt = w.w_pkt in
  let arrival =
    clamp_arrival t ~src:pkt.Packet.src_node ~dst:pkt.Packet.dst_node now
  in
  match t.sinks.(pkt.Packet.dst_node) with
  | Some sink -> Engine.schedule_at t.engine ~time:arrival (fun _ -> sink pkt)
  | None -> ()

(* Eject the first arrived, ready flit among the link's VC FIFOs;
   [true] iff one left the network. *)
let fl_eject t fs now =
  let bufs = fs.fs_bufs in
  let ejected = ref false and v = ref 0 in
  while (not !ejected) && !v < Array.length bufs do
    let fb = bufs.(!v) in
    if not (Queue.is_empty fb.fb_q) then begin
      let f = Queue.peek fb.fb_q in
      if f.f_hop = Array.length f.f_worm.w_path && f.f_ready <= now then begin
        ignore (fl_buf_take t fb);
        if f.f_idx = f.f_worm.w_flits - 1 then fl_deliver t f.f_worm now;
        t.fl_delivered <- t.fl_delivered + 1;
        Metrics.bump t.fm_delivered;
        ejected := true
      end
    end;
    incr v
  done;
  !ejected

(* What a unit offers wire [fs] right now: the VC its front flit would
   ride ([>= 0]); [fl_blocked] when the front is ready and routed over
   this wire but cannot get a VC/credit; [fl_idle] when the unit is
   empty or its front is not ready or routed elsewhere. A head flit
   asks the per-wire VC allocator (round-robin over the free, credited
   VCs — the same [arbitrate] discipline as the packet path); body and
   tail flits must follow the head's VC and only need a credit there. *)
let fl_idle = -1
let fl_blocked = -2

let fl_offer fs now u =
  let q = fl_unit_queue u in
  if Queue.is_empty q then fl_idle
  else
    let f = Queue.peek q in
    let w = f.f_worm in
    if
      f.f_ready > now
      || f.f_hop >= Array.length w.w_path
      || w.w_path.(f.f_hop) <> fs.fs_index
    then fl_idle
    else if f.f_idx = 0 then begin
      let bufs = fs.fs_bufs and ready = fs.fs_vc_ready in
      for v = 0 to Array.length bufs - 1 do
        ready.(v) <- bufs.(v).fb_owner = -1 && bufs.(v).fb_credits <> 0
      done;
      let vc = arbitrate_index ~rr:fs.fs_vc_rr ~ready in
      if vc < 0 then fl_blocked else vc
    end
    else
      let vc = w.w_vcs.(f.f_hop) in
      if vc >= 0
         && fs.fs_bufs.(vc).fb_owner = w.w_id
         && fs.fs_bufs.(vc).fb_credits <> 0
      then vc
      else fl_blocked

(* Move one granted flit across the wire into [fb] (VC [vc]). *)
let fl_advance t fb vc f now =
  if f.f_idx = 0 then begin
    f.f_worm.w_vcs.(f.f_hop) <- vc;
    fb.fb_owner <- f.f_worm.w_id
  end;
  if fb.fb_credits > 0 then fb.fb_credits <- fb.fb_credits - 1;
  f.f_hop <- f.f_hop + 1;
  f.f_ready <- now + t.config.per_hop_cycles;
  fl_buf_push t fb f;
  if fb.fb_occ > fb.fb_max_occ then fb.fb_max_occ <- fb.fb_occ;
  fb.fb_grants <- fb.fb_grants + 1;
  Metrics.bump t.fm_grants;
  Metrics.record t.fm_occupancy fb.fb_occ

(* Arbitrate wire [l]; [true] iff a flit crossed it. *)
let fl_arbitrate_link t l fs now =
  let em = Engine.metrics t.engine in
  let units = fs.fs_units in
  let waiting = ref false and blocked = ref false in
  for ui = 0 to Array.length units - 1 do
    let o = fl_offer fs now units.(ui) in
    fs.fs_offer.(ui) <- o;
    fs.fs_ready.(ui) <- o >= 0;
    if o >= 0 then waiting := true else if o = fl_blocked then blocked := true
  done;
  let wire_free = now >= fs.fs_wire_free in
  if !waiting && wire_free then begin
    let ui = arbitrate_index ~rr:l.l_rr ~ready:fs.fs_ready in
    l.l_rr <- (ui + 1) mod Array.length units;
    let u = units.(ui) and vc = fs.fs_offer.(ui) in
    let f = Queue.peek (fl_unit_queue u) in
    let fb = fs.fs_bufs.(vc) in
    if f.f_idx = 0 then begin
      fs.fs_vc_rr <- (vc + 1) mod Array.length fs.fs_bufs;
      (* the head claims the whole packet's crossing of this wire for
         link-level stats *)
      l.l_xmits <- l.l_xmits + 1
    end;
    fl_pop t u;
    let occ = fl_flit_cycle t l.l_fault in
    fs.fs_wire_free <- now + occ;
    fs.fs_flits <- fs.fs_flits + 1;
    l.l_busy_cycles <- l.l_busy_cycles + occ;
    Metrics.bump_by t.fm_busy_cycles occ;
    let dead =
      match l.l_fault with Link_dead -> true | Link_ok | Link_slow _ -> false
    in
    if dead then begin
      Metrics.incr em "net.flit.dead_retries";
      Metrics.incr em "net.link.dead_crossings"
    end;
    (* F1 planted bug: on a dead-link retry the flit is popped from the
       sender but the retransmit never lands — it vanishes from the
       network, which only the conservation oracle can notice *)
    let leak =
      dead
      && (match t.mutation with
         | Some Flit_leak -> true
         | Some (Credit_leak | Arb_stuck | Double_grant) | None -> false)
      && not t.leak_used
    in
    if leak then begin
      t.leak_used <- true;
      Metrics.incr em "net.flit.leaked"
    end
    else begin
      fl_advance t fb vc f now;
      (* F2 planted bug: the arbiter grants a second flit of the same
         worm in the same flit-cycle without spending a second credit —
         the input FIFO overruns and credits + occupancy leaves
         capacity *)
      match t.mutation with
      | Some Double_grant
        when (not t.leak_used)
             && fb.fb_credits >= 0
             && f.f_idx < f.f_worm.w_flits - 1 ->
          let q = fl_unit_queue u in
          if not (Queue.is_empty q) then begin
            let f2 = Queue.peek q in
            if f2.f_worm == f.f_worm && f2.f_ready <= now then begin
              t.leak_used <- true;
              fl_pop t u;
              f2.f_hop <- f2.f_hop + 1;
              f2.f_ready <- now + t.config.per_hop_cycles;
              fl_buf_push t fb f2;
              Metrics.incr em "net.flit.double_grants"
            end
          end
      | Some (Double_grant | Credit_leak | Arb_stuck | Flit_leak) | None -> ()
    end;
    true
  end
  else begin
    (* a unit whose flit is ready but credit/VC-blocked also counts as
       a waiter for stall accounting *)
    if !waiting || !blocked then begin
      fs.fs_stall_cycles <- fs.fs_stall_cycles + 1;
      l.l_wait_cycles <- l.l_wait_cycles + 1;
      Metrics.bump t.fm_stall_cycles;
      if wire_free then begin
        (* the wire is idle yet no flit may cross: head-of-line /
           credit blocking, the quantity E18 measures *)
        fs.fs_hol_cycles <- fs.fs_hol_cycles + 1;
        Metrics.bump t.fm_hol_cycles
      end
    end;
    false
  end

(* Earliest future cycle at which anything could change: the next
   front-flit ready time or wire-free time of any link, idle links
   included, since a tick at that cycle samples occupancy and counts
   stalls everywhere; -1 when the network is empty or frozen. *)
let fl_front_ready q =
  if Queue.is_empty q then -1 else (Queue.peek q).f_ready

let fl_next_time t now =
  let best = ref max_int and any = ref false in
  for s = 0 to Array.length t.fl_inject - 1 do
    let r = fl_front_ready t.fl_inject.(s) in
    if r > now && r < !best then best := r
  done;
  for i = 0 to Array.length t.fl_links - 1 do
    (* every front targets exactly one link *)
    if t.fl_interest.(i) > 0 then any := true;
    let fs = fl_side t.fl_links.(i) in
    for v = 0 to Array.length fs.fs_bufs - 1 do
      let r = fl_front_ready fs.fs_bufs.(v).fb_q in
      if r > now && r < !best then best := r
    done;
    if fs.fs_wire_free > now && fs.fs_wire_free < !best then
      best := fs.fs_wire_free
  done;
  if (not !any) || !best = max_int then -1 else !best

let fl_sample t =
  let vcn = Array.length t.fl_occ_sum in
  if vcn > 0 then begin
    t.fl_occ_cycles <- t.fl_occ_cycles + 1;
    for v = 0 to vcn - 1 do
      let occ = t.fl_vc_occ.(v) in
      t.fl_occ_sum.(v) <- t.fl_occ_sum.(v) +. float_of_int occ;
      if occ > t.fl_occ_max.(v) then t.fl_occ_max.(v) <- occ
    done
  end

let rec fl_tick t _ =
  let now = Engine.now t.engine in
  if now > t.fl_last_tick then begin
    t.fl_last_tick <- now;
    let links = t.fl_links and interest = t.fl_interest in
    let progress = ref false in
    for i = 0 to Array.length links - 1 do
      if interest.(i) > 0 then begin
        let fs = fl_side links.(i) in
        fl_visit t fs now;
        if fl_eject t fs now then progress := true
      end
    done;
    for i = 0 to Array.length links - 1 do
      if interest.(i) > 0 then begin
        let l = links.(i) in
        let fs = fl_side l in
        fl_visit t fs now;
        if fl_arbitrate_link t l fs now then progress := true
      end
    done;
    fl_sample t;
    let next = if !progress then now + 1 else fl_next_time t now in
    if next >= 0 then Engine.schedule_at t.engine ~time:next (fl_tick t)
  end

(* Decompose a packet into a worm and enqueue its flits on the source
   node's injection FIFO (worms of one source serialize there, like
   the NI's outgoing FIFO). *)
let fl_send t pkt =
  let now = Engine.now t.engine in
  let src = pkt.Packet.src_node and dst = pkt.Packet.dst_node in
  let words = (Packet.size_bytes pkt + 3) / 4 in
  let nf = max 1 ((words + t.config.flit_words - 1) / t.config.flit_words) in
  let p =
    Array.of_list
      (List.map
         (fun (a, b) -> (fl_side (link_of t a b)).fs_index)
         (path t ~src ~dst))
  in
  let w =
    { w_id = t.fl_next_worm; w_pkt = pkt; w_flits = nf; w_path = p;
      w_vcs = Array.make (Array.length p) (-1) }
  in
  t.fl_next_worm <- t.fl_next_worm + 1;
  let ready = now + t.config.base_cycles in
  for i = 0 to nf - 1 do
    fl_push t t.fl_inject.(src)
      { f_worm = w; f_idx = i; f_hop = 0; f_ready = ready }
  done;
  t.fl_injected <- t.fl_injected + nf;
  Metrics.bump_by t.fm_injected nf;
  Engine.schedule_at t.engine ~time:ready (fl_tick t)

let send t pkt =
  check_node t pkt.Packet.src_node "send";
  check_node t pkt.Packet.dst_node "send";
  match t.sinks.(pkt.Packet.dst_node) with
  | None ->
      invalid_arg
        (Printf.sprintf "Router.send: node %d has no sink" pkt.Packet.dst_node)
  | Some sink ->
      let bytes = Packet.size_bytes pkt in
      let src = pkt.Packet.src_node and dst = pkt.Packet.dst_node in
      t.packets_routed <- t.packets_routed + 1;
      t.bytes_routed <- t.bytes_routed + bytes;
      if t.flit && src <> dst then fl_send t pkt
      else begin
        let now = Engine.now t.engine in
        let nominal =
          if t.config.link_contention then
            contended_arrival t ~now ~src ~dst ~words:((bytes + 3) / 4)
          else now + latency_cycles t ~src ~dst ~bytes
        in
        let arrival = clamp_arrival t ~src ~dst nominal in
        Engine.schedule t.engine ~delay:(arrival - now) (fun _ -> sink pkt)
      end

let sorted_links t =
  Array.fold_right
    (fun o acc -> match o with Some l -> l :: acc | None -> acc)
    t.links []

let link_stats t =
  List.map
    (fun l ->
      {
        from_node = l.l_src;
        to_node = l.l_dst;
        xmits = l.l_xmits;
        busy_cycles = l.l_busy_cycles;
        wait_cycles = l.l_wait_cycles;
        max_depth = l.l_max_depth;
      })
    (sorted_links t)

let vc_stats t =
  List.concat_map
    (fun l ->
      Array.to_list
        (Array.mapi
           (fun i v ->
             {
               vc_from = l.l_src;
               vc_to = l.l_dst;
               vc_index = i;
               vc_grants = v.v_grants;
               vc_max_depth = v.v_max_depth;
               vc_max_skip = v.v_max_skip;
             })
           l.l_vcs))
    (sorted_links t)

let credit_stats t =
  List.concat_map
    (fun l ->
      Array.to_list
        (Array.mapi
           (fun i p ->
             {
               cr_from = l.l_src;
               cr_to = l.l_dst;
               cr_vc = i;
               cr_capacity = p.cp_capacity;
               cr_held = p.cp_held;
               cr_inflight = p.cp_inflight;
               cr_free = p.cp_free;
             })
           l.l_pools))
    (sorted_links t)

(* N1: credit conservation. Every scheduled token transition moves a
   unit between exactly two of {free, held, inflight}, and a resize
   moves [capacity] and [free] together, so the sum can only drift if
   a return was dropped (the Credit_leak mutation). [cp_free] is
   allowed to be negative transiently after a shrink (revoked buffers
   still draining); the sum is the invariant. *)
let check_credits t =
  let bad = ref None in
  List.iter
    (fun l ->
      Array.iteri
        (fun vi p ->
          if
            !bad = None
            && (p.cp_held + p.cp_inflight + p.cp_free <> p.cp_capacity
               || p.cp_inflight < 0)
          then
            bad :=
              Some
                (Printf.sprintf
                   "link %d-%d vc %d: held %d + inflight %d + free %d <> \
                    capacity %d"
                   l.l_src l.l_dst vi p.cp_held p.cp_inflight p.cp_free
                   p.cp_capacity))
        l.l_pools)
    (sorted_links t);
  !bad

(* N2: arbitration fairness. Correct round-robin bounds a continuously
   ready VC's skip streak to vc_count - 1 (see [arbitrate]); a streak
   reaching vc_count means some VC is being starved (the Arb_stuck
   mutation pins grants to VC 0). *)
let check_arbitration t =
  let bad = ref None in
  List.iter
    (fun l ->
      let vcn = Array.length l.l_vcs in
      if vcn > 1 then
        Array.iteri
          (fun vi v ->
            if !bad = None && v.v_skip_streak >= vcn then
              bad :=
                Some
                  (Printf.sprintf
                     "link %d-%d vc %d: ready but skipped %d consecutive \
                      arbitration rounds (vc_count %d)"
                     l.l_src l.l_dst vi v.v_skip_streak vcn))
          l.l_vcs)
    (sorted_links t);
  !bad

let flit_stats t =
  List.concat_map
    (fun l ->
      match l.l_flit with
      | None -> []
      | Some fs ->
          Array.to_list
            (Array.mapi
               (fun i fb ->
                 {
                   fl_from = l.l_src;
                   fl_to = l.l_dst;
                   fl_vc = i;
                   fl_capacity = fb.fb_capacity;
                   fl_occ = fb.fb_occ;
                   fl_credits = fb.fb_credits;
                   fl_max_occ = fb.fb_max_occ;
                   fl_grants = fb.fb_grants;
                   fl_stall_cycles = fs.fs_stall_cycles;
                   fl_hol_cycles = fs.fs_hol_cycles;
                 })
               fs.fs_bufs))
    (Array.to_list t.fl_links)

let flit_counts t =
  let buffered = ref 0 in
  Array.iter (fun q -> buffered := !buffered + Queue.length q) t.fl_inject;
  Array.iter
    (fun l ->
      match l.l_flit with
      | None -> ()
      | Some fs ->
          Array.iter
            (fun fb -> buffered := !buffered + Queue.length fb.fb_q)
            fs.fs_bufs)
    t.fl_links;
  (t.fl_injected, t.fl_delivered, !buffered)

let flit_vc_occupancy t =
  Array.mapi
    (fun v sum ->
      let mean =
        if t.fl_occ_cycles = 0 then 0.0
        else sum /. float_of_int t.fl_occ_cycles
      in
      (mean, t.fl_occ_max.(v)))
    t.fl_occ_sum

(* F1: flit conservation. Every flit ever injected is delivered or
   still sitting in some FIFO, and every finite input FIFO satisfies
   credits + occupancy = capacity with occupancy within capacity. The
   planted [Flit_leak] drops a flit mid-retry (the sum comes up
   short); the planted [Double_grant] pushes two flits against one
   credit (the per-FIFO identity breaks). The clock's own bookkeeping
   is checked against a recount too: each link's interest count must
   equal the FIFO fronts that target it (a missed update would skip a
   link with work, or quiesce early), and each VC's running occupancy
   the sum of its FIFOs'. Holds at every flit-cycle in an unmutated
   router; trivially [None] in analytic mode. *)
let check_flits t =
  if Array.length t.fl_links = 0 then None
  else begin
    let injected, delivered, buffered = flit_counts t in
    if injected <> delivered + buffered then
      Some
        (Printf.sprintf
           "flit conservation: injected %d <> delivered %d + in-network %d"
           injected delivered buffered)
    else begin
      let bad = ref None in
      Array.iter
        (fun l ->
          match l.l_flit with
          | None -> ()
          | Some fs ->
              Array.iteri
                (fun vi fb ->
                  if
                    !bad = None && fb.fb_capacity >= 0
                    && (fb.fb_credits + fb.fb_occ <> fb.fb_capacity
                       || fb.fb_occ > fb.fb_capacity
                       || fb.fb_occ <> Queue.length fb.fb_q)
                  then
                    bad :=
                      Some
                        (Printf.sprintf
                           "link %d-%d vc %d: credits %d + occupancy %d <> \
                            capacity %d"
                           l.l_src l.l_dst vi fb.fb_credits fb.fb_occ
                           fb.fb_capacity))
                fs.fs_bufs)
        t.fl_links;
      if !bad = None then begin
        let fronts = Array.make (Array.length t.fl_links) 0 in
        let count q =
          if not (Queue.is_empty q) then begin
            let i = fl_target (Queue.peek q) in
            fronts.(i) <- fronts.(i) + 1
          end
        in
        Array.iter count t.fl_inject;
        let occ = Array.make (Array.length t.fl_vc_occ) 0 in
        Array.iter
          (fun l ->
            Array.iter
              (fun fb ->
                count fb.fb_q;
                occ.(fb.fb_vc) <- occ.(fb.fb_vc) + fb.fb_occ)
              (fl_side l).fs_bufs)
          t.fl_links;
        Array.iteri
          (fun i l ->
            if !bad = None && fronts.(i) <> t.fl_interest.(i) then
              bad :=
                Some
                  (Printf.sprintf
                     "link %d-%d: interest count %d <> %d FIFO fronts \
                      targeting it"
                     l.l_src l.l_dst t.fl_interest.(i) fronts.(i)))
          t.fl_links;
        Array.iteri
          (fun v n ->
            if !bad = None && n <> t.fl_vc_occ.(v) then
              bad :=
                Some
                  (Printf.sprintf
                     "vc %d: running occupancy %d <> %d buffered flits" v
                     t.fl_vc_occ.(v) n))
          occ
      end;
      !bad
    end
  end

let flit_link_visits t = t.fl_visits

let publish_link_gauges t =
  let em = Engine.metrics t.engine in
  let now = Engine.now t.engine in
  if now > 0 then
    List.iter
      (fun s ->
        Metrics.set_gauge em
          (Printf.sprintf "net.link.util.%d-%d" s.from_node s.to_node)
          (float_of_int s.busy_cycles /. float_of_int now))
      (link_stats t)

let packets_routed t = t.packets_routed
let bytes_routed t = t.bytes_routed
