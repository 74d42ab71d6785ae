module Engine = Udma_sim.Engine
module Trace = Udma_sim.Trace
module Event = Udma_obs.Event
module Metrics = Udma_obs.Metrics
module Layout = Udma_mmu.Layout
module Page_table = Udma_mmu.Page_table
module Pte = Udma_mmu.Pte
module Phys_mem = Udma_memory.Phys_mem
module Bus = Udma_dma.Bus
module Device = Udma_dma.Device
module Udma_engine = Udma.Udma_engine
module M = Udma_os.Machine
module Backend = Udma_protect.Backend

type config = {
  packetize_cycles : int;
  out_fifo_bytes : int;
  in_fifo_bytes : int;
  link_word_cycles : int;
}

let default_config =
  {
    packetize_cycles = 15;
    out_fifo_bytes = 65536;
    in_fifo_bytes = 65536;
    link_word_cycles = 1;
  }

type t = {
  id : int;
  machine : M.t;
  config : config;
  backend : Backend.t;
  out_fifo : Fifo.t;
  in_fifo : Fifo.t;
  mutable router : Router.t option;
  mutable out_busy_until : int;
  mutable in_busy_until : int;
  mutable next_seq : int;
  mutable packets_sent : int;
  mutable bytes_sent : int;
  mutable packets_received : int;
  mutable bytes_received : int;
  mutable send_drops : int;
  mutable receive_drops : int;
  mutable delivery_errors : int;
  (* [ni.*] handles on the machine's registry *)
  m_packets_sent : Metrics.counter;
  m_bytes_sent : Metrics.counter;
  m_send_drops : Metrics.counter;
  m_packets_received : Metrics.counter;
  m_bytes_received : Metrics.counter;
  m_receive_drops : Metrics.counter;
  m_delivery_errors : Metrics.counter;
}

let create ~id ~machine ?(config = default_config) () =
  let counter = Metrics.counter machine.M.metrics in
  {
    id;
    machine;
    config;
    backend =
      Backend.create Backend.Proxy
        ~entries:(Layout.dev_pages machine.M.layout) ();
    out_fifo = Fifo.create ~capacity_bytes:config.out_fifo_bytes;
    in_fifo = Fifo.create ~capacity_bytes:config.in_fifo_bytes;
    router = None;
    out_busy_until = 0;
    in_busy_until = 0;
    next_seq = 0;
    packets_sent = 0;
    bytes_sent = 0;
    packets_received = 0;
    bytes_received = 0;
    send_drops = 0;
    receive_drops = 0;
    delivery_errors = 0;
    m_packets_sent = counter "ni.packets_sent";
    m_bytes_sent = counter "ni.bytes_sent";
    m_send_drops = counter "ni.send_drops";
    m_packets_received = counter "ni.packets_received";
    m_bytes_received = counter "ni.bytes_received";
    m_receive_drops = counter "ni.receive_drops";
    m_delivery_errors = counter "ni.delivery_errors";
  }

let id t = t.id
let backend t = t.backend

let set_router t router = t.router <- Some router

let validate t ~dev_addr ~nbytes =
  let page_size = Layout.page_size t.machine.M.layout in
  Backend.validate_bits t.backend ~dev_addr ~nbytes ~page_size

(* Launch one packet: serialise on the outgoing link, then route. *)
let launch t pkt =
  match t.router with
  | None -> t.send_drops <- t.send_drops + 1
  | Some router ->
      if Fifo.push t.out_fifo pkt then begin
        let engine = t.machine.M.engine in
        let now = Engine.now engine in
        let words = (Packet.size_bytes pkt + 3) / 4 in
        let start = max now t.out_busy_until in
        t.out_busy_until <- start + (words * t.config.link_word_cycles);
        (* Link serialisation is wire time. *)
        Engine.schedule engine ~cat:Engine.Profiler.Wire
          ~delay:(t.out_busy_until - now) (fun _ ->
            match Fifo.pop t.out_fifo with
            | Some pkt ->
                t.packets_sent <- t.packets_sent + 1;
                t.bytes_sent <- t.bytes_sent + Bytes.length pkt.Packet.payload;
                Metrics.bump t.m_packets_sent;
                Metrics.bump_by t.m_bytes_sent
                  (Bytes.length pkt.Packet.payload);
                Router.send router pkt
            | None -> ())
      end
      else begin
        t.send_drops <- t.send_drops + 1;
        Metrics.bump t.m_send_drops
      end

(* The DMA engine hands over a whole transfer's data at once. *)
let dev_write t ~addr data =
  let page_size = Layout.page_size t.machine.M.layout in
  let page = addr / page_size and offset = addr mod page_size in
  match Backend.decode t.backend ~index:page with
  | None ->
      (* validated at initiation; a vanished entry is a kernel bug *)
      t.send_drops <- t.send_drops + 1
  | Some { Backend.dst_node; dst_frame; owner = _ } ->
      let seq = t.next_seq in
      t.next_seq <- seq + 1;
      Trace.record t.machine.M.trace
        ~time:(Engine.now t.machine.M.engine) Event.Ni
        (Event.Packetize { dst_node; nbytes = Bytes.length data });
      launch t
        {
          Packet.src_node = t.id;
          dst_node;
          dst_paddr = (dst_frame * page_size) + offset;
          payload = Bytes.copy data;
          seq;
        }

let send_raw t ~dst_node ~dst_paddr data =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  launch t
    { Packet.src_node = t.id; dst_node; dst_paddr; payload = Bytes.copy data;
      seq }

(* EISA DMA on the receiving node: write payload to physical memory
   and mark the page dirty so the data survives paging (paper §6 I3 —
   here the hardware path, with the receive mapping pinned at import
   time). *)
let deposit t pkt =
  let mem = t.machine.M.mem in
  let paddr = pkt.Packet.dst_paddr in
  let len = Bytes.length pkt.Packet.payload in
  if paddr < 0 || paddr + len > Phys_mem.size mem then begin
    t.delivery_errors <- t.delivery_errors + 1;
    Metrics.bump t.m_delivery_errors
  end
  else begin
    Phys_mem.write_bytes mem ~addr:paddr pkt.Packet.payload;
    t.packets_received <- t.packets_received + 1;
    t.bytes_received <- t.bytes_received + len;
    Metrics.bump t.m_packets_received;
    Metrics.bump_by t.m_bytes_received len;
    let frame = paddr / Layout.page_size t.machine.M.layout in
    match Hashtbl.find_opt t.machine.M.frame_owner frame with
    | Some (pid, vpn) -> (
        match M.find_proc t.machine ~pid with
        | Some proc -> (
            match Page_table.find proc.Udma_os.Proc.page_table vpn with
            | Some pte -> pte.Pte.dirty <- true
            | None -> ())
        | None -> ())
    | None -> ()
  end

let receive t pkt =
  if Fifo.push t.in_fifo pkt then begin
    let engine = t.machine.M.engine in
    let now = Engine.now engine in
    let dma_cycles =
      Bus.dma_burst_cycles t.machine.M.bus ~nbytes:(Packet.size_bytes pkt)
    in
    let start = max now t.in_busy_until in
    t.in_busy_until <- start + dma_cycles;
    (* The receive-side deposit is the NI device writing memory. *)
    Engine.schedule engine ~cat:Engine.Profiler.Device
      ~delay:(t.in_busy_until - now) (fun _ ->
        match Fifo.pop t.in_fifo with
        | Some pkt -> deposit t pkt
        | None -> ())
  end
  else begin
    t.receive_drops <- t.receive_drops + 1;
    Metrics.bump t.m_receive_drops
  end

let port t =
  Device.
    {
      name = Printf.sprintf "shrimp-ni%d" t.id;
      dev_write = (fun ~addr b -> dev_write t ~addr b);
      dev_read =
        (fun ~addr:_ ~len ->
          (* send-only: never called because [readable] is false *)
          Bytes.make len '\000');
      access_cycles = (fun ~addr:_ ~len:_ -> t.config.packetize_cycles);
      writable =
        (fun ~addr ->
          let page_size = Layout.page_size t.machine.M.layout in
          Backend.decode t.backend ~index:(addr / page_size) <> None);
      readable = (fun ~addr:_ -> false);
    }

let attach t =
  match t.machine.M.udma with
  | None -> failwith "Network_interface.attach: machine has no UDMA engine"
  | Some udma ->
      Udma_engine.attach_device udma ~base_page:0
        ~pages:(Layout.dev_pages t.machine.M.layout) ~port:(port t)
        ~validate:(fun ~dev_addr ~nbytes -> validate t ~dev_addr ~nbytes)
        ()

let packets_sent t = t.packets_sent
let bytes_sent t = t.bytes_sent
let packets_received t = t.packets_received
let bytes_received t = t.bytes_received
let send_drops t = t.send_drops
let receive_drops t = t.receive_drops
let delivery_errors t = t.delivery_errors
