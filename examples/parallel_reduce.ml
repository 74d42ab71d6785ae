(* A small parallel computation on SHRIMP: distributed vector sum.

   Each of four ranks owns a slice of a vector, computes a partial
   sum, sends it to every other rank over a user-level channel (a
   deliberate-update transfer into the receiver's pinned buffer), and
   reduces locally once every partial has arrived. Everything after
   setup runs at user level: no system call ever appears on the
   communication path.

   Run with: dune exec examples/parallel_reduce.exe *)

module Engine = Udma_sim.Engine
module M = Udma_os.Machine
module Scheduler = Udma_os.Scheduler
module Kernel = Udma_os.Kernel
module Cost_model = Udma_os.Cost_model
module System = Udma_shrimp.System
module Messaging = Udma_shrimp.Messaging

let ranks = 4
let slice = 1024 (* ints per rank *)

let () =
  let sys = System.create ~nodes:ranks () in
  let machine r = (System.node sys r).System.machine in
  let procs =
    Array.init ranks (fun r ->
        Scheduler.spawn (machine r) ~name:(Printf.sprintf "rank%d" r))
  in
  let cpus =
    Array.init ranks (fun r -> Kernel.user_cpu (machine r) procs.(r))
  in
  (* one channel per ordered pair; a sender's channels take consecutive
     device-proxy pages *)
  let channels =
    Array.init ranks (fun s ->
        Array.init ranks (fun r ->
            if r = s then None
            else
              Some
                (Messaging.connect sys ~sender:(s, procs.(s))
                   ~receiver:(r, procs.(r))
                   ~first_index:(if r < s then r else r - 1)
                   ~pages:1 ())))
  in
  let channel ~src ~dst = Option.get channels.(src).(dst) in

  (* each rank fills its slice: rank r owns values r*slice .. r*slice+slice-1 *)
  let partial_bufs =
    Array.init ranks (fun r ->
        let buf = Kernel.alloc_buffer (machine r) procs.(r) ~bytes:4096 in
        let local_sum = ref 0 in
        for i = 0 to slice - 1 do
          local_sum := !local_sum + (r * slice) + i
        done;
        let b = Bytes.create 4 in
        Bytes.set_int32_le b 0 (Int32.of_int !local_sum);
        Kernel.write_user (machine r) procs.(r) ~vaddr:buf b;
        Printf.printf "rank %d: partial sum %d\n" r !local_sum;
        buf)
  in

  (* all-gather the 4-byte partials: every rank sends to every other
     rank, then every rank polls until each partial has landed *)
  let t0 = Engine.now (System.engine sys) in
  let seqs =
    Array.init ranks (fun src ->
        Array.init ranks (fun dst ->
            if dst = src then 0
            else
              match
                Messaging.send (channel ~src ~dst) cpus.(src)
                  ~src_vaddr:partial_bufs.(src) ~nbytes:4 ()
              with
              | Ok seq -> seq
              | Error e ->
                  failwith (Format.asprintf "%a" Messaging.pp_send_error e)))
  in
  for dst = 0 to ranks - 1 do
    for src = 0 to ranks - 1 do
      if src <> dst then
        match
          Messaging.recv_wait (channel ~src ~dst) cpus.(dst)
            ~seq:seqs.(src).(dst) ()
        with
        | Ok _ -> ()
        | Error msg -> failwith msg
    done
  done;
  let comm_cycles = Engine.now (System.engine sys) - t0 in

  (* every rank can now reduce locally; verify they all agree *)
  let expect = (ranks * slice * ((ranks * slice) - 1)) / 2 in
  for r = 0 to ranks - 1 do
    let total = ref 0 in
    for from = 0 to ranks - 1 do
      let vaddr =
        if from = r then partial_bufs.(r)
        else Messaging.recv_vaddr (channel ~src:from ~dst:r)
      in
      let v = Kernel.read_user (machine r) procs.(r) ~vaddr ~len:4 in
      total := !total + Int32.to_int (Bytes.get_int32_le v 0)
    done;
    Printf.printf "rank %d: global sum %d (%s)\n" r !total
      (if !total = expect then "correct" else "WRONG");
    assert (!total = expect)
  done;
  let costs = (machine 0).M.costs in
  Printf.printf
    "all-gather across %d nodes (%d messages): %d cycles (%.1f us)\n" ranks
    (ranks * (ranks - 1))
    comm_cycles
    (Cost_model.us_of_cycles costs comm_cycles);
  print_endline "parallel_reduce: OK"
