module Profiler = Udma_obs.Profiler
module Metrics = Udma_obs.Metrics

type t = {
  mutable clock : int;
  mhz : int;
  queue : (event * Profiler.category option) Eventq.t;
  profiler : Profiler.t;
  metrics : Metrics.t;
  scheduled : Metrics.counter;
  fired : Metrics.counter;
}

and event = t -> unit

let create ?(mhz = 120) () =
  if mhz <= 0 then invalid_arg "Engine.create: mhz must be positive";
  let metrics = Metrics.create () in
  {
    clock = 0;
    mhz;
    queue = Eventq.create ();
    profiler = Profiler.create ();
    metrics;
    scheduled = Metrics.counter metrics "engine.scheduled";
    fired = Metrics.counter metrics "engine.events_fired";
  }

let now t = t.clock

let mhz t = t.mhz

let profiler t = t.profiler

let profile t = Profiler.snapshot t.profiler

let metrics t = t.metrics

let ns_of_cycles t c = float_of_int c *. 1000.0 /. float_of_int t.mhz

let us_of_cycles t c = ns_of_cycles t c /. 1000.0

(* Every clock mutation funnels through here, charging the elapsed
   cycles to [cat] (or the profiler's current category). This is what
   makes "category totals sum to Engine.now" hold by construction. *)
let tick t ?cat time =
  if time > t.clock then begin
    Profiler.charge t.profiler ?cat (time - t.clock);
    t.clock <- time
  end

let schedule t ?cat ~delay ev =
  if delay < 0 then invalid_arg "Engine.schedule: negative delay";
  Metrics.bump t.scheduled;
  Eventq.push t.queue ~time:(t.clock + delay) (ev, cat)

let schedule_at t ?cat ~time ev =
  let time = max time t.clock in
  Metrics.bump t.scheduled;
  Eventq.push t.queue ~time (ev, cat)

let with_category t cat f =
  let prev = Profiler.current t.profiler in
  Profiler.set_current t.profiler cat;
  Fun.protect ~finally:(fun () -> Profiler.set_current t.profiler prev) f

(* Fire every event due at or before [horizon], letting fired events
   schedule more work inside the window. The clock tracks each event's
   own timestamp while events run; the gap up to an event is charged to
   the event's category when it carries one (a DMA burst completing
   attributes the burst cycles to Dma, not to whoever was polling). *)
let pump t horizon =
  let rec loop () =
    match Eventq.peek_time t.queue with
    | Some time when time <= horizon -> (
        match Eventq.pop t.queue with
        | Some (time, (ev, cat)) ->
            tick t ?cat time;
            Metrics.bump t.fired;
            ev t;
            loop ()
        | None -> ())
    | Some _ | None -> ()
  in
  loop ()

let run_until t time =
  if time > t.clock then begin
    pump t time;
    tick t time
  end

let advance t cost =
  if cost < 0 then invalid_arg "Engine.advance: negative cost";
  run_until t (t.clock + cost)

let run_until_idle t =
  let rec loop () =
    match Eventq.pop t.queue with
    | Some (time, (ev, cat)) ->
        tick t ?cat time;
        Metrics.bump t.fired;
        ev t;
        loop ()
    | None -> ()
  in
  loop ()

let pending_events t = Eventq.length t.queue

let wait_for t ?(poll_cost = 2) ?(max_polls = 10_000_000) cond =
  let rec loop polls =
    if cond () then polls
    else if polls >= max_polls then
      failwith "Engine.wait_for: poll budget exhausted"
    else if Eventq.is_empty t.queue then
      failwith "Engine.wait_for: condition can never become true (idle)"
    else begin
      (* Jump straight to the next event when polling would only spin
         through empty cycles; the clock ends at the same place as if
         every intermediate poll had been simulated. *)
      let next = Option.value (Eventq.peek_time t.queue) ~default:t.clock in
      if t.clock + poll_cost < next then run_until t next
      else advance t poll_cost;
      loop (polls + 1)
    end
  in
  loop 0
