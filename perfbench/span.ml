(* In-memory spans around the benchmark's own calls into the simulator.

   Each span records its name, start, end, parent span and the id of
   the operation (iteration) it belongs to. Nothing is written while
   the benchmark measures; [write_chrome] emits the whole set at the end
   as Chrome Trace Event JSON, which Perfetto and chrome://tracing open
   without any extra tooling. *)

module Json = Udma_obs.Json

(* Monotonic host clock, in seconds. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

type span = {
  id : int;
  parent : int;  (* -1 for a root span *)
  op : int;  (* operation (iteration) id; -1 outside any operation *)
  name : string;
  start : float;
  stop : float;
  args : (string * Json.t) list;
}

(* A run keeps at most this many spans, so a long traced run cannot
   grow without bound; later spans are counted as dropped. *)
let max_spans = 20_000

type t = {
  origin : float;
  mutable spans : span list;
  mutable kept : int;
  mutable dropped : int;
  mutable next_id : int;
  mutable stack : int list;
  mutable op : int;
}

let create () =
  {
    origin = now ();
    spans = [];
    kept = 0;
    dropped = 0;
    next_id = 0;
    stack = [];
    op = -1;
  }

let set_op t op = t.op <- op

let push t ~id ~parent name ~start ~stop args =
  if t.kept < max_spans then begin
    t.spans <- { id; parent; op = t.op; name; start; stop; args } :: t.spans;
    t.kept <- t.kept + 1
  end
  else t.dropped <- t.dropped + 1

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let parent t = match t.stack with p :: _ -> p | [] -> -1

(* [wrap tr name f] runs [f], recording a span around it when tracing
   ([tr = Some _]); the untraced path adds nothing but the match. *)
let wrap ?(args = []) tr name f =
  match tr with
  | None -> f ()
  | Some t ->
      let id = fresh_id t in
      let parent = parent t in
      t.stack <- id :: t.stack;
      let start = now () in
      Fun.protect
        ~finally:(fun () ->
          let stop = now () in
          t.stack <- List.tl t.stack;
          push t ~id ~parent name ~start ~stop args)
        f

(* Record a span whose bounds the caller measured itself (for example
   from inside a callback the simulator invokes); its parent is the
   innermost open span. *)
let mark ?(args = []) tr name ~start ~stop =
  match tr with
  | None -> ()
  | Some t -> push t ~id:(fresh_id t) ~parent:(parent t) name ~start ~stop args

(* Spans recorded so far, dropped ones included. *)
let created t = t.next_id

let write_chrome t ~manifest path =
  let us x = Json.Float ((x -. t.origin) *. 1e6) in
  let event s =
    Json.Obj
      [
        ("name", Json.Str s.name);
        ("ph", Json.Str "X");
        ("ts", us s.start);
        ("dur", Json.Float ((s.stop -. s.start) *. 1e6));
        ("pid", Json.Int 1);
        ("tid", Json.Int 1);
        ( "args",
          Json.Obj
            ([
               ("id", Json.Int s.id);
               ("parent", Json.Int s.parent);
               ("op", Json.Int s.op);
             ]
            @ s.args) );
      ]
  in
  let doc =
    Json.Obj
      [
        ("traceEvents", Json.List (List.rev_map event t.spans));
        ("displayTimeUnit", Json.Str "ns");
        ("otherData", manifest);
        ("droppedSpans", Json.Int t.dropped);
      ]
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Json.to_string doc))
