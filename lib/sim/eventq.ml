(* A binary min-heap stored as structure-of-arrays: entry [i]'s
   ordering fields live unboxed in [time.(i)], [key.(i)] and [seq.(i)],
   its payload in [payload.(i)]. A push or a take moves ints and one
   pointer per heap level and allocates nothing (beyond doubling the
   arrays when they fill up).

   Payloads are stored as [Obj.t] so a vacated slot can hold [hole], an
   immediate that keeps nothing alive: slots at or beyond [size] never
   retain a taken or cleared payload (and, transitively, the event
   closure and everything it captures). The only values ever read back
   out are payloads pushed as ['a], so the [Obj.obj] in [take] is at
   their own type. The array is created from [hole], an immediate, so it
   is never a flat float array, whatever ['a] is. *)
type 'a t = {
  mutable time : int array;
  mutable key : int array;
  mutable seq : int array;
  mutable payload : Obj.t array;
  mutable size : int;
  mutable next_seq : int;
}

let hole = Obj.repr 0

let initial_capacity = 64

(* Arrays stay empty until the first push, so an unused queue costs a
   record and nothing more. *)
let create () =
  { time = [||]; key = [||]; seq = [||]; payload = [||]; size = 0;
    next_seq = 0 }

let is_empty q = q.size = 0

let length q = q.size

let grow q =
  let cap = Array.length q.time in
  let new_cap = if cap = 0 then initial_capacity else cap * 2 in
  let extend a fill =
    let b = Array.make new_cap fill in
    Array.blit a 0 b 0 q.size;
    b
  in
  q.time <- extend q.time 0;
  q.key <- extend q.key 0;
  q.seq <- extend q.seq 0;
  q.payload <- extend q.payload hole

(* Entry ordering: earlier time first, then the caller-supplied key,
   then FIFO among equal (time, key). *)
let before (t : int) (k : int) (s : int) t' k' s' =
  t < t' || (t = t' && (k < k' || (k = k' && s < s')))

let move q ~src ~dst =
  q.time.(dst) <- q.time.(src);
  q.key.(dst) <- q.key.(src);
  q.seq.(dst) <- q.seq.(src);
  q.payload.(dst) <- q.payload.(src)

let place q i t k s p =
  q.time.(i) <- t;
  q.key.(i) <- k;
  q.seq.(i) <- s;
  q.payload.(i) <- p

(* Both sifts move a hole rather than swapping: each level copies one
   entry, and the entry being placed is written once, at the end. *)
let rec sift_up q i t k s p =
  if i = 0 then place q i t k s p
  else
    let parent = (i - 1) / 2 in
    if before t k s q.time.(parent) q.key.(parent) q.seq.(parent) then begin
      move q ~src:parent ~dst:i;
      sift_up q parent t k s p
    end
    else place q i t k s p

let rec sift_down q i t k s p =
  let left = (2 * i) + 1 in
  if left >= q.size then place q i t k s p
  else
    let right = left + 1 in
    let c =
      if
        right < q.size
        && before q.time.(right) q.key.(right) q.seq.(right) q.time.(left)
             q.key.(left) q.seq.(left)
      then right
      else left
    in
    if before q.time.(c) q.key.(c) q.seq.(c) t k s then begin
      move q ~src:c ~dst:i;
      sift_down q c t k s p
    end
    else place q i t k s p

let push q ~time ?(key = 0) payload =
  if time < 0 then invalid_arg "Eventq.push: negative time";
  if q.size = Array.length q.time then grow q;
  let s = q.next_seq in
  q.next_seq <- s + 1;
  let i = q.size in
  q.size <- i + 1;
  sift_up q i time key s (Obj.repr payload)

let min_time q = if q.size = 0 then max_int else q.time.(0)

let take q =
  if q.size = 0 then invalid_arg "Eventq.take: empty queue";
  let top = q.payload.(0) in
  let last = q.size - 1 in
  q.size <- last;
  if last > 0 then
    sift_down q 0 q.time.(last) q.key.(last) q.seq.(last) q.payload.(last);
  (* Clear the vacated slot so the GC can reclaim the payload. *)
  q.payload.(last) <- hole;
  Obj.obj top

let peek_time q = if q.size = 0 then None else Some q.time.(0)

let pop q =
  if q.size = 0 then None
  else
    let time = q.time.(0) in
    Some (time, take q)

let clear q =
  Array.fill q.payload 0 q.size hole;
  q.size <- 0
