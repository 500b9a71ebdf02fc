(* A bounded lock-free Treiber stack over Platform atomics.

   This is the non-blocking substrate under the superblock reservoir and
   the large-object cache: push and pop complete with CAS only, no
   lock, so a thread preempted (or crashed, on real hardware) mid-way
   never blocks the others.

   Structure: a pool of [cap] slots. Each slot holds one payload (host
   state, owned exclusively by whichever thread currently owns the slot)
   and one atomic link word on its own cache line. Two Treiber stacks
   thread through the shared link array: [head] (the live stack) and
   [free_head] (unused slots); push moves a slot from the free stack to
   the live one, pop the reverse, so the population is bounded by [cap]
   with no separate count to maintain atomically.

   ABA: each head word packs [tag * (cap + 1) + (idx + 1)] (idx = -1 is
   the empty stack) and every successful CAS increments the tag, so a
   CAS whose top slot was popped and re-pushed in between fails instead
   of installing a stale link — the classic Treiber pop hazard. The
   [aba_tag:false] knob freezes the tag at zero, planting exactly that
   bug for the schedule explorer to find.

   The payload write ([slots.(i)]) is host state: it happens while the
   slot is private (after winning it from one stack, before the CAS
   publishing it on the other), and the publishing CAS is the
   linearization point, so no torn payload is ever observable. Link
   loads/stores are platform atomics — schedule-visible steps on
   distinct cache lines — which is what lets lib/check explore the
   protocol exhaustively and see real conflicts. *)

type 'a t = {
  cap : int;
  aba_tag : bool;
  head : Platform.atomic_int;
  free_head : Platform.atomic_int;
  next : Platform.atomic_int array; (* slot link: index of the slot below, -1 = bottom *)
  slots : 'a option array; (* payloads; entry owned by the slot's owner *)
  on_retry : unit -> unit;
  (* Host counters: no simulated cost, exact at quiescence. *)
  len : int Atomic.t;
  pushes : int Atomic.t;
  pops : int Atomic.t;
  retries : int Atomic.t;
  in_flight : int Atomic.t; (* operations started and not yet finished *)
}

let pack t ~tag ~idx = (tag * (t.cap + 1)) + idx + 1

let unpack t packed = (packed / (t.cap + 1), (packed mod (t.cap + 1)) - 1)

let next_tag t tag = if t.aba_tag then tag + 1 else 0

let create pf ~name ~cap ?(aba_tag = true) ?(on_retry = fun () -> ()) () =
  if cap < 0 then invalid_arg "Lockfree.create: cap must be non-negative";
  let new_atomic suffix init = pf.Platform.new_atomic (name ^ "." ^ suffix) init in
  let t =
    {
      cap;
      aba_tag;
      head = new_atomic "head" 0;
      (* Free stack initially holds every slot: 0 on top, linked upward. *)
      free_head = new_atomic "free" (if cap = 0 then 0 else 1 (* pack ~tag:0 ~idx:0 *));
      next =
        Array.init cap (fun i ->
            new_atomic (Printf.sprintf "next%d" i) (if i = cap - 1 then -1 else i + 1));
      slots = Array.make cap None;
      on_retry;
      len = Atomic.make 0;
      pushes = Atomic.make 0;
      pops = Atomic.make 0;
      retries = Atomic.make 0;
      in_flight = Atomic.make 0;
    }
  in
  t

let cap t = t.cap

let retry t =
  Atomic.incr t.retries;
  t.on_retry ()

(* Unlink the top slot of the stack headed by [head]. The window between
   the link load and the CAS is where ABA strikes: the tag makes the CAS
   fail whenever the head moved since [packed] was read, even if the same
   slot index is back on top with a different link. *)
let rec pop_slot t head =
  let packed = head.Platform.load () in
  let tag, idx = unpack t packed in
  if idx < 0 then None
  else begin
    let below = t.next.(idx).Platform.load () in
    if head.Platform.cas ~expected:packed ~desired:(pack t ~tag:(next_tag t tag) ~idx:below) then
      Some idx
    else begin
      retry t;
      pop_slot t head
    end
  end

(* Link the privately-owned slot [idx] on top of the stack headed by
   [head]. Storing the link before the CAS is safe — the slot is
   invisible until the CAS publishes it — and plain Treiber push never
   dereferences stale state, so it needs no window re-validation beyond
   the CAS itself. *)
let rec push_slot t head idx =
  let packed = head.Platform.load () in
  let tag, top = unpack t packed in
  t.next.(idx).Platform.store top;
  if head.Platform.cas ~expected:packed ~desired:(pack t ~tag:(next_tag t tag) ~idx) then ()
  else begin
    retry t;
    push_slot t head idx
  end

let push t v =
  if t.cap = 0 then false
  else begin
    Atomic.incr t.in_flight;
    let accepted =
      match pop_slot t t.free_head with
      | None -> false (* every slot is on the live stack: full *)
      | Some idx ->
        t.slots.(idx) <- Some v;
        push_slot t t.head idx;
        Atomic.incr t.len;
        Atomic.incr t.pushes;
        true
    in
    Atomic.decr t.in_flight;
    accepted
  end

let pop t =
  if t.cap = 0 then None
  else begin
    Atomic.incr t.in_flight;
    let taken =
      match pop_slot t t.head with
      | None -> None
      | Some idx ->
        let v =
          match t.slots.(idx) with
          | Some v -> v
          | None -> failwith "Lockfree.pop: live slot without a payload (corrupt stack)"
        in
        t.slots.(idx) <- None;
        push_slot t t.free_head idx;
        Atomic.decr t.len;
        Atomic.incr t.pops;
        Some v
    in
    Atomic.decr t.in_flight;
    taken
  end

let length t = Atomic.get t.len

let pushes t = Atomic.get t.pushes

let pops t = Atomic.get t.pops

let retries t = Atomic.get t.retries

(* Quiescent-only walk, top first. Asserts quiescence (no push/pop in
   flight) and validates the walked structure — a duplicated slot (the
   ABA failure mode) or a payload-less live slot raises instead of being
   silently iterated past. Uses [peek]: charge-free, callable from
   outside any simulated thread. *)
let iter t f =
  if Atomic.get t.in_flight <> 0 then failwith "Lockfree.iter: stack not quiescent";
  let seen = Array.make (max 1 t.cap) false in
  let rec walk idx n =
    if idx >= 0 then begin
      if n >= t.cap then failwith "Lockfree.iter: stack longer than its capacity (cycle?)";
      if seen.(idx) then failwith "Lockfree.iter: slot appears twice (lost ABA tag?)";
      seen.(idx) <- true;
      (match t.slots.(idx) with
       | Some v -> f v
       | None -> failwith "Lockfree.iter: live slot without a payload");
      walk (t.next.(idx).Platform.peek ()) (n + 1)
    end
  in
  if t.cap > 0 then walk (snd (unpack t (t.head.Platform.peek ()))) 0
