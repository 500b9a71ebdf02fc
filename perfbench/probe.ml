(* Outside-in instrumentation for the benchmark: wrappers around the
   public records an allocator and a workload talk through
   ([Alloc_intf.t] and [Platform.t]). Every timestamp comes from the
   charge-free [Platform.now] and every thread id from [self_tid], both of
   which the simulator answers inline, so a wrapped run takes exactly the
   schedule and the cycles of an unwrapped one. *)

(* A growable int array: latencies and span fields are kept unboxed. *)
module Ibuf = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 4096 0; n = 0 }

  let push b x =
    if b.n = Array.length b.a then begin
      let a' = Array.make (2 * b.n) 0 in
      Array.blit b.a 0 a' 0 b.n;
      b.a <- a'
    end;
    b.a.(b.n) <- x;
    b.n <- b.n + 1

  let sorted b =
    let s = Array.sub b.a 0 b.n in
    Array.sort compare s;
    s
end

(* Nearest-rank percentile of a sorted array: the value at 1-based rank
   [percentile_rank]; 0 when empty. *)
let percentile_rank sorted q =
  let n = Array.length sorted in
  max 1 (min n (int_of_float (ceil (q *. float_of_int n))))

let percentile sorted q = if Array.length sorted = 0 then 0 else sorted.(percentile_rank sorted q - 1)

(* --- layer groups -------------------------------------------------------- *)

(* Locks: the per-processor heaps, the global heap (heap 0) and the rest
   (remote-free queues, the large-object and registry locks, the
   workloads' own locks). *)
let lock_groups = [ "heap"; "heap0"; "other" ]

let lock_group name =
  if name = "hoard.heap0" then 1
  else if String.length name > 10 && String.sub name 0 10 = "hoard.heap" then 0
  else 2

(* Atomics are grouped by the structure that owns the word:
   "hoard.dfl3.head" -> "dfl", "hoard.gindex.c2b1" -> "gindex". *)
let atomic_families = [ "dfl"; "gindex"; "lcache"; "other" ]

let atomic_family name =
  let stem =
    match String.split_on_char '.' name with
    | "hoard" :: s :: _ -> s
    | _ -> ""
  in
  let n = ref (String.length stem) in
  while !n > 0 && stem.[!n - 1] >= '0' && stem.[!n - 1] <= '9' do
    decr n
  done;
  let stem = String.sub stem 0 !n in
  let rec index i = function
    | [] -> List.length atomic_families - 1
    | f :: rest -> if f = stem then i else index (i + 1) rest
  in
  index 0 atomic_families

(* --- spans ---------------------------------------------------------------- *)

(* Span kinds, interned: the name shown in the trace and its layer. *)
let kinds =
  [|
    ("malloc", "core");
    ("free", "core");
    ("malloc_batch", "core");
    ("free_batch", "core");
    ("acquire", "lock");
    ("release", "lock");
    ("atomic", "atomic");
    ("read", "cache");
    ("write", "cache");
    ("page", "vmem");
    ("work", "work");
    ("request", "request");
  |]

let k_malloc = 0
and k_free = 1
and k_malloc_batch = 2
and k_free_batch = 3
and k_acquire = 4
and k_release = 5
and k_atomic = 6
and k_read = 7
and k_write = 8
and k_page = 9
and k_work = 10
and k_request = 11

(* Every span is counted; the first [span_cap] are also kept in memory
   for the Perfetto export at the end of the benchmark, six ints each:
   id, parent (-1 for none), tid, start, duration and kind. *)
let span_cap = 25_000

let fields = 6

(* --- the tracer ----------------------------------------------------------- *)

type agg = {
  mutable core_calls : int;
  mutable core_cycles : int;
  mutable core_child_cycles : int;  (** lock, atomic, cache and vmem spans inside API calls *)
  lock_acq : int array;  (** indexed like {!lock_groups} *)
  lock_wait : int array;
  lock_hold : int array;
  lock_acq_by_name : (string, int ref) Hashtbl.t;
  at_ops : int array;  (** indexed like {!atomic_families} *)
  at_cycles : int array;
  at_cas : int array;
  at_cas_fail : int array;
  rw_cycles : int array;  (** [0] allocator side, [1] workload side *)
  mutable page_calls : int;
  mutable page_cycles : int;
  mutable platform_calls : int;
  mutable requests : int;
}

type frame = { f_id : int; mutable f_child : int }

type tracer = {
  raw : Platform.t;
  agg : agg;
  mutable next_id : int;
  mutable kept : int;
  spans : Ibuf.t;
  open_api : (int, frame) Hashtbl.t;  (** tid -> the API call it is inside *)
  pending : (int, int list) Hashtbl.t;  (** tid -> kept API span slots awaiting a request parent *)
}

let create_tracer raw =
  let per_group () = Array.make (List.length lock_groups) 0 in
  let per_family () = Array.make (List.length atomic_families) 0 in
  {
    raw;
    agg =
      {
        core_calls = 0;
        core_cycles = 0;
        core_child_cycles = 0;
        lock_acq = per_group ();
        lock_wait = per_group ();
        lock_hold = per_group ();
        lock_acq_by_name = Hashtbl.create 64;
        at_ops = per_family ();
        at_cycles = per_family ();
        at_cas = per_family ();
        at_cas_fail = per_family ();
        rw_cycles = Array.make 2 0;
        page_calls = 0;
        page_cycles = 0;
        platform_calls = 0;
        requests = 0;
      };
    next_id = 0;
    kept = 0;
    spans = Ibuf.create ();
    open_api = Hashtbl.create 64;
    pending = Hashtbl.create 64;
  }

let fresh_id tr =
  let id = tr.next_id in
  tr.next_id <- id + 1;
  id

(* Keeps a span if there is room; returns its slot, or -1. *)
let keep tr ~id ~parent ~tid ~start ~dur ~kind =
  if tr.kept >= span_cap then -1
  else begin
    List.iter (Ibuf.push tr.spans) [ id; parent; tid; start; dur; kind ];
    tr.kept <- tr.kept + 1;
    tr.kept - 1
  end

(* Times one platform call made by the allocator or the workload, as a
   child of the thread's open API call if there is one. [work] is the
   allocator's own path computation, so it does not count against the
   call's self time. *)
let timed tr kind f =
  let start = tr.raw.Platform.now () in
  let r = f () in
  let stop = tr.raw.Platform.now () in
  let tid = tr.raw.Platform.self_tid () in
  let dur = stop - start in
  tr.agg.platform_calls <- tr.agg.platform_calls + 1;
  let parent =
    match Hashtbl.find_opt tr.open_api tid with
    | Some f ->
      if kind <> k_work then f.f_child <- f.f_child + dur;
      f.f_id
    | None -> -1
  in
  ignore (keep tr ~id:(fresh_id tr) ~parent ~tid ~start ~dur ~kind);
  (r, dur)

(* [side] is 0 for the platform the allocator is instantiated on, 1 for
   the one the workload drives. *)
let wrap_platform tr ~side (pf : Platform.t) =
  let a = tr.agg in
  let rw kind f =
    let (), dur = timed tr kind f in
    a.rw_cycles.(side) <- a.rw_cycles.(side) + dur
  in
  let page f =
    let r, dur = timed tr k_page f in
    a.page_calls <- a.page_calls + 1;
    a.page_cycles <- a.page_cycles + dur;
    r
  in
  {
    pf with
    Platform.work = (fun n -> fst (timed tr k_work (fun () -> pf.Platform.work n)));
    read = (fun ~addr ~len -> rw k_read (fun () -> pf.Platform.read ~addr ~len));
    write = (fun ~addr ~len -> rw k_write (fun () -> pf.Platform.write ~addr ~len));
    new_lock =
      (fun name ->
        let l = pf.Platform.new_lock name in
        let g = lock_group name in
        let by_name =
          match Hashtbl.find_opt a.lock_acq_by_name name with
          | Some r -> r
          | None ->
            let r = ref 0 in
            Hashtbl.add a.lock_acq_by_name name r;
            r
        in
        let acquired_at = ref 0 in
        {
          l with
          Platform.acquire =
            (fun () ->
              let (), wait = timed tr k_acquire l.Platform.acquire in
              acquired_at := tr.raw.Platform.now ();
              incr by_name;
              a.lock_acq.(g) <- a.lock_acq.(g) + 1;
              a.lock_wait.(g) <- a.lock_wait.(g) + wait);
          release =
            (fun () ->
              a.lock_hold.(g) <- a.lock_hold.(g) + (tr.raw.Platform.now () - !acquired_at);
              fst (timed tr k_release l.Platform.release));
        });
    new_atomic =
      (fun name init ->
        let w = pf.Platform.new_atomic name init in
        let i = atomic_family name in
        let op f =
          let r, dur = timed tr k_atomic f in
          a.at_ops.(i) <- a.at_ops.(i) + 1;
          a.at_cycles.(i) <- a.at_cycles.(i) + dur;
          r
        in
        {
          w with
          Platform.load = (fun () -> op w.Platform.load);
          store = (fun v -> op (fun () -> w.Platform.store v));
          cas =
            (fun ~expected ~desired ->
              let ok = op (fun () -> w.Platform.cas ~expected ~desired) in
              a.at_cas.(i) <- a.at_cas.(i) + 1;
              if not ok then a.at_cas_fail.(i) <- a.at_cas_fail.(i) + 1;
              ok);
          faa = (fun n -> op (fun () -> w.Platform.faa n));
        });
    page_map = (fun ~bytes ~align ~owner -> page (fun () -> pf.Platform.page_map ~bytes ~align ~owner));
    page_unmap = (fun ~addr -> page (fun () -> pf.Platform.page_unmap ~addr));
    page_decommit = (fun ~addr -> page (fun () -> pf.Platform.page_decommit ~addr));
    page_commit = (fun ~addr -> page (fun () -> pf.Platform.page_commit ~addr));
  }

(* A request completed on the calling thread (the [Server_mix] sink): its
   span becomes the parent of the API calls the thread made since its
   previous request. *)
let request_done tr ~arrival ~latency =
  let tid = tr.raw.Platform.self_tid () in
  tr.agg.requests <- tr.agg.requests + 1;
  let id = fresh_id tr in
  ignore (keep tr ~id ~parent:(-1) ~tid ~start:arrival ~dur:latency ~kind:k_request);
  (match Hashtbl.find_opt tr.pending tid with
   | Some slots -> List.iter (fun slot -> tr.spans.Ibuf.a.((fields * slot) + 1) <- id) slots
   | None -> ());
  Hashtbl.replace tr.pending tid []

(* --- the allocator wrapper ----------------------------------------------- *)

type calls = {
  lat : Ibuf.t;  (** cycles of every malloc, free and batch call *)
  mutable blocks_allocated : int;
  mutable blocks_freed : int;
  mutable size_hash : int;  (** fingerprint of the requested sizes *)
  mutable on_call : unit -> unit;  (** host-side hook run before each call; charges nothing *)
}

let new_calls () = { lat = Ibuf.create (); blocks_allocated = 0; blocks_freed = 0; size_hash = 0; on_call = ignore }

(* Times each malloc, free and batch call at the [Alloc_intf.t] boundary
   and counts the blocks that cross it. With a tracer, each call is also a
   span that parents the platform calls made inside it. *)
let wrap_alloc (raw : Platform.t) ?tracer calls (a : Alloc_intf.t) =
  let call kind f =
    calls.on_call ();
    match tracer with
    | None ->
      let t0 = raw.Platform.now () in
      let r = f () in
      Ibuf.push calls.lat (raw.Platform.now () - t0);
      r
    | Some tr ->
      let tid = raw.Platform.self_tid () in
      let start = raw.Platform.now () in
      let frame = { f_id = fresh_id tr; f_child = 0 } in
      Hashtbl.replace tr.open_api tid frame;
      let r = f () in
      let stop = raw.Platform.now () in
      Hashtbl.remove tr.open_api tid;
      Ibuf.push calls.lat (stop - start);
      let g = tr.agg in
      g.core_calls <- g.core_calls + 1;
      g.core_cycles <- g.core_cycles + (stop - start);
      g.core_child_cycles <- g.core_child_cycles + frame.f_child;
      let slot = keep tr ~id:frame.f_id ~parent:(-1) ~tid ~start ~dur:(stop - start) ~kind in
      if slot >= 0 then
        Hashtbl.replace tr.pending tid (slot :: Option.value ~default:[] (Hashtbl.find_opt tr.pending tid));
      r
  in
  let note_size size = calls.size_hash <- (calls.size_hash * 31) + size in
  {
    a with
    Alloc_intf.malloc =
      (fun size ->
        note_size size;
        calls.blocks_allocated <- calls.blocks_allocated + 1;
        call k_malloc (fun () -> a.Alloc_intf.malloc size));
    free =
      (fun addr ->
        calls.blocks_freed <- calls.blocks_freed + 1;
        call k_free (fun () -> a.Alloc_intf.free addr));
    malloc_batch =
      (fun n size ->
        note_size size;
        calls.blocks_allocated <- calls.blocks_allocated + n;
        call k_malloc_batch (fun () -> a.Alloc_intf.malloc_batch n size));
    free_batch =
      (fun addrs ->
        calls.blocks_freed <- calls.blocks_freed + Array.length addrs;
        call k_free_batch (fun () -> a.Alloc_intf.free_batch addrs));
  }

(* --- Perfetto export ------------------------------------------------------ *)

(* Kept API spans that never got a request parent (calls made outside any
   request: a server worker's shutdown drain). *)
let unparented_api_spans tr =
  let n = ref 0 in
  for slot = 0 to tr.kept - 1 do
    let o = fields * slot in
    if tr.spans.Ibuf.a.(o + 5) <= k_free_batch && tr.spans.Ibuf.a.(o + 1) < 0 then incr n
  done;
  !n

let export tr perfetto ~pid =
  let f = tr.spans.Ibuf.a in
  let named = Hashtbl.create 64 in
  for slot = 0 to tr.kept - 1 do
    let o = fields * slot in
    let tid = f.(o + 2) in
    if not (Hashtbl.mem named tid) then begin
      Hashtbl.add named tid ();
      Perfetto.thread_name perfetto ~pid ~tid (Printf.sprintf "thread %d" tid)
    end;
    let name, cat = kinds.(f.(o + 5)) in
    Perfetto.span perfetto ~name ~cat ~ts:f.(o + 3) ~dur:f.(o + 4) ~pid ~tid
      ~args:[ ("id", string_of_int f.(o)); ("parent", string_of_int f.(o + 1)) ]
      ()
  done
