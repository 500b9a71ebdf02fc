type snapshot = {
  mallocs : int;
  frees : int;
  bytes_requested : int;
  live_bytes : int;
  peak_live_bytes : int;
  held_bytes : int;
  peak_held_bytes : int;
  os_maps : int;
  os_unmaps : int;
  resident_bytes : int;
  peak_resident_bytes : int;
  reservoir_bytes : int;
  decommits : int;
  recommits : int;
  reservoir_parks : int;
  reservoir_drops : int;
  sb_to_global : int;
  sb_from_global : int;
  remote_frees : int;
  cache_hits : int;
  cache_fills : int;
  cache_flushes : int;
  remote_drains : int;
  remote_forwards : int;
  large_maps : int;
  large_cache_hits : int;
  deferred_enqueues : int;
  deferred_reclaims : int;
  orphan_adoptions : int;
  cas_retries : int;
  cas_retries_by : (string * int) list;
  global_pushes : int;
  global_pops : int;
}

(* One shard per lock domain (a heap, a size class, the large allocator, a
   thread's front-end cache): plain mutable counters, every write made
   under that domain's lock (or by the domain's single owning thread), so
   the malloc/free hot path touches no cross-heap state. *)
type shard = {
  mutable mallocs : int;
  mutable frees : int;
  mutable bytes_requested : int;
  mutable live_bytes : int;
  mutable peak_live_bytes : int; (* this shard's own high-water mark *)
  mutable sb_to_global : int;
  mutable sb_from_global : int;
  mutable remote_frees : int;
  mutable cache_hits : int;
  mutable cache_fills : int;
  mutable cache_flushes : int;
  mutable remote_drains : int;
  mutable remote_forwards : int;
  mutable large_maps : int;
  mutable large_cache_hits : int;
  mutable deferred_enqueues : int;
  mutable deferred_reclaims : int;
  mutable orphan_adoptions : int;
  mutable peers : shard array; (* every shard of the owning [t], for peak merging *)
  merged_peak : int Atomic.t; (* shared with the owning [t] *)
}

(* The OS-map path (superblock-granularity, adjacent to a page_map call)
   runs on atomics instead: exact held bytes and an exact A_peak without
   any per-shard charging ambiguity when a superblock is mapped by one
   heap and unmapped by another. *)
type t = {
  shards : shard array Atomic.t;
  grow_mu : Mutex.t; (* serialises [add_shard]; a host mutex, never simulated *)
  held : int Atomic.t;
  peak_held : int Atomic.t;
  os_maps : int Atomic.t;
  os_unmaps : int Atomic.t;
  resident : int Atomic.t; (* mapped-and-committed bytes: the simulated RSS *)
  peak_resident : int Atomic.t;
  reservoir : int Atomic.t; (* bytes parked in the superblock reservoir *)
  decommits : int Atomic.t;
  recommits : int Atomic.t;
  parks : int Atomic.t;
  drops : int Atomic.t;
  cas_retries : int Atomic.t; (* failed CASes in lock-free structures; fired with no lock held *)
  retry_by : (string * int Atomic.t) list Atomic.t;
      (* per-structure breakdown of [cas_retries], in registration order;
         appended under [grow_mu], read lock-free *)
  global_pushes : int Atomic.t; (* superblocks published to the lock-free global index *)
  global_pops : int Atomic.t; (* superblocks acquired from it *)
  peak_live : int Atomic.t; (* merged high-water, refreshed on map/unmap/snapshot *)
}

let new_shard merged_peak =
  {
    mallocs = 0;
    frees = 0;
    bytes_requested = 0;
    live_bytes = 0;
    peak_live_bytes = 0;
    sb_to_global = 0;
    sb_from_global = 0;
    remote_frees = 0;
    cache_hits = 0;
    cache_fills = 0;
    cache_flushes = 0;
    remote_drains = 0;
    remote_forwards = 0;
    large_maps = 0;
    large_cache_hits = 0;
    deferred_enqueues = 0;
    deferred_reclaims = 0;
    orphan_adoptions = 0;
    peers = [||];
    merged_peak;
  }

let create ?(shards = 1) () =
  if shards < 1 then invalid_arg "Alloc_stats.create: shards must be >= 1";
  let peak_live = Atomic.make 0 in
  let shard_arr = Array.init shards (fun _ -> new_shard peak_live) in
  Array.iter (fun sh -> sh.peers <- shard_arr) shard_arr;
  {
    shards = Atomic.make shard_arr;
    grow_mu = Mutex.create ();
    held = Atomic.make 0;
    peak_held = Atomic.make 0;
    os_maps = Atomic.make 0;
    os_unmaps = Atomic.make 0;
    resident = Atomic.make 0;
    peak_resident = Atomic.make 0;
    reservoir = Atomic.make 0;
    decommits = Atomic.make 0;
    recommits = Atomic.make 0;
    parks = Atomic.make 0;
    drops = Atomic.make 0;
    cas_retries = Atomic.make 0;
    retry_by = Atomic.make [];
    global_pushes = Atomic.make 0;
    global_pops = Atomic.make 0;
    peak_live;
  }

let nshards t = Array.length (Atomic.get t.shards)

let shard t i = (Atomic.get t.shards).(i)

(* Appends a fresh shard (a new lock domain created after construction,
   e.g. a thread's front-end cache). Peers of existing shards are
   refreshed so merged-peak samples see the newcomer; a sample racing the
   refresh reads the old array and stays a valid lower bound. *)
let add_shard t =
  Mutex.lock t.grow_mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.grow_mu)
    (fun () ->
      let old = Atomic.get t.shards in
      let sh = new_shard t.peak_live in
      let arr = Array.append old [| sh |] in
      Array.iter (fun s -> s.peers <- arr) arr;
      Atomic.set t.shards arr;
      sh)

let rec store_max a v =
  let cur = Atomic.get a in
  if v > cur && not (Atomic.compare_and_set a cur v) then store_max a v

(* Sample the merged peak while this shard is climbing past its own
   high-water mark. The sum reads peer shards unsynchronised (stale reads
   possible, torn ones not), giving a lower bound on the true global peak;
   once shards plateau the branch stops firing, so the steady-state hot
   path stays free of cross-shard traffic. *)
let bump_live sh bytes =
  let live = sh.live_bytes + bytes in
  sh.live_bytes <- live;
  if live > sh.peak_live_bytes then begin
    sh.peak_live_bytes <- live;
    store_max sh.merged_peak (Array.fold_left (fun acc p -> acc + p.live_bytes) 0 sh.peers)
  end

let on_malloc sh ~requested ~usable =
  sh.mallocs <- sh.mallocs + 1;
  sh.bytes_requested <- sh.bytes_requested + requested;
  bump_live sh usable

let on_free sh ~usable =
  sh.frees <- sh.frees + 1;
  sh.live_bytes <- sh.live_bytes - usable

let on_transfer_to_global sh = sh.sb_to_global <- sh.sb_to_global + 1

let on_transfer_from_global sh = sh.sb_from_global <- sh.sb_from_global + 1

let on_remote_free sh = sh.remote_frees <- sh.remote_frees + 1

(* Front-end events. A cached block stays charged to its superblock's heap
   ([u]) until the drain returns it, so live_bytes moves only when blocks
   cross the heap boundary: + at fill (blocks leave the heap core for a
   cache), - at drain (deferred blocks re-enter a heap core). Cache-hit
   mallocs and cached frees leave live_bytes alone. *)
let on_cache_hit sh ~requested =
  sh.mallocs <- sh.mallocs + 1;
  sh.bytes_requested <- sh.bytes_requested + requested;
  sh.cache_hits <- sh.cache_hits + 1

let on_cached_free sh = sh.frees <- sh.frees + 1

let on_cache_fill sh ~blocks ~bytes =
  sh.cache_fills <- sh.cache_fills + blocks;
  bump_live sh bytes

let on_cache_flush sh ~blocks = sh.cache_flushes <- sh.cache_flushes + blocks

let on_drain sh ~usable =
  sh.remote_drains <- sh.remote_drains + 1;
  sh.live_bytes <- sh.live_bytes - usable

let on_remote_forward sh ~blocks = sh.remote_forwards <- sh.remote_forwards + blocks

(* Large path. [on_large_map] marks a large allocation that paid a real
   OS map; [on_large_cache_hit] one served by the MPSC cache's
   take -> commit (both fire under the large lock, next to on_malloc). *)
let on_large_map sh = sh.large_maps <- sh.large_maps + 1

let on_large_cache_hit sh = sh.large_cache_hits <- sh.large_cache_hits + 1

(* Deferred free list: enqueues count blocks pushed (fired on the
   producer's own shard — the push itself takes no lock); reclaims count
   owner-side exchange operations, so enqueues/reclaims is the observed
   batching factor. *)
let on_deferred_enqueue sh = sh.deferred_enqueues <- sh.deferred_enqueues + 1

let on_deferred_reclaim sh = sh.deferred_reclaims <- sh.deferred_reclaims + 1

(* One orphaned superblock adopted (reassigned or trimmed to the global
   heap) on a thread's exit path; fired under the adopting heap's lock. *)
let on_orphan_adopt sh = sh.orphan_adoptions <- sh.orphan_adoptions + 1

let on_cas_retry t = Atomic.incr t.cas_retries

(* Labelled retry accounting: every lock-free structure obtains its hook
   once at construction (under [grow_mu], so concurrent allocators sharing
   a [t] stay safe) and fires it on each failed CAS. The hook bumps both
   the unified total and the structure's own counter, so
   [cas_retries = sum of cas_retries_by] holds at every quiescent point. *)
let retry_hook t ~label =
  Mutex.lock t.grow_mu;
  let counter =
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.grow_mu)
      (fun () ->
        let cur = Atomic.get t.retry_by in
        match List.assoc_opt label cur with
        | Some c -> c
        | None ->
            let c = Atomic.make 0 in
            Atomic.set t.retry_by (cur @ [ (label, c) ]);
            c)
  in
  fun () ->
    Atomic.incr t.cas_retries;
    Atomic.incr counter

(* Global-index traffic: pushes/pops happen with no lock held (that is the
   point of the index), so they live on [t]-level atomics, not a shard. *)
let on_global_push t = Atomic.incr t.global_pushes

let on_global_pop t = Atomic.incr t.global_pops

(* Cross-shard reads are unsynchronised (possibly stale, never torn); the
   sum is exact on the deterministic simulator and at quiescent points on
   the host, which is where peaks are read. *)
let live_sum t = Array.fold_left (fun acc sh -> acc + sh.live_bytes) 0 (Atomic.get t.shards)

let refresh_peak_live t = store_max t.peak_live (live_sum t)

let bump_resident t bytes =
  let r = Atomic.fetch_and_add t.resident bytes + bytes in
  store_max t.peak_resident r

let on_map t ~bytes =
  let held = Atomic.fetch_and_add t.held bytes + bytes in
  store_max t.peak_held held;
  Atomic.incr t.os_maps;
  bump_resident t bytes;
  refresh_peak_live t

(* [resident]: whether the region still had committed pages when unmapped
   (false for a reservoir-parked superblock, already decommitted). *)
let on_unmap ?(resident = true) t ~bytes =
  ignore (Atomic.fetch_and_add t.held (-bytes));
  Atomic.incr t.os_unmaps;
  if resident then ignore (Atomic.fetch_and_add t.resident (-bytes));
  refresh_peak_live t

(* Reservoir lifecycle. A parked superblock is neither heap-held nor (once
   decommitted) resident: [held] tracks what heaps and the large path hold,
   which is what the blowup envelope and the residency invariant
   (resident <= held + R * S) are stated over. OS map/unmap counts are NOT
   touched — avoiding that traffic is the reservoir's point.

   [on_park] is PROVISIONAL: the parker calls it (held -> reservoir)
   before the superblock becomes visible in the reservoir, so a taker's
   [on_unpark] can never run first and drive the gauges negative or
   double-count the bytes in [held]. A successful offer is then confirmed
   with [on_park_commit]; a bounced one is reversed with [on_park_bounce],
   which accounts the ensuing unmap of the already-decommitted region
   (held was debited by [on_park]; resident by [on_decommit]). *)
let on_park t ~bytes =
  ignore (Atomic.fetch_and_add t.held (-bytes));
  ignore (Atomic.fetch_and_add t.reservoir bytes)

let on_park_commit t = Atomic.incr t.parks

let on_park_bounce t ~bytes =
  ignore (Atomic.fetch_and_add t.reservoir (-bytes));
  Atomic.incr t.drops;
  Atomic.incr t.os_unmaps;
  refresh_peak_live t

let on_unpark t ~bytes =
  let held = Atomic.fetch_and_add t.held bytes + bytes in
  store_max t.peak_held held;
  ignore (Atomic.fetch_and_add t.reservoir (-bytes))

let on_decommit t ~bytes =
  ignore (Atomic.fetch_and_add t.resident (-bytes));
  Atomic.incr t.decommits

let on_recommit t ~bytes =
  bump_resident t bytes;
  Atomic.incr t.recommits

let snapshot t =
  let mallocs = ref 0
  and frees = ref 0
  and bytes_requested = ref 0
  and live = ref 0
  and to_global = ref 0
  and from_global = ref 0
  and remote = ref 0
  and hits = ref 0
  and fills = ref 0
  and flushes = ref 0
  and drains = ref 0
  and forwards = ref 0
  and large_maps = ref 0
  and large_cache_hits = ref 0
  and deferred_enqueues = ref 0
  and deferred_reclaims = ref 0
  and orphan_adoptions = ref 0 in
  Array.iter
    (fun sh ->
      mallocs := !mallocs + sh.mallocs;
      frees := !frees + sh.frees;
      bytes_requested := !bytes_requested + sh.bytes_requested;
      live := !live + sh.live_bytes;
      to_global := !to_global + sh.sb_to_global;
      from_global := !from_global + sh.sb_from_global;
      remote := !remote + sh.remote_frees;
      hits := !hits + sh.cache_hits;
      fills := !fills + sh.cache_fills;
      flushes := !flushes + sh.cache_flushes;
      drains := !drains + sh.remote_drains;
      forwards := !forwards + sh.remote_forwards;
      large_maps := !large_maps + sh.large_maps;
      large_cache_hits := !large_cache_hits + sh.large_cache_hits;
      deferred_enqueues := !deferred_enqueues + sh.deferred_enqueues;
      deferred_reclaims := !deferred_reclaims + sh.deferred_reclaims;
      orphan_adoptions := !orphan_adoptions + sh.orphan_adoptions)
    (Atomic.get t.shards);
  (* Per-shard peaks are NOT summed here: a block malloc'd under one heap
     may be freed under another after its superblock migrates, so the sum
     of local peaks ratchets above any live total ever reached. The merged
     peak is the one sampled on shard-local rises, maps/unmaps and
     snapshots — exact when a single shard exists. *)
  store_max t.peak_live !live;
  {
    mallocs = !mallocs;
    frees = !frees;
    bytes_requested = !bytes_requested;
    live_bytes = !live;
    peak_live_bytes = Atomic.get t.peak_live;
    held_bytes = Atomic.get t.held;
    peak_held_bytes = Atomic.get t.peak_held;
    os_maps = Atomic.get t.os_maps;
    os_unmaps = Atomic.get t.os_unmaps;
    resident_bytes = Atomic.get t.resident;
    peak_resident_bytes = Atomic.get t.peak_resident;
    reservoir_bytes = Atomic.get t.reservoir;
    decommits = Atomic.get t.decommits;
    recommits = Atomic.get t.recommits;
    reservoir_parks = Atomic.get t.parks;
    reservoir_drops = Atomic.get t.drops;
    sb_to_global = !to_global;
    sb_from_global = !from_global;
    remote_frees = !remote;
    cache_hits = !hits;
    cache_fills = !fills;
    cache_flushes = !flushes;
    remote_drains = !drains;
    remote_forwards = !forwards;
    large_maps = !large_maps;
    large_cache_hits = !large_cache_hits;
    deferred_enqueues = !deferred_enqueues;
    deferred_reclaims = !deferred_reclaims;
    orphan_adoptions = !orphan_adoptions;
    cas_retries = Atomic.get t.cas_retries;
    cas_retries_by = List.map (fun (l, c) -> (l, Atomic.get c)) (Atomic.get t.retry_by);
    global_pushes = Atomic.get t.global_pushes;
    global_pops = Atomic.get t.global_pops;
  }

let fragmentation (s : snapshot) =
  if s.peak_live_bytes = 0 then nan else float_of_int s.peak_held_bytes /. float_of_int s.peak_live_bytes

let publish t ?(prefix = "alloc") metrics =
  let reg name f = Metrics.register metrics ~name:(prefix ^ "." ^ name) (fun () -> Metrics.Int (f (snapshot t))) in
  reg "mallocs" (fun s -> s.mallocs);
  reg "frees" (fun s -> s.frees);
  reg "bytes_requested" (fun s -> s.bytes_requested);
  reg "live_bytes" (fun s -> s.live_bytes);
  reg "peak_live_bytes" (fun s -> s.peak_live_bytes);
  reg "held_bytes" (fun s -> s.held_bytes);
  reg "peak_held_bytes" (fun s -> s.peak_held_bytes);
  reg "os_maps" (fun s -> s.os_maps);
  reg "os_unmaps" (fun s -> s.os_unmaps);
  reg "resident_bytes" (fun s -> s.resident_bytes);
  reg "peak_resident_bytes" (fun s -> s.peak_resident_bytes);
  reg "reservoir_bytes" (fun s -> s.reservoir_bytes);
  reg "decommits" (fun s -> s.decommits);
  reg "recommits" (fun s -> s.recommits);
  reg "reservoir_parks" (fun s -> s.reservoir_parks);
  reg "reservoir_drops" (fun s -> s.reservoir_drops);
  reg "sb_to_global" (fun s -> s.sb_to_global);
  reg "sb_from_global" (fun s -> s.sb_from_global);
  reg "remote_frees" (fun s -> s.remote_frees);
  reg "cache_hits" (fun s -> s.cache_hits);
  reg "cache_fills" (fun s -> s.cache_fills);
  reg "cache_flushes" (fun s -> s.cache_flushes);
  reg "remote_drains" (fun s -> s.remote_drains);
  reg "remote_forwards" (fun s -> s.remote_forwards);
  reg "large_maps" (fun s -> s.large_maps);
  reg "large_cache_hits" (fun s -> s.large_cache_hits);
  reg "deferred_enqueues" (fun s -> s.deferred_enqueues);
  reg "deferred_reclaims" (fun s -> s.deferred_reclaims);
  reg "orphan_adoptions" (fun s -> s.orphan_adoptions);
  reg "cas_retries" (fun s -> s.cas_retries);
  reg "global_pushes" (fun s -> s.global_pushes);
  reg "global_pops" (fun s -> s.global_pops);
  (* One gauge per retry label registered so far (structures obtain their
     hooks at allocator construction, before publish). *)
  List.iter
    (fun (label, _) ->
      reg ("cas_retries." ^ label) (fun s ->
          match List.assoc_opt label s.cas_retries_by with
          | Some n -> n
          | None -> 0))
    (Atomic.get t.retry_by);
  if List.mem_assoc "global" (Atomic.get t.retry_by) then
    reg "global_cas_retries" (fun s ->
        match List.assoc_opt "global" s.cas_retries_by with
        | Some n -> n
        | None -> 0);
  Metrics.register metrics ~name:(prefix ^ ".fragmentation") (fun () ->
      Metrics.Float (fragmentation (snapshot t)))

let pp_snapshot fmt (s : snapshot) =
  Format.fprintf fmt
    "mallocs=%d frees=%d live=%dB peak_live=%dB held=%dB peak_held=%dB frag=%.2f maps=%d unmaps=%d to_glob=%d \
     from_glob=%d remote_frees=%d"
    s.mallocs s.frees s.live_bytes s.peak_live_bytes s.held_bytes s.peak_held_bytes (fragmentation s) s.os_maps
    s.os_unmaps s.sb_to_global s.sb_from_global s.remote_frees;
  if s.decommits + s.recommits + s.reservoir_parks > 0 then
    Format.fprintf fmt " resident=%dB peak_resident=%dB reservoir=%dB decommits=%d recommits=%d parks=%d drops=%d"
      s.resident_bytes s.peak_resident_bytes s.reservoir_bytes s.decommits s.recommits s.reservoir_parks
      s.reservoir_drops;
  if s.cache_hits + s.cache_fills > 0 then
    Format.fprintf fmt " cache_hits=%d fills=%d flushes=%d drained=%d fwd=%d" s.cache_hits s.cache_fills
      s.cache_flushes s.remote_drains s.remote_forwards;
  if s.cas_retries > 0 then begin
    Format.fprintf fmt " cas_retries=%d" s.cas_retries;
    List.iter
      (fun (label, c) -> if c > 0 then Format.fprintf fmt "[%s=%d]" label c)
      s.cas_retries_by
  end;
  if s.large_maps + s.large_cache_hits > 0 then
    Format.fprintf fmt " large_maps=%d large_cache_hits=%d" s.large_maps s.large_cache_hits;
  if s.deferred_enqueues + s.deferred_reclaims > 0 then
    Format.fprintf fmt " deferred_enq=%d deferred_reclaims=%d" s.deferred_enqueues s.deferred_reclaims;
  if s.orphan_adoptions > 0 then Format.fprintf fmt " orphan_adoptions=%d" s.orphan_adoptions;
  if s.global_pushes + s.global_pops > 0 then
    Format.fprintf fmt " global_pushes=%d global_pops=%d" s.global_pushes s.global_pops
