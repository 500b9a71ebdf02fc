(** Accounting shared by every allocator implementation, sharded so that
    concurrent heaps never contend on (or race over) a common counter.

    Tracks the two quantities the paper's fragmentation and blowup
    definitions are built from:
    - [live]: bytes currently allocated to the program (in usable-size
      terms), with its high-water mark ["U"];
    - [held]: bytes currently held from the OS, with its high-water mark
      ["A"].

    Fragmentation (paper Table 4) is [A_peak / U_peak].

    Concurrency contract: a {!t} is split into [shards], one per lock
    domain of the allocator (per heap, per size class, one for the large
    path). The per-operation counters ({!on_malloc}, {!on_free}, the
    transfer and remote-free events) must only be called while holding the
    lock of the shard's domain — they are plain mutable updates with no
    internal synchronisation. The OS-map path ({!on_map}, {!on_unmap}) and
    {!snapshot} are atomic/lock-free and may be called from any domain.

    Peak semantics: [held]/[peak_held] are maintained atomically on every
    map/unmap, so A_peak is exact. [peak_live] for a single-shard [t] is
    exact; for a sharded [t] it is the high-water mark of the summed live
    bytes, sampled whenever a shard climbs past its own local peak and at
    every map, unmap and snapshot. The sample sums peer shards without
    taking their locks, so it is a close lower bound on the true global
    peak rather than an exact figure — the price of keeping malloc/free
    free of cross-heap synchronisation. *)

type t

type shard
(** A slice of a {!t} owned by one lock domain. *)

type snapshot = {
  mallocs : int;
  frees : int;
  bytes_requested : int;  (** sum of requested sizes over all mallocs *)
  live_bytes : int;  (** usable bytes currently allocated to the program *)
  peak_live_bytes : int;
  held_bytes : int;  (** bytes currently held from the OS *)
  peak_held_bytes : int;
  os_maps : int;
  os_unmaps : int;
  resident_bytes : int;
      (** held-from-OS bytes whose pages are committed (the simulated
          RSS): mapped regions minus decommitted ones. The lifecycle
          invariant is [resident_bytes <= held_bytes + R * sb_size]. *)
  peak_resident_bytes : int;
  reservoir_bytes : int;  (** bytes parked in the superblock reservoir *)
  decommits : int;  (** regions decommitted (madvise-style page drops) *)
  recommits : int;  (** decommitted regions re-populated for reuse *)
  reservoir_parks : int;  (** superblocks accepted into the reservoir *)
  reservoir_drops : int;  (** park offers bounced (reservoir full -> unmap) *)
  sb_to_global : int;  (** superblock transfers heap -> global *)
  sb_from_global : int;  (** superblock transfers global -> heap *)
  remote_frees : int;  (** frees whose block belongs to another heap *)
  cache_hits : int;  (** mallocs served by a front-end cache, no lock taken *)
  cache_fills : int;  (** blocks moved heap -> front-end cache *)
  cache_flushes : int;  (** blocks flushed out of front-end caches *)
  remote_drains : int;  (** blocks returned to a heap core by the front end *)
  remote_forwards : int;
      (** migrated blocks re-forwarded by a deferred reclaim to the new
          owner *)
  large_maps : int;  (** large allocations that paid an OS map *)
  large_cache_hits : int;  (** large allocations served by the MPSC cache (take -> commit) *)
  deferred_enqueues : int;  (** blocks CAS-pushed onto deferred free lists *)
  deferred_reclaims : int;
      (** owner-side deferred-list exchanges that returned blocks;
          [deferred_enqueues / deferred_reclaims] is the batching factor *)
  orphan_adoptions : int;
      (** superblocks adopted (reassigned or trimmed to the global heap)
          from exiting threads' heaps by {!Hoard.on_thread_exit} *)
  cas_retries : int;  (** failed CASes in lock-free structures (contention) *)
  cas_retries_by : (string * int) list;
      (** per-structure breakdown of [cas_retries] by hook label (e.g.
          ["reservoir"], ["deferred"], ["large-cache"],
          ["global"]), in hook-registration order; the labels sum to
          [cas_retries] at quiescent points *)
  global_pushes : int;  (** superblocks published to the lock-free global index *)
  global_pops : int;  (** superblocks acquired from the lock-free global index *)
}

val create : ?shards:int -> unit -> t
(** [shards] defaults to 1 (the single-lock-domain case, exact peaks). *)

val nshards : t -> int

val shard : t -> int -> shard

val add_shard : t -> shard
(** Appends a shard for a lock domain created after construction (a
    thread's front-end cache). Thread-safe; existing shards keep working
    throughout. The new shard follows the same contract as the others:
    its events must be serialised by its own domain. *)

(** {2 Per-operation events — call under the shard's lock} *)

val on_malloc : shard -> requested:int -> usable:int -> unit

val on_free : shard -> usable:int -> unit

val on_transfer_to_global : shard -> unit

val on_transfer_from_global : shard -> unit

val on_remote_free : shard -> unit

(** {2 Front-end events — call under the shard's domain discipline}

    A block sitting in a front-end cache or a deferred list stays
    charged to the heap that owns its superblock, so [live_bytes] (and
    with it every allocator's [check]) reconciles exactly against the
    heap cores at any quiescent point: fills add the moved bytes
    ({!on_cache_fill}, under the source heap's lock), drains subtract
    them ({!on_drain}, under the destination heap's lock), and the
    cache-hit malloc / cached free in between touch only the operation
    counters. *)

val on_cache_hit : shard -> requested:int -> unit
(** A malloc served from the thread's cache: counts the malloc and the
    requested bytes; live bytes are unchanged (charged since the fill). *)

val on_cached_free : shard -> unit
(** A free absorbed by the thread's cache: counts the free; live bytes
    are unchanged (the block stays charged until drained). *)

val on_cache_fill : shard -> blocks:int -> bytes:int -> unit
(** Blocks moved from a heap core into a cache, under that heap's lock. *)

val on_cache_flush : shard -> blocks:int -> unit

val on_drain : shard -> usable:int -> unit
(** One block returned to a heap core (deferred reclaim or locked disposal),
    under that heap's lock: live bytes drop by [usable]; the free itself
    was already counted by {!on_cached_free}. *)

val on_remote_forward : shard -> blocks:int -> unit
(** Migrated blocks a deferred reclaim re-forwarded to their new owner
    instead of freeing inline, under the reclaiming heap's lock. *)

val on_large_map : shard -> unit
(** A large allocation that mapped fresh pages, under the large lock. *)

val on_large_cache_hit : shard -> unit
(** A large allocation served by the cache's take -> commit, under the
    large lock (the take itself is lock-free; the table insert that
    follows is where this fires). *)

val on_deferred_enqueue : shard -> unit
(** A block pushed onto a deferred free list — fired on the producer's
    own (single-writer) shard, since the push takes no lock. *)

val on_deferred_reclaim : shard -> unit
(** A non-empty owner-side deferred-list exchange, under the owner's
    heap lock. *)

val on_orphan_adopt : shard -> unit
(** One orphaned superblock adopted on a thread's exit path, under the
    lock of the heap giving the superblock up. *)

val on_cas_retry : t -> unit
(** A failed CAS inside a lock-free structure, unlabelled (total only).
    Atomic — fired with no lock held, from any domain. Prefer
    {!retry_hook}, which also feeds the per-structure breakdown. *)

val retry_hook : t -> label:string -> unit -> unit
(** [retry_hook t ~label] returns the retry callback for one lock-free
    structure: each call counts into both the unified [cas_retries] total
    and the [label]'s own slot of [cas_retries_by] (created on first use).
    Obtain hooks at allocator construction — {!publish} registers one
    [<prefix>.cas_retries.<label>] gauge per label known at publish time.
    Atomic — callable with no lock held, from any domain. *)

val on_global_push : t -> unit
(** A superblock published to the lock-free global index (transfer
    heap -> global without the heap-0 lock). Atomic, no lock held. *)

val on_global_pop : t -> unit
(** A superblock acquired from the lock-free global index (transfer
    global -> heap without the heap-0 lock). Atomic, no lock held. *)

(** {2 OS-map events — atomic, callable from any domain} *)

val on_map : t -> bytes:int -> unit
(** A fresh OS map: bytes become held and resident. *)

val on_unmap : ?resident:bool -> t -> bytes:int -> unit
(** A region returned to the OS. [resident] (default true) says whether
    its pages were still committed — pass [false] when unmapping an
    already-decommitted region so resident accounting is not
    double-debited. *)

(** {2 Residency / reservoir events — atomic, callable from any domain}

    The parker records its whole side — [on_decommit] (bytes leave the
    resident set) and the provisional [on_park] (held -> reservoir) —
    BEFORE offering the superblock to the reservoir, so that a concurrent
    taker's [on_unpark]/[on_recommit] (reservoir -> held, bytes re-enter
    the resident set) can never be observed first: gauges stay
    non-negative and nothing is double-counted in [held] at any
    interleaving. The offer's outcome then resolves the provisional park:
    [on_park_commit] if the reservoir accepted it, [on_park_bounce] if it
    was full (which also accounts the ensuing unmap of the
    already-decommitted region). Only the bounce touches the OS
    map/unmap counts — avoiding that traffic is the reservoir's point. *)

val on_park : t -> bytes:int -> unit
(** Provisional held -> reservoir transfer; call before the superblock is
    published, then resolve with {!on_park_commit} or {!on_park_bounce}. *)

val on_park_commit : t -> unit
(** The reservoir accepted the offer: count the park. *)

val on_park_bounce : t -> bytes:int -> unit
(** The reservoir was full: reverse the provisional byte transfer, count
    the drop, and account the unmap of the (already-decommitted, so no
    resident debit) superblock. *)

val on_unpark : t -> bytes:int -> unit

val on_decommit : t -> bytes:int -> unit

val on_recommit : t -> bytes:int -> unit

(** {2 Reading} *)

val snapshot : t -> snapshot
(** Merges all shards. Lock-free; counts are exact whenever every shard's
    domain is quiescent (e.g. at barriers or after joining workers). *)

val fragmentation : snapshot -> float
(** [peak_held / peak_live]; [nan] before any allocation. *)

val publish : t -> ?prefix:string -> Metrics.t -> unit
(** Registers one gauge per snapshot field (plus [<prefix>.fragmentation])
    under names [<prefix>.<field>]; [prefix] defaults to ["alloc"]. Each
    gauge takes a fresh {!snapshot} when read, so exporting the registry
    at quiescence yields exact figures. *)

val pp_snapshot : Format.formatter -> snapshot -> unit
