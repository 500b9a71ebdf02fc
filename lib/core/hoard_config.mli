(** Tunables of the Hoard algorithm, with the paper's defaults.

    Construction goes through {!make} (a labelled builder over the
    defaults) or {!set}/{!set_all} (textual ["knob=value"] overrides,
    the engine behind the shared [--set] CLI option). Both are backed by
    the same knob registry, which also drives {!validate}, {!pp} and the
    CLI help — adding a knob is one registry entry, not an edit to every
    record literal and flag parser. *)

(** Structure of the global heap (heap 0). [Locked]: the classic Dlist
    fullness groups behind the heap-0 lock (the paper's presentation).
    [Lockfree]: the CAS-published fullness index ([Global_index]) — every
    superblock transfer to/from the global heap, every free into a
    global superblock and every surplus release runs without ever
    acquiring the heap-0 lock. *)
type global_mode =
  | Locked
  | Lockfree

val global_mode_name : global_mode -> string

val global_mode_of_string : string -> global_mode option

type t = {
  sb_size : int;
      (** S: superblock size in bytes; power of two (paper: 8 KiB). *)
  empty_fraction : float;
      (** f: a heap may keep at most a fraction f of its superblock bytes
          free before crossing the emptiness threshold (paper: 1/4). *)
  slack : int;
      (** K: number of superblocks' worth of free space a heap may hold
          regardless of f. The paper's analysis uses K = 0; the
          implementation keeps a small positive K (default 4) so that
          batch-free workloads such as threadtest do not thrash
          superblocks through the global heap (see the abl_k ablation). *)
  growth : float;  (** size-class growth factor b (paper: 1.2). *)
  ngroups : int;  (** fullness groups per size class (paper: groups of f). *)
  nheaps : int option;
      (** number of per-processor heaps; [None] means one per processor. *)
  assign_by_tid : bool;
      (** map threads to heaps by hashing the thread id (the released
          implementation's policy, useful when threads outnumber
          processors) instead of by executing processor (the paper's
          presentation). Default false. *)
  release_to_os : bool;
      (** return empty superblocks from the global heap to the OS. *)
  release_threshold : int;
      (** empty superblocks the global heap retains before releasing. *)
  reservoir : int;
      (** R: capacity (superblocks) of the size-class-agnostic reservoir
          empty superblocks are parked in — decommitted but still mapped —
          when the global heap drains them, instead of being unmapped.
          Reuse pulls from the reservoir first (recommit + reformat to the
          needed class), turning an unmap+map round trip into a cheap
          commit. Overflow beyond R is unmapped as before, bounding
          residency by heap-held + R·S. 0 (the default) disables the
          reservoir, restoring the seed lifecycle. *)
  vmem_backend : Vmem_backend.kind;
      (** reuse policy of the simulated address space underneath this
          allocator's platform. The config record is the single source of
          truth for instrumented runs — harnesses construct the platform,
          so they read this field when building the simulator; it cannot
          retroactively change a platform the caller already built.
          Default [Exact] (the seed policy). *)
  path_work : int;
      (** instruction cycles charged per malloc/free beyond memory ops. *)
  front_end : int;
      (** capacity (blocks per size class) of the per-thread front-end
          cache serving malloc/free without lock traffic. 0 (the default)
          disables the front end entirely, restoring the paper's exact
          hot path; positive values must be at least 2 so that fills and
          flushes can move [front_end / 2] blocks per lock acquisition.
          With the front end on, evicted blocks return to their owner
          heap through its unbounded intrusive deferred list: one CAS
          push per owner per eviction batch (no lock, no cap, no locked
          fallback), and the owner reclaims the whole list with one
          exchange on its next fill/flush, batching the blocks back
          through the heap core so the emptiness invariant and blowup
          envelope stay exact. *)
  large_cache : int;
      (** per-bucket capacity of the lock-free MPSC large-object cache in
          front of the large allocator: freed large regions are parked
          decommitted (still mapped) in per-page-count buckets and reused
          by take → commit instead of a map round trip; overflow beyond
          the bucket capacity unmaps as before. 0 (the default) disables
          the cache, restoring the seed large path. *)
  global : global_mode;
      (** how the global heap is structured; see {!global_mode}. Default
          [Locked] (the seed structure). *)
  sanitize : bool;
      (** heap sanitizer: freed blocks are quarantined (and, through the
          checked platform from [Hoard.sanitizer_access_check], poisoned
          against use-after-free), double frees and foreign pointers are
          diagnosed with {!Hoard.Sanitizer_violation} naming the owning
          superblock, heap and recent event trace. Default false: the
          sanitizer costs host time and delays block reuse, so it is a
          testing configuration, not a benchmarking one. *)
  quarantine : int;
      (** ring capacity (blocks) of the sanitizer's free quarantine: the
          most recent [quarantine] frees are held back from reuse so late
          use-after-free and double free remain detectable. 0 checks
          frees but recycles immediately. Only meaningful with
          [sanitize]. *)
  mutant : string;
      (** hidden test hook: "" (default) is the real allocator; a known
          mutant name plants a specific concurrency bug for the schedule
          explorer to find (see {!known_mutants}). Never set outside
          tests. *)
}

val known_mutants : string list
(** ["skip-owner-recheck"] drops the ownership re-check after acquiring a
    heap lock in [free], racing against superblock transfer to the global
    heap; ["emptiness-off-by-one"] makes the emptiness-invariant trim use
    K+1 while the invariant checker still demands K;
    ["reservoir-no-aba"] freezes the ABA tag of the lock-free reservoir
    stack, planting the classic Treiber pop-over-recycled-head
    bug; ["park-before-decommit"] publishes a superblock to the reservoir
    BEFORE decommitting its pages, so a concurrent taker can recommit and
    reuse pages the parker then decommits out from under it;
    ["deferred-lost-node"] makes the deferred-list push treat a failed
    CAS as success (dropping the retry), silently losing the block under
    producer contention; ["large-cache-no-aba"] freezes the ABA tag of
    the large-object cache's bucket stacks; ["global-no-aba"] freezes the
    ABA tags of the lock-free global index's per-bin membership stacks
    (a pop over a concurrently recycled head then splices a stale tail,
    stranding superblocks the index check finds unreachable);
    ["global-skip-revalidate"] makes the index's acquire skip the
    claim-CAS revalidation after popping a membership entry, so a
    concurrent deferred-free reclaimer holding the superblock Busy
    mutates it while the acquiring heap inserts and allocates from it. *)

val default : t

val make :
  ?base:t ->
  ?sb_size:int ->
  ?empty_fraction:float ->
  ?slack:int ->
  ?growth:float ->
  ?ngroups:int ->
  ?nheaps:int option ->
  ?assign_by_tid:bool ->
  ?release_to_os:bool ->
  ?release_threshold:int ->
  ?reservoir:int ->
  ?vmem_backend:Vmem_backend.kind ->
  ?path_work:int ->
  ?front_end:int ->
  ?large_cache:int ->
  ?global:global_mode ->
  ?sanitize:bool ->
  ?quarantine:int ->
  ?mutant:string ->
  unit ->
  t
(** Labelled builder: every omitted knob takes its value from [?base]
    (default {!default}). The result is {!validate}d — out-of-range
    knobs raise [Invalid_argument] at construction, not at first use. *)

val set : t -> string -> t
(** [set t "knob=value"] parses and applies one textual override, range-
    checking the result. Knob names accept both ['-'] and ['_'] word
    separators. Raises [Invalid_argument] (naming the known knobs) on an
    unknown knob or malformed value. This is the engine behind the
    [--set] option shared by hoard_bench, hoard_trace and hoard_check. *)

val set_all : t -> string list -> t
(** Left fold of {!set}. *)

val knob_names : unit -> string list

val knob_doc : unit -> string
(** One line per knob, ["  name  doc"], for CLI [--set] help text. *)

val validate : t -> unit
(** Raises [Invalid_argument] on out-of-range parameters. Driven by the
    same per-knob range checks as {!set}. *)

val max_small : t -> int
(** Largest request served from superblocks: S/2, as in the paper. *)

val pp : Format.formatter -> t -> unit
(** Registry-driven: the core shape knobs always print; every other knob
    prints only when it differs from {!default}. *)
