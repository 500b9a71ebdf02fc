(** The one registry of allocator factories every executable draws from
    (the benchmark harness, the trace tooling and the experiment suite
    used to carry their own copies of this list).

    Hoard runs in two measurement configurations: [hoard] is the
    paper-exact one ([front_end = 0], locked global heap), [hoard-gl]
    the production one (front end, deferred remote-free lists, lock-free
    global heap). [hoard-san] and [hoard-res] are checking
    configurations for the sanitizer and the superblock reservoir. *)

val all : unit -> Alloc_intf.factory list
(** Every measurement factory, in presentation order. Checking
    configurations ({!extras}) are not included, so sweeps and tables
    stay on the seven comparison allocators. *)

val extras : unit -> Alloc_intf.factory list
(** Checking configurations ([hoard-san], [hoard-res]); resolvable
    through {!find}. *)

val labels : unit -> string list

val find : string -> Alloc_intf.factory option
(** Lookup by [Alloc_intf.label], across {!all} and {!extras}. *)

val base_config : string -> Hoard_config.t option
(** The {!Hoard_config} a hoard-family label's factory registers with;
    [None] for the non-hoard comparison allocators. *)

val with_overrides :
  (Hoard_config.t -> Hoard_config.t) -> string -> Alloc_intf.factory option
(** [with_overrides f label] rebuilds the labelled hoard-family factory
    over [f base_config] — how the CLIs apply [--set knob=value]
    overrides on top of an [--allocator] choice. [None] when the label
    is unknown or has no config ({!base_config}). *)

val help : unit -> string
(** One "label  description" line per factory, for [--allocator help]. *)

val front_end_default : int
(** Cache capacity [hoard-gl] registers with. *)

val large_cache_default : int
(** Per-bucket large-object cache capacity the checking subjects that
    cover {!Hoard_config.t.large_cache} run with ([hoard-gl] itself
    registers without the cache). *)

val hoard_san : ?quarantine:int -> unit -> Alloc_intf.factory
(** A sanitizer-enabled hoard factory (see {!Hoard_config.t.sanitize}). *)

val hoard_res : ?reservoir:int -> ?vmem_backend:Vmem_backend.kind -> unit -> Alloc_intf.factory
(** A reservoir-enabled hoard factory (see {!Hoard_config.t.reservoir}):
    empty superblocks park decommitted instead of unmapping, up to
    [reservoir] (default 8) of them, on the [vmem_backend] (default
    {!Vmem_backend.First_fit}) reuse policy. Harnesses that build their
    own platform must honour [config.vmem_backend] when doing so
    (e.g. {!Runner.spec}'s [vmem_backend]). *)

val hoard_gl : ?front_end:int -> unit -> Alloc_intf.factory
(** The production configuration: the front end (default capacity
    {!front_end_default}; evictions ride the deferred remote-free lists,
    see {!Hoard_config.t.front_end}) with the lock-free global heap (see
    {!Hoard_config.t.global} = [Lockfree]): heap 0's Dlist fullness
    groups replaced by the CAS-published {!Global_index}, so superblock
    transfer in either direction — and frees into global superblocks —
    never acquire the heap-0 lock. *)
