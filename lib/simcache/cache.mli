(** Directory-based cache-coherence simulator.

    Models the property false sharing is defined by: at any instant each
    cache line is either uncached, held Shared by a set of processors, or
    held Exclusive (dirty) by one processor. Reads and writes update the
    directory MESI-style and are classified as hits, cold misses (line
    never cached by this processor before and not supplied by a peer) or
    coherence misses (another processor's copy had to be downgraded or
    invalidated). Writes invalidate remote copies; every invalidation is
    counted on both sides, which is the direct measurement behind the
    paper's active/passive false-sharing experiments.

    Caches are infinite by default (no capacity evictions): the
    experiments target coherence traffic, not working-set effects, and an
    infinite cache gives a *lower bound* on misses that still exposes
    false sharing exactly. Pass [capacity_lines] for a finite LRU cache
    per processor. *)

type t

type proc = int

type summary = {
  hits : int;  (** lines this processor already held *)
  cold_misses : int;  (** lines no processor held: first touch, or all copies evicted *)
  coherence_misses : int;  (** lines a remote copy had to be downgraded or invalidated to serve *)
  invalidations_sent : int;  (** remote copies killed by this access *)
  cross_node_events : int;
      (** coherence events (miss service or invalidation) whose peer sits
          on a different NUMA node; 0 on flat machines *)
  cross_socket_events : int;
      (** coherence events whose peer sits on a different socket (the
          two-tier topology's outer tier); 0 on single-socket machines *)
}
(** Aggregate over the (possibly several) lines an access spans. *)

type proc_stats = {
  p_hits : int;
  p_cold_misses : int;
  p_coherence_misses : int;
  p_invalidations_sent : int;
  p_invalidations_received : int;
  p_evictions : int;  (** capacity evictions (finite caches only) *)
}

val create :
  ?line_size:int ->
  ?capacity_lines:int ->
  ?node_of:(proc -> int) ->
  ?socket_of:(proc -> int) ->
  nprocs:int ->
  unit ->
  t
(** [line_size] defaults to 64 bytes and must be a power of two. [nprocs]
    must be in [\[1, 1024\]] (processor sets are multi-word bit sets).
    [node_of], when given, assigns each processor to a NUMA node;
    coherence events between processors on different nodes are counted in
    [cross_node_events] (the simulator charges them extra). [socket_of]
    likewise assigns each processor to a socket for the two-tier
    topology; socket-crossing events are counted in
    [cross_socket_events] and charged the steeper
    {!Cost_model.t.cross_socket} surcharge. Both maps are materialised
    and validated at creation: ids must lie in [\[0, nprocs)] and be
    contiguous (every id up to the maximum used), otherwise
    [Invalid_argument] is raised — a silently out-of-range id would
    miscount cross-domain events.
    [capacity_lines], when given, bounds each processor's cache to that
    many lines with LRU replacement; a line evicted for capacity must be
    fetched again on the next access (classified as a cold miss when no
    remote copy exists, a coherence miss otherwise). By default caches are
    infinite: the false-sharing experiments want pure coherence traffic. *)

val line_size : t -> int

val nprocs : t -> int

val read : t -> proc -> addr:int -> len:int -> summary

val write : t -> proc -> addr:int -> len:int -> summary

val credit_hits : t -> proc -> int -> unit
(** [credit_hits t p n] counts [n] read hits of processor [p] without
    touching the directory. A read hit changes no directory state (and no
    LRU order when the line is [p]'s most recently used one), so [n] more
    reads of the line [p] accessed last, with no write to it in between,
    are exactly [n] hits; the simulator uses this to account spin retries
    it does not step one by one. *)

val stats : t -> proc -> proc_stats

val total_cross_node_events : t -> int

val total_cross_socket_events : t -> int

val node_of : t -> proc -> int
(** NUMA node of a processor under the validated map. *)

val socket_of : t -> proc -> int
(** Socket of a processor under the validated map. *)

val total_invalidations : t -> int
(** Sum over processors of invalidations received. *)

val total_coherence_misses : t -> int

val line_of_addr : t -> int -> int
(** Line index containing an address (for tests). *)

val sharers : t -> line:int -> proc list
(** Processors currently holding the line (empty if uncached). *)

val reset_stats : t -> unit
(** Zeroes all counters; directory state is preserved. *)
