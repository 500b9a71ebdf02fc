(** The blowup adversary from the paper's analysis section.

    Threads pair up: even threads allocate batches of objects, odd threads
    free them, round after round. Live memory is bounded by one batch per
    pair, but an allocator whose freed memory is stranded on the freeing
    thread's heap (pure private heaps) consumes memory proportional to the
    number of rounds — the unbounded blowup the paper proves. Hoard's
    emptiness invariant keeps consumption O(U + P). *)

type params = {
  rounds : int;
  batch : int;  (** objects per round per pair *)
  size : int;
  seed : int;
}

val default_params : params

val make : ?params:params -> unit -> Workload_intf.t

val pipelined : ?params:params -> unit -> Workload_intf.t
(** The double-buffered variant: one barrier per round, the producer
    filling one buffer while the consumer drains the other — so every
    free is remote and concurrent with the owner heap's allocation
    burst. The adversarial schedule for the remote-free path: paper
    Hoard's remote frees make the consumer contend for the owner's heap
    lock mid-burst, the front end's deferred lists batch them into one
    CAS per eviction. *)

val phased : ?params:params -> unit -> Workload_intf.t
(** The O(P) blowup adversary: threads take turns — in each round exactly
    one thread allocates the whole batch and frees it again, so live
    memory never exceeds one batch. Ownership-based private heaps strand
    the freed batch in the allocating thread's heap, consuming P times the
    live memory after one lap; Hoard's emptiness invariant returns the
    superblocks to the global heap for the next thread to reuse. *)
