(* Multicore stress tests: real OCaml 5 domains hammering one Hoard
   instance through malloc / free / usable_size, with every free crossing
   heaps (the paper's producer-consumer pattern, the shape of Larson).
   These are the tests that die if the superblock registry or the stats
   shards are not domain-safe.

   Invariants are only asserted at quiescent points (all domains parked at
   a barrier, or after join): [Hoard.check] compares unsynchronised
   accounting sums, and the emptiness invariant is legitimately broken
   mid-flight between a malloc and the free that restores it. *)

let ndomains = 4

(* Sense-reversing spin barrier usable from real domains. *)
let make_barrier parties =
  let count = Atomic.make 0 and sense = Atomic.make false in
  fun () ->
    let s = Atomic.get sense in
    if Atomic.fetch_and_add count 1 = parties - 1 then begin
      Atomic.set count 0;
      Atomic.set sense (not s)
    end
    else while Atomic.get sense = s do Domain.cpu_relax () done

let spawn_domains n body =
  let doms = List.init n (fun i -> Domain.spawn (fun () -> body i)) in
  List.iter Domain.join doms

(* Heap slot a domain's threads land on (assign_by_tid = false on a host
   platform: executing processor = tid mod nprocs). Used to decide whether
   the schedule could produce remote frees at all. *)
let heap_slot ~nheaps tid = tid mod nheaps

let distinct_heaps ~nheaps tids =
  List.sort_uniq compare (List.map (heap_slot ~nheaps) (Array.to_list tids)) |> List.length

(* --- cross-heap free storm --- *)

let test_free_storm () =
  let rounds = 25 and batch = 64 in
  let pf = Platform.host ~nprocs:ndomains () in
  let h = Hoard.create pf in
  let a = Hoard.allocator h in
  let slots = Array.init ndomains (fun _ -> Array.make batch 0) in
  let barrier = make_barrier ndomains in
  let failures = Atomic.make 0 in
  let quiescent_check d =
    (* Everyone is parked at the barrier surrounding this call. *)
    barrier ();
    if d = 0 then (try Hoard.check h with _ -> Atomic.incr failures);
    barrier ()
  in
  spawn_domains ndomains (fun d ->
      let rng = Random.State.make [| 0xbeef; d |] in
      for round = 1 to rounds do
        for i = 0 to batch - 1 do
          let size = 8 + Random.State.int rng 2040 in
          let addr = a.Alloc_intf.malloc size in
          (* Concurrent lookups against other domains' registrations. *)
          if a.Alloc_intf.usable_size addr < size then Atomic.incr failures;
          slots.(d).(i) <- addr
        done;
        quiescent_check d;
        (* Free the neighbour's batch: every free acts on a superblock
           owned by another domain's heap. *)
        let victim = slots.((d + 1) mod ndomains) in
        for i = 0 to batch - 1 do
          if a.Alloc_intf.usable_size victim.(i) <= 0 then Atomic.incr failures;
          a.Alloc_intf.free victim.(i)
        done;
        quiescent_check d;
        ignore round
      done);
  Alcotest.(check int) "no mid-run check failures" 0 (Atomic.get failures);
  Hoard.check h;
  for id = 0 to Hoard.nheaps h do
    Alcotest.(check bool) (Printf.sprintf "invariant heap %d" id) true (Hoard.invariant_holds h ~heap_id:id)
  done;
  let s = a.Alloc_intf.stats () in
  let expected = ndomains * rounds * batch in
  Alcotest.(check int) "exact mallocs" expected s.Alloc_stats.mallocs;
  Alcotest.(check int) "exact frees" expected s.Alloc_stats.frees;
  Alcotest.(check int) "no live bytes" 0 s.Alloc_stats.live_bytes;
  Platform.host_release pf;
  Alcotest.(check bool) "vmem released" true (Platform.host_vmem pf = None)

(* --- producer-consumer ring (Larson shape) --- *)

let test_producer_consumer () =
  let per_producer = 2000 and ring_size = 32 in
  let nproducers = ndomains / 2 in
  let total = nproducers * per_producer in
  let pf = Platform.host ~nprocs:ndomains () in
  let h = Hoard.create pf in
  let a = Hoard.allocator h in
  let ring = Array.init ring_size (fun _ -> Atomic.make (-1)) in
  let consumed = Atomic.make 0 in
  let tids = Array.make ndomains 0 in
  let failures = Atomic.make 0 in
  spawn_domains ndomains (fun d ->
      tids.(d) <- (Domain.self () :> int);
      let rng = Random.State.make [| 0xf00d; d |] in
      if d < nproducers then
        for _ = 1 to per_producer do
          let size = 16 + Random.State.int rng 496 in
          let addr = a.Alloc_intf.malloc size in
          if a.Alloc_intf.usable_size addr < size then Atomic.incr failures;
          let slot = ref (Random.State.int rng ring_size) in
          let published = ref false in
          while not !published do
            let cell = ring.(!slot) in
            if Atomic.get cell = -1 && Atomic.compare_and_set cell (-1) addr then published := true
            else begin
              slot := (!slot + 1) mod ring_size;
              Domain.cpu_relax ()
            end
          done
        done
      else begin
        let slot = ref d in
        while Atomic.get consumed < total do
          let cell = ring.(!slot mod ring_size) in
          let addr = Atomic.get cell in
          if addr <> -1 && Atomic.compare_and_set cell addr (-1) then begin
            Atomic.incr consumed;
            a.Alloc_intf.free addr
          end
          else Domain.cpu_relax ();
          incr slot
        done
      end);
  Alcotest.(check int) "no usable_size failures" 0 (Atomic.get failures);
  Hoard.check h;
  let s = a.Alloc_intf.stats () in
  Alcotest.(check int) "exact mallocs" total s.Alloc_stats.mallocs;
  Alcotest.(check int) "exact frees" total s.Alloc_stats.frees;
  Alcotest.(check int) "no live bytes" 0 s.Alloc_stats.live_bytes;
  (* Consumers free blocks malloc'd by producers; whenever any two of the
     domains landed on different heaps, some of those frees must have been
     remote. (With every domain hashed to one heap — astronomically
     unlikely — the assertion is vacuous.) *)
  if distinct_heaps ~nheaps:(Hoard.nheaps h) tids > 1 then
    Alcotest.(check bool)
      (Printf.sprintf "remote frees observed (%d)" s.Alloc_stats.remote_frees)
      true
      (s.Alloc_stats.remote_frees > 0);
  Platform.host_release pf

(* --- the same storm through the lock-free front end --- *)

let test_front_end_storm () =
  (* Every free is a neighbour's block, so eviction constantly batches
     onto other heaps' deferred lists while those heaps' owners are
     allocating. Worker caches are flushed by Domain.at_exit on join;
     flush_caches then empties the deferred lists so the final stats
     must be exact. *)
  let rounds = 20 and batch = 64 in
  let pf = Platform.host ~nprocs:ndomains () in
  let h = Hoard.create ~config:(Hoard_config.make ~front_end:16 ()) pf in
  let a = Hoard.allocator h in
  let slots = Array.init ndomains (fun _ -> Array.make batch 0) in
  let barrier = make_barrier ndomains in
  let failures = Atomic.make 0 in
  spawn_domains ndomains (fun d ->
      let rng = Random.State.make [| 0xfe17; d |] in
      for _ = 1 to rounds do
        for i = 0 to batch - 1 do
          let size = 8 + Random.State.int rng 2040 in
          let addr = a.Alloc_intf.malloc size in
          if a.Alloc_intf.usable_size addr < size then Atomic.incr failures;
          slots.(d).(i) <- addr
        done;
        barrier ();
        let victim = slots.((d + 1) mod ndomains) in
        for i = 0 to batch - 1 do
          a.Alloc_intf.free victim.(i)
        done;
        barrier ()
      done);
  Hoard.flush_caches h;
  Hoard.check h;
  let s = a.Alloc_intf.stats () in
  let expected = ndomains * rounds * batch in
  Alcotest.(check int) "no usable_size failures" 0 (Atomic.get failures);
  Alcotest.(check int) "exact mallocs" expected s.Alloc_stats.mallocs;
  Alcotest.(check int) "exact frees" expected s.Alloc_stats.frees;
  Alcotest.(check int) "no live bytes" 0 s.Alloc_stats.live_bytes;
  Alcotest.(check bool) "front end exercised" true (s.Alloc_stats.cache_hits > 0);
  Alcotest.(check bool) "deferred lists exercised" true (s.Alloc_stats.deferred_enqueues > 0);
  Platform.host_release pf

(* --- stats exactness across domains, small and large paths --- *)

let test_stats_exact () =
  let small_sizes = [| 24; 96; 512; 2048 |] and large_sizes = [| 5000; 20_000 |] in
  let reps = 200 in
  let pf = Platform.host ~nprocs:ndomains () in
  let h = Hoard.create pf in
  let a = Hoard.allocator h in
  let barrier = make_barrier ndomains in
  spawn_domains ndomains (fun _ ->
      let own = ref [] in
      for _ = 1 to reps do
        Array.iter (fun sz -> own := a.Alloc_intf.malloc sz :: !own) small_sizes;
        Array.iter (fun sz -> own := a.Alloc_intf.malloc sz :: !own) large_sizes
      done;
      barrier ();
      List.iter a.Alloc_intf.free !own;
      barrier ());
  let per_domain = reps * (Array.length small_sizes + Array.length large_sizes) in
  let bytes_per_rep =
    Array.fold_left ( + ) 0 small_sizes + Array.fold_left ( + ) 0 large_sizes
  in
  let s = a.Alloc_intf.stats () in
  Alcotest.(check int) "exact mallocs" (ndomains * per_domain) s.Alloc_stats.mallocs;
  Alcotest.(check int) "exact frees" (ndomains * per_domain) s.Alloc_stats.frees;
  Alcotest.(check int) "exact bytes requested" (ndomains * reps * bytes_per_rep) s.Alloc_stats.bytes_requested;
  Alcotest.(check int) "no live bytes" 0 s.Alloc_stats.live_bytes;
  Alcotest.(check bool) "peak covers one domain's footprint" true
    (s.Alloc_stats.peak_live_bytes >= reps * bytes_per_rep);
  Hoard.check h;
  for id = 0 to Hoard.nheaps h do
    Alcotest.(check bool) (Printf.sprintf "invariant heap %d" id) true (Hoard.invariant_holds h ~heap_id:id)
  done;
  Platform.host_release pf

(* --- domain churn: create / serve / exit waves --- *)

let test_churn_waves () =
  (* Successive waves of domains are born, serve one batch (with every
     free crossing to a neighbour's heap through the front-end cache),
     retire through [thread_exit] and die. The runtime recycles domain
     ids across waves, so a tcache that exit failed to retire would be
     inherited — stale — by a later wave's domain. thread_exit is called
     twice per domain: the second call must find no cache and an empty
     heap (exit is idempotent; a double exit-flush would double-count
     frees). After each wave, a global [Hoard.flush_caches] settles the
     remote-free queues the exits legitimately left behind (an exiting
     thread's evictions can land on a heap whose own thread is already
     gone) — but it must find ZERO blocks still sitting in any front-end
     cache: [cache_flushes] may not move during it. That is the leaked-
     tcache probe; conservation after the settle is exact. *)
  let waves = 5 and batch = 48 in
  let pf = Platform.host ~nprocs:ndomains () in
  let h = Hoard.create ~config:(Hoard_config.make ~front_end:8 ()) pf in
  let a = Hoard.allocator h in
  let failures = Atomic.make 0 in
  for wave = 1 to waves do
    let stash = Array.init ndomains (fun _ -> Array.make batch 0) in
    let barrier = make_barrier ndomains in
    spawn_domains ndomains (fun d ->
        let rng = Random.State.make [| 0xc4a0; wave; d |] in
        for i = 0 to batch - 1 do
          let size = 8 + Random.State.int rng 1016 in
          let addr = a.Alloc_intf.malloc size in
          if a.Alloc_intf.usable_size addr < size then Atomic.incr failures;
          stash.(d).(i) <- addr
        done;
        barrier ();
        (* Serve: free the neighbour's batch — remote frees batching
           through this domain's cache onto other heaps' queues. *)
        let victim = stash.((d + 1) mod ndomains) in
        for i = 0 to batch - 1 do
          a.Alloc_intf.free victim.(i)
        done;
        barrier ();
        (* Retire; exits of different domains race each other's heap
           adoptions on the global heap. *)
        a.Alloc_intf.thread_exit ();
        a.Alloc_intf.thread_exit ());
    (* Every domain retired: no cache may still hold blocks, so the
       settling flush must not flush a single one. *)
    let before = (a.Alloc_intf.stats ()).Alloc_stats.cache_flushes in
    Hoard.flush_caches h;
    let s = a.Alloc_intf.stats () in
    Alcotest.(check int)
      (Printf.sprintf "wave %d no leaked tcache blocks" wave)
      before s.Alloc_stats.cache_flushes;
    let expected = wave * ndomains * batch in
    Alcotest.(check int) (Printf.sprintf "wave %d exact mallocs" wave) expected s.Alloc_stats.mallocs;
    Alcotest.(check int) (Printf.sprintf "wave %d exact frees" wave) expected s.Alloc_stats.frees;
    Alcotest.(check int) (Printf.sprintf "wave %d no live bytes" wave) 0 s.Alloc_stats.live_bytes;
    Hoard.check h;
    (* Per-processor heaps only: the global heap is the designed home
       for adopted superblocks whose blocks the settle just freed, so
       the per-processor emptiness invariant does not apply to it. *)
    for id = 1 to Hoard.nheaps h do
      Alcotest.(check bool)
        (Printf.sprintf "wave %d invariant heap %d" wave id)
        true
        (Hoard.invariant_holds h ~heap_id:id)
    done
  done;
  Alcotest.(check int) "no usable_size failures" 0 (Atomic.get failures);
  let s = a.Alloc_intf.stats () in
  Alcotest.(check bool)
    (Printf.sprintf "orphan adoptions recorded (%d)" s.Alloc_stats.orphan_adoptions)
    true
    (s.Alloc_stats.orphan_adoptions >= 1);
  Platform.host_release pf

(* --- the same storm under fuzzed simulator schedules --- *)

let test_sim_fuzzed_storm () =
  let rounds = 6 and batch = 24 and nthreads = 4 in
  List.iter
    (fun seed ->
      let sim = Sim.create ~fuzz_schedule:seed ~nprocs:nthreads () in
      let pf = Sim.platform sim in
      let a = (Hoard.factory ()).Alloc_intf.instantiate pf in
      let slots = Array.init nthreads (fun _ -> Array.make batch 0) in
      let barrier = Sim.new_barrier sim ~parties:nthreads in
      for t = 0 to nthreads - 1 do
        ignore
          (Sim.spawn sim (fun () ->
               let rng = Random.State.make [| seed; t |] in
               for _ = 1 to rounds do
                 for i = 0 to batch - 1 do
                   (* Mix of small and (rarely) large requests. *)
                   let size =
                     if Random.State.int rng 16 = 0 then 4096 + Random.State.int rng 4096
                     else 8 + Random.State.int rng 1024
                   in
                   let addr = a.Alloc_intf.malloc size in
                   assert (a.Alloc_intf.usable_size addr >= size);
                   slots.(t).(i) <- addr
                 done;
                 Sim.barrier_wait barrier;
                 let victim = slots.((t + 1) mod nthreads) in
                 for i = 0 to batch - 1 do
                   a.Alloc_intf.free victim.(i)
                 done;
                 Sim.barrier_wait barrier
               done))
      done;
      Sim.run sim;
      a.Alloc_intf.check ();
      let s = a.Alloc_intf.stats () in
      let expected = nthreads * rounds * batch in
      Alcotest.(check int) (Printf.sprintf "seed %d exact mallocs" seed) expected s.Alloc_stats.mallocs;
      Alcotest.(check int) (Printf.sprintf "seed %d exact frees" seed) expected s.Alloc_stats.frees;
      Alcotest.(check int) (Printf.sprintf "seed %d no live bytes" seed) 0 s.Alloc_stats.live_bytes)
    [ 0; 1; 2; 3; 4; 5; 6; 7 ]

(* --- registry under concurrent register/unregister/lookup --- *)

let test_registry_concurrent () =
  let pf = Platform.host ~nprocs:ndomains () in
  let sb_size = 8192 in
  let reg = Sb_registry.create pf ~sb_size in
  let per_domain = 400 in
  let failures = Atomic.make 0 in
  spawn_domains ndomains (fun d ->
      (* Disjoint slot ranges per domain; lookups race against the other
         domains' registrations and removals. *)
      let base i = ((d * per_domain) + i) * sb_size in
      let sbs =
        Array.init per_domain (fun i ->
            Superblock.create ~base:(base i) ~sb_size ~sclass:0 ~block_size:16)
      in
      for i = 0 to per_domain - 1 do
        Sb_registry.register reg sbs.(i);
        (match Sb_registry.lookup reg ~addr:(base i + (sb_size / 2)) with
         | Some sb when sb == sbs.(i) -> ()
         | _ -> Atomic.incr failures);
        (* Probe a foreign domain's range: must never raise or tear. *)
        ignore (Sb_registry.lookup reg ~addr:(((d + 1) mod ndomains) * per_domain * sb_size))
      done;
      for i = 0 to per_domain - 1 do
        if i land 1 = 0 then Sb_registry.unregister reg sbs.(i)
      done);
  Alcotest.(check int) "no lookup failures" 0 (Atomic.get failures);
  Alcotest.(check int) "count reflects survivors" (ndomains * per_domain / 2) (Sb_registry.count reg);
  Platform.host_release pf

let () =
  Alcotest.run "race_stress"
    [
      ( "domains",
        [
          Alcotest.test_case "cross-heap free storm" `Quick test_free_storm;
          Alcotest.test_case "front-end free storm" `Quick test_front_end_storm;
          Alcotest.test_case "producer-consumer ring" `Quick test_producer_consumer;
          Alcotest.test_case "stats exact across domains" `Quick test_stats_exact;
          Alcotest.test_case "churn waves create/serve/exit" `Quick test_churn_waves;
          Alcotest.test_case "registry concurrent ops" `Quick test_registry_concurrent;
        ] );
      ("simsched", [ Alcotest.test_case "fuzzed-schedule storm" `Quick test_sim_fuzzed_storm ]);
    ]
