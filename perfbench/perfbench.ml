(* The repository benchmark: paper-exact [hoard] and production
   [hoard-gl] on three workloads, each on a fresh simulated machine with
   empty caches, driven from this single host thread.

   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]

   --trace 0 repeats untraced runs of both allocators for S seconds and
   prints the end-to-end metrics. --trace 1 adds one traced run per
   allocator, gates it against the untraced run, writes its spans as a
   Perfetto trace into DIR, and prints the per-layer metrics. The last
   line of standard output is one JSON object with the keys correct,
   attempted, failed and metrics. See README.md in this directory. *)

type workload = {
  name : string;
  nprocs : int;
  topology : (int * int) option;
  requests : int;  (** requests a server run completes; 0 for closed-loop workloads *)
  seeded : bool;  (** whether the seed reaches the inputs (threadtest has no randomness) *)
  inputs : int;
      (** input sets per run: the end-to-end figures pool this many seeded
          runs of each allocator, which keeps a tail percentile of a
          seed-sensitive workload steady from one seed to the next *)
  make : seed:int -> Server_mix.recorder -> Workload_intf.t;
}

(* Full-scale shapes, the EXPERIMENTS.md configurations at these P. *)
let workloads =
  [
    {
      name = "larson-remote";
      nprocs = 32;
      topology = None;
      requests = 0;
      inputs = 1;
      seeded = true;
      make =
        (fun ~seed _ ->
          Larson.make
            ~params:{ Larson.default_params with Larson.rounds = 600; handoffs = 6; objects_per_thread = 2000; seed }
            ());
    };
    {
      name = "server-bursty";
      nprocs = 48;
      topology = None;
      requests = 8000;
      inputs = 6;
      seeded = true;
      make =
        (fun ~seed recorder ->
          Server_mix.make
            ~params:{ Server_mix.default_params with Server_mix.profile = Server_mix.Bursty; requests = 8000; seed }
            ~recorder ());
    };
    {
      name = "threadtest-2socket";
      nprocs = 128;
      topology = Some (2, 64);
      requests = 0;
      inputs = 1;
      seeded = false;
      make =
        (fun ~seed:_ _ ->
          Threadtest.make ~params:{ Threadtest.default_params with Threadtest.iterations = 16; objects = 8000 } ());
    };
  ]

let allocators () =
  List.map
    (fun label ->
      match Allocators.find label with
      | Some f -> f
      | None -> failwith ("perfbench: no allocator " ^ label))
    [ "hoard"; "hoard-gl" ]

(* The seed of input set [i] of a run with seed [seed]. Larson seeds its
   threads with [seed + t] and the server mix with [seed + 7919 t], so the
   input sets sit far apart to keep their per-thread streams distinct. *)
let input_seed ~seed i = (seed * 1_000_003) + (i * 100_003)

(* Everything a run computes on the simulated machine. All of it is a
   pure function of (workload, allocator, input seed), so two runs compare
   with structural equality. *)
type sim = {
  cycles : int;
  lat : int array;  (** cycles of every malloc, free and batch call, sorted *)
  req : int array;  (** request latencies, sorted (empty for closed-loop workloads) *)
  peak_held : int;
  peak_resident : int;
  blocks_allocated : int;
  blocks_freed : int;
  size_hash : int;
  completed : int;
  stats : Alloc_stats.snapshot;
  lock_stats : (string * int * int) list;
  coherence_misses : int;
  invalidations : int;
  cross_socket_events : int;
  address_space : int;
  proc_cycles : int;  (** summed over processors *)
  check_error : string option;  (** the post-run check, [None] if it passed *)
}

type run = {
  sim : sim;
  setup_s : float;
  run_s : float;
  check_s : float;
  ref_s : float;  (** mean time of a reference piece around and inside the run; [nan] for a traced run *)
  tracer : Probe.tracer option;
}

let now_s = Unix.gettimeofday

(* --- host speed -------------------------------------------------------------- *)

(* The host is shared, and its speed changes by up to 1.7x from one
   second to the next and over tens of seconds as other tenants come and
   go; every wall time of a run swings with it. A reference piece of work
   tracks that speed. It uses only the standard library and allocates
   nothing, and it has two parts of about equal time, about 5 ms in all
   on a 2.1 GHz vCPU: lookups of pseudo-random keys in a fixed
   1,000-entry hash table, whose data stays in the L2 cache, and a walk
   of 20,000 steps along a random cycle through a 16 MB array, which
   feels the other tenants' use of the shared cache and memory. The walk
   touches about 1.3 MB of cache lines: pieces run back to back can find
   them in the L2 cache, pieces inside a run find what 0.1 s of
   [Sim.run] left there. A piece is timed [boundary_pieces] times just
   before and just after every untraced [Sim.run], and inside the run
   once every [sample_every_s] at an allocator-call boundary, so the
   pieces sample the host's speed evenly over the run. The pieces inside
   are taken out of the run's wall time, and [host_s] divides that by
   the mean piece time, so it reads in seconds on a host where one piece
   takes [reference_s]. The simulated figures do not see the pieces:
   they charge no simulated cycles. *)
let reference_table =
  lazy
    (let h = Hashtbl.create 16 in
     for i = 0 to 999 do
       Hashtbl.replace h (i * 7919 mod 1_000_003) i
     done;
     h)

(* [next.{i}] is the successor of [i] on one random cycle through every
   slot. A bigarray, so the GC never scans it. *)
let reference_walk =
  lazy
    (let n = 2 * 1024 * 1024 in
     let st = Random.State.make [| 7 |] in
     let order = Array.init n Fun.id in
     for i = n - 1 downto 1 do
       let j = Random.State.int st (i + 1) in
       let t = order.(i) in
       order.(i) <- order.(j);
       order.(j) <- t
     done;
     let next = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n in
     Array.iteri (fun i slot -> next.{slot} <- order.((i + 1) mod n)) order;
     next)

let reference_piece () =
  let h = Lazy.force reference_table and next = Lazy.force reference_walk in
  let t0 = now_s () in
  let x = ref 12345 and hits = ref 0 in
  for _ = 1 to 40_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    if Hashtbl.mem h (!x mod 1_000_003) then incr hits
  done;
  let slot = ref 0 in
  for _ = 1 to 20_000 do
    slot := next.{!slot}
  done;
  ignore (Sys.opaque_identity (!hits + !slot));
  now_s () -. t0

let reference_s = 0.005

let boundary_pieces = 4

let sample_every_s = 0.1

type speed = {
  mutable pieces_s : float;  (** summed time of every piece of the run *)
  mutable pieces : int;
  mutable inside_s : float;  (** summed time of the pieces inside [Sim.run] *)
  mutable next_at : float;
  mutable countdown : int;
}

let sample sp ~inside =
  let d = reference_piece () in
  sp.pieces_s <- sp.pieces_s +. d;
  sp.pieces <- sp.pieces + 1;
  if inside then sp.inside_s <- sp.inside_s +. d

(* Called at every allocator call of the run; reads the clock every 16th. *)
let tick sp () =
  sp.countdown <- sp.countdown - 1;
  if sp.countdown <= 0 then begin
    sp.countdown <- 16;
    if now_s () >= sp.next_at then begin
      sample sp ~inside:true;
      sp.next_at <- now_s () +. sample_every_s
    end
  end

(* Set-ups per allocator timed on their own for [setup_s], on top of the
   one every run does. *)
let setup_samples = 20

(* A machine ready to run: inputs built, allocator instantiated, threads
   spawned. *)
type machine = {
  m_sim : Sim.t;
  m_raw : Platform.t;
  m_alloc : Alloc_intf.t;
  m_calls : Probe.calls;
  m_req : Probe.Ibuf.t;
  m_recorder : Server_mix.recorder;
  m_tracer : Probe.tracer option;
  m_setup_s : float;
}

let set_up (wl : workload) (fac : Alloc_intf.factory) ~seed ~traced =
  (* Host hygiene: every set-up starts from a compacted heap, so garbage
     left by the previous run is not collected on this run's clock. *)
  Gc.compact ();
  let t0 = now_s () in
  let recorder = Server_mix.new_recorder () in
  let w = wl.make ~seed recorder in
  let sim = Sim.create ?topology:wl.topology ~nprocs:wl.nprocs () in
  let raw = Sim.platform sim in
  let tracer = if traced then Some (Probe.create_tracer raw) else None in
  let apf, wpf =
    match tracer with
    | Some tr -> (Probe.wrap_platform tr ~side:0 raw, Probe.wrap_platform tr ~side:1 raw)
    | None -> (raw, raw)
  in
  let a = fac.Alloc_intf.instantiate apf in
  let calls = Probe.new_calls () in
  let req = Probe.Ibuf.create () in
  Server_mix.set_sink recorder (fun ~arrival ~latency ~who:_ ->
      Probe.Ibuf.push req latency;
      Option.iter (fun tr -> Probe.request_done tr ~arrival ~latency) tracer);
  w.Workload_intf.spawn sim wpf (Probe.wrap_alloc raw ?tracer calls a) ~nthreads:wl.nprocs;
  {
    m_sim = sim;
    m_raw = raw;
    m_alloc = a;
    m_calls = calls;
    m_req = req;
    m_recorder = recorder;
    m_tracer = tracer;
    m_setup_s = now_s () -. t0;
  }

let run_once (wl : workload) (fac : Alloc_intf.factory) ~seed ~traced =
  let m = set_up wl fac ~seed ~traced in
  let sim = m.m_sim and a = m.m_alloc and calls = m.m_calls in
  let sp = { pieces_s = 0.0; pieces = 0; inside_s = 0.0; next_at = infinity; countdown = 0 } in
  let sampled = not traced in
  if sampled then begin
    for _ = 1 to boundary_pieces do
      sample sp ~inside:false
    done;
    calls.Probe.on_call <- tick sp
  end;
  let t1 = now_s () in
  sp.next_at <- t1 +. sample_every_s;
  Sim.run sim;
  let t2 = now_s () in
  calls.Probe.on_call <- ignore;
  if sampled then
    for _ = 1 to boundary_pieces do
      sample sp ~inside:false
    done;
  let t2' = now_s () in
  let check_error =
    match
      a.Alloc_intf.check ();
      Vmem.check (Sim.vmem sim)
    with
    | () -> None
    | exception e -> Some (Printexc.to_string e)
  in
  let t3 = now_s () in
  let ref_s = if sampled then sp.pieces_s /. float_of_int sp.pieces else nan in
  let vm = Sim.vmem sim and cache = Sim.cache sim in
  let proc_cycles = ref 0 in
  for p = 0 to wl.nprocs - 1 do
    proc_cycles := !proc_cycles + Sim.proc_cycles sim p
  done;
  let sim =
    {
      cycles = Sim.total_cycles sim;
      lat = Probe.Ibuf.sorted calls.Probe.lat;
      req = Probe.Ibuf.sorted m.m_req;
      peak_held = m.m_raw.Platform.peak_mapped_bytes ~owner:a.Alloc_intf.owner;
      peak_resident = Vmem.peak_resident_bytes vm;
      blocks_allocated = calls.Probe.blocks_allocated;
      blocks_freed = calls.Probe.blocks_freed;
      size_hash = calls.Probe.size_hash;
      completed = Server_mix.completed m.m_recorder;
      stats = a.Alloc_intf.stats ();
      lock_stats = Sim.lock_stats sim;
      coherence_misses = Cache.total_coherence_misses cache;
      invalidations = Cache.total_invalidations cache;
      cross_socket_events = Cache.total_cross_socket_events cache;
      address_space = Vmem.address_space_bytes vm;
      proc_cycles = !proc_cycles;
      check_error;
    }
  in
  { sim; setup_s = m.m_setup_s; run_s = t2 -. t1 -. sp.inside_s; check_s = t3 -. t2'; ref_s; tracer = m.m_tracer }

(* --- output checks --------------------------------------------------------- *)

let problems = ref []

let problem fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt

(* The outputs a run must produce whatever the allocator: every block
   that crossed the API is in the allocator's own counts, and a server
   run completes every request. *)
let check_outputs (wl : workload) label (s : sim) =
  let st = s.stats in
  if s.blocks_allocated <> st.Alloc_stats.mallocs then
    problem "%s: %d blocks allocated through the API, stats count %d mallocs" label s.blocks_allocated
      st.Alloc_stats.mallocs;
  if s.blocks_freed <> st.Alloc_stats.frees then
    problem "%s: %d blocks freed through the API, stats count %d frees" label s.blocks_freed st.Alloc_stats.frees;
  if s.completed <> wl.requests / wl.nprocs * wl.nprocs then
    problem "%s: %d of %d requests completed" label s.completed wl.requests

(* --- metrics --------------------------------------------------------------- *)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let metrics = ref []

let metric name unit v = metrics := (name, unit, v) :: !metrics

let render v = if Float.is_integer v then Printf.sprintf "%.1f" v else Printf.sprintf "%.17g" v

let ratio n d = if d = 0 then 0.0 else float_of_int n /. float_of_int d

(* End-to-end figures of one allocator over the input sets of a run:
   means of the per-run figures, percentiles of the pooled samples. *)
let end_to_end (wl : workload) label (sims : sim list) =
  let m name unit v = metric (label ^ "." ^ name) unit v in
  let mean f = float_of_int (List.fold_left (fun acc s -> acc + f s) 0 sims) /. float_of_int (List.length sims) in
  let pooled f =
    let a = Array.concat (List.map f sims) in
    Array.sort compare a;
    a
  in
  let lat = pooled (fun s -> s.lat) in
  (* Closed-loop workloads have no requests: there each allocator call
     counts as one. *)
  let req = if wl.requests > 0 then pooled (fun s -> s.req) else lat in
  let pct a q = float_of_int (Probe.percentile a q) in
  m "sim_cycles" "cycles" (mean (fun s -> s.cycles));
  m "op_p50_cycles" "cycles" (pct lat 0.5);
  m "op_p999_cycles" "cycles" (pct lat 0.999);
  m "req_p99_cycles" "cycles" (pct req 0.99);
  m "peak_held_bytes" "B" (mean (fun s -> s.peak_held));
  m "peak_resident_bytes" "B" (mean (fun s -> s.peak_resident));
  Printf.printf "%s: %d calls (%d beyond p999), %d requests (%d beyond p99) over %d input set(s)\n" label
    (Array.length lat)
    (Array.length lat - Probe.percentile_rank lat 0.999)
    (Array.length req)
    (Array.length req - Probe.percentile_rank req 0.99)
    (List.length sims)

(* Per-layer metrics of one allocator, from its traced run [t] and the
   untraced runs of the same input set. *)
let per_layer label (t : run) ~run_s ~check_s ~ref_s ~check_failures ~runs =
  let s = t.sim and g = (Option.get t.tracer).Probe.agg in
  let mi name unit v = metric (label ^ "." ^ name) unit (float_of_int v) in
  let mf name unit v = metric (label ^ "." ^ name) unit v in
  mi "core.calls" "count" g.Probe.core_calls;
  mi "core.cycles" "cycles" g.Probe.core_cycles;
  mi "core.self_cycles" "cycles" (g.Probe.core_cycles - g.Probe.core_child_cycles);
  let st = s.stats in
  mf "alloc.fe_hit_ratio" "ratio" (ratio st.Alloc_stats.cache_hits st.Alloc_stats.mallocs);
  mi "alloc.sb_transfers" "count" (st.Alloc_stats.sb_to_global + st.Alloc_stats.sb_from_global);
  mf "alloc.remote_free_ratio" "ratio" (ratio st.Alloc_stats.remote_frees st.Alloc_stats.frees);
  mf "alloc.deferred_batch" "ratio" (ratio st.Alloc_stats.deferred_enqueues st.Alloc_stats.deferred_reclaims);
  let spins = Array.make (List.length Probe.lock_groups) 0 in
  List.iter (fun (name, _, n) -> spins.(Probe.lock_group name) <- spins.(Probe.lock_group name) + n) s.lock_stats;
  List.iteri
    (fun i grp ->
      mi (Printf.sprintf "lock.%s.acquires" grp) "count" g.Probe.lock_acq.(i);
      mi (Printf.sprintf "lock.%s.wait_cycles" grp) "cycles" g.Probe.lock_wait.(i);
      mi (Printf.sprintf "lock.%s.hold_cycles" grp) "cycles" g.Probe.lock_hold.(i);
      mi (Printf.sprintf "lock.%s.spins" grp) "count" spins.(i))
    Probe.lock_groups;
  List.iteri
    (fun i fam ->
      mi (Printf.sprintf "atomic.%s.ops" fam) "count" g.Probe.at_ops.(i);
      mi (Printf.sprintf "atomic.%s.cycles" fam) "cycles" g.Probe.at_cycles.(i);
      mf (Printf.sprintf "atomic.%s.cas_fail_ratio" fam) "ratio" (ratio g.Probe.at_cas_fail.(i) g.Probe.at_cas.(i)))
    Probe.atomic_families;
  mi "cache.alloc_rw_cycles" "cycles" g.Probe.rw_cycles.(0);
  mi "cache.workload_rw_cycles" "cycles" g.Probe.rw_cycles.(1);
  mi "cache.coherence_misses" "count" s.coherence_misses;
  mi "cache.invalidations" "count" s.invalidations;
  mi "cache.cross_socket_events" "count" s.cross_socket_events;
  mi "vmem.page_calls" "count" g.Probe.page_calls;
  mi "vmem.page_cycles" "cycles" g.Probe.page_cycles;
  mi "vmem.address_space_bytes" "B" s.address_space;
  mi "workloads.self_cycles" "cycles" (s.proc_cycles - g.Probe.core_cycles);
  let total_spins = Array.fold_left ( + ) 0 spins in
  let events = g.Probe.platform_calls + total_spins in
  mf "host.run_s" "s" run_s;
  mf "host.check_s" "s" check_s;
  mf "host.reference_s" "s" ref_s;
  mf "host.ns_per_event" "ns" (1e9 *. run_s /. float_of_int (max 1 events));
  mf "host.spin_share" "ratio" (ratio total_spins events);
  mf "host.trace_overhead_s" "s" (t.run_s -. run_s);
  mf "check_failed_share" "share" (ratio check_failures runs)

(* Tracing must not move the simulated run, and the wrapper must see
   every lock acquisition the simulator counts. *)
let fidelity_gate label (t : run) (untraced : run) =
  if t.sim <> untraced.sim then problem "%s: the traced run's simulated metrics differ from the untraced run's" label;
  let g = (Option.get t.tracer).Probe.agg in
  let sim_acq = Hashtbl.create 64 in
  List.iter
    (fun (name, n, _) -> Hashtbl.replace sim_acq name (n + Option.value ~default:0 (Hashtbl.find_opt sim_acq name)))
    t.sim.lock_stats;
  Hashtbl.iter
    (fun name n ->
      let w = Option.fold ~none:0 ~some:( ! ) (Hashtbl.find_opt g.Probe.lock_acq_by_name name) in
      if w <> n then problem "%s: lock %s: %d acquisitions seen by the wrapper, %d by the simulator" label name w n)
    sim_acq;
  if g.Probe.core_calls <> Array.length t.sim.lat then
    problem "%s: %d API spans for %d timed calls" label g.Probe.core_calls (Array.length t.sim.lat)

(* --- main ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 and out = ref "." in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S how long to repeat the untraced runs");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0), or a traced run and per-layer metrics (1)");
      ("--out", Arg.Set_string out, "DIR where the traced run writes its Perfetto trace");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]";
  let wl =
    match List.find_opt (fun (w : workload) -> w.name = !workload) workloads with
    | Some w -> w
    | None ->
      Printf.eprintf "perfbench: unknown workload %S (one of: %s)\n" !workload
        (String.concat ", " (List.map (fun (w : workload) -> w.name) workloads));
      exit 2
  in
  let facs = allocators () in
  let seeds = List.init wl.inputs (fun i -> input_seed ~seed:!seed i) in
  Printf.printf "workload %s: %dP %s, seed %d (input seeds %s), %s\n%!" wl.name wl.nprocs
    (match wl.topology with
     | Some (s, c) -> Printf.sprintf "%d sockets x %d cores" s c
     | None -> "flat")
    !seed
    (String.concat ", " (List.map string_of_int seeds))
    (if !trace = 1 then "traced" else "untraced");
  (* A pass is one untraced run of every allocator on every input set;
     passes repeat until the time is up. *)
  let pass () = List.map (fun fac -> List.map (fun seed -> run_once wl fac ~seed ~traced:false) seeds) facs in
  let start = now_s () in
  let passes = ref [ pass () ] in
  while now_s () -. start < !seconds do
    passes := pass () :: !passes
  done;
  (* Per allocator: its factory, its first pass (one run per input set) and
     all of its untraced runs. *)
  let allocs =
    List.mapi
      (fun i (fac : Alloc_intf.factory) ->
        let mine = List.rev_map (fun p -> List.nth p i) !passes in
        (fac, List.hd mine, List.concat mine))
      facs
  in
  List.iter
    (fun ((fac : Alloc_intf.factory), first, all) ->
      let label = fac.Alloc_intf.label in
      List.iteri
        (fun j r ->
          let r0 = List.nth first (j mod wl.inputs) in
          if r.sim <> r0.sim then problem "%s: run %d differs from the first pass" label j)
        all;
      List.iter2
        (fun seed r ->
          check_outputs wl label r.sim;
          Option.iter
            (fun e -> Printf.printf "CHECK FAILED: %s, input seed %d: %s\n" label seed e)
            r.sim.check_error)
        seeds first;
      let show f = String.concat " " (List.map (fun r -> Printf.sprintf "%.3f" (f r)) all) in
      Printf.printf "%s Sim.run seconds: %s\n" label (show (fun r -> r.run_s));
      Printf.printf "%s Sim.run seconds at the reference speed: %s\n" label
        (show (fun r -> reference_s *. r.run_s /. r.ref_s)))
    allocs;
  let all_runs = List.concat_map (fun (_, _, all) -> all) allocs in
  let attempted = List.fold_left (fun acc r -> acc + Array.length r.sim.lat) 0 all_runs in
  if !trace = 0 then begin
    List.iter
      (fun ((fac : Alloc_intf.factory), first, _) ->
        end_to_end wl fac.Alloc_intf.label (List.map (fun r -> r.sim) first))
      allocs;
    (* Per allocator the median over its runs of the wall time at the
       reference speed, robust to a host hiccup during any one of them;
       summed over both allocators. *)
    metric "host_s" "s"
      (List.fold_left
         (fun acc (_, _, all) -> acc +. median (List.map (fun r -> reference_s *. r.run_s /. r.ref_s) all))
         0.0 allocs);
    (* Set-up takes about a millisecond and differs between the
       allocators, so each is set up [setup_samples] more times on its own
       and, like [host_s], the per-allocator medians are summed. The sum is
       brought to the reference speed with the median piece time of all
       runs. *)
    let speed = reference_s /. median (List.map (fun r -> r.ref_s) all_runs) in
    metric "setup_s" "s"
      (speed
      *. List.fold_left
           (fun acc ((fac : Alloc_intf.factory), _, all) ->
             let extra =
               List.init setup_samples (fun _ -> (set_up wl fac ~seed:(List.hd seeds) ~traced:false).m_setup_s)
             in
             acc +. median (extra @ List.map (fun r -> r.setup_s) all))
           0.0 allocs)
  end
  else begin
    let perfetto = Perfetto.create () in
    List.iteri
      (fun pid ((fac : Alloc_intf.factory), first, all) ->
        let label = fac.Alloc_intf.label in
        let t = run_once wl fac ~seed:(List.hd seeds) ~traced:true in
        fidelity_gate label t (List.hd first);
        (* Untraced runs of the traced run's input set. *)
        let same_input = List.filteri (fun j _ -> j mod wl.inputs = 0) all in
        let failures = List.length (List.filter (fun r -> r.sim.check_error <> None) (t :: all)) in
        per_layer label t
          ~run_s:(median (List.map (fun r -> r.run_s) same_input))
          ~check_s:(median (List.map (fun r -> r.check_s) same_input))
          ~ref_s:(median (List.map (fun r -> r.ref_s) same_input))
          ~check_failures:failures ~runs:(List.length all + 1);
        let tr = Option.get t.tracer in
        Perfetto.process_name perfetto ~pid (Printf.sprintf "%s on %s, input seed %d" label wl.name (List.hd seeds));
        Probe.export tr perfetto ~pid;
        Printf.printf "%s traced: %d spans, %d kept for the trace file\n" label tr.Probe.next_id tr.Probe.kept;
        if wl.requests > 0 then
          Printf.printf "%s traced: %d request spans, %d kept API spans outside any request\n" label
            tr.Probe.agg.Probe.requests (Probe.unparented_api_spans tr))
      allocs;
    (* Seed test: another seed must change the inputs of the seeded
       workloads; threadtest has no randomness, so its inputs must not. *)
    let fac, first, _ = List.nth allocs (List.length allocs - 1) in
    let other = run_once wl fac ~seed:(input_seed ~seed:(!seed + 1) 0) ~traced:false in
    let changed = other.sim.size_hash <> (List.hd first).sim.size_hash in
    if changed <> wl.seeded then
      problem "seed %d and seed %d gave %s inputs" !seed (!seed + 1) (if changed then "different" else "the same");
    let path = Filename.concat !out (Printf.sprintf "perfbench-%s.trace.json" wl.name) in
    let oc = open_out path in
    output_string oc (Perfetto.to_json perfetto);
    close_out oc;
    Printf.printf "trace: %s (%d events)\n" path (Perfetto.event_count perfetto)
  end;
  List.iter (fun p -> Printf.printf "PROBLEM: %s\n" p) (List.rev !problems);
  let ms = List.rev !metrics in
  List.iter (fun (name, unit, v) -> Printf.printf "  %-44s %24s %s\n" name (render v) unit) ms;
  let json (name, unit, v) = Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (render v) unit in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": 0, \"metrics\": {%s}}\n" (!problems = [])
    attempted
    (String.concat ", " (List.map json ms))
