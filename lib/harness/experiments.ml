open Matrix

type scale = Matrix.scale = Quick | Full

type output = { tables : Table.t list; plot : string option }

type t = {
  id : string;
  title : string;
  paper_ref : string;
  describe : string;
  obs : scale -> Workload_intf.t;
  run : scale -> procs:int list option -> output;
}

let tables_only tables = { tables; plot = None }

(* The paper's comparison set: Hoard vs Ptmalloc (private-ownership) vs
   MTmalloc (concurrent-single) vs Solaris malloc (serial). *)
let figure_allocators () =
  [ Serial_alloc.factory (); Concurrent_single.factory (); Private_ownership.factory (); Hoard.factory () ]

let all_allocators () = figure_allocators () @ [ Pure_private.factory (); Private_threshold.factory () ]

(* --- scaled workload constructors --- *)

let threadtest = function
  | Quick -> Threadtest.make ~params:{ Threadtest.default_params with Threadtest.iterations = 5; objects = 2000 } ()
  | Full -> Threadtest.make ~params:{ Threadtest.default_params with Threadtest.iterations = 16; objects = 8000 } ()

let shbench = function
  | Quick -> Shbench.make ~params:{ Shbench.default_params with Shbench.ops = 6000; slots_per_thread = 250 } ()
  | Full -> Shbench.make ~params:{ Shbench.default_params with Shbench.ops = 48_000; slots_per_thread = 500 } ()

let larson = function
  | Quick ->
    Larson.make
      ~params:{ Larson.default_params with Larson.rounds = 150; handoffs = 3; objects_per_thread = 800 } ()
  | Full ->
    Larson.make
      ~params:{ Larson.default_params with Larson.rounds = 600; handoffs = 6; objects_per_thread = 2000 } ()

let false_params = function
  | Quick -> { False_sharing.default_params with False_sharing.loops = 400; writes_per_object = 60 }
  | Full -> { False_sharing.default_params with False_sharing.loops = 1600; writes_per_object = 120 }

let active_false scale = False_sharing.active ~params:(false_params scale) ()

let passive_false scale = False_sharing.passive ~params:(false_params scale) ()

let bem = function
  | Quick ->
    Bem_like.make
      ~params:{ Bem_like.default_params with Bem_like.panels = 240; assemble_rows = 96; solve_iters = 6 } ()
  | Full ->
    Bem_like.make
      ~params:{ Bem_like.default_params with Bem_like.panels = 1200; assemble_rows = 480; solve_iters = 16 } ()

let barnes = function
  | Quick -> Barnes_hut.make ~params:{ Barnes_hut.default_params with Barnes_hut.nbodies = 96; steps = 2 } ()
  | Full -> Barnes_hut.make ~params:{ Barnes_hut.default_params with Barnes_hut.nbodies = 320; steps = 4 } ()

let churn ?(pattern = Churn.Wave) ?(body = Churn.Threadtest_body) scale =
  let base = { Churn.default_params with Churn.pattern; body } in
  match scale with
  | Quick -> Churn.make ~params:{ base with Churn.generations = 2; iterations = 2; objects = 32 } ()
  | Full -> Churn.make ~params:{ base with Churn.generations = 4; iterations = 4; objects = 64 } ()

let producer_consumer ~rounds ~batch =
  Producer_consumer.make ~params:{ Producer_consumer.default_params with Producer_consumer.rounds; batch } ()

(* Batch sized so that U (one live batch) dwarfs the K*S slack Hoard's
   heaps legitimately retain: the O(P) signal is then unmistakable. *)
let phased_blowup ~rounds =
  Producer_consumer.phased
    ~params:{ Producer_consumer.default_params with Producer_consumer.rounds; batch = 3000 } ()

let prodcons_rounds = function
  | Quick -> [ 5; 10; 20; 40 ]
  | Full -> [ 10; 20; 40; 80 ]

let prodcons_pipelined scale =
  Producer_consumer.pipelined
    ~params:
      {
        Producer_consumer.default_params with
        Producer_consumer.rounds = List.nth (prodcons_rounds scale) 2;
        batch = 200;
      }
    ()

let kv_store = function
  | Quick -> Kv_store.make ~params:{ Kv_store.default_params with Kv_store.ops = 6000; key_space = 1200 } ()
  | Full -> Kv_store.make ~params:{ Kv_store.default_params with Kv_store.ops = 32_000; key_space = 2400 } ()

let doc_tree = function
  | Quick -> Doc_tree.make ~params:{ Doc_tree.default_params with Doc_tree.documents = 64 } ()
  | Full -> Doc_tree.make ~params:{ Doc_tree.default_params with Doc_tree.documents = 240 } ()

let server_params profile scale =
  let requests =
    match scale with
    | Quick -> 1200
    | Full -> 8000
  in
  { Server_mix.default_params with Server_mix.profile; requests }

(* Churny variants of larson and shbench whose sizes run well past
   max_small (S/2 = 4 KiB), so a large share of the traffic takes the
   large-object path, where the vmem backend's reuse policy decides
   whether the address space keeps growing: the exact-reuse seed policy
   only re-serves identical byte counts, so random-size churn extends
   the mapping area indefinitely, while first-fit coalescing and the
   buddy system recycle it. *)
let frag_larson = function
  | Quick ->
    Larson.make
      ~params:
        {
          Larson.default_params with
          Larson.rounds = 120;
          handoffs = 3;
          objects_per_thread = 48;
          min_size = 64;
          max_size = 256_000;
        }
      ()
  | Full ->
    Larson.make
      ~params:
        {
          Larson.default_params with
          Larson.rounds = 400;
          handoffs = 6;
          objects_per_thread = 96;
          min_size = 64;
          max_size = 256_000;
        }
      ()

let frag_shbench = function
  | Quick ->
    Shbench.make
      ~params:
        { Shbench.default_params with Shbench.ops = 4000; slots_per_thread = 64; min_size = 16; max_size = 256_000 }
      ()
  | Full ->
    Shbench.make
      ~params:
        {
          Shbench.default_params with
          Shbench.ops = 24_000;
          slots_per_thread = 128;
          min_size = 16;
          max_size = 256_000;
        }
      ()

(* The workload catalog the CLIs drive by name: the benchmark suite, the
   blowup adversaries, the applications, one server mix per arrival
   profile and every churn-<pattern>-<body> pairing. *)
let catalog =
  [
    ("threadtest", threadtest);
    ("shbench", shbench);
    ("larson", larson);
    ("active-false", active_false);
    ("passive-false", passive_false);
    ("bem", bem);
    ("barnes-hut", barnes);
    ("producer-consumer", fun scale -> producer_consumer ~rounds:(List.nth (prodcons_rounds scale) 2) ~batch:200);
    ("producer-consumer-pipelined", prodcons_pipelined);
    ("phased-blowup", fun _ -> phased_blowup ~rounds:16);
    ("kv-store", kv_store);
    ("doc-tree", doc_tree);
  ]
  @ List.map
      (fun profile ->
        ( "server-" ^ Server_mix.profile_name profile,
          fun scale -> Server_mix.make ~params:(server_params profile scale) () ))
      Server_mix.profiles
  @ List.concat_map
      (fun pattern ->
        List.map
          (fun body ->
            ( Printf.sprintf "churn-%s-%s" (Churn.pattern_name pattern) (Churn.body_name body),
              fun scale -> churn ~pattern ~body scale ))
          Churn.bodies)
      Churn.patterns

let workload name scale = Option.map (fun make -> make scale) (List.assoc_opt name catalog)

let workload_names = List.map fst catalog

(* --- helpers --- *)

let run_one workload alloc ~nprocs = Runner.run (Runner.spec workload alloc ~nprocs)

let kib bytes = Printf.sprintf "%d KiB" ((bytes + 1023) / 1024)

let cycles r = string_of_int r.Runner.r_cycles

let frag r = Table.cell_float (Runner.fragmentation r)

let inval_per_op r = float_of_int r.Runner.r_invalidations /. float_of_int r.Runner.r_ops

let yes_no b = if b then "yes" else "no"

let hoard_with f = Hoard.factory ~config:f ()

(* [obs] is the representative workload the [--metrics] companion pass
   instruments. *)
let experiment ~id ~title ~paper_ref ~describe ?(obs = threadtest) procs body =
  { id; title; paper_ref; describe; obs; run = (fun scale ~procs:ps -> body scale (resolve procs scale ps)) }

(* Speedup figure: rows = processor counts, columns = allocators, cells =
   T(1)/T(P) per allocator. A companion table reports raw cycles. *)
let speedup_figure ~id ~title ~paper_ref ~describe workload =
  experiment ~id ~title ~paper_ref ~describe ~obs:workload Sweep_from_one (fun scale procs ->
      let g = grid (workload scale) (figure_allocators ()) procs in
      {
        tables =
          [
            grid_table ~title:(title ^ " — speedup T(1)/T(P)") g (fun ~base r ->
                Table.cell_float (Runner.speedup ~base r));
            grid_table ~title:(title ^ " — simulated cycles") g (fun ~base:_ r -> cycles r);
          ];
        plot = Some (grid_plot ~title:(title ^ " — speedup") ~y_label:"speedup" g Runner.speedup);
      })

(* --- Table 1: allocator taxonomy, measured --- *)

type taxon = {
  label : string;
  slowdown : float;
  speedup : float;
  inval : float;
  pc_blowup : float;
  pc_growth : float;
  phased : float;
}

let taxonomy =
  experiment ~id:"table1" ~title:"Table 1: allocator taxonomy" ~paper_ref:"Table 1"
    ~describe:"fast / scalable / false-sharing / blowup classification, measured on this substrate" Ignored
    (fun scale () ->
      let p_scal = default_p scale in
      let serial_base = run_one (threadtest scale) (Serial_alloc.factory ()) ~nprocs:1 in
      let measure alloc =
        (* Fast: uniprocessor threadtest time relative to the serial allocator. *)
        let uni = run_one (threadtest scale) alloc ~nprocs:1 in
        (* Blowup: producer-consumer held/live ratio, and its growth when
           the round count doubles (growth ~2 means unbounded-in-time). *)
        let rs = prodcons_rounds scale in
        let pc r = Runner.fragmentation (run_one (producer_consumer ~rounds:r ~batch:200) alloc ~nprocs:2) in
        let lo = pc (List.nth rs (List.length rs - 2)) and hi = pc (List.nth rs (List.length rs - 1)) in
        {
          label = alloc.Alloc_intf.label;
          slowdown = float_of_int uni.Runner.r_cycles /. float_of_int serial_base.Runner.r_cycles;
          (* Scalable: threadtest speedup at p_scal processors. *)
          speedup = Runner.speedup ~base:uni (run_one (threadtest scale) alloc ~nprocs:p_scal);
          (* False sharing: invalidations per op on active-false. *)
          inval = inval_per_op (run_one (active_false scale) alloc ~nprocs:4);
          pc_blowup = hi;
          pc_growth = hi /. lo;
          (* O(P) signal: one thread at a time holds U live; allocators that
             strand freed memory per heap peak near P * U. *)
          phased = Runner.fragmentation (run_one (phased_blowup ~rounds:(2 * p_scal)) alloc ~nprocs:p_scal);
        }
      in
      tables_only
        [
          table ~title:"Allocator taxonomy (measured)"
            [
              left "allocator" (fun x -> x.label);
              right "uniproc slowdown" (fun x -> Table.cell_ratio x.slowdown);
              left "fast" (fun x -> yes_no (x.slowdown < 1.5));
              right (Printf.sprintf "speedup@%dP" p_scal) (fun x -> Table.cell_ratio x.speedup);
              left "scalable" (fun x -> yes_no (x.speedup > float_of_int p_scal /. 2.0));
              right "inval/op (active-false)" (fun x -> Table.cell_float x.inval);
              left "avoids false sharing" (fun x -> yes_no (x.inval < 1.0));
              right "pc A/U" (fun x -> Table.cell_float x.pc_blowup);
              right "pc growth" (fun x -> Table.cell_float x.pc_growth);
              right (Printf.sprintf "phased A/U@%dP" p_scal) (fun x -> Table.cell_float x.phased);
              left "blowup class" (fun x ->
                  if x.pc_growth > 1.5 then "unbounded"
                  else if x.phased >= 0.7 *. float_of_int p_scal then "O(P)"
                  else "O(1)");
            ]
            (List.map measure (all_allocators ()));
        ])

(* --- Table 2: the benchmark suite --- *)

let suite scale =
  [ threadtest scale; shbench scale; larson scale; active_false scale; passive_false scale; bem scale; barnes scale ]

(* Table 4 covers the application benchmarks: the synthetic false-sharing
   micro-benchmarks keep a few bytes live, making the held/live ratio
   meaningless (the paper's Table 4 also lists only the applications). *)
let frag_suite scale = [ threadtest scale; shbench scale; larson scale; bem scale; barnes scale ]

let benchmarks_table =
  experiment ~id:"table2" ~title:"Table 2: benchmark suite" ~paper_ref:"Table 2"
    ~describe:"the benchmarks and their run parameters at this scale" Ignored (fun scale () ->
      tables_only
        [
          table ~title:"Benchmark suite"
            [ left "benchmark" (fun w -> w.Workload_intf.w_name); left "parameters" (fun w -> w.Workload_intf.w_describe) ]
            (suite scale);
        ])

(* --- Table 3: program statistics --- *)

let program_stats =
  experiment ~id:"table3" ~title:"Table 3: program statistics" ~paper_ref:"Table 3"
    ~describe:"objects allocated, bytes requested, average size and peak live memory per benchmark" Ignored
    (fun scale () ->
      let stats (_, r) = r.Runner.r_stats in
      tables_only
        [
          table ~title:"Program memory statistics (1 processor, hoard)"
            [
              left "benchmark" (fun (w, _) -> w.Workload_intf.w_name);
              right "mallocs" (fun row -> string_of_int (stats row).Alloc_stats.mallocs);
              right "total requested" (fun row -> kib (stats row).Alloc_stats.bytes_requested);
              right "avg size (B)" (fun row ->
                  let s = stats row in
                  Table.cell_float
                    (float_of_int s.Alloc_stats.bytes_requested /. float_of_int (max 1 s.Alloc_stats.mallocs)));
              right "peak live" (fun row -> kib (stats row).Alloc_stats.peak_live_bytes);
              right "ops" (fun (_, r) -> string_of_int r.Runner.r_ops);
            ]
            (List.map (fun w -> (w, run_one w (Hoard.factory ()) ~nprocs:1)) (suite scale));
        ])

(* --- Table 4: fragmentation --- *)

let fragmentation =
  experiment ~id:"table4" ~title:"Table 4: fragmentation" ~paper_ref:"Table 4"
    ~describe:"Hoard's worst-case memory held over worst-case memory live, per benchmark" (Head default_p)
    (fun scale p ->
      tables_only
        [
          table
            ~title:(Printf.sprintf "Hoard fragmentation (A_peak / U_peak) at %d processors" p)
            [
              left "benchmark" (fun r -> r.Runner.r_workload);
              right "peak held" (fun r -> kib r.Runner.r_stats.Alloc_stats.peak_held_bytes);
              right "peak live" (fun r -> kib r.Runner.r_stats.Alloc_stats.peak_live_bytes);
              right "fragmentation" frag;
            ]
            (List.map (fun w -> run_one w (Hoard.factory ()) ~nprocs:p) (frag_suite scale));
        ])

(* --- Table 5: uniprocessor overhead --- *)

let uniproc_overhead =
  experiment ~id:"table5" ~title:"Table 5: uniprocessor overhead" ~paper_ref:"Table 5"
    ~describe:"single-processor runtime of every allocator normalised to the serial allocator" Ignored
    (fun scale () ->
      let allocs = all_allocators () in
      let relative w =
        let base = run_one w (Serial_alloc.factory ()) ~nprocs:1 in
        fun alloc -> float_of_int (run_one w alloc ~nprocs:1).Runner.r_cycles /. float_of_int base.Runner.r_cycles
      in
      tables_only
        [
          table ~title:"Uniprocessor runtime relative to the serial allocator"
            (left "benchmark" (fun (w, _) -> w.Workload_intf.w_name) :: by_allocator allocs Table.cell_ratio)
            (across allocs relative (suite scale));
        ])

(* --- Larson throughput figure --- *)

let larson_figure =
  experiment ~id:"fig_larson" ~title:"Figure: Larson server benchmark" ~paper_ref:"Larson throughput figure"
    ~describe:"server-style object bleeding; throughput must scale with processors for Hoard" ~obs:larson
    (Sweep default_procs) (fun scale procs ->
      let g = grid (larson scale) (figure_allocators ()) procs in
      {
        tables =
          [
            grid_table ~title:"Larson — throughput (memory ops per Mcycle)" g (fun ~base:_ r ->
                Table.cell_float (Runner.ops_per_mcycle r));
          ];
        plot =
          Some (grid_plot ~title:"Larson throughput" ~y_label:"ops/Mcycle" g (fun ~base:_ -> Runner.ops_per_mcycle));
      })

(* --- blowup experiment --- *)

let blowup_exp =
  experiment ~id:"exp_blowup" ~title:"Blowup bound validation"
    ~paper_ref:"Section 3 analysis (blowup definitions and bounds)"
    ~describe:"peak held memory under the producer-consumer adversary: O(1) for Hoard, unbounded for pure-private"
    ~obs:(fun _ -> phased_blowup ~rounds:16)
    Ignored
    (fun scale () ->
      let allocs = [ Hoard.factory (); Private_ownership.factory (); Pure_private.factory (); Serial_alloc.factory () ] in
      let phased_procs =
        match scale with
        | Quick -> [ 2; 4 ]
        | Full -> [ 2; 4; 8; 14 ]
      in
      tables_only
        [
          table ~title:"Blowup: producer-consumer, peak held memory vs rounds (P=2)"
            (right "rounds" (fun (rounds, _) -> string_of_int rounds)
             :: per_allocator allocs
                  [ (" A", fun r -> kib r.Runner.r_stats.Alloc_stats.peak_held_bytes); (" A/U", frag) ])
            (across allocs
               (fun rounds alloc -> run_one (producer_consumer ~rounds ~batch:200) alloc ~nprocs:2)
               (prodcons_rounds scale));
          table ~title:"Blowup: phased adversary, peak held / peak live vs processors"
            (right "P" (fun (p, _) -> string_of_int p) :: by_allocator allocs frag)
            (across allocs (fun p alloc -> run_one (phased_blowup ~rounds:(2 * p)) alloc ~nprocs:p) phased_procs);
        ])

(* --- false-sharing counts --- *)

let falseshare_exp =
  experiment ~id:"exp_falseshare" ~title:"False-sharing measurement"
    ~paper_ref:"Section on allocator-induced false sharing"
    ~describe:"directly counted invalidations for the active/passive false-sharing benchmarks" (Head default_p)
    (fun scale p ->
      tables_only
        [
          table
            ~title:(Printf.sprintf "False sharing: cache invalidations per memory op at %d processors" p)
            [
              left "allocator" (fun (a, _, _) -> a.Alloc_intf.label);
              right "active-false inval/op" (fun (_, af, _) -> Table.cell_float (inval_per_op af));
              right "passive-false inval/op" (fun (_, _, pf) -> Table.cell_float (inval_per_op pf));
            ]
            (List.map
               (fun a -> (a, run_one (active_false scale) a ~nprocs:p, run_one (passive_false scale) a ~nprocs:p))
               (all_allocators ()));
        ])

(* --- ablations --- *)

let ablation ~id ~title ~describe ~values ~label =
  experiment ~id ~title ~paper_ref:"design ablation" ~describe (Head default_p) (fun scale p ->
      let measure (name, cfg) =
        ( name,
          run_one (threadtest scale) (hoard_with cfg) ~nprocs:p,
          run_one (shbench scale) (hoard_with cfg) ~nprocs:p,
          run_one (phased_blowup ~rounds:(2 * p)) (hoard_with cfg) ~nprocs:p )
      in
      tables_only
        [
          table
            ~title:(Printf.sprintf "%s (threadtest & shbench @ %dP, phased blowup @ %dP)" title p p)
            [
              right label (fun (name, _, _, _) -> name);
              right "threadtest cycles" (fun (_, tt, _, _) -> cycles tt);
              right "shbench cycles" (fun (_, _, sh, _) -> cycles sh);
              right "shbench frag" (fun (_, _, sh, _) -> frag sh);
              right "shbench transfers" (fun (_, _, sh, _) ->
                  string_of_int
                    (sh.Runner.r_stats.Alloc_stats.sb_to_global + sh.Runner.r_stats.Alloc_stats.sb_from_global));
              right "phased A/U" (fun (_, _, _, ph) -> frag ph);
            ]
            (List.map measure values);
        ])

let abl_f =
  let cfg f = Hoard_config.make ~empty_fraction:f () in
  ablation ~id:"abl_f" ~title:"Ablation: emptiness fraction f"
    ~describe:"sensitivity of throughput, fragmentation and blowup to the emptiness fraction"
    ~values:[ ("f=1/8", cfg 0.125); ("f=1/4", cfg 0.25); ("f=1/2", cfg 0.5) ]
    ~label:"f"

let abl_k =
  let cfg k = Hoard_config.make ~slack:k () in
  ablation ~id:"abl_k" ~title:"Ablation: slack K"
    ~describe:"sensitivity to the number of superblocks a heap may hold beyond the emptiness fraction"
    ~values:[ ("K=0", cfg 0); ("K=1", cfg 1); ("K=4", cfg 4); ("K=16", cfg 16) ]
    ~label:"K"

let abl_sbsize =
  let cfg s = Hoard_config.make ~sb_size:s () in
  ablation ~id:"abl_sbsize" ~title:"Ablation: superblock size S"
    ~describe:"trade-off between transfer granularity and fragmentation"
    ~values:[ ("S=4K", cfg 4096); ("S=8K", cfg 8192); ("S=16K", cfg 16384); ("S=64K", cfg 65536) ]
    ~label:"S"

(* --- NUMA / two-tier topology --- *)

let numa_exp =
  experiment ~id:"exp_numa" ~title:"NUMA two-tier topology" ~paper_ref:"extension (the paper targets flat SMPs)"
    ~describe:
      "flat vs 2-socket machine via the shared topology helper: socket-crossing coherence pays \
       cross_node + cross_socket, so allocators that localise memory keep their speed"
    (Head default_p)
    (fun scale p ->
      (* The shared two-tier helper needs sockets * cores_per_socket =
         nprocs: round an odd request up to the next even machine. *)
      let p = if p mod 2 = 0 then p else p + 1 in
      let measure alloc =
        ( alloc.Alloc_intf.label,
          Runner.run (Runner.spec (threadtest scale) alloc ~nprocs:p),
          Runner.run (Runner.spec ~topology:(2, p / 2) (threadtest scale) alloc ~nprocs:p) )
      in
      tables_only
        [
          table
            ~title:(Printf.sprintf "NUMA: threadtest cycles at %d processors, flat vs 2-socket topology" p)
            [
              left "allocator" (fun (label, _, _) -> label);
              right "flat cycles" (fun (_, flat, _) -> cycles flat);
              right "2-socket cycles" (fun (_, _, numa) -> cycles numa);
              right "socket penalty" (fun (_, flat, numa) ->
                  Table.cell_ratio (float_of_int numa.Runner.r_cycles /. float_of_int flat.Runner.r_cycles));
              right "cross-node events" (fun (_, _, numa) -> string_of_int numa.Runner.r_cross_node_events);
              right "cross-socket events" (fun (_, _, numa) -> string_of_int numa.Runner.r_cross_socket_events);
            ]
            (List.map measure (figure_allocators ()));
        ])

(* --- exp_scale: the 64-128P two-tier scale-out matrix --- *)

let scale_procs = function
  | Quick -> [ 8; 64 ]
  | Full -> [ 8; 16; 32; 64; 128 ]

(* Topologies applicable at P processors: flat plus every socket count
   that divides the machine evenly. *)
let scale_topologies p =
  ("flat", None)
  :: List.filter_map
       (fun sockets ->
         if p mod sockets = 0 && p / sockets >= 1 && sockets < p then
           Some (Printf.sprintf "%d-socket" sockets, Some (sockets, p / sockets))
         else None)
       [ 2; 4 ]

type scale_row = {
  workload : string;
  p : int;
  topology : string;
  global : string;
  r : Runner.result;
  heap0_locks : int;
  envelope : int;
}

let scale_exp =
  experiment ~id:"exp_scale" ~title:"Scale-out matrix: P in {8..128} x {flat, 2-socket, 4-socket}"
    ~paper_ref:"extension (beyond the paper's 14-processor machine)"
    ~describe:
      "threadtest and churn on two-tier machines up to 128 simulated processors: cycles, cross-node \
       and cross-socket coherence, and peak-held vs the O(U + P) envelope with P = peak live threads \
       (enforced)"
    ~obs:(fun scale -> churn scale)
    (Sweep scale_procs)
    (fun scale procs ->
      let workloads =
        [
          ("threadtest", fun () -> threadtest scale);
          ("churn-wave", fun () -> churn ~pattern:Churn.Wave scale);
          ("churn-rolling", fun () -> churn ~pattern:Churn.Rolling scale);
        ]
      in
      (* Same config twice over, except for the global heap's structure:
         the lockfree rows isolate the index and must show ZERO heap-0
         lock acquisitions (enforced) — the tentpole's acceptance bar at
         scale, where heap-0 is the natural serialization point. *)
      let modes =
        [
          ("locked", Hoard_config.default);
          ("lockfree", { Hoard_config.default with Hoard_config.global = Hoard_config.Lockfree });
        ]
      in
      let measure (workload, mk) p (topology, topo) (global, cfg) =
        let r = Runner.run (Runner.spec ?topology:topo (mk ()) (Hoard.factory ~config:cfg ()) ~nprocs:p) in
        {
          workload;
          p;
          topology;
          global;
          r;
          heap0_locks =
            List.fold_left
              (fun acc (lname, n, _) -> if lname = "hoard.heap0" then acc + n else acc)
              0 r.Runner.r_lock_stats;
          (* P = peak LIVE threads: churn workloads must fit because
             exiting threads' heaps are adopted rather than stranded. *)
          envelope =
            Hoard_config.blowup_envelope cfg ~nprocs:p ~peak_live_threads:r.Runner.r_peak_live_threads
              ~live:r.Runner.r_stats.Alloc_stats.peak_live_bytes;
        }
      in
      let held x = x.r.Runner.r_stats.Alloc_stats.peak_held_bytes in
      let check x =
        if x.global = "lockfree" && x.heap0_locks > 0 then
          failwith
            (Printf.sprintf
               "exp_scale: lock-free global heap took %d heap-0 lock acquisitions on %s at %dP (%s)"
               x.heap0_locks x.workload x.p x.topology);
        if held x > x.envelope then
          failwith
            (Printf.sprintf
               "exp_scale: blowup envelope violated on %s at %dP (%s, %s): peak held %d > %d (U=%d, \
                P_live=%d)"
               x.workload x.p x.topology x.global (held x) x.envelope
               x.r.Runner.r_stats.Alloc_stats.peak_live_bytes x.r.Runner.r_peak_live_threads)
      in
      tables_only
        [
          sections ~check ~title:"Scale-out matrix: hoard across P x topology (two-tier machines)"
            [
              left "workload" (fun x -> x.workload);
              right "P" (fun x -> string_of_int x.p);
              left "topology" (fun x -> x.topology);
              left "global" (fun x -> x.global);
              right "cycles" (fun x -> cycles x.r);
              right "cross-node" (fun x -> string_of_int x.r.Runner.r_cross_node_events);
              right "cross-socket" (fun x -> string_of_int x.r.Runner.r_cross_socket_events);
              right "peak live thr" (fun x -> string_of_int x.r.Runner.r_peak_live_threads);
              right "heap0 locks" (fun x -> string_of_int x.heap0_locks);
              right "peak held" (fun x -> kib (held x));
              right "envelope" (fun x -> kib x.envelope);
              right "held/env" (fun x -> Table.cell_float (float_of_int (held x) /. float_of_int (max 1 x.envelope)));
            ]
            (List.map
               (fun w ->
                 List.concat_map
                   (fun p -> List.concat_map (fun topo -> List.map (measure w p topo) modes) (scale_topologies p))
                   procs)
               workloads);
        ])

(* --- cost-model sensitivity (methodology validation) --- *)

let costmodel_exp =
  experiment ~id:"exp_costmodel" ~title:"Cost-model sensitivity" ~paper_ref:"methodology validation"
    ~describe:"the headline separation (Hoard scales, serial collapses) must hold under 3x cost perturbations"
    (Head default_p)
    (fun scale p ->
      let models =
        [ ("cheap memory", Cost_model.cheap_memory); ("default", Cost_model.default); ("expensive memory", Cost_model.expensive_memory) ]
      in
      let measure (name, cost) =
        let sp alloc =
          let base = Runner.run (Runner.spec ~cost (threadtest scale) alloc ~nprocs:1) in
          Runner.speedup ~base (Runner.run (Runner.spec ~cost (threadtest scale) alloc ~nprocs:p))
        in
        (name, sp (Serial_alloc.factory ()), sp (Hoard.factory ()))
      in
      tables_only
        [
          table
            ~title:(Printf.sprintf "Cost-model sensitivity: threadtest speedup at %d processors" p)
            [
              left "cost model" (fun (name, _, _) -> name);
              right "serial" (fun (_, s, _) -> Table.cell_float s);
              right "hoard" (fun (_, _, h) -> Table.cell_float h);
              right "hoard/serial gap" (fun (_, s, h) -> Table.cell_ratio (h /. s));
            ]
            (List.map measure models);
        ])

(* --- memory consumption over time (evaluation extension) --- *)

let timeline_exp =
  experiment ~id:"exp_timeline" ~title:"Memory consumption over time"
    ~paper_ref:"evaluation extension (blowup as a curve)"
    ~describe:"held-memory timelines under producer-consumer: unbounded growth is visible as a climbing curve"
    Ignored
    (fun scale () ->
      let rounds =
        match scale with
        | Quick -> 20
        | Full -> 60
      in
      let timeline alloc =
        let sim = Sim.create ~nprocs:2 () in
        let pf = Sim.platform sim in
        let tl, a = Timeline.wrap (alloc.Alloc_intf.instantiate pf) in
        (producer_consumer ~rounds ~batch:200).Workload_intf.spawn sim pf a ~nthreads:2;
        Sim.run sim;
        (alloc.Alloc_intf.label, tl)
      in
      let timelines = List.map timeline [ Hoard.factory (); Private_ownership.factory (); Pure_private.factory () ] in
      {
        tables =
          [
            table ~title:"Held memory over producer-consumer rounds (P=2)"
              [
                left "allocator" fst;
                right "peak held" (fun (_, tl) -> Printf.sprintf "%d KiB" (Timeline.peak_held tl / 1024));
                right "samples" (fun (_, tl) -> string_of_int (List.length (Timeline.samples tl)));
              ]
              timelines;
          ];
        plot = Some (Timeline.plot timelines ~title:"Held memory vs time (producer-consumer)");
      })

(* --- application workloads beyond the paper's suite --- *)

let apps_exp =
  experiment ~id:"exp_apps" ~title:"Application workloads (KV store, document builder)"
    ~paper_ref:"evaluation extension (application-level workloads)"
    ~describe:"a striped-lock KV server and a DOM-style parser-churn application on every allocator" ~obs:kv_store
    Sweep_from_one
    (fun scale procs ->
      let speedup_table workload title =
        grid_table ~title (grid (workload scale) (figure_allocators ()) procs) (fun ~base r ->
            Table.cell_float (Runner.speedup ~base r))
      in
      tables_only
        [
          speedup_table kv_store "KV store (memcached-style server) — speedup";
          speedup_table doc_tree "Document builder (parser churn) — speedup";
        ])

(* --- malloc latency distribution (evaluation extension) --- *)

let latency_exp =
  experiment ~id:"exp_latency" ~title:"Malloc latency distribution" ~paper_ref:"evaluation extension (tail latency)"
    ~describe:"per-operation latency percentiles: contention appears as a long malloc tail" (Head default_p)
    (fun scale p ->
      let latencies alloc =
        let sim = Sim.create ~nprocs:p () in
        let pf = Sim.platform sim in
        let probe, a = Latency_probe.wrap (alloc.Alloc_intf.instantiate pf) in
        (shbench scale).Workload_intf.spawn sim pf a ~nthreads:p;
        Sim.run sim;
        (alloc.Alloc_intf.label, Latency_probe.malloc_latencies probe)
      in
      let pct q (_, h) = string_of_int (Histogram.percentile h q) in
      tables_only
        [
          table
            ~title:(Printf.sprintf "Malloc latency distribution on shbench at %d processors (cycles)" p)
            [
              left "allocator" fst;
              right "mean" (fun (_, h) -> Table.cell_float (Histogram.mean h));
              right "p50 <=" (pct 0.5);
              right "p95 <=" (pct 0.95);
              right "p99 <=" (pct 0.99);
              right "max" (fun (_, h) ->
                  match Histogram.max_value h with
                  | Some v -> string_of_int v
                  | None -> "-");
            ]
            (List.map latencies (all_allocators ()));
        ])

(* --- per-lock contention profile --- *)

let contention_exp =
  experiment ~id:"exp_contention" ~title:"Per-lock contention profile"
    ~paper_ref:"analysis extension (which lock serialises the run?)"
    ~describe:"acquisitions and spins per named lock: global-heap vs per-heap lock pressure" (Head default_p)
    (fun scale p ->
      let busiest (wname, w) =
        let r = Runner.run (Runner.spec w (Hoard.factory ()) ~nprocs:p) in
        List.filter_map
          (fun (e : Contention.entry) -> if e.c_acqs > 0 then Some (wname, e) else None)
          (Contention.top ~n:8 (Contention.of_lock_stats r.Runner.r_lock_stats))
      in
      tables_only
        [
          sections
            ~title:(Printf.sprintf "Per-lock contention: hoard at %d processors" p)
            [
              left "workload" fst;
              left "lock" (fun (_, (e : Contention.entry)) -> e.c_name);
              right "acquisitions" (fun (_, (e : Contention.entry)) -> string_of_int e.c_acqs);
              right "spins" (fun (_, (e : Contention.entry)) -> string_of_int e.c_spins);
              right "spins/acq" (fun (_, e) -> Table.cell_float (Contention.spins_per_acq e));
            ]
            (List.map busiest [ ("threadtest", threadtest scale); ("larson", larson scale) ]);
        ])

(* --- lock-discipline ablation --- *)

let abl_lock =
  experiment ~id:"abl_lock" ~title:"Ablation: lock discipline" ~paper_ref:"design ablation"
    ~describe:"test-and-set spin locks vs FIFO ticket locks under heap contention" ~obs:larson
    (Sweep (function Quick -> [ 2; 4; 8 ] | Full -> [ 2; 4; 8; 14 ]))
    (fun scale procs ->
      let measure p =
        let run lock_kind =
          Runner.run (Runner.spec ~lock_kind (threadtest scale) (Serial_alloc.factory ()) ~nprocs:p)
        in
        (p, run Sim.Spin, run Sim.Ticket)
      in
      tables_only
        [
          table ~title:"Ablation: spin vs ticket locks (serial allocator on threadtest, cycles)"
            [
              right "P" (fun (p, _, _) -> string_of_int p);
              right "spin cycles" (fun (_, spin, _) -> cycles spin);
              right "ticket cycles" (fun (_, _, ticket) -> cycles ticket);
              right "ticket/spin" (fun (_, spin, ticket) ->
                  Table.cell_ratio (float_of_int ticket.Runner.r_cycles /. float_of_int spin.Runner.r_cycles));
            ]
            (List.map measure procs);
        ])

(* --- oversubscription: more threads than processors --- *)

let oversub =
  experiment ~id:"exp_oversub" ~title:"Oversubscription (threads > processors)"
    ~paper_ref:"Section 4 discussion (thread-to-heap mapping)"
    ~describe:"multiple threads share per-processor heaps; Hoard must keep scaling" ~obs:larson (Head default_p)
    (fun scale p ->
      let allocs = [ Private_ownership.factory (); Hoard.factory () ] in
      tables_only
        [
          table
            ~title:(Printf.sprintf "Oversubscription: threadtest cycles at %d processors, threads = k*P" p)
            (right "threads" (fun (k, _) -> string_of_int (k * p)) :: by_allocator allocs cycles)
            (across allocs
               (fun k alloc -> Runner.run (Runner.spec ~nthreads:(k * p) (threadtest scale) alloc ~nprocs:p))
               [ 1; 2; 4 ]);
        ])

(* --- heap-count ablation (the implementation's "2P heaps" trick) --- *)

let abl_nheaps =
  experiment ~id:"abl_nheaps" ~title:"Ablation: heaps per processor"
    ~paper_ref:"implementation note (Hoard used more heaps than processors)"
    ~describe:"does giving Hoard 2P or 4P heaps help when threads outnumber processors?" (Head default_p)
    (fun scale p ->
      let measure mult =
        let alloc = hoard_with (Hoard_config.make ~nheaps:(Some (mult * p)) ~assign_by_tid:true ()) in
        (* Oversubscribed: two threads per processor, so heap sharing is
           real and extra heaps can pay off. *)
        let run w = Runner.run (Runner.spec ~nthreads:(2 * p) w alloc ~nprocs:p) in
        (mult, run (larson scale), run (threadtest scale))
      in
      tables_only
        [
          table
            ~title:(Printf.sprintf "Ablation: heaps per processor (larson + threadtest at %dP, threads = 2P)" p)
            [
              right "heaps" (fun (mult, _, _) -> Printf.sprintf "%dP" mult);
              right "larson ops/Mcycle" (fun (_, lar, _) -> Table.cell_float (Runner.ops_per_mcycle lar));
              right "threadtest cycles" (fun (_, _, tt) -> cycles tt);
              right "lock spins" (fun (_, lar, tt) -> string_of_int (lar.Runner.r_lock_spins + tt.Runner.r_lock_spins));
            ]
            (List.map measure [ 1; 2; 4 ]);
        ])

(* --- memory-lifecycle fragmentation (vmem backends + reservoir) --- *)

(* The four lifecycle configurations the experiment compares; the first
   is the seed (exact reuse, no reservoir), the baseline the address-
   space "vs seed" column divides by. *)
let frag_configs =
  [
    ("exact R=0 (seed)", Vmem_backend.Exact, 0);
    ("first-fit R=0", Vmem_backend.First_fit, 0);
    ("first-fit R=8", Vmem_backend.First_fit, 8);
    ("buddy R=8", Vmem_backend.Buddy, 8);
  ]

let frag_exp =
  experiment ~id:"exp_fragmentation" ~title:"Address-space fragmentation and the memory lifecycle"
    ~paper_ref:"evaluation extension (vmem backends, residency, superblock reservoir)"
    ~describe:
      "large-object churn on every vmem backend with and without the superblock reservoir: address-space \
       growth, residency, and the resident <= held + R*S invariant (enforced)"
    ~obs:larson
    (Head (fun _ -> 4))
    (fun scale p ->
      let run_config w ~nprocs (name, backend, reservoir) =
        let cfg = Hoard_config.make ~vmem_backend:backend ~reservoir () in
        ((name, backend, reservoir, cfg), Runner.run (Runner.spec ~vmem_backend:backend w (Hoard.factory ~config:cfg ()) ~nprocs))
      in
      (* The memory-lifecycle invariant, enforced (not just reported):
         the CI fragmentation smoke runs this experiment and must exit
         non-zero if a parked superblock skipped its decommit or a
         bounced park skipped its unmap. *)
      let check ((_, backend, reservoir, cfg), r) =
        let s = r.Runner.r_stats in
        let cap = reservoir * cfg.Hoard_config.sb_size in
        if s.Alloc_stats.resident_bytes > s.Alloc_stats.held_bytes + cap then
          failwith
            (Printf.sprintf
               "exp_fragmentation: lifecycle invariant violated on %s (%s, R=%d): resident %d > held %d + R*S %d"
               r.Runner.r_workload (Vmem_backend.kind_name backend) reservoir s.Alloc_stats.resident_bytes
               s.Alloc_stats.held_bytes cap);
        if s.Alloc_stats.reservoir_bytes > cap then
          failwith
            (Printf.sprintf "exp_fragmentation: reservoir over capacity on %s: %d bytes > %d"
               r.Runner.r_workload s.Alloc_stats.reservoir_bytes cap)
      in
      let name ((name, _, _, _), _) = name in
      (* Every configuration's run of [w] plus a "vs seed" cell of [metric]
         relative to the first (seed) configuration. *)
      let runs w ~nprocs metric =
        let rows = List.map (run_config w ~nprocs) frag_configs in
        let seed = metric (snd (List.hd rows)) in
        (rows, fun (_, r) -> Table.cell_ratio (float_of_int (metric r) /. float_of_int (max 1 seed)))
      in
      let workload_table (wname, w) =
        let rows, vs_seed = runs w ~nprocs:p (fun r -> r.Runner.r_vm_address_space) in
        let stat f (_, r) = f r.Runner.r_stats in
        table ~check
          ~title:(Printf.sprintf "Memory lifecycle: %s churn at %d processors" wname p)
          [
            left "config" name;
            right "peak mapped" (fun (_, r) -> kib r.Runner.r_vm_peak_mapped);
            right "addr space" (fun (_, r) -> kib r.Runner.r_vm_address_space);
            right "vs seed" vs_seed;
            right "resident@end" (fun (_, r) -> kib r.Runner.r_vm_resident);
            right "held@end" (stat (fun s -> kib s.Alloc_stats.held_bytes));
            right "maps/unmaps" (stat (fun s -> Printf.sprintf "%d/%d" s.Alloc_stats.os_maps s.Alloc_stats.os_unmaps));
            right "decommit/recommit"
              (stat (fun s -> Printf.sprintf "%d/%d" s.Alloc_stats.decommits s.Alloc_stats.recommits));
            right "park/drop"
              (stat (fun s -> Printf.sprintf "%d/%d" s.Alloc_stats.reservoir_parks s.Alloc_stats.reservoir_drops));
          ]
          rows
      in
      (* Uniprocessor guard: the lifecycle refactor must not tax the plain
         small-object path — threadtest at P=1 under each configuration,
         normalised to the seed. *)
      let uni_rows, uni_vs_seed = runs (threadtest scale) ~nprocs:1 (fun r -> r.Runner.r_cycles) in
      tables_only
        ((* threadtest's all-small churn is where the reservoir itself acts
            (superblocks empty onto the global heap and park instead of
            unmapping); the two large-object churners are where the backend
            reuse policy decides address-space growth. *)
         List.map workload_table
           [
             ("larson", frag_larson scale);
             ("shbench", frag_shbench scale);
             (* The paper-sized larson (all-small objects) is where the
                reservoir itself acts: ring handoffs empty whole superblocks
                onto the global heap, which parks them (decommit) and serves
                later refills from the reservoir (recommit) instead of
                unmap/map round trips. *)
             ("larson-small", larson scale);
             ("threadtest", threadtest scale);
           ]
        @ [
            table ~check ~title:"Uniprocessor threadtest under each lifecycle configuration"
              [ left "config" name; right "cycles" (fun (_, r) -> cycles r); right "vs seed" uni_vs_seed ]
              uni_rows;
          ]))

(* --- exp_server: latency-tail SLOs on the front-tier request mix --- *)

(* The latency-tail comparison set: the paper's serial and
   private-ownership baselines against the two Hoard configurations
   (paper-exact and production). *)
let server_allocators () =
  [ Serial_alloc.factory (); Private_ownership.factory (); Hoard.factory (); Allocators.hoard_gl () ]

(* A server run reduced to what its table row and the RSS plot read, so a
   sweep does not hold every run's rings, probes and timelines. *)
type server_row = {
  alloc : string;
  procs : int;
  latency : Histogram.t;
  rss_peak : int;
  run_cycles : int;
  rss : Timeline.t option;  (** kept only at the plotted processor count *)
}

let server_exp =
  experiment ~id:"exp_server" ~title:"Front-tier server latency tails (p50/p99/p999) and RSS over time"
    ~paper_ref:"evaluation extension (latency-tail SLO observability)"
    ~describe:
      "steady/bursty/flash request mixes over the latency-tail comparison set: per-request percentile \
       tables in simulated cycles plus a resident-memory curve per allocator config"
    ~obs:(fun scale -> Server_mix.make ~params:(server_params Server_mix.Bursty scale) ())
    (Sweep (function Quick -> [ 8 ] | Full -> [ 4; 8; 16 ]))
    (fun scale procs ->
      (* One RSS curve per allocator config, drawn at the gate's processor
         count when it is in the sweep. *)
      let plot_p = if List.mem 8 procs then 8 else List.hd procs in
      let profile_output profile =
        let serve alloc p =
          let r = Slo.run_server ~params:(server_params profile scale) alloc ~nprocs:p in
          {
            alloc = alloc.Alloc_intf.label;
            procs = p;
            latency = Server_mix.request_latencies r.Slo.sv_recorder;
            rss_peak = r.Slo.sv_stats.Alloc_stats.peak_resident_bytes;
            run_cycles = r.Slo.sv_cycles;
            rss = (if p = plot_p then Some r.Slo.sv_timeline else None);
          }
        in
        let rows = List.concat_map (fun alloc -> List.map (serve alloc) procs) (server_allocators ()) in
        let pct q x = string_of_int (Histogram.percentile x.latency q) in
        let tbl =
          table
            ~title:
              (Printf.sprintf "Server mix (%s): per-request latency, simulated cycles"
                 (Server_mix.profile_name profile))
            [
              left "allocator" (fun x -> x.alloc);
              right "P" (fun x -> string_of_int x.procs);
              right "requests" (fun x -> string_of_int (Histogram.count x.latency));
              right "p50" (pct 0.5);
              right "p99" (pct 0.99);
              right "p999" (pct 0.999);
              right "max" (fun x -> string_of_int (Option.value ~default:0 (Histogram.max_value x.latency)));
              right "RSS peak KiB" (fun x -> string_of_int ((x.rss_peak + 1023) / 1024));
              right "cycles" (fun x -> string_of_int x.run_cycles);
            ]
            rows
        in
        let plot =
          Timeline.plot ~metric:Timeline.Resident
            (List.filter_map (fun x -> Option.map (fun tl -> (x.alloc, tl)) x.rss) rows)
            ~title:
              (Printf.sprintf "RSS over time — server mix (%s, %dP)" (Server_mix.profile_name profile) plot_p)
        in
        (tbl, plot)
      in
      let outputs = List.map profile_output Server_mix.profiles in
      { tables = List.map fst outputs; plot = Some (String.concat "\n" (List.map snd outputs)) })

(* --- the remote-free path: owner-locked frees vs deferred lists --- *)

(* The pipelined producer-consumer makes every free remote and concurrent
   with the owner's allocation burst, so this is where the remote-free
   discipline shows: paper hoard takes the owner's heap lock on every
   remote free (and blocks the producer mid-burst), hoard-gl's deferred
   lists take one CAS per eviction batch and one exchange per reclaim.
   The companion instrumented pass ([--metrics], the [obs] workload)
   exports the per-lock acquisition counts CI gates on. *)
let remote_exp =
  experiment ~id:"exp_remote" ~title:"Remote-free discipline" ~paper_ref:"beyond the paper: deferred remote frees"
    ~describe:
      "pipelined producer-consumer (all frees remote, concurrent with the owner): owner-locked \
       frees vs CAS-push deferred lists"
    ~obs:prodcons_pipelined
    (Sweep (function Quick -> [ 2; 8 ] | Full -> [ 2; 8; 14 ]))
    (fun scale procs ->
      let stat f r = string_of_int (f r.Runner.r_stats) in
      tables_only
        [
          table ~title:"Remote frees: owner-locked frees (hoard) vs deferred lists (hoard-gl)"
            [
              left "allocator" (fun r -> r.Runner.r_allocator);
              right "P" (fun r -> string_of_int r.Runner.r_nprocs);
              right "cycles" cycles;
              right "locked remote" (stat (fun s -> s.Alloc_stats.remote_frees));
              right "deferred enq" (stat (fun s -> s.Alloc_stats.deferred_enqueues));
              right "reclaims" (stat (fun s -> s.Alloc_stats.deferred_reclaims));
              right "blocks/reclaim" (fun r ->
                  let s = r.Runner.r_stats in
                  if s.Alloc_stats.deferred_reclaims = 0 then "-"
                  else
                    Table.cell_ratio
                      (float_of_int s.Alloc_stats.deferred_enqueues /. float_of_int s.Alloc_stats.deferred_reclaims));
              right "large maps" (stat (fun s -> s.Alloc_stats.large_maps));
              right "large hits" (stat (fun s -> s.Alloc_stats.large_cache_hits));
            ]
            (List.concat_map
               (fun alloc -> List.map (fun p -> run_one (prodcons_pipelined scale) alloc ~nprocs:p) procs)
               [ Hoard.factory (); Allocators.hoard_gl () ]);
        ])

(* --- registry --- *)

let all () =
  [
    taxonomy;
    benchmarks_table;
    program_stats;
    fragmentation;
    uniproc_overhead;
    speedup_figure ~id:"fig_threadtest" ~title:"Figure: threadtest" ~paper_ref:"threadtest speedup figure"
      ~describe:"batch allocate/free of small objects; heap contention stress" threadtest;
    speedup_figure ~id:"fig_shbench" ~title:"Figure: shbench" ~paper_ref:"shbench speedup figure"
      ~describe:"random-size working-set churn (SmartHeap benchmark)" shbench;
    larson_figure;
    speedup_figure ~id:"fig_active_false" ~title:"Figure: active-false" ~paper_ref:"active-false speedup figure"
      ~describe:"allocator-induced (active) false sharing" active_false;
    speedup_figure ~id:"fig_passive_false" ~title:"Figure: passive-false" ~paper_ref:"passive-false speedup figure"
      ~describe:"passively induced false sharing via cross-thread free" passive_false;
    speedup_figure ~id:"fig_bem" ~title:"Figure: BEM-like engine" ~paper_ref:"BEMengine speedup figure"
      ~describe:"phased solver profile (synthetic substitute for the proprietary BEMengine)" bem;
    speedup_figure ~id:"fig_barnes" ~title:"Figure: Barnes-Hut" ~paper_ref:"Barnes-Hut speedup figure"
      ~describe:"octree n-body simulation; compute-dominated" barnes;
    blowup_exp;
    frag_exp;
    falseshare_exp;
    oversub;
    latency_exp;
    contention_exp;
    remote_exp;
    apps_exp;
    timeline_exp;
    server_exp;
    costmodel_exp;
    numa_exp;
    scale_exp;
    abl_f;
    abl_k;
    abl_sbsize;
    abl_lock;
    abl_nheaps;
  ]

let find id = List.find_opt (fun e -> e.id = id) (all ())

let allocator label = Allocators.find label

let ids () = List.map (fun e -> e.id) (all ())

let obs_workload id scale =
  match find id with
  | Some e -> e.obs scale
  | None -> threadtest scale
