(* Golden parity: exact simulated figures of fixed runs, pinned so that a
   change to the scheduler or the coherence directory that is meant to
   leave the simulation untouched is checked bit for bit. Each scenario
   prints one digest line: total and per-processor cycles, the lock
   totals with a checksum over every lock's (name, acquisitions, spins)
   and the figures of each lock that spun, an order-sensitive checksum
   over the lock hooks (the spin count each acquisition reports, and each
   hold span), and the cache totals. [test_sim_golden.exe --print] prints
   the current digests in the form of [expected]. Update a pinned line
   only with a change that is meant to move the simulation, and say so in
   that change's notes. *)

let base = 0x1000_0000

(* Order-sensitive checksum over the lock hooks' arguments. *)
let mix h xs = List.fold_left (fun h x -> ((h * 1_000_003) + x) land 0x3FFF_FFFF_FFFF) h xs

let digest sim =
  let acquires = ref 0 and hook_spins = ref 0 and h_acq = ref 0 and h_rel = ref 0 in
  Sim.set_lock_hooks sim
    ~on_acquire:(fun ~name ~proc ~spins ~at ->
      incr acquires;
      hook_spins := !hook_spins + spins;
      h_acq := mix !h_acq [ String.length name; proc; spins; at ])
    ~on_release:(fun ~name ~proc ~acquired_at ~at -> h_rel := mix !h_rel [ String.length name; proc; acquired_at; at ])
    ();
  fun () ->
    let n = Sim.nprocs sim in
    let cch = Sim.cache sim in
    let sum f = List.fold_left (fun acc p -> acc + f (Cache.stats cch p)) 0 (List.init n Fun.id) in
    let locks = Sim.lock_stats sim in
    Printf.sprintf "cycles=%d procs=%s locks=%d/%d/%d/%x spun=%s hooks=%d/%d/%x/%x cache=%d/%d/%d/%d/%d/%d/%d/%d"
      (Sim.total_cycles sim)
      (String.concat "," (List.init n (fun p -> string_of_int (Sim.proc_cycles sim p))))
      (List.length locks)
      (List.fold_left (fun acc (_, a, _) -> acc + a) 0 locks)
      (List.fold_left (fun acc (_, _, s) -> acc + s) 0 locks)
      (List.fold_left (fun h (nm, a, s) -> mix h [ Hashtbl.hash nm; a; s ]) 0 locks)
      (String.concat ","
         (List.filter_map (fun (nm, a, s) -> if s > 0 then Some (Printf.sprintf "%s:%d:%d" nm a s) else None) locks))
      !acquires !hook_spins !h_acq !h_rel
      (sum (fun s -> s.Cache.p_hits))
      (sum (fun s -> s.Cache.p_cold_misses))
      (sum (fun s -> s.Cache.p_coherence_misses))
      (sum (fun s -> s.Cache.p_invalidations_sent))
      (sum (fun s -> s.Cache.p_invalidations_received))
      (sum (fun s -> s.Cache.p_evictions))
      (Cache.total_cross_node_events cch) (Cache.total_cross_socket_events cch)

let run_digest sim =
  let finish = digest sim in
  Sim.run sim;
  finish ()

(* [threads] workers, each looping [iters] times over a critical section on
   one lock that writes its own word of a shared line. *)
let hammer ?cost ?lock_kind ?topology ?cache_capacity_lines ~nprocs ~threads ~iters () =
  let sim = Sim.create ?cost ?lock_kind ?topology ?cache_capacity_lines ~nprocs () in
  let l = Sim.new_lock sim "l" in
  for tid = 0 to threads - 1 do
    ignore
      (Sim.spawn sim (fun () ->
           for i = 1 to iters do
             Sim.work (((13 * tid) + i) mod 17);
             Sim.read ~addr:(base + (64 * ((tid + i) mod 24))) ~len:8;
             Sim.acquire l;
             Sim.write ~addr:(base + 4096 + (8 * tid)) ~len:8;
             Sim.work 20;
             Sim.release l
           done))
  done;
  run_digest sim

(* Proc 0 holds [l] for a long time. Proc 1's only runnable thread spins
   on [l] (its other thread waits on a barrier), and the barrier's release
   lands on proc 1 while it spins. Procs 3, 4 and 5 each run one spinner,
   and a deferred spawn lands on each while it spins: one registered from
   inside a thread for a time already past (it joins at once), one
   registered from inside a thread for a later time, and one registered
   before the run. *)
let onto_spinner () =
  let sim = Sim.create ~nprocs:6 () in
  let l = Sim.new_lock sim "l" and b = Sim.new_barrier sim ~parties:2 in
  let section () =
    Sim.acquire l;
    Sim.write ~addr:base ~len:8;
    Sim.release l
  in
  let spinner delay () =
    Sim.work delay;
    section ()
  in
  ignore
    (Sim.spawn sim ~proc:0 (fun () ->
         Sim.acquire l;
         Sim.work 5000;
         Sim.release l;
         Sim.work 100;
         section ()));
  ignore
    (Sim.spawn sim ~proc:1 (fun () ->
         Sim.barrier_wait b;
         Sim.work 300;
         section ()));
  ignore
    (Sim.spawn sim ~proc:1 (fun () ->
         Sim.work 10;
         section ();
         Sim.work 50;
         section ()));
  ignore
    (Sim.spawn sim ~proc:2 (fun () ->
         Sim.work 1000;
         ignore (Sim.spawn_at sim ~at:0 ~proc:3 section);
         ignore (Sim.spawn_at sim ~at:(Sim.now () + 777) ~proc:4 section);
         Sim.barrier_wait b;
         section ()));
  ignore (Sim.spawn sim ~proc:3 (spinner 30));
  ignore (Sim.spawn sim ~proc:4 (spinner 40));
  ignore (Sim.spawn sim ~proc:5 (spinner 50));
  ignore (Sim.spawn_at sim ~at:2500 ~proc:5 section);
  run_digest sim

(* Under uniform memory a retry costs 2 cycles, so parked retries land
   exactly on event times: deferred spawns at consecutive times, and a
   spawn registered from inside a thread for a time already past, meet
   spinners of both clock parities. *)
let ties () =
  let sim = Sim.create ~cost:Cost_model.uniform_memory ~nprocs:8 () in
  let l = Sim.new_lock sim "l" in
  let section () =
    Sim.acquire l;
    Sim.release l
  in
  ignore
    (Sim.spawn sim ~proc:0 (fun () ->
         Sim.acquire l;
         Sim.work 300;
         Sim.release l));
  List.iter
    (fun p ->
      ignore
        (Sim.spawn sim ~proc:p (fun () ->
             Sim.work p;
             section ())))
    [ 1; 2; 3; 4; 6; 7 ];
  for p = 1 to 4 do
    ignore (Sim.spawn_at sim ~at:(100 + p) ~proc:p section)
  done;
  ignore
    (Sim.spawn sim ~proc:5 (fun () ->
         Sim.work 150;
         ignore (Sim.spawn_at sim ~at:0 ~proc:6 section);
         ignore (Sim.spawn_at sim ~at:0 ~proc:7 section);
         Sim.work 10));
  run_digest sim

let workload ?(nprocs = 8) (w : Workload_intf.t) (f : Alloc_intf.factory) () =
  let sim = Sim.create ~nprocs () in
  let pf = Sim.platform sim in
  let a = f.Alloc_intf.instantiate pf in
  w.Workload_intf.spawn sim pf a ~nthreads:nprocs;
  let finish = digest sim in
  Sim.run sim;
  a.Alloc_intf.check ();
  finish ()

let threadtest = Threadtest.make ~params:{ Threadtest.default_params with Threadtest.iterations = 3; objects = 800 } ()

let larson =
  Larson.make ~params:{ Larson.default_params with Larson.rounds = 80; handoffs = 3; objects_per_thread = 100 } ()

let churn =
  Churn.make
    ~params:{ Churn.default_params with Churn.pattern = Churn.Rolling; body = Churn.Larson_body; iterations = 2 }
    ()

let hoard = Hoard.factory ()

let hoard_gl = Allocators.hoard_gl ()

let scenarios =
  [
    ("spin 8 threads on 8 procs", fun () -> hammer ~nprocs:8 ~threads:8 ~iters:150 ());
    ("spin 2 threads per proc", fun () -> hammer ~nprocs:4 ~threads:8 ~iters:100 ());
    ("spin uniform memory", fun () -> hammer ~cost:Cost_model.uniform_memory ~nprocs:6 ~threads:6 ~iters:80 ());
    ("barrier and spawn onto a spinner", onto_spinner);
    ("ties under uniform memory", ties);
    ("ticket lock", fun () -> hammer ~lock_kind:Sim.Ticket ~nprocs:4 ~threads:6 ~iters:60 ());
    ("2x4 topology", fun () -> hammer ~topology:(2, 4) ~nprocs:8 ~threads:8 ~iters:100 ());
    ("finite cache", fun () -> hammer ~cache_capacity_lines:8 ~nprocs:4 ~threads:4 ~iters:100 ());
    ("threadtest hoard", workload threadtest hoard);
    ("threadtest hoard-gl", workload threadtest hoard_gl);
    ("larson hoard", workload larson hoard);
    ("larson hoard-gl", workload larson hoard_gl);
    ("churn larson hoard", workload ~nprocs:4 churn hoard);
  ]

(* The reference: digests of the simulator that stepped every spin retry
   and classified lines with a snapshot of the holder set. *)
let expected =
  [
    ("spin 8 threads on 8 procs",
     "cycles=337953 procs=329133,337953,337686,333902,331240,327034,323039,334952 locks=1/1200/35462/228925a3dd78 spun=l:1200:35462 hooks=1200/35462/1c54fae4d01d/2c7ed667e400 cache=29493/26/10743/10575/10575/0/0/0");
    ("spin 2 threads per proc",
     "cycles=275352 procs=265081,274359,272409,275352 locks=1/800/15056/22890dcc0512 spun=l:800:15056 hooks=800/15056/119f35abba8/1b52ced70f10 cache=14263/26/3967/3895/3895/0/0/0");
    ("spin uniform memory",
     "cycles=11222 procs=11198,10959,11077,11149,11222,10982 locks=1/480/25148/2288fab958be spun=l:480:25148 hooks=480/25148/160ab7577c86/4794dbd3da8 cache=23595/26/3447/3327/3327/0/0/0");
    ("barrier and spawn onto a spinner",
     "cycles=7985 procs=7028,7985,6809,7546,7765,5999 locks=1/12/715/2288ded3d6d1 spun=l:12:715 hooks=12/715/3c2f097ff5a2/3517de836170 cache=687/3/62/62/62/0/0/0");
    ("ties under uniform memory",
     "cycles=311 procs=304,311,310,311,310,160,310,311 locks=1/13/896/2288dee319c9 spun=l:13:896 hooks=13/896/c4fa448d83d/11e7bbe5a423 cache=903/1/18/18/18/0/0/0");
    ("ticket lock",
     "cycles=136095 procs=135860,136095,130281,128716 locks=1/360/6585/2288f39200d3 spun=l:360:6585 hooks=360/6585/218632ffca64/3d89c32497ea cache=5736/26/2263/2191/2191/0/0/0");
    ("2x4 topology",
     "cycles=547257 procs=536192,546287,529713,523998,547257,523768,524892,531917 locks=1/800/28659/22890dcc3a35 spun=l:800:28659 hooks=800/28659/1d86ec8409a0/c3b92caff42 cache=26466/26/5367/5199/5199/0/5895/5895");
    ("finite cache",
     "cycles=107665 procs=105811,107665,106362,100865 locks=1/400/3936/2288f5f450f2 spun=l:400:3936 hooks=400/3936/20f43e64348d/683d15f99d9 cache=3196/139/2201/1938/1938/376/0/0");
    ("threadtest hoard",
     "cycles=48633 procs=48588,48633,48633,48633,48633,48633,48633,48633 locks=74/4816/0/31a24bcbaa3 spun= hooks=4816/0/122bf2a98ea3/32f11972824f cache=21504/129/7/7/7/0/0/0");
    ("threadtest hoard-gl",
     "cycles=29523 procs=29323,29523,29523,29523,29523,29523,29523,29523 locks=74/264/0/dfe720f360b spun= hooks=264/0/1cf2bce1f23c/35f75a5c989c cache=17304/154/70/0/0/0/0/0");
    ("larson hoard",
     "cycles=210892 procs=189888,210892,204210,206548,198585,207553,209727,197173 locks=74/5694/5461/2a777021efd6 spun=hoard.heap1:680:684,hoard.heap2:680:443,hoard.heap3:680:568,hoard.heap4:680:774,hoard.heap5:680:606,hoard.heap6:680:545,hoard.heap7:680:601,hoard.heap8:680:550,hoard.heap0:130:690 hooks=5694/5461/1baedefc2f69/225f91b38094 cache=22833/1235/7723/7723/7723/0/0/0");
    ("larson hoard-gl",
     "cycles=83818 procs=82816,83507,81856,81940,83101,82689,83818,82294 locks=74/246/0/339c8467da23 spun= hooks=246/0/285dfc458669/23a803ecec85 cache=9016/1529/2752/2178/2178/0/0/0");
    ("churn larson hoard",
     "cycles=282704 procs=220683,215615,223307,282704 locks=71/5300/370/180aa8ab5343 spun=hoard.heap1:1108:54,hoard.heap2:1110:84,hoard.heap3:1101:53,hoard.heap4:1137:53,hoard.heap0:422:126 hooks=5300/370/180f805730ba/3a05622f854 cache=21535/1002/1894/1894/1894/0/0/0");
  ]

let test (name, f) =
  Alcotest.test_case name `Quick (fun () ->
      match List.assoc_opt name expected with
      | Some want -> Alcotest.(check string) name want (f ())
      | None -> Alcotest.failf "no pinned digest for %s: %s" name (f ()))

let () =
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "--print" then
    List.iter (fun (name, f) -> Printf.printf "    (%S,\n     %S);\n" name (f ())) scenarios
  else Alcotest.run "sim_golden" [ ("parity", List.map test scenarios) ]
