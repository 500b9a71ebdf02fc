(* Thread-churn workload family: the population itself is the stressor.
   Instead of a fixed set of threads running to completion, threads are
   created and retired mid-run in one of three patterns, each over a
   small allocation body in the style of an existing benchmark. Every
   retiring thread calls [thread_exit], so the run continuously exercises
   the allocator's exit path: tcache flush + retire, deferred-list drain,
   and orphaned-superblock adoption. The blowup envelope for these runs
   must be computed with P = peak *live* threads (Sim.peak_live_threads),
   not the total ever created — that is exactly what adoption buys.

   Patterns ([nthreads] is the population parameter):
   - [Wave]: [generations] waves of [nthreads] threads, wave g starting
     at [g * spawn_gap]. Waves overlap when the gap undercuts the body's
     runtime; each thread serves one body and exits.
   - [Rolling]: [nthreads] chains; each thread runs one body, then
     schedules its successor [spawn_gap] cycles after its own exit, for
     [generations] links — a steady population with perpetual turnover.
   - [Flash]: [max 1 (nthreads/2)] long-lived base threads running
     [generations] bodies each, plus a flash crowd of [nthreads]
     one-body threads at every [g * spawn_gap] — populations spike and
     collapse around a steady floor.

   Cross-thread traffic: a shared lock-protected exchange stack. Bodies
   occasionally post a block instead of freeing it and free a couple of
   peers' posts per round, so superblocks accumulate remote frees (and
   deferred-list state) right when their owner exits. The
   last thread to retire drains the exchange, keeping runs leak-free for
   the differential oracle's final live-set comparison. *)

type pattern = Wave | Rolling | Flash

let pattern_name = function
  | Wave -> "wave"
  | Rolling -> "rolling"
  | Flash -> "flash"

let pattern_of_string = function
  | "wave" -> Some Wave
  | "rolling" -> Some Rolling
  | "flash" -> Some Flash
  | _ -> None

let patterns = [ Wave; Rolling; Flash ]

type body = Threadtest_body | Larson_body | Server_body

let body_name = function
  | Threadtest_body -> "threadtest"
  | Larson_body -> "larson"
  | Server_body -> "server"

let body_of_string = function
  | "threadtest" -> Some Threadtest_body
  | "larson" -> Some Larson_body
  | "server" -> Some Server_body
  | _ -> None

let bodies = [ Threadtest_body; Larson_body; Server_body ]

type params = {
  pattern : pattern;
  body : body;
  generations : int;  (** waves / chain links / crowds (see pattern docs) *)
  spawn_gap : int;  (** cycles between waves, respawns or crowds *)
  iterations : int;  (** body rounds per thread *)
  objects : int;  (** live objects a body keeps in flight *)
  min_size : int;
  max_size : int;
  post_pct : int;  (** % of frees routed through the shared exchange *)
  work_per_op : int;
  seed : int;
}

let default_params =
  {
    pattern = Wave;
    body = Threadtest_body;
    generations = 3;
    spawn_gap = 30_000;
    iterations = 4;
    objects = 64;
    min_size = 16;
    max_size = 256;
    post_pct = 10;
    work_per_op = 4;
    seed = 7000;
  }

let make ?(params = default_params) () =
  let p = params in
  if p.generations < 1 || p.iterations < 1 || p.objects < 1 then
    invalid_arg "Churn.make: generations, iterations and objects must be >= 1";
  if p.min_size < 1 || p.max_size < p.min_size then invalid_arg "Churn.make: bad size range";
  let spawn sim (pf : Platform.t) (a : Alloc_intf.t) ~nthreads =
    (* Shared exchange: peers free what a retiring thread could not. *)
    let exchange = ref [] in
    let xlock = pf.Platform.new_lock "churn.exchange" in
    let post addr =
      xlock.Platform.acquire ();
      exchange := addr :: !exchange;
      xlock.Platform.release ()
    in
    let take n =
      xlock.Platform.acquire ();
      let rec split k acc = function
        | rest when k = 0 -> (acc, rest)
        | [] -> (acc, [])
        | x :: tl -> split (k - 1) (x :: acc) tl
      in
      let got, rest = split n [] !exchange in
      exchange := rest;
      xlock.Platform.release ();
      got
    in
    let drain_all () =
      xlock.Platform.acquire ();
      let got = !exchange in
      exchange := [];
      xlock.Platform.release ();
      List.iter a.Alloc_intf.free got
    in
    (* The retirement census: the thread completing the expected total
       drains the exchange so nothing outlives the run. *)
    let base_threads = match p.pattern with Flash -> max 1 (nthreads / 2) | Wave | Rolling -> 0 in
    let total_threads =
      match p.pattern with
      | Wave -> p.generations * nthreads
      | Rolling -> p.generations * nthreads
      | Flash -> base_threads + (p.generations * nthreads)
    in
    let retired = ref 0 in
    let free_or_post rng addr =
      if Rng.int rng 100 < p.post_pct then post addr else a.Alloc_intf.free addr
    in
    let one_round style rng slots =
      (* Peers' posts first: remote frees against heaps we do not own. *)
      List.iter a.Alloc_intf.free (take 2);
      (match style with
       | Threadtest_body ->
         (* Allocate-then-free batch of uniform small objects. *)
         Array.iteri
           (fun i _ ->
             let b = a.Alloc_intf.malloc p.min_size in
             pf.Platform.write ~addr:b ~len:p.min_size;
             slots.(i) <- b;
             Sim.work p.work_per_op)
           slots;
         Array.iteri
           (fun i b ->
             free_or_post rng b;
             slots.(i) <- 0;
             Sim.work p.work_per_op)
           slots
       | Larson_body ->
         (* Random replacement over a standing slot set. *)
         for _ = 1 to Array.length slots do
           let i = Rng.int rng (Array.length slots) in
           if slots.(i) <> 0 then free_or_post rng slots.(i);
           let size = Rng.int_in rng p.min_size p.max_size in
           let b = a.Alloc_intf.malloc size in
           pf.Platform.write ~addr:b ~len:(min size 64);
           slots.(i) <- b;
           Sim.work p.work_per_op
         done
       | Server_body ->
         (* Request spike: mixed sizes, most freed at once, one survivor
            retained in a slot, one response posted for a peer. *)
         let n = max 2 (Array.length slots / 8) in
         let spike =
           Array.init n (fun _ ->
               let size = Rng.int_in rng p.min_size p.max_size in
               let b = a.Alloc_intf.malloc size in
               pf.Platform.write ~addr:b ~len:(min size 64);
               b)
         in
         Sim.work (p.work_per_op * n);
         let i = Rng.int rng (Array.length slots) in
         if slots.(i) <> 0 then a.Alloc_intf.free slots.(i);
         slots.(i) <- spike.(0);
         post spike.(1);
         for j = 2 to n - 1 do
           a.Alloc_intf.free spike.(j)
         done)
    in
    let body ~rounds tseed =
      let rng = Rng.create (p.seed + tseed) in
      let slots = Array.make p.objects 0 in
      (match p.body with
       | Larson_body | Server_body ->
         (* Standing set established up front, like the originals. *)
         Array.iteri
           (fun i _ ->
             let size = Rng.int_in rng p.min_size p.max_size in
             let b = a.Alloc_intf.malloc size in
             pf.Platform.write ~addr:b ~len:(min size 64);
             slots.(i) <- b)
           slots
       | Threadtest_body -> ());
      for _ = 1 to rounds do
        one_round p.body rng slots
      done;
      Array.iteri
        (fun i b ->
          if b <> 0 then begin
            free_or_post rng b;
            slots.(i) <- 0
          end)
        slots;
      (* Retire: the allocator releases this thread's cache and heap
         assignment; the last thread out also empties the exchange. *)
      incr retired;
      if !retired = total_threads then drain_all ();
      a.Alloc_intf.thread_exit ()
    in
    (match p.pattern with
     | Wave ->
       for g = 0 to p.generations - 1 do
         for i = 0 to nthreads - 1 do
           ignore
             (Sim.spawn_at sim ~at:(g * p.spawn_gap) (fun () ->
                  body ~rounds:p.iterations ((g * nthreads) + i)))
         done
       done
     | Rolling ->
       let rec link chain gen () =
         body ~rounds:p.iterations ((gen * nthreads) + chain);
         if gen + 1 < p.generations then
           ignore (Sim.spawn_at sim ~at:(Sim.now () + p.spawn_gap) (link chain (gen + 1)))
       in
       for chain = 0 to nthreads - 1 do
         ignore (Sim.spawn_at sim ~at:0 (link chain 0))
       done
     | Flash ->
       for i = 0 to base_threads - 1 do
         ignore
           (Sim.spawn_at sim ~at:0 (fun () -> body ~rounds:(p.generations * p.iterations) (100_000 + i)))
       done;
       for g = 0 to p.generations - 1 do
         for i = 0 to nthreads - 1 do
           ignore
             (Sim.spawn_at sim ~at:(g * p.spawn_gap) (fun () -> body ~rounds:1 ((g * nthreads) + i)))
         done
       done);
    ()
  in
  let name = Printf.sprintf "churn-%s-%s" (pattern_name p.pattern) (body_name p.body) in
  let ops_per_round =
    match p.body with
    | Threadtest_body -> 2 * p.objects
    | Larson_body -> 2 * p.objects
    | Server_body -> 2 * (max 2 (p.objects / 8))
  in
  {
    Workload_intf.w_name = name;
    w_describe =
      Printf.sprintf
        "%s population churn over a %s body: %d generations every %d cycles, %d rounds x %d objects of \
         %d-%dB per thread, %d%% peer-freed; every thread retires through thread_exit"
        (pattern_name p.pattern) (body_name p.body) p.generations p.spawn_gap p.iterations p.objects
        p.min_size p.max_size p.post_pct;
    spawn;
    total_ops =
      (fun ~nthreads ->
        let per_thread = p.iterations * ops_per_round in
        match p.pattern with
        | Wave | Rolling -> p.generations * nthreads * per_thread
        | Flash ->
          (max 1 (nthreads / 2) * p.generations * p.iterations * ops_per_round)
          + (p.generations * nthreads * ops_per_round));
  }
