(* Oracle-checked workload runs: the harness runner with the
   differential oracle interposed on the allocator, and — for sanitizer
   subjects — the heap sanitizer's access checker installed on the
   workload's view of the platform. This is the layer the hoard_check
   CLI and the deep-check CI job drive. *)

let sprintf = Printf.sprintf

type subject = {
  s_label : string;
  s_describe : string;
  s_config : Hoard_config.t option;
      (* Some: a hoard instance we keep a handle on (flushable, sanitizer
         wirable, blowup-checkable). None: a registry factory (baselines
         have no quiescent-flush or blowup story, so those checks are
         skipped for them). *)
}

(* Every hoard subject starts from the registry's config for its label
   ([Allocators.base_config]), so an oracle run of [hoard-gl] checks the
   very configuration the benchmarks measure; checking subjects only layer
   knobs on top. *)
let hoard_subjects =
  let base label =
    match Allocators.base_config label with
    | Some cfg -> cfg
    | None -> invalid_arg (sprintf "Check_run: %S has no registry config" label)
  in
  let subject s_label s_describe cfg = { s_label; s_describe; s_config = Some cfg } in
  [
    subject "hoard" "paper-exact configuration" (base "hoard");
    subject "hoard-gl" "production configuration: front end, deferred lists, lock-free global heap"
      (base "hoard-gl");
    subject "hoard-gl-san" "hoard-gl with the large-object cache and the sanitizer on"
      (Hoard_config.make ~base:(base "hoard-gl") ~large_cache:Allocators.large_cache_default ~sanitize:true ());
    subject "hoard-san" "sanitizer on (poison, canaries, quarantine)" (base "hoard-san");
    (* The sanitizer makes decommitted-page touches and recommit-on-reuse
       part of what this subject checks; the small cap makes the
       reservoir overflow often. *)
    subject "hoard-res" "superblock reservoir on the first-fit vmem backend, sanitizer on"
      (Hoard_config.make ~base:(base "hoard-res") ~reservoir:4 ~sanitize:true ());
  ]

let find_subject label =
  match List.find_opt (fun s -> s.s_label = label) hoard_subjects with
  | Some s -> Some s
  | None ->
    (match Allocators.find label with
     | Some f -> Some { s_label = label; s_describe = f.Alloc_intf.description; s_config = None }
     | None -> None)

let subject_help () =
  let own =
    List.map (fun s -> sprintf "  %-14s %s" s.s_label s.s_describe) hoard_subjects |> String.concat "\n"
  in
  own ^ "\n(plus any registry allocator: " ^ String.concat ", " (Allocators.labels ()) ^ ")"

type report = {
  c_workload : string;
  c_subject : string;
  c_result : Runner.result;
  c_mallocs : int;  (** operations the oracle checked *)
  c_peak_usable : int;  (** the oracle's ideal-allocator peak U *)
  c_shared_lines : int;  (** actively-induced false sharing (oracle) *)
  c_quarantine_peak : int;  (** sanitizer quarantine length before flush *)
}

(* Run [workload] on [subject] with every operation oracle-checked.
   Raises Oracle.Oracle_violation / Hoard.Sanitizer_violation (or the
   allocator's own check failure) on any discrepancy. *)
let run_oracle ?fuzz ?(nprocs = 4) ?nthreads ?(check_blowup = true) ?(expect_no_false_sharing = false)
    ?(overrides = fun cfg -> cfg) ~workload ~subject () =
  let s =
    match find_subject subject with
    | Some s -> { s with s_config = Option.map overrides s.s_config }
    | None -> invalid_arg (sprintf "Check_run.run_oracle: unknown subject %S" subject)
  in
  let handle = ref None in
  let factory =
    match s.s_config with
    | None -> Option.get (Allocators.find s.s_label)
    | Some config ->
      {
        Alloc_intf.label = s.s_label;
        description = s.s_describe;
        instantiate =
          (fun pf ->
            let h = Hoard.create ~config pf in
            handle := Some h;
            Hoard.allocator h);
      }
  in
  let oracle = ref None in
  let wrap_allocator pf a =
    let o, checked = Oracle.wrap pf a in
    oracle := Some o;
    checked
  in
  let wrap_platform pf =
    match !handle with
    | None -> pf
    | Some h ->
      (match Hoard.sanitizer_access_check h with
       | None -> pf
       | Some checker ->
         {
           pf with
           Platform.read =
             (fun ~addr ~len ->
               checker ~addr ~len ~write:false;
               pf.Platform.read ~addr ~len);
           write =
             (fun ~addr ~len ->
               checker ~addr ~len ~write:true;
               pf.Platform.write ~addr ~len);
         })
  in
  let quarantine_peak = ref 0 in
  let post (a : Alloc_intf.t) =
    let o = Option.get !oracle in
    (match !handle with
     | None -> Oracle.final_check o ~stats:(a.Alloc_intf.stats ())
     | Some h ->
       quarantine_peak := Hoard.quarantine_length h;
       Hoard.flush_caches h;
       Hoard.check h;
       (* Quiescent: caches, queues and quarantine drained, so the
          allocator's live bytes must match the oracle's exactly. *)
       Oracle.final_check ~expect_quiescent_equality:true o ~stats:(a.Alloc_intf.stats ());
       let cfg = Hoard.config h in
       (* The memory-lifecycle invariant holds whether or not the
          reservoir is on (with R = 0 it degenerates to
          resident <= held). *)
       Oracle.check_residency o ~stats:(a.Alloc_intf.stats ())
         ~reservoir:cfg.Hoard_config.reservoir ~sb_size:cfg.Hoard_config.sb_size);
    if expect_no_false_sharing && Oracle.active_shared_lines o > 0 then
      raise
        (Oracle.Oracle_violation
           (sprintf "oracle[%s]: %d cache line(s) actively shared between threads" s.s_label
              (Oracle.active_shared_lines o)))
  in
  let vmem_backend =
    match s.s_config with
    | Some cfg -> cfg.Hoard_config.vmem_backend
    | None -> Vmem_backend.Exact
  in
  let spec = Runner.spec ?nthreads ~vmem_backend workload factory ~nprocs in
  let r = Runner.run_with ?fuzz ~wrap_allocator ~wrap_platform ~post spec in
  let o = Option.get !oracle in
  (* Blowup is checked after the run, when the simulator can report the
     peak LIVE thread population — the P of the O(U + P) bound. Under
     churn workloads this is far below the total thread count; exited
     threads must not leave memory stranded (that is the adoption
     path's contract). The stats snapshot is quiescent: [post] flushed
     every cache before it was taken. *)
  (match !handle with
   | Some h when check_blowup ->
     Oracle.check_blowup o ~stats:r.Runner.r_stats
       ~envelope:
         (Hoard_config.blowup_envelope (Hoard.config h) ~nprocs
            ~peak_live_threads:r.Runner.r_peak_live_threads)
   | _ -> ());
  {
    c_workload = r.Runner.r_workload;
    c_subject = s.s_label;
    c_result = r;
    c_mallocs = r.Runner.r_stats.Alloc_stats.mallocs;
    c_peak_usable = Oracle.peak_usable_bytes o;
    c_shared_lines = Oracle.active_shared_lines o;
    c_quarantine_peak = !quarantine_peak;
  }

(* Quick-scale variants of the paper workloads, the set the deep-check
   CI job sweeps. Sizes chosen so an oracle-checked run stays in the
   hundreds of milliseconds. *)
let quick_workloads () =
  [
    Threadtest.make ~params:{ Threadtest.default_params with Threadtest.iterations = 4; objects = 2000 } ();
    Larson.make
      ~params:{ Larson.default_params with Larson.rounds = 60; handoffs = 4; objects_per_thread = 40 }
      ();
    Producer_consumer.make
      ~params:{ Producer_consumer.default_params with Producer_consumer.rounds = 12; batch = 40 }
      ();
    False_sharing.active ~params:{ False_sharing.default_params with False_sharing.loops = 96; writes_per_object = 40 } ();
    (* Thread churn: every thread retires through the exit path, so the
       oracle checks adoption end to end and the blowup envelope is held
       to P = peak live threads. *)
    Churn.make
      ~params:{ Churn.default_params with Churn.generations = 2; iterations = 2; objects = 24; spawn_gap = 10_000 }
      ();
    Churn.make
      ~params:
        {
          Churn.default_params with
          Churn.pattern = Churn.Rolling;
          body = Churn.Larson_body;
          generations = 2;
          iterations = 2;
          objects = 24;
          spawn_gap = 10_000;
        }
      ();
    Churn.make
      ~params:
        {
          Churn.default_params with
          Churn.pattern = Churn.Flash;
          body = Churn.Server_body;
          generations = 2;
          iterations = 2;
          objects = 24;
          spawn_gap = 10_000;
        }
      ();
  ]

let find_workload name = List.find_opt (fun w -> w.Workload_intf.w_name = name) (quick_workloads ())

let workload_help () =
  quick_workloads ()
  |> List.map (fun w -> sprintf "  %-20s %s" w.Workload_intf.w_name w.Workload_intf.w_describe)
  |> String.concat "\n"
