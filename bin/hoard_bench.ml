(* CLI for the Hoard reproduction: list experiments, run one or all, at
   quick or full scale, as ASCII tables or CSV.

     hoard_bench list
     hoard_bench run fig_threadtest --full --procs 1,2,4,8,14
     hoard_bench all --quick --csv
*)

open Cmdliner

let scale_of_flag full = if full then Experiments.Full else Experiments.Quick

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)

let parse_procs = function
  | None -> None
  | Some s ->
    let parts = String.split_on_char ',' s in
    Some
      (List.map
         (fun p ->
           match int_of_string_opt (String.trim p) with
           | Some n when n >= 1 -> n
           | _ -> failwith (Printf.sprintf "bad processor count %S" p))
         parts)

let print_output ~csv (out : Experiments.output) =
  List.iter
    (fun tbl ->
      if csv then print_string (Table.to_csv tbl)
      else begin
        Table.print tbl;
        print_newline ()
      end)
    out.Experiments.tables;
  match out.Experiments.plot with
  | Some plot when not csv -> print_string plot
  | _ -> ()

let list_cmd =
  let doc = "List the registered experiments (one per paper table/figure)." in
  let run () =
    let tbl =
      Table.create ~title:"Experiments"
        ~columns:[ ("id", Table.Left); ("paper item", Table.Left); ("description", Table.Left) ]
    in
    List.iter
      (fun e -> Table.add_row tbl [ e.Experiments.id; e.Experiments.paper_ref; e.Experiments.describe ])
      (Experiments.all ());
    Table.print tbl
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

let full_flag =
  Arg.(value & flag & info [ "full" ] ~doc:"Run at full scale (the EXPERIMENTS.md configuration).")

let quick_flag =
  Arg.(value & flag & info [ "quick" ] ~doc:"Run at quick scale (the default; overrides $(b,--full)).")

let csv_flag = Arg.(value & flag & info [ "csv" ] ~doc:"Emit CSV instead of ASCII tables.")

let procs_opt =
  Arg.(
    value
    & opt (some string) None
    & info [ "procs" ] ~docv:"P1,P2,.." ~doc:"Processor counts to sweep (default depends on scale).")

let front_end_opt =
  Arg.(
    value
    & opt int 0
    & info [ "front-end" ] ~docv:"K"
        ~doc:
          "Per-thread block-cache capacity per size class for the hoard instance (0 = the paper's exact \
           algorithm, the default).")

let vmem_conv =
  let parse s =
    match Vmem_backend.kind_of_string s with
    | Some k -> Ok k
    | None ->
      Error (`Msg (Printf.sprintf "unknown vmem backend %S (exact, first-fit, buddy)" s))
  in
  Arg.conv (parse, fun fmt k -> Format.pp_print_string fmt (Vmem_backend.kind_name k))

let vmem_opt =
  Arg.(
    value
    & opt vmem_conv Vmem_backend.Exact
    & info [ "vmem" ] ~docv:"KIND"
        ~doc:
          "Reuse policy of the simulated address space: $(b,exact) (the seed policy, the default), \
           $(b,first-fit) (coalescing free list) or $(b,buddy) (binary buddy system).")

let reservoir_opt =
  Arg.(
    value
    & opt int 0
    & info [ "reservoir" ] ~docv:"R"
        ~doc:
          "Capacity (superblocks) of the size-class-agnostic reservoir: empty superblocks park there \
           decommitted instead of unmapping, bounding residency by heap-held + R*S. 0 (the default) \
           disables it, restoring the seed lifecycle.")

let slack_opt =
  Arg.(
    value
    & opt int Hoard_config.default.Hoard_config.slack
    & info [ "slack" ] ~docv:"K"
        ~doc:
          "Slack K (superblocks a per-processor heap may hold beyond use) for the instrumented \
           pass. 0 sends every empty superblock across the emptiness threshold — the \
           transfer-heavy configuration the global-heap contention smoke measures on.")

let run_cmd =
  let doc = "Run one experiment by id." in
  let id_arg = Arg.(required & pos 0 (some string) None & info [] ~docv:"ID" ~doc:"Experiment id (see list).") in
  let metrics_opt =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:
            "Also run an instrumented hoard pass on the experiment's representative workload and write \
             its metrics registry (counters, latency distributions, lock contention) as JSON.")
  in
  let trace_opt =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"With $(b,--metrics) machinery: write the instrumented pass's Perfetto trace-event JSON.")
  in
  let json_opt =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write the experiment's tables as a JSON report (the CI artifact format).")
  in
  let run id full quick csv procs metrics trace front_end vmem reservoir slack json sets =
    let config = Config_cli.apply (Hoard_config.make ~front_end ~vmem_backend:vmem ~reservoir ~slack ()) sets in
    let scale = scale_of_flag (full && not quick) in
    match Experiments.find id with
    | None ->
      Printf.eprintf "unknown experiment %S; try: %s\n" id (String.concat " " (Experiments.ids ()));
      exit 1
    | Some e ->
      let out = e.Experiments.run scale ~procs:(parse_procs procs) in
      print_output ~csv out;
      (match json with
       | Some f ->
         write_file f
           (Printf.sprintf "{\"experiment\":\"%s\",\"scale\":\"%s\",\"tables\":[%s]}" id
              (if full && not quick then "full" else "quick")
              (String.concat "," (List.map Table.to_json out.Experiments.tables)));
         Printf.printf "wrote JSON report to %s\n" f
       | None -> ());
      if metrics <> None || trace <> None then begin
        let nprocs =
          match parse_procs procs with
          | Some (p :: _) -> p
          | _ -> 8
        in
        let w = Experiments.obs_workload id scale in
        let b = Obs_run.run_workload ~config w ~nprocs in
        Printf.printf "instrumented pass: %s on %d procs, %d cycles, %d events recorded (%d dropped)\n"
          b.Obs_run.b_name nprocs b.Obs_run.b_cycles (Obs.total_recorded b.Obs_run.b_obs)
          (Obs.total_dropped b.Obs_run.b_obs);
        (match metrics with
         | Some f ->
           write_file f (Obs_run.metrics_json b);
           Printf.printf "wrote metrics to %s\n" f
         | None -> ());
        match trace with
        | Some f ->
          write_file f b.Obs_run.b_perfetto;
          Printf.printf "wrote Perfetto trace to %s\n" f
        | None -> ()
      end
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      const run $ id_arg $ full_flag $ quick_flag $ csv_flag $ procs_opt $ metrics_opt $ trace_opt
      $ front_end_opt $ vmem_opt $ reservoir_opt $ slack_opt $ json_opt $ Config_cli.set_opt)

let all_cmd =
  let doc = "Run every experiment in order." in
  let run full csv procs =
    List.iter
      (fun e ->
        Printf.printf "### %s (%s)\n\n" e.Experiments.title e.Experiments.id;
        print_output ~csv (e.Experiments.run (scale_of_flag full) ~procs:(parse_procs procs)))
      (Experiments.all ())
  in
  Cmd.v (Cmd.info "all" ~doc) Term.(const run $ full_flag $ csv_flag $ procs_opt)

let workload_arg =
  Arg.(
    value
    & opt string "threadtest"
    & info [ "workload"; "w" ] ~docv:"NAME"
        ~doc:(Printf.sprintf "Benchmark to drive (%s)." (String.concat ", " Experiments.workload_names)))

let nprocs_arg = Arg.(value & opt int 8 & info [ "procs"; "p" ] ~doc:"Simulated processors.")

let get_workload name full =
  match Experiments.workload name (scale_of_flag full) with
  | Some w -> w
  | None ->
    Printf.eprintf "unknown workload %S; known: %s\n" name (String.concat ", " Experiments.workload_names);
    exit 1

let inspect_cmd =
  let doc = "Run a benchmark under Hoard, then dump the allocator's heap state." in
  let run name full nprocs front_end vmem reservoir sets =
    let config = Config_cli.apply (Hoard_config.make ~front_end ~vmem_backend:vmem ~reservoir ()) sets in
    let w = get_workload name full in
    let sim = Sim.create ~vmem_backend:config.Hoard_config.vmem_backend ~nprocs () in
    let pf = Sim.platform sim in
    let h = Hoard.create ~config pf in
    let a = Hoard.allocator h in
    w.Workload_intf.spawn sim pf a ~nthreads:nprocs;
    Sim.run sim;
    a.Alloc_intf.check ();
    if config.Hoard_config.front_end > 0 then begin
      List.iter
        (fun (tid, counts) ->
          Printf.printf "tcache tid=%d: %d blocks cached\n" tid (Array.fold_left ( + ) 0 counts))
        (Hoard.cache_counts h);
      Printf.printf "deferred lists: [%s]\n"
        (String.concat "; " (Array.to_list (Array.map string_of_int (Hoard.deferred_lengths h))));
      Hoard.flush_caches h;
      a.Alloc_intf.check ()
    end;
    if config.Hoard_config.large_cache > 0 then
      Printf.printf "large cache: %d regions parked\n" (Hoard.large_cache_length h);
    if config.Hoard_config.reservoir > 0 then
      Printf.printf "reservoir: %d/%d superblocks parked\n" (Hoard.reservoir_length h)
        config.Hoard_config.reservoir;
    let s = a.Alloc_intf.stats () in
    Printf.printf "%s on %d processors: %d cycles\n%s\n\n" name nprocs (Sim.total_cycles sim)
      (Format.asprintf "%a" Alloc_stats.pp_snapshot s);
    Format.printf "%a@." Hoard.pp_heaps h
  in
  Cmd.v
    (Cmd.info "inspect" ~doc)
    Term.(
      const run $ workload_arg $ full_flag $ nprocs_arg $ front_end_opt $ vmem_opt $ reservoir_opt
      $ Config_cli.set_opt)

let sweep_cmd =
  let doc = "Run one benchmark under Hoard with explicit algorithm parameters." in
  let f_arg = Arg.(value & opt float 0.25 & info [ "f" ] ~doc:"Emptiness fraction f.") in
  let k_arg = Arg.(value & opt int 4 & info [ "k" ] ~doc:"Slack K (superblocks).") in
  let s_arg = Arg.(value & opt int 8192 & info [ "sbsize" ] ~doc:"Superblock size S.") in
  let run name full nprocs f k sbsize vmem reservoir sets =
    let config =
      Config_cli.apply
        (Hoard_config.make ~empty_fraction:f ~slack:k ~sb_size:sbsize ~vmem_backend:vmem ~reservoir ())
        sets
    in
    let w = get_workload name full in
    let r =
      Runner.run
        (Runner.spec ~vmem_backend:config.Hoard_config.vmem_backend w (Hoard.factory ~config ())
           ~nprocs)
    in
    Printf.printf "%s P=%d %s: %d cycles, %.1f ops/Mcycle, frag %.2f, transfers %d/%d, %d invalidations\n"
      name nprocs
      (Format.asprintf "%a" Hoard_config.pp config)
      r.Runner.r_cycles (Runner.ops_per_mcycle r) (Runner.fragmentation r)
      r.Runner.r_stats.Alloc_stats.sb_to_global r.Runner.r_stats.Alloc_stats.sb_from_global
      r.Runner.r_invalidations;
    Printf.printf
      "  vmem: %d KiB peak mapped, %d KiB address space, %d KiB resident at exit; %d decommits, %d recommits, %d/%d parks/drops\n"
      (r.Runner.r_vm_peak_mapped / 1024) (r.Runner.r_vm_address_space / 1024)
      (r.Runner.r_vm_resident / 1024) r.Runner.r_stats.Alloc_stats.decommits
      r.Runner.r_stats.Alloc_stats.recommits r.Runner.r_stats.Alloc_stats.reservoir_parks
      r.Runner.r_stats.Alloc_stats.reservoir_drops
  in
  Cmd.v (Cmd.info "sweep" ~doc)
    Term.(
      const run $ workload_arg $ full_flag $ nprocs_arg $ f_arg $ k_arg $ s_arg $ vmem_opt
      $ reservoir_opt $ Config_cli.set_opt)

let serve_cmd =
  let doc =
    "Run the front-tier server mix under one allocator, report request-latency percentiles, and \
     optionally grade the run against an SLO spec (nonzero exit on violation)."
  in
  let profile_arg =
    Arg.(
      value
      & opt string "bursty"
      & info [ "profile" ] ~docv:"NAME" ~doc:"Arrival profile: $(b,steady), $(b,bursty) or $(b,flash).")
  in
  let allocator_arg =
    Arg.(
      value
      & opt string "hoard-gl"
      & info [ "allocator"; "a" ] ~docv:"LABEL" ~doc:"Allocator to serve with (see $(b,hoard_trace) list).")
  in
  let requests_opt =
    Arg.(
      value
      & opt int 0
      & info [ "requests" ] ~docv:"N" ~doc:"Total requests across all workers (0 = the scale default).")
  in
  let slo_opt =
    Arg.(
      value
      & opt (some string) None
      & info [ "slo" ] ~docv:"SPEC.json"
          ~doc:
            "Grade the run against this SLO spec and exit nonzero if any objective is violated. Spec \
             shape: {\"name\":..,\"rules\":[{\"metric\":\"request\",\"quantile\":\"p99\",\
             \"ceiling\":CYCLES},..],\"rss_ceiling\":BYTES}.")
  in
  let report_opt =
    Arg.(
      value
      & opt (some string) None
      & info [ "report" ] ~docv:"FILE"
          ~doc:
            "Write the run's flat metrics JSON (slo.request.* percentiles, RSS peak, op latency \
             distributions) — the file the CI p99 gate diffs with $(b,hoard_trace) check-json.")
  in
  let trace_opt =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Write a Perfetto trace: request spans per worker, a request-latency counter track, and \
             held/live/resident memory counter tracks.")
  in
  let run profile_name alloc_label full quick nprocs requests slo report trace sets =
    let profile =
      match Server_mix.profile_of_string profile_name with
      | Some p -> p
      | None ->
        Printf.eprintf "unknown profile %S; known: steady, bursty, flash\n" profile_name;
        exit 1
    in
    let factory =
      match Allocators.find alloc_label with
      | Some f -> f
      | None ->
        Printf.eprintf "unknown allocator %S; known:\n%s\n" alloc_label (Allocators.help ());
        exit 1
    in
    let factory =
      if sets = [] then factory
      else
        match Allocators.with_overrides (fun cfg -> Config_cli.apply cfg sets) alloc_label with
        | Some f -> f
        | None ->
          Printf.eprintf "allocator %S has no config knobs (--set applies to the hoard family)\n"
            alloc_label;
          exit 1
    in
    let scale = scale_of_flag (full && not quick) in
    let params =
      let p = Experiments.server_params profile scale in
      if requests > 0 then { p with Server_mix.requests } else p
    in
    let r = Slo.run_server ~params factory ~nprocs in
    let h = Server_mix.request_latencies r.Slo.sv_recorder in
    Printf.printf
      "server mix (%s) under %s on %d procs: %d requests in %d cycles\n\
       request latency (cycles): p50=%d p99=%d p999=%d max=%d; RSS peak %d KiB\n"
      (Server_mix.profile_name profile) alloc_label nprocs (Histogram.count h) r.Slo.sv_cycles
      (Histogram.percentile h 0.5) (Histogram.percentile h 0.99) (Histogram.percentile h 0.999)
      (Option.value ~default:0 (Histogram.max_value h))
      ((r.Slo.sv_stats.Alloc_stats.peak_resident_bytes + 1023) / 1024);
    (match report with
     | Some f ->
       write_file f (Slo.metrics_json r);
       Printf.printf "wrote metrics report to %s\n" f
     | None -> ());
    (match trace with
     | Some f ->
       write_file f (Slo.perfetto_json r);
       Printf.printf "wrote Perfetto trace to %s\n" f
     | None -> ());
    match slo with
    | None -> ()
    | Some spec_file ->
      let contents =
        let ic = open_in_bin spec_file in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      (match Slo.spec_of_string contents with
       | Error msg ->
         Printf.eprintf "%s: %s\n" spec_file msg;
         exit 1
       | Ok spec ->
         let rep = Slo.evaluate spec r in
         Table.print (Slo.report_table rep);
         if not rep.Slo.rp_ok then exit 2)
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const run $ profile_arg $ allocator_arg $ full_flag $ quick_flag $ nprocs_arg $ requests_opt
      $ slo_opt $ report_opt $ trace_opt $ Config_cli.set_opt)

let () =
  let doc = "Reproduction harness for 'Hoard: A Scalable Memory Allocator' (ASPLOS 2000)." in
  let info = Cmd.info "hoard_bench" ~version:"1.0" ~doc in
  exit (Cmd.eval (Cmd.group info [ list_cmd; run_cmd; all_cmd; inspect_cmd; sweep_cmd; serve_cmd ]))
