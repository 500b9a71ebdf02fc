(** Oracle-checked workload runs.

    Wires {!Oracle.wrap} (and, for sanitizer subjects, the
    {!Hoard.sanitizer_access_check} platform hook) into the harness
    runner, then audits the run: quiescent live-byte equality after
    {!Hoard.flush_caches}, the paper's blowup envelope against the
    oracle's ideal-allocator peak U, and optionally zero actively-induced
    false sharing. *)

type subject = {
  s_label : string;
  s_describe : string;
  s_config : Hoard_config.t option;
      (** [Some]: a hoard configuration run with a retained handle.
          [None]: a registry allocator (flush/blowup checks skipped). *)
}

val hoard_subjects : subject list
(** [hoard], [hoard-gl], [hoard-gl-san], [hoard-san], [hoard-res]: each
    built on {!Allocators.base_config} of its registry label, checking
    subjects adding knobs on top. *)

val find_subject : string -> subject option
(** The hoard subjects, then any {!Allocators} registry label. *)

val subject_help : unit -> string

val blowup_slop : Hoard_config.t -> nprocs:int -> peak_live_threads:int -> int
(** The configuration's O(P) term for {!Oracle.check_blowup}, with
    P = the peak concurrently-live thread population
    ({!Runner.result.r_peak_live_threads}) — never the total number of
    threads ever spawned. Exited threads must not widen the envelope:
    their caches are flushed and their superblocks adopted on
    {!Hoard.on_thread_exit}. *)

type report = {
  c_workload : string;
  c_subject : string;
  c_result : Runner.result;
  c_mallocs : int;
  c_peak_usable : int;
  c_shared_lines : int;
  c_quarantine_peak : int;
}

val run_oracle :
  ?fuzz:int ->
  ?nprocs:int ->
  ?nthreads:int ->
  ?check_blowup:bool ->
  ?expect_no_false_sharing:bool ->
  ?overrides:(Hoard_config.t -> Hoard_config.t) ->
  workload:Workload_intf.t ->
  subject:string ->
  unit ->
  report
(** One oracle-checked run ([nprocs] defaults to 4). Raises
    {!Oracle.Oracle_violation}, {!Hoard.Sanitizer_violation} or the
    allocator's own check failures on any discrepancy. [fuzz] seeds the
    schedule fuzzer for interleaving variety; [overrides] is applied to
    the subject's config when it has one (how the CLI threads
    [--set knob=value] through), and the blowup envelope is computed
    from the overridden config. *)

val quick_workloads : unit -> Workload_intf.t list
(** Quick-scale paper workloads for CI sweeps. *)

val find_workload : string -> Workload_intf.t option

val workload_help : unit -> string
