(** The per-experiment index: one registered experiment per table/figure of
    the paper, plus the analysis-section blowup/false-sharing measurements
    and design ablations (see DESIGN.md section 4).

    Experiments render their results as {!Table.t} values; the CLI and the
    bench harness print or CSV-dump them. [Quick] scale shrinks workload
    parameters for fast smoke runs (used by tests); [Full] scale is what
    EXPERIMENTS.md records. *)

type scale = Quick | Full

type output = {
  tables : Table.t list;
  plot : string option;  (** ASCII chart of the figure's curves, when one applies *)
}

type t = {
  id : string;
  title : string;
  paper_ref : string;  (** which table/figure of the paper this regenerates *)
  describe : string;
  run : scale -> procs:int list option -> output;
}

val all : unit -> t list
(** Every experiment, in presentation order. *)

val find : string -> t option

val ids : unit -> string list

val default_procs : scale -> int list
(** Processor counts swept by the speedup figures: 1..8 for [Quick],
    1..14 for [Full] (the paper's Sun Enterprise had 14 processors). *)

val figure_allocators : unit -> Alloc_intf.factory list
(** The allocators the paper's figures compare (its hoard / ptmalloc /
    mtmalloc / Solaris set, as reproduced here). *)

val all_allocators : unit -> Alloc_intf.factory list
(** The figure set plus pure-private and private-threshold — every row of
    the taxonomy. *)

val allocator : string -> Alloc_intf.factory option
(** Look an allocator up by its label. *)

val server_params : Server_mix.profile -> scale -> Server_mix.params
(** The server-mix request mix [exp_server] runs at each scale (1200
    requests at [Quick], 8000 at [Full]); also what [hoard_bench serve]
    uses, so CLI runs and the experiment grade the same workload. *)

val server_allocators : unit -> Alloc_intf.factory list
(** The latency-tail comparison set: serial and private-ownership
    baselines plus hoard and hoard-gl. *)

val workload : string -> scale -> Workload_intf.t option
(** The benchmark suite by name ("threadtest", "shbench", "larson",
    "active-false", "passive-false", "bem", "barnes-hut",
    "producer-consumer", "producer-consumer-pipelined", "phased-blowup")
    at the given scale. *)

val workload_names : string list

val obs_workload : string -> scale -> Workload_intf.t
(** The representative workload an experiment id's [--metrics] companion
    pass instruments (e.g. ["fig_shbench"] -> shbench); defaults to
    threadtest for ids with no obvious single workload. *)
