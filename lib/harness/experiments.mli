(** The per-experiment index: one registered experiment per table/figure of
    the paper, plus the analysis-section blowup/false-sharing measurements
    and design ablations (see DESIGN.md section 4).

    Each experiment is a spec run by the {!Matrix} engine and renders its
    results as {!Table.t} values; [hoard_bench] prints or CSV-dumps them.
    [Quick] scale shrinks workload parameters for fast smoke runs (used by
    tests); [Full] scale is what EXPERIMENTS.md records. *)

type scale = Matrix.scale = Quick | Full

type output = {
  tables : Table.t list;
  plot : string option;  (** ASCII chart of the figure's curves, when one applies *)
}

type t = {
  id : string;
  title : string;
  paper_ref : string;  (** which table/figure of the paper this regenerates *)
  describe : string;
  obs : scale -> Workload_intf.t;
      (** the representative workload the [--metrics] companion pass
          instruments (e.g. shbench for [fig_shbench]; threadtest when no
          single workload stands for the experiment) *)
  run : scale -> procs:int list option -> output;
}

val all : unit -> t list
(** Every experiment, in presentation order. *)

val find : string -> t option

val ids : unit -> string list

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
(** A catalog workload by name at the given scale: the benchmark suite
    ("threadtest", "shbench", "larson", "active-false", "passive-false",
    "bem", "barnes-hut"), the blowup adversaries ("producer-consumer",
    "producer-consumer-pipelined", "phased-blowup"), "kv-store",
    "doc-tree", "server-<profile>" and "churn-<pattern>-<body>". *)

val workload_names : string list
(** Every name {!workload} accepts, in catalog order. *)

val obs_workload : string -> scale -> Workload_intf.t
(** The [obs] workload of the experiment with this id; threadtest for an
    unknown id. *)
