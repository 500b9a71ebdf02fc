(** The run-matrix engine behind {!Experiments}: processor-count rules,
    tables declared as columns over the results of their rows, and the
    P x allocator grid the speedup and throughput figures share.

    A row is whatever one point of an experiment's axes ran (a
    {!Runner.result}, a server run, a probe, or a tuple of several); a
    column is a header, an alignment and a function from the row to its
    cell. The engine builds every {!Table.t}; specs only name axes,
    runs and columns. *)

type scale = Quick | Full

(** How an experiment reads [--procs]. The index is what the experiment
    body receives. *)
type _ procs =
  | Sweep : (scale -> int list) -> int list procs
      (** the whole list, else the given default *)
  | Sweep_from_one : int list procs
      (** the list with 1 added (the speedup base), else {!default_procs} *)
  | Head : (scale -> int) -> int procs  (** its first count, else the given default *)
  | Ignored : unit procs

val default_procs : scale -> int list
(** 1..8 for [Quick], 1..14 for [Full] (the paper's Sun Enterprise had
    14 processors). *)

val default_p : scale -> int
(** The single processor count of [Head] experiments: 4 at [Quick], 8 at
    [Full]. *)

val resolve : 'k procs -> scale -> int list option -> 'k

type 'r column = string * Table.align * ('r -> string)

val left : string -> ('r -> string) -> 'r column

val right : string -> ('r -> string) -> 'r column

val per_allocator :
  Alloc_intf.factory list -> (string * ('v -> string)) list -> ('x * 'v list) column list
(** For rows [(x, values)] holding one value per allocator in order: per
    allocator, one column per [(suffix, cell)], headed label ^ suffix. *)

val by_allocator : Alloc_intf.factory list -> ('v -> string) -> ('x * 'v list) column list
(** One column per allocator, headed by its label. *)

val across :
  Alloc_intf.factory list -> ('x -> Alloc_intf.factory -> 'v) -> 'x list -> ('x * 'v list) list
(** Rows for {!by_allocator}: each [x] run under every allocator. *)

val table : ?check:('r -> unit) -> title:string -> 'r column list -> 'r list -> Table.t
(** [check] sees each row before it is added; it raises to fail the
    experiment (an enforced invariant, not a reported one). *)

val sections : ?check:('r -> unit) -> title:string -> 'r column list -> 'r list list -> Table.t
(** {!table} with a rule between consecutive groups of rows. *)

type grid

val grid : Workload_intf.t -> Alloc_intf.factory list -> int list -> grid
(** The workload under every allocator at every processor count. *)

val grid_table :
  title:string -> grid -> (base:Runner.result -> Runner.result -> string) -> Table.t
(** Rows = processor counts, columns = allocators; [base] is the
    allocator's run at the first processor count. *)

val grid_plot :
  title:string -> y_label:string -> grid -> (base:Runner.result -> Runner.result -> float) -> string
(** One series per allocator over the processor counts. *)
