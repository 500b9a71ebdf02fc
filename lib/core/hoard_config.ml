(* How the global heap (heap 0) is structured: [Locked] is the classic
   Dlist fullness groups behind the heap-0 lock; [Lockfree] replaces them
   with the CAS-published fullness index (Global_index) so the transfer
   path never takes the heap-0 lock. *)
type global_mode =
  | Locked
  | Lockfree

let global_mode_name = function
  | Locked -> "locked"
  | Lockfree -> "lockfree"

let global_mode_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "locked" | "lock" -> Some Locked
  | "lockfree" | "lock-free" | "lock_free" -> Some Lockfree
  | _ -> None

type t = {
  sb_size : int;
  empty_fraction : float;
  slack : int;
  growth : float;
  ngroups : int;
  nheaps : int option;
  assign_by_tid : bool;
  release_to_os : bool;
  release_threshold : int;
  reservoir : int;
  vmem_backend : Vmem_backend.kind;
  path_work : int;
  front_end : int;
  large_cache : int;
  global : global_mode;
  sanitize : bool;
  quarantine : int;
  mutant : string;
}

let known_mutants =
  [
    "skip-owner-recheck";
    "emptiness-off-by-one";
    "reservoir-no-aba";
    "park-before-decommit";
    "deferred-lost-node";
    "large-cache-no-aba";
    "orphan-lost-superblock";
    "global-no-aba";
    "global-skip-revalidate";
  ]

let default =
  {
    sb_size = 8192;
    empty_fraction = 0.25;
    slack = 4;
    growth = 1.2;
    ngroups = 8;
    nheaps = None;
    assign_by_tid = false;
    release_to_os = true;
    release_threshold = 4;
    reservoir = 0;
    vmem_backend = Vmem_backend.Exact;
    path_work = 30;
    front_end = 0;
    large_cache = 0;
    global = Locked;
    sanitize = false;
    quarantine = 32;
    mutant = "";
  }

(* ------------------------------------------------------------------ *)
(* The knob registry: one record per tunable, carrying its name, doc
   line, parser, range check and printers. [validate], [pp], [set] and
   the shared [--set knob=value] CLI option in hoard_bench/hoard_trace/
   hoard_check are all driven from this list, so a new knob is one
   registry entry — no per-binary flag parser or record-literal edits. *)

type knob = {
  k_name : string;
  k_doc : string;
  k_get : t -> string; (* render current value *)
  k_parse : t -> string -> t; (* parse + store; Invalid_argument on junk *)
  k_check : t -> string option; (* range check; error message when bad *)
}

let bad name fmt = Printf.ksprintf (fun m -> invalid_arg (Printf.sprintf "Hoard_config: %s: %s" name m)) fmt

let parse_int name s =
  match int_of_string_opt (String.trim s) with
  | Some v -> v
  | None -> bad name "expected an integer, got %S" s

let parse_float name s =
  match float_of_string_opt (String.trim s) with
  | Some v -> v
  | None -> bad name "expected a number, got %S" s

let parse_bool name s =
  match String.lowercase_ascii (String.trim s) with
  | "true" | "on" | "1" | "yes" -> true
  | "false" | "off" | "0" | "no" -> false
  | _ -> bad name "expected a boolean (true/false/on/off/1/0), got %S" s

let int_knob name doc ~get ~store ~check =
  {
    k_name = name;
    k_doc = doc;
    k_get = (fun t -> string_of_int (get t));
    k_parse = (fun t s -> store t (parse_int name s));
    k_check = (fun t -> check (get t));
  }

let bool_knob name doc ~get ~store =
  {
    k_name = name;
    k_doc = doc;
    k_get = (fun t -> string_of_bool (get t));
    k_parse = (fun t s -> store t (parse_bool name s));
    k_check = (fun _ -> None);
  }

let non_negative name v = if v < 0 then Some (Printf.sprintf "%s must be non-negative" name) else None

let knobs =
  [
    {
      k_name = "sb-size";
      k_doc = "S: superblock size in bytes; power of two >= 1024 (paper: 8192).";
      k_get = (fun t -> string_of_int t.sb_size);
      k_parse = (fun t s -> { t with sb_size = parse_int "sb-size" s });
      k_check =
        (fun t ->
          if t.sb_size < 1024 || t.sb_size land (t.sb_size - 1) <> 0 then
            Some "sb-size must be a power of two >= 1024"
          else None);
    };
    {
      k_name = "empty-fraction";
      k_doc = "f: emptiness-invariant fraction in (0, 1) (paper: 0.25).";
      k_get = (fun t -> Printf.sprintf "%g" t.empty_fraction);
      k_parse = (fun t s -> { t with empty_fraction = parse_float "empty-fraction" s });
      k_check =
        (fun t ->
          if t.empty_fraction > 0.0 && t.empty_fraction < 1.0 then None
          else Some "empty-fraction must lie in (0, 1)");
    };
    int_knob "slack" "K: superblocks of slack a heap may hold regardless of f."
      ~get:(fun t -> t.slack)
      ~store:(fun t v -> { t with slack = v })
      ~check:(non_negative "slack");
    {
      k_name = "growth";
      k_doc = "b: size-class growth factor, > 1.0 (paper: 1.2).";
      k_get = (fun t -> Printf.sprintf "%g" t.growth);
      k_parse = (fun t s -> { t with growth = parse_float "growth" s });
      k_check = (fun t -> if t.growth <= 1.0 then Some "growth must exceed 1.0" else None);
    };
    int_knob "ngroups" "Fullness groups per size class, >= 1."
      ~get:(fun t -> t.ngroups)
      ~store:(fun t v -> { t with ngroups = v })
      ~check:(fun v -> if v < 1 then Some "ngroups must be >= 1" else None);
    {
      k_name = "nheaps";
      k_doc = "Per-processor heap count; 'auto' (or 'per-proc') means one per processor.";
      k_get =
        (fun t ->
          match t.nheaps with
          | None -> "auto"
          | Some n -> string_of_int n);
      k_parse =
        (fun t s ->
          match String.lowercase_ascii (String.trim s) with
          | "auto" | "per-proc" | "per_proc" -> { t with nheaps = None }
          | s -> { t with nheaps = Some (parse_int "nheaps" s) });
      k_check =
        (fun t ->
          match t.nheaps with
          | Some n when n < 1 -> Some "nheaps must be >= 1 (or auto)"
          | _ -> None);
    };
    bool_knob "assign-by-tid" "Map threads to heaps by thread-id hash instead of by processor."
      ~get:(fun t -> t.assign_by_tid)
      ~store:(fun t v -> { t with assign_by_tid = v });
    bool_knob "release-to-os" "Return empty superblocks from the global heap to the OS."
      ~get:(fun t -> t.release_to_os)
      ~store:(fun t v -> { t with release_to_os = v });
    int_knob "release-threshold" "Empty superblocks the global heap retains before releasing."
      ~get:(fun t -> t.release_threshold)
      ~store:(fun t v -> { t with release_threshold = v })
      ~check:(non_negative "release-threshold");
    int_knob "reservoir" "R: capacity (superblocks) of the decommitted parking reservoir; 0 disables."
      ~get:(fun t -> t.reservoir)
      ~store:(fun t v -> { t with reservoir = v })
      ~check:(non_negative "reservoir");
    {
      k_name = "vmem";
      k_doc = "Address-space reuse policy: exact, first-fit or buddy.";
      k_get = (fun t -> Vmem_backend.kind_name t.vmem_backend);
      k_parse =
        (fun t s ->
          match Vmem_backend.kind_of_string (String.trim s) with
          | Some k -> { t with vmem_backend = k }
          | None -> bad "vmem" "unknown backend %S (exact, first-fit, buddy)" s);
      k_check = (fun _ -> None);
    };
    int_knob "path-work" "Instruction cycles charged per malloc/free beyond memory ops."
      ~get:(fun t -> t.path_work)
      ~store:(fun t v -> { t with path_work = v })
      ~check:(non_negative "path-work");
    int_knob "front-end" "K: per-thread per-class cache capacity (evictions ride deferred lists); 0 disables, else >= 2."
      ~get:(fun t -> t.front_end)
      ~store:(fun t v -> { t with front_end = v })
      ~check:(fun v ->
        if v < 0 then Some "front-end must be non-negative"
        else if v > 0 && v < 2 then Some "front-end must be 0 or >= 2"
        else None);
    int_knob "large-cache" "Per-bucket capacity of the MPSC large-object cache; 0 disables."
      ~get:(fun t -> t.large_cache)
      ~store:(fun t v -> { t with large_cache = v })
      ~check:(non_negative "large-cache");
    {
      k_name = "global";
      k_doc = "Global-heap structure: locked (Dlist groups) or lockfree (CAS fullness index).";
      k_get = (fun t -> global_mode_name t.global);
      k_parse =
        (fun t s ->
          match global_mode_of_string s with
          | Some m -> { t with global = m }
          | None -> bad "global" "unknown mode %S (locked, lockfree)" s);
      k_check = (fun _ -> None);
    };
    bool_knob "sanitize" "Heap sanitizer: poison-on-free, quarantine, double-free diagnosis."
      ~get:(fun t -> t.sanitize)
      ~store:(fun t v -> { t with sanitize = v });
    int_knob "quarantine" "Sanitizer quarantine ring capacity (blocks)."
      ~get:(fun t -> t.quarantine)
      ~store:(fun t v -> { t with quarantine = v })
      ~check:(non_negative "quarantine");
    {
      k_name = "mutant";
      k_doc = "Hidden test hook: plant a known concurrency bug (never set outside tests).";
      k_get = (fun t -> t.mutant);
      k_parse = (fun t s -> { t with mutant = String.trim s });
      k_check =
        (fun t ->
          if t.mutant <> "" && not (List.mem t.mutant known_mutants) then
            Some
              (Printf.sprintf "unknown mutant %S (known: %s)" t.mutant (String.concat ", " known_mutants))
          else None);
    };
  ]

let normalize_name s =
  String.map (function '_' -> '-' | c -> c) (String.lowercase_ascii (String.trim s))

let find_knob name =
  let name = normalize_name name in
  List.find_opt (fun k -> k.k_name = name) knobs

let knob_names () = List.map (fun k -> k.k_name) knobs

let knob_doc () =
  String.concat "\n" (List.map (fun k -> Printf.sprintf "  %-18s %s" k.k_name k.k_doc) knobs)

let validate t =
  List.iter
    (fun k ->
      match k.k_check t with
      | Some msg -> invalid_arg ("Hoard_config: " ^ msg)
      | None -> ())
    knobs

let set t spec =
  match String.index_opt spec '=' with
  | None -> bad "set" "expected knob=value, got %S (knobs: %s)" spec (String.concat ", " (knob_names ()))
  | Some i ->
    let name = String.sub spec 0 i in
    let value = String.sub spec (i + 1) (String.length spec - i - 1) in
    (match find_knob name with
     | None ->
       bad "set" "unknown knob %S (knobs: %s)" (String.trim name) (String.concat ", " (knob_names ()))
     | Some k ->
       let t = k.k_parse t value in
       (match k.k_check t with
        | Some msg -> invalid_arg ("Hoard_config: " ^ msg)
        | None -> t))

let set_all t specs = List.fold_left set t specs

let make ?(base = default) ?sb_size ?empty_fraction ?slack ?growth ?ngroups ?nheaps ?assign_by_tid
    ?release_to_os ?release_threshold ?reservoir ?vmem_backend ?path_work ?front_end ?large_cache
    ?global ?sanitize ?quarantine ?mutant () =
  let v field = function Some x -> x | None -> field in
  let t =
    {
      sb_size = v base.sb_size sb_size;
      empty_fraction = v base.empty_fraction empty_fraction;
      slack = v base.slack slack;
      growth = v base.growth growth;
      ngroups = v base.ngroups ngroups;
      nheaps = v base.nheaps nheaps;
      assign_by_tid = v base.assign_by_tid assign_by_tid;
      release_to_os = v base.release_to_os release_to_os;
      release_threshold = v base.release_threshold release_threshold;
      reservoir = v base.reservoir reservoir;
      vmem_backend = v base.vmem_backend vmem_backend;
      path_work = v base.path_work path_work;
      front_end = v base.front_end front_end;
      large_cache = v base.large_cache large_cache;
      global = v base.global global;
      sanitize = v base.sanitize sanitize;
      quarantine = v base.quarantine quarantine;
      mutant = v base.mutant mutant;
    }
  in
  validate t;
  t

let max_small t = t.sb_size / 2

(* Registry-driven printer: the core shape parameters always print (in
   registry order), every other knob only when it differs from the
   default — so new knobs show up in [inspect] output automatically. *)
let always_shown =
  [ "sb-size"; "empty-fraction"; "slack"; "growth"; "ngroups"; "nheaps"; "front-end" ]

let pp fmt t =
  let first = ref true in
  List.iter
    (fun k ->
      let cur = k.k_get t in
      if List.mem k.k_name always_shown || cur <> k.k_get default then begin
        if not !first then Format.pp_print_string fmt " ";
        first := false;
        if k.k_name = "mutant" then Format.fprintf fmt "MUTANT=%s" cur
        else Format.fprintf fmt "%s=%s" k.k_name cur
      end)
    knobs
