type scale = Quick | Full

type _ procs =
  | Sweep : (scale -> int list) -> int list procs
  | Sweep_from_one : int list procs
  | Head : (scale -> int) -> int procs
  | Ignored : unit procs

let default_procs = function
  | Quick -> [ 1; 2; 4; 8 ]
  | Full -> [ 1; 2; 4; 8; 12; 14 ]

let default_p = function
  | Quick -> 4
  | Full -> 8

let resolve : type k. k procs -> scale -> int list option -> k =
 fun rule scale procs ->
  match (rule, procs) with
  | Sweep _, Some ps -> ps
  | Sweep default, None -> default scale
  | Sweep_from_one, Some ps -> if List.mem 1 ps then ps else 1 :: ps
  | Sweep_from_one, None -> default_procs scale
  | Head _, Some (p :: _) -> p
  | Head default, _ -> default scale
  | Ignored, _ -> ()

type 'r column = string * Table.align * ('r -> string)

let left header cell = (header, Table.Left, cell)

let right header cell = (header, Table.Right, cell)

let per_allocator allocs cells =
  List.concat
    (List.mapi
       (fun i a ->
         List.map
           (fun (suffix, cell) -> right (a.Alloc_intf.label ^ suffix) (fun (_, xs) -> cell (List.nth xs i)))
           cells)
       allocs)

let by_allocator allocs cell = per_allocator allocs [ ("", cell) ]

let across allocs run xs = List.map (fun x -> (x, List.map (run x) allocs)) xs

let sections ?(check = ignore) ~title columns groups =
  let t = Table.create ~title ~columns:(List.map (fun (header, align, _) -> (header, align)) columns) in
  List.iteri
    (fun i rows ->
      if i > 0 then Table.add_separator t;
      List.iter
        (fun r ->
          check r;
          Table.add_row t (List.map (fun (_, _, cell) -> cell r) columns))
        rows)
    groups;
  t

let table ?check ~title columns rows = sections ?check ~title columns [ rows ]

(* The P x allocator grid, allocator-major: every allocator's runs over
   the processor list, the first of which is its speedup base. *)
type grid = { procs : int list; runs : (Alloc_intf.factory * Runner.result list) list }

let grid workload allocs procs =
  {
    procs;
    runs =
      List.map (fun a -> (a, List.map (fun p -> Runner.run (Runner.spec workload a ~nprocs:p)) procs)) allocs;
  }

let grid_table ~title g cell =
  let rows = List.mapi (fun i p -> (p, List.map (fun (_, rs) -> (List.hd rs, List.nth rs i)) g.runs)) g.procs in
  table ~title
    (right "P" (fun (p, _) -> string_of_int p)
     :: by_allocator (List.map fst g.runs) (fun (base, r) -> cell ~base r))
    rows

let grid_plot ~title ~y_label g value =
  Ascii_plot.render ~title ~x_label:"processors" ~y_label
    ~series:
      (List.map
         (fun (a, rs) ->
           (a.Alloc_intf.label, List.map2 (fun p r -> (float_of_int p, value ~base:(List.hd rs) r)) g.procs rs))
         g.runs)
    ()
