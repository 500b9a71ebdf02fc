let front_end_default = 16

let large_cache_default = 4

let san_config ?(quarantine = 32) () = Hoard_config.make ~sanitize:true ~quarantine ()

let res_config ?(reservoir = 8) ?(vmem_backend = Vmem_backend.First_fit) () =
  Hoard_config.make ~reservoir ~vmem_backend ()

let gl_config ?(front_end = front_end_default) () = Hoard_config.make ~front_end ~global:Hoard_config.Lockfree ()

let hoard_san ?quarantine () =
  let config = san_config ?quarantine () in
  let quarantine = config.Hoard_config.quarantine in
  {
    (Hoard.factory ~config ()) with
    Alloc_intf.label = "hoard-san";
    description =
      Printf.sprintf "hoard with the heap sanitizer (poison-on-free, %d-block quarantine)" quarantine;
  }

let hoard_res ?reservoir ?vmem_backend () =
  let config = res_config ?reservoir ?vmem_backend () in
  let reservoir = config.Hoard_config.reservoir in
  let vmem_backend = config.Hoard_config.vmem_backend in
  {
    (Hoard.factory ~config ()) with
    Alloc_intf.label = "hoard-res";
    description =
      Printf.sprintf
        "hoard with the superblock reservoir (cap %d, decommit-on-park) on the %s vmem backend"
        reservoir
        (Vmem_backend.kind_name vmem_backend);
  }

let hoard_gl ?front_end () =
  let config = gl_config ?front_end () in
  let front_end = config.Hoard_config.front_end in
  {
    (Hoard.factory ~config ()) with
    Alloc_intf.label = "hoard-gl";
    description =
      Printf.sprintf
        "hoard with the lock-free front end (%d cached blocks per class per thread), deferred remote-free lists and \
         the lock-free global heap: CAS-published fullness index, no heap-0 lock on any transfer"
        front_end;
  }

let all () =
  [
    Serial_alloc.factory ();
    Concurrent_single.factory ();
    Pure_private.factory ();
    Private_ownership.factory ();
    Private_threshold.factory ();
    Hoard.factory ();
    hoard_gl ();
  ]

(* Checking configurations: resolvable by [find] but excluded from [all]
   (sweeps and comparison tables run the seven measurement allocators). *)
let extras () = [ hoard_san (); hoard_res () ]

let labels () = List.map (fun f -> f.Alloc_intf.label) (all ())

let find label = List.find_opt (fun f -> f.Alloc_intf.label = label) (all () @ extras ())

(* The hoard-family labels and the configs their factories register
   with — [None] for the non-hoard comparison allocators, which have no
   knobs to override. *)
let base_config = function
  | "hoard" -> Some Hoard_config.default
  | "hoard-gl" -> Some (gl_config ())
  | "hoard-san" -> Some (san_config ())
  | "hoard-res" -> Some (res_config ())
  | _ -> None

let with_overrides f label =
  match (find label, base_config label) with
  | Some fac, Some cfg ->
    let config = f cfg in
    Some { fac with Alloc_intf.instantiate = (Hoard.factory ~config ()).Alloc_intf.instantiate }
  | _, _ -> None

let help () =
  String.concat "\n"
    (List.map
       (fun f -> Printf.sprintf "  %-18s %s" f.Alloc_intf.label f.Alloc_intf.description)
       (all () @ extras ()))
