(* calloc / realloc / aligned_alloc / the batch-and-flush extensions over
   every registered allocator, including the front-end hoard. *)

(* The registry's measurement factories, plus the front end over the
   locked global heap: not a registered factory, but still a supported
   configuration ([--set front-end=N] on hoard). *)
let factories =
  let front_end = Hoard_config.make ~front_end:Allocators.front_end_default () in
  Allocators.all () @ [ { (Hoard.factory ~config:front_end ()) with Alloc_intf.label = "hoard+front-end" } ]

let with_alloc f k =
  let pf = Platform.host () in
  let a = f.Alloc_intf.instantiate pf in
  k pf a

let test_calloc_basic (f : Alloc_intf.factory) () =
  with_alloc f (fun pf a ->
      let p = Alloc_api.calloc pf a ~count:16 ~size:12 in
      Alcotest.(check bool) "usable >= 192" true (a.Alloc_intf.usable_size p >= 192);
      a.Alloc_intf.free p;
      a.Alloc_intf.check ())

let test_calloc_rejects_bad_args (f : Alloc_intf.factory) () =
  with_alloc f (fun pf a ->
      Alcotest.check_raises "zero count" (Invalid_argument "Alloc_api.calloc: count and size must be positive")
        (fun () -> ignore (Alloc_api.calloc pf a ~count:0 ~size:8));
      Alcotest.check_raises "overflow" (Invalid_argument "Alloc_api.calloc: size overflow") (fun () ->
          ignore (Alloc_api.calloc pf a ~count:max_int ~size:8)))

let test_realloc_in_place (f : Alloc_intf.factory) () =
  with_alloc f (fun pf a ->
      (* Growing within the block's usable size must not move it. *)
      let p = a.Alloc_intf.malloc 100 in
      let usable = a.Alloc_intf.usable_size p in
      let q = Alloc_api.realloc pf a ~addr:p ~size:usable in
      Alcotest.(check int) "in place" p q;
      a.Alloc_intf.free q;
      a.Alloc_intf.check ())

let test_realloc_grows (f : Alloc_intf.factory) () =
  with_alloc f (fun pf a ->
      let p = a.Alloc_intf.malloc 64 in
      let q = Alloc_api.realloc pf a ~addr:p ~size:50_000 in
      Alcotest.(check bool) "moved" true (q <> p);
      Alcotest.(check bool) "big enough" true (a.Alloc_intf.usable_size q >= 50_000);
      (* A front end may still hold the freed old block; flush is a no-op
         for everyone else. *)
      a.Alloc_intf.flush ();
      Alcotest.(check int) "old block freed" (a.Alloc_intf.usable_size q)
        (a.Alloc_intf.stats ()).Alloc_stats.live_bytes;
      a.Alloc_intf.free q;
      a.Alloc_intf.check ())

let test_realloc_chain (f : Alloc_intf.factory) () =
  with_alloc f (fun pf a ->
      (* Repeated doubling, as a growing dynamic array would do. *)
      let p = ref (a.Alloc_intf.malloc 8) in
      let size = ref 8 in
      for _ = 1 to 12 do
        size := !size * 2;
        p := Alloc_api.realloc pf a ~addr:!p ~size:!size
      done;
      Alcotest.(check bool) "final size" true (a.Alloc_intf.usable_size !p >= 32768);
      a.Alloc_intf.free !p;
      a.Alloc_intf.flush ();
      Alcotest.(check int) "clean" 0 (a.Alloc_intf.stats ()).Alloc_stats.live_bytes;
      a.Alloc_intf.check ())

let test_aligned_small (f : Alloc_intf.factory) () =
  with_alloc f (fun pf a ->
      let p = Alloc_api.aligned_alloc pf a ~align:8 ~size:24 in
      Alcotest.(check int) "8-aligned" 0 (p mod 8);
      a.Alloc_intf.free p)

let test_aligned_large (f : Alloc_intf.factory) () =
  with_alloc f (fun pf a ->
      List.iter
        (fun align ->
          let p = Alloc_api.aligned_alloc pf a ~align ~size:100 in
          Alcotest.(check int) (Printf.sprintf "%d-aligned" align) 0 (p mod align);
          a.Alloc_intf.free p)
        [ 16; 64; 256; 4096 ];
      a.Alloc_intf.check ())

let test_aligned_rejects (f : Alloc_intf.factory) () =
  with_alloc f (fun pf a ->
      Alcotest.check_raises "non power of two"
        (Invalid_argument "Alloc_api.aligned_alloc: align must be a positive power of two") (fun () ->
          ignore (Alloc_api.aligned_alloc pf a ~align:24 ~size:8));
      Alcotest.check_raises "beyond page"
        (Invalid_argument "Alloc_api.aligned_alloc: alignment beyond the page size is not supported") (fun () ->
          ignore (Alloc_api.aligned_alloc pf a ~align:65536 ~size:8)))

let test_members_delegate (f : Alloc_intf.factory) () =
  (* The record members are the real interface; the free functions are
     compatibility wrappers. Drive the members directly. *)
  with_alloc f (fun _pf a ->
      let p = a.Alloc_intf.calloc ~count:8 ~size:16 in
      Alcotest.(check bool) "calloc member" true (a.Alloc_intf.usable_size p >= 128);
      let q = a.Alloc_intf.realloc ~addr:p ~size:1024 in
      Alcotest.(check bool) "realloc member" true (a.Alloc_intf.usable_size q >= 1024);
      let r = a.Alloc_intf.aligned_alloc ~align:64 ~size:100 in
      Alcotest.(check int) "aligned member" 0 (r mod 64);
      a.Alloc_intf.free q;
      a.Alloc_intf.free r;
      a.Alloc_intf.flush ();
      a.Alloc_intf.check ())

let test_batch_roundtrip (f : Alloc_intf.factory) () =
  with_alloc f (fun _pf a ->
      let ps = a.Alloc_intf.malloc_batch 32 64 in
      Alcotest.(check int) "batch length" 32 (Array.length ps);
      Array.iter
        (fun p -> Alcotest.(check bool) "batch usable" true (a.Alloc_intf.usable_size p >= 64))
        ps;
      let sorted = Array.copy ps in
      Array.sort compare sorted;
      for i = 1 to Array.length sorted - 1 do
        Alcotest.(check bool) "batch distinct" true (sorted.(i - 1) <> sorted.(i))
      done;
      Alcotest.(check int) "zero batch" 0 (Array.length (a.Alloc_intf.malloc_batch 0 64));
      a.Alloc_intf.free_batch ps;
      a.Alloc_intf.flush ();
      a.Alloc_intf.check ();
      Alcotest.(check int) "clean" 0 (a.Alloc_intf.stats ()).Alloc_stats.live_bytes)

let test_hoard_realloc_stays_in_block () =
  (* Hoard's realloc override: any size that fits the block's class stays
     in place, including shrinking — the generic default only guarantees
     growth within usable size. *)
  let pf = Platform.host () in
  let h = Hoard.create pf in
  let a = Hoard.allocator h in
  let p = a.Alloc_intf.malloc 100 in
  let usable = a.Alloc_intf.usable_size p in
  Alcotest.(check int) "grow to usable in place" p (a.Alloc_intf.realloc ~addr:p ~size:usable);
  Alcotest.(check int) "shrink in place" p (a.Alloc_intf.realloc ~addr:p ~size:10);
  let q = a.Alloc_intf.realloc ~addr:p ~size:(usable + 1) in
  Alcotest.(check bool) "moved past usable" true (q <> p);
  a.Alloc_intf.free q;
  a.Alloc_intf.check ();
  Alcotest.(check int) "clean" 0 (a.Alloc_intf.stats ()).Alloc_stats.live_bytes

let suite f =
  ( f.Alloc_intf.label,
    [
      Alcotest.test_case "calloc" `Quick (test_calloc_basic f);
      Alcotest.test_case "calloc bad args" `Quick (test_calloc_rejects_bad_args f);
      Alcotest.test_case "realloc in place" `Quick (test_realloc_in_place f);
      Alcotest.test_case "realloc grows" `Quick (test_realloc_grows f);
      Alcotest.test_case "realloc chain" `Quick (test_realloc_chain f);
      Alcotest.test_case "aligned small" `Quick (test_aligned_small f);
      Alcotest.test_case "aligned large" `Quick (test_aligned_large f);
      Alcotest.test_case "aligned rejects" `Quick (test_aligned_rejects f);
      Alcotest.test_case "record members" `Quick (test_members_delegate f);
      Alcotest.test_case "batch roundtrip" `Quick (test_batch_roundtrip f);
    ] )

let () =
  Alcotest.run "alloc-api"
    (List.map suite factories
    @ [
        ( "overrides",
          [ Alcotest.test_case "hoard realloc in block" `Quick test_hoard_realloc_stays_in_block ] );
      ])
