(* Bechamel micro-benchmarks: real wall-clock latency of the allocator
   code paths themselves (host platform, no simulator), one test per
   allocator and size mix. The paper's tables and figures are regenerated
   by [hoard_bench all --full].

     dune exec bench/main.exe
*)

open Bechamel
open Bechamel.Toolkit

let factories () = Allocators.all ()

(* One malloc/free pair per run, against a long-lived allocator. *)
let pair_test (factory : Alloc_intf.factory) ~size =
  let a = factory.Alloc_intf.instantiate (Platform.host ()) in
  Test.make
    ~name:(Printf.sprintf "%s/%dB" factory.Alloc_intf.label size)
    (Staged.stage (fun () -> a.Alloc_intf.free (a.Alloc_intf.malloc size)))

(* A churn of a 64-slot working set with mixed sizes per run. *)
let churn_test (factory : Alloc_intf.factory) =
  let a = factory.Alloc_intf.instantiate (Platform.host ()) in
  let slots = Array.init 64 (fun i -> a.Alloc_intf.malloc (8 + (8 * (i mod 60)))) in
  let i = ref 0 in
  Test.make
    ~name:(Printf.sprintf "%s/churn" factory.Alloc_intf.label)
    (Staged.stage (fun () ->
         let k = !i mod 64 in
         incr i;
         a.Alloc_intf.free slots.(k);
         slots.(k) <- a.Alloc_intf.malloc (8 + (8 * (k * 7 mod 60)))))

let run_micro () =
  print_endline "=== Micro-benchmarks: allocator code-path latency (host wall-clock) ===\n";
  let tests =
    Test.make_grouped ~name:"alloc"
      (List.concat_map (fun f -> [ pair_test f ~size:64; pair_test f ~size:4096; churn_test f ]) (factories ()))
  in
  let cfg = Benchmark.cfg ~quota:(Time.second 0.25) () in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] tests in
  let ols = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name r acc -> (name, r) :: acc) results [] in
  let rows = List.sort compare rows in
  Printf.printf "%-40s %14s %10s\n" "test" "ns/op" "r^2";
  List.iter
    (fun (name, r) ->
      let est =
        match Analyze.OLS.estimates r with
        | Some (e :: _) -> e
        | _ -> nan
      in
      let r2 =
        match Analyze.OLS.r_square r with
        | Some v -> v
        | None -> nan
      in
      Printf.printf "%-40s %14.1f %10.3f\n" name est r2)
    rows;
  print_newline ()

let () = run_micro ()
