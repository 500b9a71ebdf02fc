(* The one [--set knob=value] option shared by hoard_bench, hoard_trace
   and hoard_check: textual overrides over the Hoard_config knob
   registry, the only way these CLIs set an allocator knob. A new knob
   becomes settable everywhere by adding its registry entry, with no
   edits to any CLI. *)

open Cmdliner

let set_opt =
  Arg.(
    value
    & opt_all string []
    & info [ "set" ] ~docv:"KNOB=VALUE"
        ~doc:
          (Printf.sprintf
             "Override one allocator knob (repeatable; applied left to right on top of the command's \
              base configuration). Knobs: %s. Values: ints, floats, true/false, and $(b,auto) for nheaps."
             (String.concat ", " (Hoard_config.knob_names ()))))

(* Fold the overrides over [base], turning a bad knob or value into a
   usage error that lists the registry instead of a raw exception. *)
let apply base overrides =
  match Hoard_config.set_all base overrides with
  | cfg -> cfg
  | exception Invalid_argument msg ->
    Printf.eprintf "--set: %s\n\nknown knobs:\n%s\n" msg (Hoard_config.knob_doc ());
    exit 1
