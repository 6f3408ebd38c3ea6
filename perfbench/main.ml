(* The benchmark's command line:
     main.exe --workload NAME --seed N --seconds S --trace 0|1 [--mbrd PATH]
   Prints progress and checks on stdout, then one JSON result line as
   the last line. Any failed check, invalid percentile or error exits
   non-zero without a result line. *)

open Perfbench

let () =
  Mbr_util.Runtime.tune ();
  (* a daemon that dies mid-request must surface as an error, not kill us *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let mbrd = ref "_build/default/bin/mbrd.exe" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, String.concat " | " Workloads.names);
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S time to measure");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
      ("--mbrd", Arg.Set_string mbrd, "PATH daemon binary (eco-daemon)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench: MBR composition benchmark";
  if not (List.mem !workload Workloads.names) then begin
    prerr_endline ("perfbench: unknown --workload " ^ !workload);
    exit 2
  end;
  let trace = !trace = 1 in
  Printf.printf "perfbench %s seed %d seconds %g trace %b\n%!" !workload !seed
    !seconds trace;
  match
    Workloads.run ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace
      ~mbrd:!mbrd
  with
  | o ->
    if trace then begin
      Span.print_self_times ();
      (try Sys.mkdir "_perfbench" 0o755 with Sys_error _ -> ());
      Span.write (Printf.sprintf "_perfbench/spans-%s-%d.json" !workload !seed)
    end;
    print_endline (Table.result_line ~trace o)
  | exception Pct.Too_few m ->
    prerr_endline ("perfbench: invalid percentile: " ^ m);
    exit 1
