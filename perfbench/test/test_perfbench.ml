(* Tests for the benchmark itself: its inputs follow from the workload
   seed alone, its QoR is reproducible, its verifier catches what it
   claims to, its percentiles refuse thin tails, and its metric lists
   are the ones BENCHMARK.json declares. *)

open Perfbench
module P = Mbr_designgen.Profile
module G = Mbr_designgen.Generate
module J = Mbr_obs.Json

(* A cold-d1x16 pass shrunk to D1 at 0.25, so the test stays quick;
   the design comes from the same seed derivation. *)
let small_pass seed =
  let profiles = List.map (fun p -> P.scaled p (0.25 /. 16.0)) (Workloads.cold_profiles seed) in
  Flow_wl.run_pass ~jobs:1 ~eco_seed:(Workloads.eco_seed seed) profiles

let sizes (ps : Flow_wl.pass) =
  List.map (fun (d : Flow_wl.design) -> (d.Flow_wl.registers, d.Flow_wl.cells)) ps.Flow_wl.designs

let test_seed_reproducible () =
  let a = small_pass 7 and b = small_pass 7 in
  Alcotest.(check (list (pair int int))) "same design sizes" (sizes a) (sizes b);
  Alcotest.(check (list (pair string (float 0.0)))) "same QoR" (Flow_wl.qor a) (Flow_wl.qor b);
  List.iter
    (fun (d : Flow_wl.design) ->
      Alcotest.(check (list string)) "verifier clean" [] d.Flow_wl.violations)
    a.Flow_wl.designs

let test_seed_changes_design () =
  let a = small_pass 7 and b = small_pass 8 in
  Alcotest.(check bool) "different design" true
    (sizes a <> sizes b || Flow_wl.qor a <> Flow_wl.qor b);
  let seeds w = List.map (fun p -> p.P.seed) (w 7) in
  Alcotest.(check bool) "paper-suite seeds differ per design" true
    (List.length (List.sort_uniq compare (seeds Workloads.paper_profiles)) = 5);
  Alcotest.(check bool) "paper-suite seeds follow the workload seed" true
    (seeds Workloads.paper_profiles <> List.map (fun p -> p.P.seed) (Workloads.paper_profiles 8))

let test_verifier_catches_outside () =
  let g = G.generate (P.tiny ~seed:3) in
  Alcotest.(check (list string)) "generated design is clean" [] (Verify.check g);
  let r = List.hd (Mbr_netlist.Design.registers g.G.design) in
  Mbr_place.Placement.set g.G.placement r (Mbr_geom.Point.make (-1000.0) (-1000.0));
  let vs = Verify.check g in
  Alcotest.(check bool) "register outside the core is reported" true
    (List.exists (fun v -> String.starts_with ~prefix:"Floorplan.inside" v) vs);
  Alcotest.(check (list string)) "violations already given are not counted" []
    (Verify.check ~given:vs g)

let test_percentile_validity () =
  let xs n = List.init n float_of_int in
  Alcotest.check_raises "p95 of 100 samples has 5 beyond"
    (Pct.Too_few "t: p95 has 5 samples beyond it (n=100), needs 10") (fun () ->
      ignore (Pct.report ~name:"t" ~scale:1.0 (xs 100) 95.0));
  Alcotest.(check (float 1e-9)) "p95 of 220 samples" 208.05
    (Pct.report ~name:"t" ~scale:1.0 (xs 220) 95.0);
  Alcotest.(check (float 1e-9)) "a median needs no tail" 0.0
    (Pct.report ~name:"t" ~scale:1.0 (xs 1) 50.0)

let test_lists_match_benchmark_json () =
  let j = J.of_string (In_channel.with_open_text "../../BENCHMARK.json" In_channel.input_all) in
  let names key =
    Option.get (Option.bind (J.member key j) J.to_list)
    |> List.map (fun m ->
           ( Option.get (Option.bind (J.member "name" m) J.to_str),
             Option.get (Option.bind (J.member "unit" m) J.to_str) ))
  in
  Alcotest.(check (list (pair string string))) "end_to_end" Table.end_to_end (names "end_to_end");
  Alcotest.(check (list (pair string string))) "per_layer" Table.per_layer (names "per_layer");
  let workloads =
    Option.get (Option.bind (J.member "workloads" j) J.to_list)
    |> List.map (fun w -> Option.get (Option.bind (J.member "name" w) J.to_str))
  in
  Alcotest.(check (list string)) "workloads" Workloads.names workloads

let () =
  Alcotest.run "perfbench"
    [
      ( "seed",
        [
          Alcotest.test_case "same seed, same QoR and sizes" `Quick test_seed_reproducible;
          Alcotest.test_case "other seed, other design" `Quick test_seed_changes_design;
        ] );
      ( "checks",
        [
          Alcotest.test_case "verifier" `Quick test_verifier_catches_outside;
          Alcotest.test_case "percentile validity" `Quick test_percentile_validity;
          Alcotest.test_case "metric lists = BENCHMARK.json" `Quick
            test_lists_match_benchmark_json;
        ] );
    ]
