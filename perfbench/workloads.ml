(* The three workloads and how their inputs follow from the workload
   seed. The program receives only generated inputs: every profile
   seed and every ECO seed below is derived from [--seed]. *)

module P = Mbr_designgen.Profile

let names = [ "cold-d1x16"; "paper-suite"; "eco-daemon" ]

(* D1 at 16x: 23,520 registers, the largest one-shot run that repeats
   cheaply enough on a 2-core host. *)
let cold_profiles seed = [ P.scaled { P.d1 with P.seed = Seed.derive seed 1 } 16.0 ]

(* D1-D5 at scale 1: the Table 1 set. *)
let paper_profiles seed =
  List.mapi (fun i p -> { p with P.seed = Seed.derive seed (i + 1) }) P.all

let eco_seed seed = Seed.derive seed 100

(* Passes per run at least: a cold-d1x16 pass takes ~45 s, so one;
   a paper-suite pass ~13 s, so two, and every timing is a median. *)
let run ~workload ~seed ~seconds ~trace ~mbrd =
  match workload with
  | "cold-d1x16" ->
    Flow_wl.run ~workload ~jobs:1 ~min_passes:1 ~eco_seed:(eco_seed seed) ~seconds ~trace
      (cold_profiles seed)
  | "paper-suite" ->
    Flow_wl.run ~workload ~jobs:2 ~min_passes:2 ~eco_seed:(eco_seed seed) ~seconds ~trace
      (paper_profiles seed)
  | "eco-daemon" -> Eco_wl.run ~mbrd ~seed:(Seed.derive seed 200) ~seconds ~trace
  | w -> invalid_arg ("unknown workload " ^ w)
