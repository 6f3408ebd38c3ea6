(* A well-mixed positive seed for the [k]-th input of a workload whose
   seed is [seed]. Every generated input of the benchmark goes through
   this, so [--seed] alone decides them. *)
let derive seed k =
  Mbr_util.Rng.int (Mbr_util.Rng.create ((seed * 1_000_003) + k)) 1_000_000_000
