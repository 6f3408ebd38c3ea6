(* Latency summaries that state their own validity.

   Every percentile is printed with its sample count and the number of
   samples strictly beyond it. A percentile above the median rests on
   its tail, so one with fewer than [min_beyond] samples beyond it
   fails the run instead of being reported. A median is always
   reported, with its count. *)

exception Too_few of string

let min_beyond = 10

type t = { p : float; value : float; n : int; beyond : int }

let compute xs p =
  let a = Array.of_list xs in
  let n = Array.length a in
  if n = 0 then { p; value = Float.nan; n; beyond = 0 }
  else begin
    let value = Mbr_util.Stats.percentile a p in
    let beyond = Array.fold_left (fun k x -> if x > value then k + 1 else k) 0 a in
    { p; value; n; beyond }
  end

(* [report ~name ~scale xs p]: the [p]-th percentile of [xs] times
   [scale], printed with its count. Raises [Too_few] for a percentile
   above the median with fewer than [min_beyond] samples beyond it, or
   for an empty sample. *)
let report ~name ~scale xs p =
  let r = compute xs p in
  if r.n = 0 then raise (Too_few (Printf.sprintf "%s: no samples" name));
  if p > 50.0 && r.beyond < min_beyond then
    raise
      (Too_few
         (Printf.sprintf "%s: p%g has %d samples beyond it (n=%d), needs %d"
            name p r.beyond r.n min_beyond));
  Printf.printf "  %-28s p%-4g %12.4f  (n=%d, %d beyond)\n%!" name p
    (r.value *. scale) r.n r.beyond;
  r.value *. scale
