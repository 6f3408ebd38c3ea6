module Point = Mbr_geom.Point
module Rect = Mbr_geom.Rect

type t = {
  core : Rect.t;
  gcell : float;
  nx : int;
  ny : int;
  cap_h : float;
  cap_v : float;
  (* h_dem.(j).(i): edge between tile (i, j) and (i+1, j); nx-1 per row *)
  h_dem : float array array;
  (* v_dem.(j).(i): edge between tile (i, j) and (i, j+1); ny-1 rows *)
  v_dem : float array array;
}

let create ~core ~gcell ~cap_h ~cap_v =
  if gcell <= 0.0 then invalid_arg "Grid.create: non-positive gcell";
  let nx = max 1 (int_of_float (ceil (Rect.width core /. gcell))) in
  let ny = max 1 (int_of_float (ceil (Rect.height core /. gcell))) in
  {
    core;
    gcell;
    nx;
    ny;
    cap_h;
    cap_v;
    h_dem = Array.init ny (fun _ -> Array.make (max 0 (nx - 1)) 0.0);
    v_dem = Array.init (max 0 (ny - 1)) (fun _ -> Array.make nx 0.0);
  }

let nx t = t.nx

let ny t = t.ny

let clamp lo hi v = max lo (min hi v)

let tile_of t (p : Point.t) =
  let i = int_of_float ((p.x -. t.core.Rect.lx) /. t.gcell) in
  let j = int_of_float ((p.y -. t.core.Rect.ly) /. t.gcell) in
  (clamp 0 (t.nx - 1) i, clamp 0 (t.ny - 1) j)

let add_h_segment t ~y ~x0 ~x1 ~demand =
  let i0, j = tile_of t (Point.make (Float.min x0 x1) y) in
  let i1, _ = tile_of t (Point.make (Float.max x0 x1) y) in
  for i = i0 to i1 - 1 do
    t.h_dem.(j).(i) <- t.h_dem.(j).(i) +. demand
  done

let add_v_segment t ~x ~y0 ~y1 ~demand =
  let i, j0 = tile_of t (Point.make x (Float.min y0 y1)) in
  let _, j1 = tile_of t (Point.make x (Float.max y0 y1)) in
  for j = j0 to j1 - 1 do
    t.v_dem.(j).(i) <- t.v_dem.(j).(i) +. demand
  done

let route_l t (a : Point.t) (b : Point.t) ~demand =
  let half = demand /. 2.0 in
  (* lower L: horizontal at a.y then vertical at b.x *)
  add_h_segment t ~y:a.y ~x0:a.x ~x1:b.x ~demand:half;
  add_v_segment t ~x:b.x ~y0:a.y ~y1:b.y ~demand:half;
  (* upper L: vertical at a.x then horizontal at b.y *)
  add_v_segment t ~x:a.x ~y0:a.y ~y1:b.y ~demand:half;
  add_h_segment t ~y:b.y ~x0:a.x ~x1:b.x ~demand:half

let fold_edges t f init =
  let acc = ref init in
  Array.iter
    (fun row -> Array.iter (fun d -> acc := f !acc `H d) row)
    t.h_dem;
  Array.iter
    (fun row -> Array.iter (fun d -> acc := f !acc `V d) row)
    t.v_dem;
  !acc

let overflow_edges t =
  fold_edges t
    (fun acc dir d ->
      let cap = match dir with `H -> t.cap_h | `V -> t.cap_v in
      if d > cap +. 1e-9 then acc + 1 else acc)
    0

let total_demand t = fold_edges t (fun acc _ d -> acc +. d) 0.0

let reset t =
  Array.iter (fun row -> Array.fill row 0 (Array.length row) 0.0) t.h_dem;
  Array.iter (fun row -> Array.fill row 0 (Array.length row) 0.0) t.v_dem
