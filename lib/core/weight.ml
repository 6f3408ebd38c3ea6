module Point = Mbr_geom.Point
module Rect = Mbr_geom.Rect
module Spatial = Mbr_geom.Spatial
module Hull = Mbr_geom.Hull

let test_polygon rects = Hull.of_rects rects

let count_blockers ~polygon ~constituents ~index =
  match polygon with
  | [] -> 0
  | _ ->
    let bbox = Rect.of_points polygon in
    let inside = Spatial.query_rect index bbox in
    List.length
      (List.filter
         (fun (cid, p) ->
           (not (List.mem cid constituents)) && Hull.contains polygon p)
         inside)

let formula ~bits ~blockers =
  if bits <= 0 then invalid_arg "Weight.formula: bits <= 0";
  if blockers = 0 then 1.0 /. float_of_int bits
  else if blockers >= bits then infinity
  else float_of_int bits *. (2.0 ** float_of_int blockers)

let candidate_weight ~n_members ~bits ~blockers =
  if n_members <= 1 then 1.0 else formula ~bits ~blockers
