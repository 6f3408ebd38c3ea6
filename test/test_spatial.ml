(* Spatial grid index: add/remove/query behavior under churn, in
   particular that emptied buckets are reclaimed rather than leaking as
   empty lists in the hashtable. *)

module Point = Mbr_geom.Point
module Rect = Mbr_geom.Rect
module Spatial = Mbr_geom.Spatial
module Rng = Mbr_util.Rng

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_add_query () =
  let t = Spatial.create ~bucket:10.0 () in
  Spatial.add t 1 (Point.make 5.0 5.0);
  Spatial.add t 2 (Point.make 15.0 5.0);
  Spatial.add t 3 (Point.make 95.0 95.0);
  check_int "size" 3 (Spatial.size t);
  let hits =
    Spatial.query_rect t (Rect.make ~lx:0.0 ~ly:0.0 ~hx:20.0 ~hy:10.0)
  in
  check_int "two in box" 2 (List.length hits);
  check "ids" true
    (List.sort compare (List.map fst hits) = [ 1; 2 ])

let test_remove_exact_pair () =
  let t = Spatial.create ~bucket:10.0 () in
  let p = Point.make 5.0 5.0 in
  Spatial.add t 1 p;
  Spatial.add t 1 p;
  Spatial.add t 2 p;
  (* wrong point: no-op *)
  Spatial.remove t 1 (Point.make 6.0 5.0);
  check_int "no-op" 3 (Spatial.size t);
  (* removes one occurrence only *)
  Spatial.remove t 1 p;
  check_int "one gone" 2 (Spatial.size t);
  let hits = Spatial.query_rect t (Rect.make ~lx:0.0 ~ly:0.0 ~hx:10.0 ~hy:10.0) in
  check "1 and 2 remain" true
    (List.sort compare (List.map fst hits) = [ 1; 2 ])

let test_empty_buckets_reclaimed () =
  let t = Spatial.create ~bucket:10.0 () in
  let pts =
    List.init 100 (fun i ->
        Point.make (float_of_int (i mod 10) *. 10.0) (float_of_int (i / 10) *. 10.0))
  in
  List.iteri (fun i p -> Spatial.add t i p) pts;
  check_int "100 buckets" 100 (Spatial.n_buckets t);
  List.iteri (fun i p -> Spatial.remove t i p) pts;
  check_int "empty index" 0 (Spatial.size t);
  check_int "no leaked buckets" 0 (Spatial.n_buckets t)

let test_update_same_bucket () =
  let t = Spatial.create ~bucket:10.0 () in
  Spatial.add t 1 (Point.make 2.0 2.0);
  Spatial.add t 2 (Point.make 3.0 3.0);
  Spatial.update t 1 ~from:(Point.make 2.0 2.0) ~to_:(Point.make 8.0 8.0);
  check_int "size unchanged" 2 (Spatial.size t);
  check_int "still one bucket" 1 (Spatial.n_buckets t);
  let hits =
    Spatial.query_rect t (Rect.make ~lx:7.0 ~ly:7.0 ~hx:9.0 ~hy:9.0)
  in
  check "found at new point" true (List.map fst hits = [ 1 ])

let test_update_cross_bucket () =
  let t = Spatial.create ~bucket:10.0 () in
  Spatial.add t 1 (Point.make 5.0 5.0);
  Spatial.update t 1 ~from:(Point.make 5.0 5.0) ~to_:(Point.make 25.0 5.0);
  check_int "size unchanged" 1 (Spatial.size t);
  check_int "old bucket reclaimed" 1 (Spatial.n_buckets t);
  check "gone from old point" true
    (Spatial.query_rect t (Rect.make ~lx:0.0 ~ly:0.0 ~hx:10.0 ~hy:10.0) = []);
  let hits =
    Spatial.query_rect t (Rect.make ~lx:20.0 ~ly:0.0 ~hx:30.0 ~hy:10.0)
  in
  check "present at new point" true (List.map fst hits = [ 1 ])

let test_update_absent_adds () =
  let t = Spatial.create ~bucket:10.0 () in
  (* from-point never inserted: update degrades to add at to_ — the
     blocker-index reconcile relies on this for cells whose recorded
     position drifted. *)
  Spatial.update t 7 ~from:(Point.make 1.0 1.0) ~to_:(Point.make 4.0 4.0);
  check_int "added" 1 (Spatial.size t);
  let hits =
    Spatial.query_rect t (Rect.make ~lx:0.0 ~ly:0.0 ~hx:10.0 ~hy:10.0)
  in
  check "at to_" true
    (match hits with [ (7, p) ] -> p.Point.x = 4.0 && p.Point.y = 4.0 | _ -> false)

(* Random add/remove/query churn against a naive list model. *)
let test_churn_matches_model () =
  let rng = Rng.create 4242 in
  let t = Spatial.create ~bucket:7.5 () in
  let model = ref [] in
  let live = ref [] in
  for step = 1 to 2000 do
    if Rng.chance rng 0.55 || !live = [] then begin
      let x = Rng.float_in rng 0.0 100.0 in
      let y = Rng.float_in rng 0.0 100.0 in
      let p = Point.make x y in
      Spatial.add t step p;
      model := (step, p) :: !model;
      live := (step, p) :: !live
    end
    else if Rng.chance rng 0.5 then begin
      let k = Rng.int rng (List.length !live) in
      let v, p = List.nth !live k in
      Spatial.remove t v p;
      model := List.filter (fun (v', _) -> v' <> v) !model;
      live := List.filter (fun (v', _) -> v' <> v) !live
    end
    else begin
      let k = Rng.int rng (List.length !live) in
      let v, p = List.nth !live k in
      let q =
        Point.make (Rng.float_in rng 0.0 100.0) (Rng.float_in rng 0.0 100.0)
      in
      Spatial.update t v ~from:p ~to_:q;
      let repoint (v', p') = if v' = v && p' = p then (v', q) else (v', p') in
      model := List.map repoint !model;
      live := List.map repoint !live
    end;
    if step mod 100 = 0 then begin
      let lx = Rng.float_in rng 0.0 80.0 in
      let ly = Rng.float_in rng 0.0 80.0 in
      let r = Rect.make ~lx ~ly ~hx:(lx +. 30.0) ~hy:(ly +. 30.0) in
      let got = List.sort compare (List.map fst (Spatial.query_rect t r)) in
      let want =
        List.sort compare
          (List.filter_map
             (fun (v, p) -> if Rect.contains r p then Some v else None)
             !model)
      in
      check "query matches model" true (got = want)
    end
  done;
  check_int "final size" (List.length !model) (Spatial.size t);
  check "buckets bounded by live points" true
    (Spatial.n_buckets t <= Spatial.size t)

(* Exact nearest neighbour against a linear scan: least Manhattan
   distance, smaller value on a tie, over lattice points (many exact
   ties), scattered points and queries far outside the populated box,
   interleaved with removals. *)
let test_nearest_matches_brute_force () =
  let rng = Rng.create 17 in
  for _ = 1 to 40 do
    let t = Spatial.create ~bucket:(Rng.float_in rng 0.5 20.0) () in
    check "empty index" true (Spatial.nearest t (Point.make 1.0 1.0) = None);
    let pts =
      List.init (1 + Rng.int rng 60) (fun v ->
          let c () =
            if Rng.bool rng then 5.0 *. float_of_int (Rng.int rng 4)
            else Rng.float_in rng (-50.0) 150.0
          in
          (v, Point.make (c ()) (c ())))
    in
    List.iter (fun (v, p) -> Spatial.add t v p) pts;
    let live = ref pts in
    while !live <> [] do
      let q = Point.make (Rng.float_in rng (-300.0) 300.0) (Rng.float_in rng (-300.0) 300.0) in
      let want =
        List.fold_left
          (fun best (v, p) ->
            let d = Point.manhattan q p in
            match best with
            | Some (bv, bd, _) when bd < d || (bd = d && bv < v) -> best
            | Some _ | None -> Some (v, d, p))
          None !live
      in
      (match (Spatial.nearest t q, want) with
      | Some (v, _), Some (wv, _, _) -> check_int "nearest value" wv v
      | _, _ -> Alcotest.fail "nearest missing");
      let v, p = List.nth !live (Rng.int rng (List.length !live)) in
      Spatial.remove t v p;
      live := List.filter (fun (v', _) -> v' <> v) !live
    done;
    check "drained" true (Spatial.nearest t (Point.make 0.0 0.0) = None)
  done

let () =
  Alcotest.run "mbr_geom.spatial"
    [
      ( "spatial",
        [
          Alcotest.test_case "add/query" `Quick test_add_query;
          Alcotest.test_case "remove exact pair" `Quick test_remove_exact_pair;
          Alcotest.test_case "empty buckets reclaimed" `Quick
            test_empty_buckets_reclaimed;
          Alcotest.test_case "update within bucket" `Quick test_update_same_bucket;
          Alcotest.test_case "update across buckets" `Quick
            test_update_cross_bucket;
          Alcotest.test_case "update of absent entry adds" `Quick
            test_update_absent_adds;
          Alcotest.test_case "churn vs model" `Quick test_churn_matches_model;
          Alcotest.test_case "nearest vs brute force" `Quick
            test_nearest_matches_brute_force;
        ] );
    ]
