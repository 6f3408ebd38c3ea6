type 'a t = {
  bucket : float;
  cells : (int, ('a * Point.t) list) Hashtbl.t;
  mutable n : int;
  (* grid-index bounds of every point ever added (never shrunk): the
     nearest-neighbour ring search stops once it has covered them *)
  mutable i_lo : int;
  mutable i_hi : int;
  mutable j_lo : int;
  mutable j_hi : int;
}

let create ?(bucket = 25.0) () =
  if bucket <= 0.0 then invalid_arg "Spatial.create: bucket <= 0";
  {
    bucket;
    cells = Hashtbl.create 256;
    n = 0;
    i_lo = max_int;
    i_hi = min_int;
    j_lo = max_int;
    j_hi = min_int;
  }

(* Grid coordinates packed into one non-negative int (2^30 offset per
   axis) so bucket lookups hash an immediate instead of a boxed pair. *)
let grid_offset = 0x4000_0000

let pack_cell i j = ((i + grid_offset) lsl 31) lor (j + grid_offset)

let grid t v = int_of_float (Float.floor (v /. t.bucket))

let key t (p : Point.t) = pack_cell (grid t p.x) (grid t p.y)

let add t v p =
  let i = grid t p.Point.x and j = grid t p.Point.y in
  t.i_lo <- min t.i_lo i;
  t.i_hi <- max t.i_hi i;
  t.j_lo <- min t.j_lo j;
  t.j_hi <- max t.j_hi j;
  let k = pack_cell i j in
  let cur = match Hashtbl.find_opt t.cells k with Some l -> l | None -> [] in
  Hashtbl.replace t.cells k ((v, p) :: cur);
  t.n <- t.n + 1

let remove t v p =
  let k = key t p in
  match Hashtbl.find_opt t.cells k with
  | None -> ()
  | Some l ->
    let removed = ref false in
    let l' =
      List.filter
        (fun (v', p') ->
          if (not !removed) && v' = v && Point.equal ~eps:0.0 p' p then begin
            removed := true;
            false
          end
          else true)
        l
    in
    if !removed then begin
      (* drop emptied buckets so churn does not grow the table *)
      if l' = [] then Hashtbl.remove t.cells k
      else Hashtbl.replace t.cells k l';
      t.n <- t.n - 1
    end

let update t v ~from ~to_ =
  let kf = key t from and kt = key t to_ in
  if kf = kt then begin
    (* same grid cell: rewrite the entry in place, no churn *)
    match Hashtbl.find_opt t.cells kf with
    | None -> add t v to_
    | Some l ->
      let moved = ref false in
      let l' =
        List.map
          (fun ((v', p') as entry) ->
            if (not !moved) && v' = v && Point.equal ~eps:0.0 p' from then begin
              moved := true;
              (v, to_)
            end
            else entry)
          l
      in
      if !moved then Hashtbl.replace t.cells kf l' else add t v to_
  end
  else begin
    remove t v from;
    add t v to_
  end

let query_rect t (r : Rect.t) =
  let i0 = grid t r.Rect.lx and i1 = grid t r.Rect.hx in
  let j0 = grid t r.Rect.ly and j1 = grid t r.Rect.hy in
  let acc = ref [] in
  for i = i0 to i1 do
    for j = j0 to j1 do
      match Hashtbl.find_opt t.cells (pack_cell i j) with
      | Some l ->
        List.iter (fun ((_, p) as entry) -> if Rect.contains r p then acc := entry :: !acc) l
      | None -> ()
    done
  done;
  !acc

(* Ring search: ring r holds the buckets at Chebyshev grid distance r
   from the query's bucket. Every point beyond ring r - 1 lies more than
   (r - 1) bucket pitches away, so once the best distance found is below
   that bound (less a rounding margin) no unscanned point can beat or
   tie it. Ties go to the smaller value. *)
let nearest ?scanned t (q : Point.t) =
  let best = ref None and best_d = ref infinity in
  let qi = grid t q.Point.x and qj = grid t q.Point.y in
  let visit i j =
    (match scanned with Some c -> incr c | None -> ());
    match Hashtbl.find_opt t.cells (pack_cell i j) with
    | None -> ()
    | Some l ->
      List.iter
        (fun ((v, p) as entry) ->
          let d = Point.manhattan q p in
          let better =
            match !best with
            | None -> true
            | Some (bv, _) -> d < !best_d || (d = !best_d && compare v bv < 0)
          in
          if better then begin
            best := Some entry;
            best_d := d
          end)
        l
  in
  (* the ring's two rows and two columns, clipped to the bounds *)
  let row i r =
    if i >= t.i_lo && i <= t.i_hi then
      for j = max (qj - r) t.j_lo to min (qj + r) t.j_hi do visit i j done
  and col j r =
    if j >= t.j_lo && j <= t.j_hi then
      for i = max (qi - r + 1) t.i_lo to min (qi + r - 1) t.i_hi do visit i j done
  in
  (* rings below [r_min] miss the bounds; rings past [r_max] lie beyond *)
  let r_min =
    max 0 (max (max (t.i_lo - qi) (qi - t.i_hi)) (max (t.j_lo - qj) (qj - t.j_hi)))
  and r_max =
    max (max (qi - t.i_lo) (t.i_hi - qi)) (max (qj - t.j_lo) (t.j_hi - qj))
  in
  let rec ring r =
    let settled = !best_d < (float_of_int (r - 1) -. 1e-6) *. t.bucket in
    if r <= r_max && not settled then begin
      row (qi - r) r;
      if r > 0 then begin
        row (qi + r) r;
        col (qj - r) r;
        col (qj + r) r
      end;
      ring (r + 1)
    end
  in
  if t.n > 0 then ring r_min;
  !best

let size t = t.n

let n_buckets t = Hashtbl.length t.cells
