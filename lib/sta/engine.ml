module Design = Mbr_netlist.Design
module Types = Mbr_netlist.Types
module Placement = Mbr_place.Placement
module Cell_lib = Mbr_liberty.Cell

type config = {
  clock_period : float;
  wire_res : float;
  wire_cap : float;
  input_delay : float;
  output_delay : float;
}

let default_config =
  {
    clock_period = 800.0;
    wire_res = 0.002;
    wire_cap = 0.2;
    input_delay = 40.0;
    output_delay = 40.0;
  }

(* Arrival/required storage: one flat [Bigarray] float64 plane per
   direction, corner-interleaved ([pid * nc + k]), so all corners of a
   pin share a cache line and a pred/succ read costs one miss
   regardless of the corner count. Unboxed end to end, and a plane is a
   single malloc'd block outside the OCaml heap, so 100k-register planes
   neither fragment the major heap nor add GC scan work. Reachability is
   structural — a pin has a finite arrival in one corner iff it does in
   every corner. Pins outside the data graph always hold -inf / +inf. *)
type plane =
  (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

let plane_make n v : plane =
  let p = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout (max n 0) in
  Bigarray.Array1.fill p v;
  p

(* All plane indices come from the engine's own graph arrays (or are
   bounds-checked by the accessor), so the hot paths skip the per-read
   bounds test. *)
let pget : plane -> int -> float = Bigarray.Array1.unsafe_get

let pset : plane -> int -> float -> unit = Bigarray.Array1.unsafe_set

(* A growable int buffer for seed and changed-pin collection: [int
   array] backed (unboxed), unlike a list whose cons cells would churn
   the minor heap once per pin. *)
type ivec = { mutable iv_a : int array; mutable iv_len : int }

let ivec_create () = { iv_a = Array.make 64 0; iv_len = 0 }

let ivec_push v x =
  if v.iv_len = Array.length v.iv_a then begin
    let b = Array.make (2 * v.iv_len) 0 in
    Array.blit v.iv_a 0 b 0 v.iv_len;
    v.iv_a <- b
  end;
  v.iv_a.(v.iv_len) <- x;
  v.iv_len <- v.iv_len + 1

(* The timing graph: one CSR image of the data graph, computed straight
   from the design. Pred rows are canonical — a sink's row is its net's
   driver, a comb output's row is its cell's inputs in pin order — and
   succ rows are the transpose in ascending destination order, so two
   graphs of the same design are equal array for array, and a
   structural refresh can diff the old graph against the new one row by
   row. The numeric half (the [mutable] arrays) holds per-corner derated
   delays, entry-major ([j * nc + k]); each direction streams its own
   image, written together through [pr_su]. Startpoint launch =
   skew(st_cell) + st_base (st_base alone for ports); endpoint required
   = (clock_period + skew(ep_cell)) - ep_term (period - ep_term for
   ports). *)
type graph = {
  level : int array;
      (* forward topological level per pin, -1 outside the data graph;
         every arc strictly increases the level, so the pins of one
         level are mutually independent in both directions *)
  n_levels : int;
  topo : int array;  (* in-graph pins, topological order *)
  comb_out : Bytes.t;  (* 1 when the pin's pred row holds cell arcs *)
  pr_off : int array;
  pr_src : int array;
  pr_su : int array;  (* pred entry -> succ entry of the same arc *)
  su_off : int array;
  su_dst : int array;
  st_slot : int array;  (* pin -> startpoint slot, -1 when none *)
  st_cell : int array;  (* slot -> launching register, -1 for a port *)
  ep_slot : int array;
  ep_cell : int array;  (* slot -> capturing register, -1 for a port *)
  ep_pin : int array;  (* slot -> pin, ascending *)
  mutable pr_delay : float array;
  mutable su_delay : float array;
  mutable st_base : float array;
  mutable ep_term : float array;
}

(* Per-corner propagation scratch: epoch-stamped marks, intrusive
   per-level lists for the frontier passes, one pin's corner values. *)
type scratch = {
  ps_mark : int array;
  ps_next : int array;
  ps_head : int array;
  ps_tmp : float array;
  mutable ps_epoch : int;
}

type t = {
  cfg : config;
  pl : Placement.t;
  dsg : Design.t;
  mutable corners : Corner.t array;
  mutable g : graph;
  mutable skews : float array;
      (* useful-skew store, dense by cell id (0.0 = none): every pass
         reads a skew per start/endpoint, and an array load there beats
         a hash probe *)
  mutable arrival : plane;
  mutable required : plane;
  (* Pin-geometry snapshot of the in-graph pins: [pin_location] and
     [pin_cap] walk the design records, so each pin is resolved once
     per change, not once per incident arc. [analyze] retakes it
     whole; [refresh] retakes the pins of dirty nets and touched
     cells. *)
  mutable px : float array;
  mutable py : float array;
  mutable placed : Bytes.t;
  mutable cap : float array;
  mutable scratch : scratch option array;
      (* one lazily-created scratch per corner slot; slot 0 doubles as
         the serial (all-corners-at-once) scratch, and a parallel
         fan-out gives each corner its own *)
  mutable reg_cache : (int * Types.cell_id array * int array) option;
      (* design revision, registers in [Design.registers] order, dense
         cell-id -> slot map (-1 for non-registers) *)
  mutable analyzed : bool;
  mutable dsg_cursor : int;  (** design edits already reflected *)
  mutable pl_cursor : int;  (** placement moves already reflected *)
  mutable n_full_builds : int;
  mutable n_refreshes : int;
  (* Epoch-scoped net-load memo. A load folds the sink caps and the
     net's bounding box, and the same net is consulted once per comb
     arc through its driver plus once per launch — [nl_open] starts a
     fresh epoch wherever design and placement are frozen for the
     duration (a row fill), and [net_load_memo] then computes each net
     at most once. *)
  mutable nl_cache : float array;
  mutable nl_stamp : int array;
  mutable nl_epoch : int;
}

exception Combinational_cycle of Types.pin_id list

let () =
  Printexc.register_printer (function
    | Combinational_cycle pins ->
      Some
        (Printf.sprintf "Sta.Combinational_cycle (%d pins): %s"
           (max 0 (List.length pins - 1))
           (String.concat " -> " (List.map string_of_int pins)))
    | _ -> None)

let cycle_to_string dsg pins =
  String.concat " -> "
    (List.map
       (fun pid ->
         let p = Design.pin dsg pid in
         let c = Design.cell dsg p.Types.p_cell in
         Printf.sprintf "%s/%s" c.Types.c_name
           (Types.pin_kind_to_string p.Types.p_kind))
       pins)

let config t = t.cfg

let placement t = t.pl

let corners t = t.corners

let n_corners t = Array.length t.corners

let n_pins t = Array.length t.g.level

let in_graph t pid = pid >= 0 && pid < n_pins t && t.g.level.(pid) >= 0

let write_skew t id s =
  if id >= Array.length t.skews && s <> 0.0 then begin
    let b = Array.make (max (id + 1) (2 * Array.length t.skews)) 0.0 in
    Array.blit t.skews 0 b 0 (Array.length t.skews);
    t.skews <- b
  end;
  if id < Array.length t.skews then t.skews.(id) <- s

let set_skew t id s =
  write_skew t id s;
  t.analyzed <- false

let skew t id =
  if id >= 0 && id < Array.length t.skews then Array.unsafe_get t.skews id
  else 0.0

let skew_assignments t =
  let acc = ref [] in
  for cid = Array.length t.skews - 1 downto 0 do
    let s = t.skews.(cid) in
    if s <> 0.0 then acc := (cid, s) :: !acc
  done;
  !acc

let delay_arrays g nc =
  let ne = Array.length g.pr_src in
  g.pr_delay <- Array.make (ne * nc) 0.0;
  g.su_delay <- Array.make (ne * nc) 0.0;
  g.st_base <- Array.make (Array.length g.st_cell * nc) 0.0;
  g.ep_term <- Array.make (Array.length g.ep_cell * nc) 0.0

(* Witness of a cycle Kahn could not resolve: every unresolved pin has
   an unresolved predecessor, so walking predecessors from any of them
   must close a loop. Reported in data-flow order, closed by repeating
   the entry pin. *)
let cycle_witness ~pr_off ~pr_src ~indeg start =
  let seen = Hashtbl.create 16 in
  let rec walk pid path =
    if Hashtbl.mem seen pid then begin
      (* [path] holds the predecessor walk in reverse; the loop is the
         segment from the first visit of [pid] onward, closed by [pid]
         itself, flipped into data-flow order *)
      let rec keep_from = function
        | p :: _ as l when p = pid -> l
        | _ :: tl -> keep_from tl
        | [] -> []
      in
      List.rev (keep_from (List.rev path) @ [ pid ])
    end
    else begin
      Hashtbl.add seen pid ();
      let rec find j =
        if j >= pr_off.(pid + 1) then None
        else if indeg.(pr_src.(j)) > 0 then Some pr_src.(j)
        else find (j + 1)
      in
      match find pr_off.(pid) with
      | Some s -> walk s (pid :: path)
      | None -> List.rev (pid :: path)
    end
  in
  walk start []

(* The whole graph from the design in a few linear passes: classify the
   pins (the data graph excludes clock distribution and scan pins),
   resolve each data net's driver once, cut the pred CSR, transpose it,
   then Kahn over the CSR for the topological order and levels. Pure:
   a cycle raises before anything is handed back. *)
let compute_graph dsg ~nc =
  let n = Design.n_pins dsg in
  let in_g = Bytes.make n '\000' in
  let comb_out = Bytes.make n '\000' in
  let st_slot = Array.make n (-1) and ep_slot = Array.make n (-1) in
  let st_cell = ivec_create () and ep_cell = ivec_create () in
  let ep_pin = ivec_create () in
  let n_in = ref 0 in
  for pid = 0 to n - 1 do
    let p = Design.pin dsg pid in
    let c = Design.cell dsg p.Types.p_cell in
    let wired = p.Types.p_net <> None in
    let data =
      (not c.Types.c_dead)
      &&
      match (c.Types.c_kind, p.Types.p_kind) with
      | Types.Register _, Types.Pin_q _ ->
        if wired then begin
          st_slot.(pid) <- st_cell.iv_len;
          ivec_push st_cell p.Types.p_cell
        end;
        true
      | Types.Register _, Types.Pin_d _ ->
        if wired then begin
          ep_slot.(pid) <- ep_cell.iv_len;
          ivec_push ep_cell p.Types.p_cell;
          ivec_push ep_pin pid
        end;
        true
      | Types.Comb _, Types.Pin_in _ -> true
      | Types.Comb _, Types.Pin_out ->
        Bytes.unsafe_set comb_out pid '\001';
        true
      | Types.Port Types.In_port, Types.Pin_port ->
        st_slot.(pid) <- st_cell.iv_len;
        ivec_push st_cell (-1);
        true
      | Types.Port Types.Out_port, Types.Pin_port ->
        if wired then begin
          ep_slot.(pid) <- ep_cell.iv_len;
          ivec_push ep_cell (-1);
          ivec_push ep_pin pid
        end;
        true
      | _, _ -> false
    in
    if data then begin
      Bytes.unsafe_set in_g pid '\001';
      incr n_in
    end
  done;
  let is_in pid = Bytes.unsafe_get in_g pid = '\001' in
  (* net arcs: each in-graph sink of a data net learns its driver *)
  let drv = Array.make n (-1) in
  for nid = 0 to Design.n_nets dsg - 1 do
    if not (Design.net dsg nid).Types.n_is_clock then
      match Design.driver dsg nid with
      | Some d when is_in d ->
        Design.iter_net_pins dsg nid (fun s ->
            if is_in s && (Design.pin dsg s).Types.p_dir = Types.Input then
              drv.(s) <- d)
      | Some _ | None -> ()
  done;
  (* cell arcs: every in-graph input of a comb cell into its output *)
  let iter_inputs pid f =
    List.iter
      (fun i ->
        if is_in i && (Design.pin dsg i).Types.p_dir = Types.Input then f i)
      (Design.pins_of dsg (Design.pin dsg pid).Types.p_cell)
  in
  let pr_off = Array.make (n + 1) 0 in
  for pid = 0 to n - 1 do
    let deg =
      if drv.(pid) >= 0 then 1
      else if Bytes.unsafe_get comb_out pid = '\001' then begin
        let k = ref 0 in
        iter_inputs pid (fun _ -> incr k);
        !k
      end
      else 0
    in
    pr_off.(pid + 1) <- pr_off.(pid) + deg
  done;
  let ne = pr_off.(n) in
  let pr_src = Array.make ne 0 in
  for pid = 0 to n - 1 do
    if drv.(pid) >= 0 then pr_src.(pr_off.(pid)) <- drv.(pid)
    else if Bytes.unsafe_get comb_out pid = '\001' then begin
      let j = ref pr_off.(pid) in
      iter_inputs pid (fun i ->
          pr_src.(!j) <- i;
          incr j)
    end
  done;
  let su_off = Array.make (n + 1) 0 in
  Array.iter (fun s -> su_off.(s + 1) <- su_off.(s + 1) + 1) pr_src;
  for pid = 0 to n - 1 do
    su_off.(pid + 1) <- su_off.(pid + 1) + su_off.(pid)
  done;
  let cur = Array.sub su_off 0 (max n 0) in
  let su_dst = Array.make ne 0 and pr_su = Array.make ne 0 in
  for pid = 0 to n - 1 do
    for j = pr_off.(pid) to pr_off.(pid + 1) - 1 do
      let s = pr_src.(j) in
      let e = cur.(s) in
      cur.(s) <- e + 1;
      su_dst.(e) <- pid;
      pr_su.(j) <- e
    done
  done;
  (* in-place Kahn: [topo.(0..k)] doubles as the ready queue; a pin's
     level is final when it is dequeued, since every predecessor was
     dequeued before it *)
  let indeg = Array.init n (fun pid -> pr_off.(pid + 1) - pr_off.(pid)) in
  let topo = Array.make !n_in 0 in
  let level = Array.make n (-1) in
  let k = ref 0 in
  for pid = 0 to n - 1 do
    if is_in pid && indeg.(pid) = 0 then begin
      topo.(!k) <- pid;
      incr k
    end
  done;
  let n_levels = ref 0 in
  let i = ref 0 in
  while !i < !k do
    let q = topo.(!i) in
    incr i;
    let l = ref 0 in
    for j = pr_off.(q) to pr_off.(q + 1) - 1 do
      let ls = level.(pr_src.(j)) + 1 in
      if ls > !l then l := ls
    done;
    level.(q) <- !l;
    if !l + 1 > !n_levels then n_levels := !l + 1;
    for e = su_off.(q) to su_off.(q + 1) - 1 do
      let d = su_dst.(e) in
      let r = indeg.(d) - 1 in
      indeg.(d) <- r;
      if r = 0 then begin
        topo.(!k) <- d;
        incr k
      end
    done
  done;
  if !k <> !n_in then begin
    let start = ref (-1) in
    (try
       for pid = 0 to n - 1 do
         if is_in pid && indeg.(pid) > 0 then begin
           start := pid;
           raise Exit
         end
       done
     with Exit -> ());
    raise
      (Combinational_cycle
         (if !start < 0 then [] else cycle_witness ~pr_off ~pr_src ~indeg !start))
  end;
  let sub v = Array.sub v.iv_a 0 v.iv_len in
  let g =
    {
      level;
      n_levels = !n_levels;
      topo;
      comb_out;
      pr_off;
      pr_src;
      pr_su;
      su_off;
      su_dst;
      st_slot;
      st_cell = sub st_cell;
      ep_slot;
      ep_cell = sub ep_cell;
      ep_pin = sub ep_pin;
      pr_delay = [||];
      su_delay = [||];
      st_base = [||];
      ep_term = [||];
    }
  in
  delay_arrays g nc;
  g

let m_corners = Mbr_obs.Metrics.counter "sta.corners"

let build_graph t =
  Mbr_obs.Trace.with_span ~name:"sta.graph" (fun () ->
      compute_graph t.dsg ~nc:(Array.length t.corners))

let build ?(config = default_config) ?(corners = Corner.default) pl =
  if Array.length corners = 0 then
    invalid_arg "Sta.build: empty corner set";
  let dsg = Placement.design pl in
  let nc = Array.length corners in
  let g = compute_graph dsg ~nc in
  let n = Array.length g.level in
  Mbr_obs.Metrics.incr ~by:nc m_corners;
  {
    cfg = config;
    pl;
    dsg;
    corners = Array.copy corners;
    g;
    skews = [||];
    arrival = plane_make (n * nc) neg_infinity;
    required = plane_make (n * nc) infinity;
    px = Array.make n 0.0;
    py = Array.make n 0.0;
    placed = Bytes.make n '\000';
    cap = Array.make n 0.0;
    scratch = Array.make nc None;
    reg_cache = None;
    analyzed = false;
    dsg_cursor = Design.revision dsg;
    pl_cursor = Placement.revision pl;
    n_full_builds = 1;
    n_refreshes = 0;
    nl_cache = [||];
    nl_stamp = [||];
    nl_epoch = 0;
  }

let set_corners t cs =
  if Array.length cs = 0 then invalid_arg "Sta.set_corners: empty corner set";
  t.corners <- Array.copy cs;
  let nc = Array.length cs in
  let n = n_pins t in
  t.arrival <- plane_make (n * nc) neg_infinity;
  t.required <- plane_make (n * nc) infinity;
  delay_arrays t.g nc;
  t.scratch <- Array.make nc None;
  t.analyzed <- false;
  Mbr_obs.Metrics.incr ~by:nc m_corners

(* Adopt a freshly computed graph. Pin ids are stable and never
   reused, so the planes and the snapshot keep their prefix: values of
   pins the edit batch did not reach stay valid as they are. *)
let install t g =
  let n = n_pins t and n' = Array.length g.level in
  if n' > n then begin
    let nc = Array.length t.corners in
    let grow_plane pl def =
      let b = plane_make (n' * nc) def in
      if n > 0 then
        Bigarray.Array1.blit
          (Bigarray.Array1.sub pl 0 (n * nc))
          (Bigarray.Array1.sub b 0 (n * nc));
      b
    in
    t.arrival <- grow_plane t.arrival neg_infinity;
    t.required <- grow_plane t.required infinity;
    let grow a def =
      let b = Array.make n' def in
      Array.blit a 0 b 0 n;
      b
    in
    t.px <- grow t.px 0.0;
    t.py <- grow t.py 0.0;
    t.cap <- grow t.cap 0.0;
    t.placed <- Bytes.extend t.placed 0 (n' - n);
    Bytes.fill t.placed n (n' - n) '\000'
  end;
  t.g <- g;
  t.n_full_builds <- t.n_full_builds + 1

(* Packed register index, cached per design revision: the registers in
   [Design.registers] order plus a dense cell-id -> slot map. Shared by
   the skew optimizer and the touched-register reporting so neither
   re-hashes ~100k registers per call. Both arrays are read-only to
   callers. *)
let register_index t =
  let rev = Design.revision t.dsg in
  match t.reg_cache with
  | Some (r, regs, slot) when r = rev -> (regs, slot)
  | _ ->
    let regs = Array.of_list (Design.registers t.dsg) in
    (* cell ids are Vec indices, not bounded by the live-cell count *)
    let bound = Array.fold_left (fun acc cid -> max acc (cid + 1)) 1 regs in
    let slot = Array.make bound (-1) in
    Array.iteri (fun i cid -> slot.(cid) <- i) regs;
    t.reg_cache <- Some (rev, regs, slot);
    (regs, slot)

(* ---- delays ---- *)

let net_pin_cap t nid =
  List.fold_left
    (fun acc s -> acc +. Design.pin_cap t.dsg s)
    0.0 (Design.sinks t.dsg nid)

let net_wire_cap t nid =
  let wire_len =
    match Placement.net_box t.pl nid with
    | Some box -> Mbr_geom.Rect.half_perimeter box
    | None -> 0.0
  in
  t.cfg.wire_cap *. wire_len

let net_load t nid = net_pin_cap t nid +. net_wire_cap t nid

let nl_open t =
  let nn = Design.n_nets t.dsg in
  if Array.length t.nl_stamp < nn then begin
    t.nl_cache <- Array.make nn 0.0;
    t.nl_stamp <- Array.make nn 0
  end;
  t.nl_epoch <- t.nl_epoch + 1

let net_load_memo t nid =
  if t.nl_stamp.(nid) = t.nl_epoch then t.nl_cache.(nid)
  else begin
    let v = net_load t nid in
    t.nl_cache.(nid) <- v;
    t.nl_stamp.(nid) <- t.nl_epoch;
    v
  end

let pin_net_load t pn =
  match pn.Types.p_net with Some nid -> net_load_memo t nid | None -> 0.0

let snap_pin t pid =
  let pn = Design.pin t.dsg pid in
  if Placement.is_placed t.pl pn.Types.p_cell then begin
    let l = Placement.pin_location t.pl pid in
    t.px.(pid) <- l.Mbr_geom.Point.x;
    t.py.(pid) <- l.Mbr_geom.Point.y;
    Bytes.unsafe_set t.placed pid '\001';
    t.cap.(pid) <- Design.pin_cap t.dsg pid
  end
  else Bytes.unsafe_set t.placed pid '\000'

(* One pin's row of the numeric graph, off the snapshot: the derated
   delays of every arc into it (both images), plus its launch base
   when it is a startpoint and its required term when it is an
   endpoint. The only home of the delay model — underated wire delay
   to a sink at Manhattan distance L is r·L·(c·L/2 + C_sink), a cell
   arc costs the destination cell's intrinsic + drive × output load,
   a register launches clk->q into its Q load; corners scale wire,
   cell and setup terms multiplicatively. Must run inside an
   [nl_open] epoch with the snapshot current for the row's pins. *)
let fill_pin t pid =
  let g = t.g and nc = Array.length t.corners and cfg = t.cfg in
  let j0 = g.pr_off.(pid) and j1 = g.pr_off.(pid + 1) in
  if j1 > j0 then begin
    let cell = Bytes.unsafe_get g.comb_out pid = '\001' in
    let cell_base =
      if not cell then 0.0
      else begin
        let pn = Design.pin t.dsg pid in
        match (Design.cell t.dsg pn.Types.p_cell).Types.c_kind with
        | Types.Comb a -> a.Types.intrinsic +. (a.Types.drive_res *. pin_net_load t pn)
        | Types.Register _ | Types.Clock_root | Types.Clock_gate _
        | Types.Port _ ->
          0.0
      end
    in
    for j = j0 to j1 - 1 do
      let base =
        if cell then cell_base
        else begin
          let s = g.pr_src.(j) in
          if
            Bytes.unsafe_get t.placed s = '\001'
            && Bytes.unsafe_get t.placed pid = '\001'
          then begin
            let len =
              Float.abs (t.px.(s) -. t.px.(pid)) +. Float.abs (t.py.(s) -. t.py.(pid))
            in
            cfg.wire_res *. len *. ((cfg.wire_cap *. len /. 2.0) +. t.cap.(pid))
          end
          else 0.0
        end
      in
      let b = j * nc and sb = g.pr_su.(j) * nc in
      for k = 0 to nc - 1 do
        let c = t.corners.(k) in
        let d = base *. if cell then c.Corner.cell else c.Corner.wire in
        g.pr_delay.(b + k) <- d;
        g.su_delay.(sb + k) <- d
      done
    done
  end;
  let sl = g.st_slot.(pid) in
  if sl >= 0 then begin
    let cid = g.st_cell.(sl) in
    if cid >= 0 then begin
      let a = Design.reg_attrs t.dsg cid in
      let load = pin_net_load t (Design.pin t.dsg pid) in
      let cq = Cell_lib.clk_to_q a.Types.lib_cell ~load in
      for k = 0 to nc - 1 do
        g.st_base.((sl * nc) + k) <- cq *. t.corners.(k).Corner.cell
      done
    end
    else
      for k = 0 to nc - 1 do
        g.st_base.((sl * nc) + k) <- cfg.input_delay
      done
  end;
  let el = g.ep_slot.(pid) in
  if el >= 0 then begin
    let cid = g.ep_cell.(el) in
    if cid >= 0 then begin
      let setup = (Design.reg_attrs t.dsg cid).Types.lib_cell.Cell_lib.setup in
      for k = 0 to nc - 1 do
        g.ep_term.((el * nc) + k) <- setup *. t.corners.(k).Corner.setup
      done
    end
    else
      for k = 0 to nc - 1 do
        g.ep_term.((el * nc) + k) <- cfg.output_delay
      done
  end

(* ---- propagation ----

   One per-pin recompute body per direction: a pin's value over corners
   [k0..k1] from its launch/required term and its final neighbours, in
   one fixed float-op order, so every sweep shape reaches the same
   fixpoint bit for bit. Returns whether any corner moved. *)

let relax_arrival t g tmp ~k0 ~k1 q =
  let nc = Array.length t.corners in
  let arr = t.arrival in
  let sl = Array.unsafe_get g.st_slot q in
  if sl >= 0 then begin
    let cid = Array.unsafe_get g.st_cell sl in
    if cid >= 0 then begin
      let sk = skew t cid in
      for k = k0 to k1 do
        Array.unsafe_set tmp k (sk +. Array.unsafe_get g.st_base ((sl * nc) + k))
      done
    end
    else
      for k = k0 to k1 do
        Array.unsafe_set tmp k (Array.unsafe_get g.st_base ((sl * nc) + k))
      done
  end
  else
    for k = k0 to k1 do
      Array.unsafe_set tmp k neg_infinity
    done;
  for j = Array.unsafe_get g.pr_off q to Array.unsafe_get g.pr_off (q + 1) - 1 do
    let sb = Array.unsafe_get g.pr_src j * nc in
    let b = j * nc in
    for k = k0 to k1 do
      let a = pget arr (sb + k) +. Array.unsafe_get g.pr_delay (b + k) in
      if a > Array.unsafe_get tmp k then Array.unsafe_set tmp k a
    done
  done;
  let moved = ref false in
  let qb = q * nc in
  for k = k0 to k1 do
    let v = Array.unsafe_get tmp k in
    if v <> pget arr (qb + k) then begin
      moved := true;
      pset arr (qb + k) v
    end
  done;
  !moved

let relax_required t g tmp ~k0 ~k1 q =
  let nc = Array.length t.corners in
  let req = t.required in
  let period = t.cfg.clock_period in
  let sl = Array.unsafe_get g.ep_slot q in
  if sl >= 0 then begin
    let cid = Array.unsafe_get g.ep_cell sl in
    if cid >= 0 then begin
      let sk = skew t cid in
      for k = k0 to k1 do
        Array.unsafe_set tmp k
          (period +. sk -. Array.unsafe_get g.ep_term ((sl * nc) + k))
      done
    end
    else
      for k = k0 to k1 do
        Array.unsafe_set tmp k (period -. Array.unsafe_get g.ep_term ((sl * nc) + k))
      done
  end
  else
    for k = k0 to k1 do
      Array.unsafe_set tmp k infinity
    done;
  for j = Array.unsafe_get g.su_off q to Array.unsafe_get g.su_off (q + 1) - 1 do
    let db = Array.unsafe_get g.su_dst j * nc in
    let b = j * nc in
    for k = k0 to k1 do
      let r = pget req (db + k) -. Array.unsafe_get g.su_delay (b + k) in
      if r < Array.unsafe_get tmp k then Array.unsafe_set tmp k r
    done
  done;
  let moved = ref false in
  let qb = q * nc in
  for k = k0 to k1 do
    let v = Array.unsafe_get tmp k in
    if v <> pget req (qb + k) then begin
      moved := true;
      pset req (qb + k) v
    end
  done;
  !moved

let scratch_for t slot =
  let g = t.g in
  let n = Array.length g.level in
  match t.scratch.(slot) with
  | Some s
    when Array.length s.ps_mark >= n && Array.length s.ps_head >= g.n_levels ->
    s
  | Some _ | None ->
    let s =
      {
        ps_mark = Array.make (max n 1) 0;
        ps_next = Array.make (max n 1) (-1);
        ps_head = Array.make (max g.n_levels 1) (-1);
        ps_tmp = Array.make (Array.length t.corners) 0.0;
        ps_epoch = 0;
      }
    in
    t.scratch.(slot) <- Some s;
    s

(* One direction of a seeded repair over corners [k0..k1]: forward
   recomputes arrivals and chases successors, backward recomputes
   requireds and chases predecessors, each only while values actually
   move — an unmarked pin would recompute to its stored value bit for
   bit (same final neighbours, same delays), so skipping it is exact,
   and every shape lands on the same planes and the same changed-pin
   set. Two shapes:

   - a frontier pass keeps epoch-marked per-level lists and visits only
     the levels the seeds' cones reach (small batches);
   - a mark-skip scan streams the whole topological order and
     recomputes a pin only when it is marked, so the CSR walk stays
     sequential and a quiet pin costs one array read (big batches,
     and [analyze] with every pin seeded).

   [cancel] is polled once per level (every 4096 pins in a scan), but a
   pass always completes: a batch is atomic, so a tripped token leaves
   exactly the planes an untripped one would. Returns (pins processed,
   non-empty levels walked; 1 for a scan). *)
let sweep t scr ~fwd ~big ~k0 ~k1 ~seeds ~changed ~cancel =
  let g = t.g in
  scr.ps_epoch <- scr.ps_epoch + 1;
  let epoch = scr.ps_epoch in
  let mark = scr.ps_mark in
  let off = if fwd then g.su_off else g.pr_off in
  let nbr = if fwd then g.su_dst else g.pr_src in
  let tmp = scr.ps_tmp in
  let recompute q =
    if fwd then relax_arrival t g tmp ~k0 ~k1 q
    else relax_required t g tmp ~k0 ~k1 q
  in
  let report q = match changed with Some v -> ivec_push v q | None -> () in
  let poll () =
    match cancel with Some c -> ignore (Mbr_util.Cancel.check c) | None -> ()
  in
  let processed = ref 0 in
  if big then begin
    for i = 0 to seeds.iv_len - 1 do
      let q = Array.unsafe_get seeds.iv_a i in
      if Array.unsafe_get g.level q >= 0 then Array.unsafe_set mark q epoch
    done;
    let topo = g.topo in
    let m = Array.length topo in
    for i = 0 to m - 1 do
      if i land 4095 = 0 then poll ();
      let q = Array.unsafe_get topo (if fwd then i else m - 1 - i) in
      if Array.unsafe_get mark q = epoch then begin
        incr processed;
        if recompute q then begin
          report q;
          for j = Array.unsafe_get off q to Array.unsafe_get off (q + 1) - 1 do
            Array.unsafe_set mark (Array.unsafe_get nbr j) epoch
          done
        end
      end
    done;
    (!processed, 1)
  end
  else begin
    let next = scr.ps_next and head = scr.ps_head in
    let lmin = ref g.n_levels and lmax = ref (-1) in
    let push q =
      if Array.unsafe_get mark q <> epoch then begin
        Array.unsafe_set mark q epoch;
        let l = Array.unsafe_get g.level q in
        Array.unsafe_set next q (Array.unsafe_get head l);
        Array.unsafe_set head l q;
        if l < !lmin then lmin := l;
        if l > !lmax then lmax := l
      end
    in
    for i = 0 to seeds.iv_len - 1 do
      let q = Array.unsafe_get seeds.iv_a i in
      if Array.unsafe_get g.level q >= 0 then push q
    done;
    let levels = ref 0 in
    let visit l =
      poll ();
      let q = ref head.(l) in
      if !q >= 0 then incr levels;
      while !q >= 0 do
        let p = !q in
        incr processed;
        if recompute p then begin
          report p;
          for j = Array.unsafe_get off p to Array.unsafe_get off (p + 1) - 1 do
            push (Array.unsafe_get nbr j)
          done
        end;
        q := Array.unsafe_get next p
      done;
      head.(l) <- -1
    in
    (* a pushed neighbour sits on a strictly later level in the sweep
       direction, so the bounds are re-read every step *)
    if fwd then begin
      let l = ref !lmin in
      while !l <= !lmax do
        visit !l;
        incr l
      done
    end
    else begin
      let l = ref !lmax in
      while !l >= !lmin do
        visit !l;
        decr l
      done
    end;
    (!processed, !levels)
  end

(* Forward then backward from their seed sets. Past ~1/64 of the graph
   seeded the cones cover most levels and the sequential scan beats
   the frontier bookkeeping (the measured crossover on the D1 ladder
   sits well above this — the constant errs toward keeping genuinely
   small batches on the frontier path). *)
let propagate t scr ~k0 ~k1 ~fseeds ~bseeds ~changed ~cancel =
  let big = (fseeds.iv_len + bseeds.iv_len) * 64 >= Array.length t.g.topo in
  let pf, lf = sweep t scr ~fwd:true ~big ~k0 ~k1 ~seeds:fseeds ~changed ~cancel in
  let pb, lb = sweep t scr ~fwd:false ~big ~k0 ~k1 ~seeds:bseeds ~changed ~cancel in
  (pf + pb, lf + lb)

(* A full numeric pass: the snapshot retaken and every row refilled
   against the current placement (pending moves are absorbed), every
   pin seeded. Pending *structural* design edits are not absorbed: the
   graph is untouched here, so [dsg_cursor] stays where it is and a
   later {!refresh} rebuilds the structure. *)
let analyze t =
  let g = t.g in
  let n = Array.length g.level in
  Mbr_obs.Trace.with_span ~name:"sta.analyze"
    ~args:[ ("n_pins", Mbr_obs.Trace.Int n) ]
  @@ fun () ->
  Mbr_obs.Trace.with_span ~name:"sta.fill" (fun () ->
      nl_open t;
      for pid = 0 to n - 1 do
        if g.level.(pid) >= 0 then snap_pin t pid
      done;
      for pid = 0 to n - 1 do
        if g.level.(pid) >= 0 then fill_pin t pid
      done);
  let all = { iv_a = g.topo; iv_len = Array.length g.topo } in
  Mbr_obs.Trace.with_span ~name:"sta.propagate" (fun () ->
      ignore
        (propagate t (scratch_for t 0) ~k0:0 ~k1:(Array.length t.corners - 1)
           ~fseeds:all ~bseeds:all ~changed:None ~cancel:None));
  t.pl_cursor <- Placement.revision t.pl;
  t.analyzed <- true

let ensure t = if not t.analyzed then analyze t

(* Telemetry: [sta.refreshes] counts seeded repairs, [sta.dirty_pins]
   accumulates the pins seeding them, [sta.corners] the corner count of
   every engine build / corner-set swap. All no-ops while [Mbr_obs] is
   disabled. *)
let m_refreshes = Mbr_obs.Metrics.counter "sta.refreshes"

let m_dirty_pins = Mbr_obs.Metrics.counter "sta.dirty_pins"

(* The numeric half of a structural repair. Every pin's pred row and
   start/endpoint status is diffed against [old] (rows are canonical,
   so a slice compare is exact). A changed pin is seeded forward —
   backward too when its endpoint status flipped — and every source on
   either side of its row backward, since their succ rows changed with
   it; pins that left the graph are reset to unreached. Dirty and
   changed rows are refilled; a clean, unchanged row reads nothing the
   batch touched, so its delays are carried over from [old] as they
   are. *)
let carry_over t old ~dirty ~fd ~bd =
  let g = t.g and nc = Array.length t.corners in
  let on = Array.length old.level in
  for pid = 0 to Array.length g.level - 1 do
    let was = pid < on in
    let oj0, oj1 = if was then (old.pr_off.(pid), old.pr_off.(pid + 1)) else (0, 0) in
    let nj0, nj1 = (g.pr_off.(pid), g.pr_off.(pid + 1)) in
    let same = ref (oj1 - oj0 = nj1 - nj0) in
    let j = ref 0 in
    while !same && !j < nj1 - nj0 do
      if old.pr_src.(oj0 + !j) <> g.pr_src.(nj0 + !j) then same := false;
      incr j
    done;
    if not !same then begin
      Bytes.set fd pid '\001';
      for j = oj0 to oj1 - 1 do Bytes.set bd old.pr_src.(j) '\001' done;
      for j = nj0 to nj1 - 1 do Bytes.set bd g.pr_src.(j) '\001' done
    end;
    let ost = if was then old.st_slot.(pid) else -1 in
    let oep = if was then old.ep_slot.(pid) else -1 in
    let nst = g.st_slot.(pid) and nep = g.ep_slot.(pid) in
    let st_flip = (ost >= 0) <> (nst >= 0) and ep_flip = (oep >= 0) <> (nep >= 0) in
    if st_flip then Bytes.set fd pid '\001';
    if ep_flip then Bytes.set bd pid '\001';
    let was_in = was && old.level.(pid) >= 0 in
    if g.level.(pid) < 0 then begin
      if was_in then
        for k = 0 to nc - 1 do
          pset t.arrival ((pid * nc) + k) neg_infinity;
          pset t.required ((pid * nc) + k) infinity
        done
    end
    else if
      Bytes.get dirty pid = '\001' || (not was_in) || (not !same) || st_flip || ep_flip
    then fill_pin t pid
    else begin
      for j = 0 to (nj1 - nj0) - 1 do
        let ob = (oj0 + j) * nc and nb = (nj0 + j) * nc in
        let sb = g.pr_su.(nj0 + j) * nc in
        for k = 0 to nc - 1 do
          let d = old.pr_delay.(ob + k) in
          g.pr_delay.(nb + k) <- d;
          g.su_delay.(sb + k) <- d
        done
      done;
      if nst >= 0 then Array.blit old.st_base (ost * nc) g.st_base (nst * nc) nc;
      if nep >= 0 then Array.blit old.ep_term (oep * nc) g.ep_term (nep * nc) nc
    end
  done

(* Bring the engine up to date with the edit logs, given the edits
   since the design cursor, the cells moved since the placement cursor
   and, for a structural batch, the freshly computed graph. Dirty nets
   are the logged ones plus every net on a touched cell; dirty pins are
   the in-graph pins on those nets and of those cells. Their snapshot
   is retaken and their rows refilled, and they seed the repair in both
   directions, their pred sources backward. *)
let repair t ~fresh edits moved =
  let old = t.g in
  Option.iter (install t) fresh;
  let g = t.g in
  let n = Array.length g.level in
  let net_seen = Bytes.make (Design.n_nets t.dsg) '\000' in
  let nets = ref [] in
  let add_net nid =
    if Bytes.get net_seen nid = '\000' then begin
      Bytes.set net_seen nid '\001';
      nets := nid :: !nets
    end
  in
  let cells = ref moved in
  List.iter
    (function
      | Design.Net_changed nid -> add_net nid
      | Design.Cell_added cid | Design.Cell_removed cid | Design.Cell_retyped cid
        ->
        cells := cid :: !cells)
    edits;
  List.iter
    (fun cid ->
      List.iter
        (fun pid -> Option.iter add_net (Design.pin t.dsg pid).Types.p_net)
        (Design.pins_of t.dsg cid))
    !cells;
  let dirty = Bytes.make n '\000' in
  let dpins = ivec_create () in
  let add_pin pid =
    if pid < n && g.level.(pid) >= 0 && Bytes.get dirty pid = '\000' then begin
      Bytes.set dirty pid '\001';
      ivec_push dpins pid
    end
  in
  List.iter (fun nid -> Design.iter_net_pins t.dsg nid add_pin) !nets;
  List.iter (fun cid -> List.iter add_pin (Design.pins_of t.dsg cid)) !cells;
  let fd = Bytes.copy dirty and bd = Bytes.copy dirty in
  for i = 0 to dpins.iv_len - 1 do
    let pid = dpins.iv_a.(i) in
    for j = g.pr_off.(pid) to g.pr_off.(pid + 1) - 1 do
      Bytes.set bd g.pr_src.(j) '\001'
    done
  done;
  Mbr_obs.Trace.with_span ~name:"sta.fill" (fun () ->
      nl_open t;
      for i = 0 to dpins.iv_len - 1 do
        snap_pin t dpins.iv_a.(i)
      done;
      match fresh with
      | Some _ -> carry_over t old ~dirty ~fd ~bd
      | None ->
        for i = 0 to dpins.iv_len - 1 do
          fill_pin t dpins.iv_a.(i)
        done);
  let fseeds = ivec_create () and bseeds = ivec_create () in
  let n_dirty = ref 0 in
  for pid = 0 to n - 1 do
    let f = Bytes.get fd pid = '\001' and b = Bytes.get bd pid = '\001' in
    if f then ivec_push fseeds pid;
    if b then ivec_push bseeds pid;
    if f || b then incr n_dirty
  done;
  Mbr_obs.Metrics.incr ~by:!n_dirty m_dirty_pins;
  Mbr_obs.Trace.with_span ~name:"sta.propagate" (fun () ->
      ignore
        (propagate t (scratch_for t 0) ~k0:0 ~k1:(Array.length t.corners - 1)
           ~fseeds ~bseeds ~changed:None ~cancel:None))

(* Any added or removed cell or rewired net rebuilds the graph from the
   design — computed before anything is touched, so a
   [Combinational_cycle] leaves the engine exactly as it was and a
   later refresh retries the same edits. Move- and retype-only batches
   keep the graph. Either way the numeric repair is seeded, never a
   full pass. *)
let refresh t =
  let dsg_rev = Design.revision t.dsg in
  let pl_rev = Placement.revision t.pl in
  if t.analyzed && dsg_rev = t.dsg_cursor && pl_rev = t.pl_cursor then ()
  else begin
    let edits = Design.edits_since t.dsg t.dsg_cursor in
    let structural =
      List.exists
        (function
          | Design.Cell_retyped _ -> false
          | Design.Cell_added _ | Design.Cell_removed _ | Design.Net_changed _ ->
            true)
        edits
    in
    if not t.analyzed then begin
      if structural then install t (build_graph t);
      t.dsg_cursor <- dsg_rev;
      analyze t
    end
    else
      Mbr_obs.Trace.with_span ~name:"sta.refresh"
        ~args:[ ("n_pins", Mbr_obs.Trace.Int (n_pins t)) ]
      @@ fun () ->
      let fresh = if structural then Some (build_graph t) else None in
      repair t ~fresh edits (Placement.moves_since t.pl t.pl_cursor);
      t.dsg_cursor <- dsg_rev;
      t.pl_cursor <- pl_rev;
      t.n_refreshes <- t.n_refreshes + 1;
      Mbr_obs.Metrics.incr m_refreshes
  end

let full_builds t = t.n_full_builds

let refreshes t = t.n_refreshes

(* Telemetry for the skew-update hot path: [sta.skew.frontier_pins]
   accumulates pins processed by the propagation passes,
   [sta.skew.level_passes] the non-empty levels the frontier passes
   walked (1 per scan), [sta.skew.corner_par] the corners fanned out to
   parallel per-corner sweeps. *)
let m_skew_frontier = Mbr_obs.Metrics.counter "sta.skew.frontier_pins"

let m_skew_levels = Mbr_obs.Metrics.counter "sta.skew.level_passes"

let m_skew_corner_par = Mbr_obs.Metrics.counter "sta.skew.corner_par"

(* [collect_touched] additionally reports which registers own a D or Q
   pin whose arrival or required actually changed — the complete set of
   registers whose [reg_d_slack]/[reg_q_slack] can differ from before
   the call. The worklist-driven skew optimizer uses this to re-examine
   only those registers.

   With [jobs > 1] and more than one corner, corners propagate in
   parallel on [Mbr_util.Pool]: corner [k]'s fixpoint at a pin depends
   only on corner-[k] predecessor values, so per-corner passes reach
   exactly the per-corner fixpoints of the all-corners pass, and the
   union of per-corner changed sets equals the serial changed set.
   Each task owns its corner's interleaved plane columns and its own
   scratch slot; everything else it touches (graph, skews, design) is
   read-only for the duration of the call. *)
let update_skews_impl ?(jobs = 1) ?cancel t ~collect_touched assignments =
  if not t.analyzed then begin
    List.iter (fun (cid, s) -> write_skew t cid s) assignments;
    analyze t;
    if collect_touched then
      (* a full analysis may have moved any slack *)
      Design.registers t.dsg
    else []
  end
  else begin
    let moved = List.filter (fun (cid, s) -> skew t cid <> s) assignments in
    List.iter (fun (cid, s) -> write_skew t cid s) moved;
    let q_seeds = ivec_create () and d_seeds = ivec_create () in
    List.iter
      (fun (cid, _) ->
        List.iter
          (fun pid ->
            if in_graph t pid then
              match (Design.pin t.dsg pid).Types.p_kind with
              | Types.Pin_q _ -> ivec_push q_seeds pid
              | Types.Pin_d _ -> ivec_push d_seeds pid
              | _ -> ())
          (Design.pins_of t.dsg cid))
      moved;
    if q_seeds.iv_len = 0 && d_seeds.iv_len = 0 then []
    else begin
      let nc = Array.length t.corners in
      let run scr ~k0 ~k1 ~changed =
        propagate t scr ~k0 ~k1 ~fseeds:q_seeds ~bseeds:d_seeds ~changed ~cancel
      in
      let changed =
        if jobs > 1 && nc > 1 then begin
          Mbr_obs.Metrics.incr ~by:nc m_skew_corner_par;
          (* scratch slots are claimed before the fan-out: tasks only
             read [t.scratch] *)
          let scrs = Array.init nc (scratch_for t) in
          let per =
            Mbr_util.Pool.map_array ~jobs:(min jobs nc)
              (fun k ->
                let cv = if collect_touched then Some (ivec_create ()) else None in
                let pins, lvls = run scrs.(k) ~k0:k ~k1:k ~changed:cv in
                (cv, pins, lvls))
              (Array.init nc Fun.id)
          in
          let pins = Array.fold_left (fun a (_, c, _) -> a + c) 0 per in
          let lvls = Array.fold_left (fun a (_, _, c) -> a + c) 0 per in
          Mbr_obs.Metrics.incr ~by:pins m_skew_frontier;
          Mbr_obs.Metrics.incr ~by:lvls m_skew_levels;
          if not collect_touched then None
          else begin
            (* union of the per-corner changed sets, deduped with an
               epoch mark (slot 0's scratch — the fan-out has joined) *)
            let scr = scrs.(0) in
            scr.ps_epoch <- scr.ps_epoch + 1;
            let epoch = scr.ps_epoch in
            let u = ivec_create () in
            Array.iter
              (fun (cv, _, _) ->
                match cv with
                | Some v ->
                  for i = 0 to v.iv_len - 1 do
                    let pid = v.iv_a.(i) in
                    if scr.ps_mark.(pid) <> epoch then begin
                      scr.ps_mark.(pid) <- epoch;
                      ivec_push u pid
                    end
                  done
                | None -> ())
              per;
            Some u
          end
        end
        else begin
          let cv = if collect_touched then Some (ivec_create ()) else None in
          let pins, lvls = run (scratch_for t 0) ~k0:0 ~k1:(nc - 1) ~changed:cv in
          Mbr_obs.Metrics.incr ~by:pins m_skew_frontier;
          Mbr_obs.Metrics.incr ~by:lvls m_skew_levels;
          cv
        end
      in
      match changed with
      | None -> []
      | Some v ->
        let regs, slot = register_index t in
        let seen = Array.make (max (Array.length regs) 1) false in
        let acc = ref [] in
        for i = 0 to v.iv_len - 1 do
          let pn = Design.pin t.dsg v.iv_a.(i) in
          match pn.Types.p_kind with
          | Types.Pin_d _ | Types.Pin_q _ ->
            let cid = pn.Types.p_cell in
            let s = if cid < Array.length slot then slot.(cid) else -1 in
            if s >= 0 && not seen.(s) then begin
              seen.(s) <- true;
              acc := cid :: !acc
            end
          | _ -> ()
        done;
        List.sort compare !acc
    end
  end

let update_skews ?jobs ?cancel t assignments =
  ignore (update_skews_impl ?jobs ?cancel t ~collect_touched:false assignments)

let update_skews_touched ?jobs ?cancel t assignments =
  update_skews_impl ?jobs ?cancel t ~collect_touched:true assignments

(* ---- worst-corner accessors ----

   Reachability is structural (corner-independent), so a pin either has
   a finite arrival in every corner or in none; likewise requireds. The
   worst arrival over corners is the max, the worst required the min,
   and the worst slack is the min of the per-corner slacks — note this
   is NOT (min required) - (max arrival), which could pair values from
   different corners. Endpoint folds walk the endpoint slots, i.e.
   ascending pin order, so a TNS sum has one canonical order whatever
   the engine's history. *)

(* Worst slack over the corner planes for an in-graph pin, or +inf when
   unreached in every corner. The allocation-free core under [slack],
   [wns_tns] and [reg_pin_slack]. *)
let pin_worst_slack t pid =
  let nc = Array.length t.corners in
  let worst = ref infinity in
  for k = 0 to nc - 1 do
    let a = pget t.arrival ((pid * nc) + k)
    and r = pget t.required ((pid * nc) + k) in
    if a > neg_infinity && r < infinity then begin
      let s = r -. a in
      if s < !worst then worst := s
    end
  done;
  !worst

(* +inf is also a legal slack value: a pin is timed when some corner
   has both an arrival and a required *)
let timed t pid =
  let nc = Array.length t.corners in
  let valid = ref false in
  for k = 0 to nc - 1 do
    if
      pget t.arrival ((pid * nc) + k) > neg_infinity
      && pget t.required ((pid * nc) + k) < infinity
    then valid := true
  done;
  !valid

let arrival t pid =
  ensure t;
  if not (in_graph t pid) then None
  else begin
    let nc = Array.length t.corners in
    let best = ref neg_infinity in
    for k = 0 to nc - 1 do
      if pget t.arrival ((pid * nc) + k) > !best then
        best := pget t.arrival ((pid * nc) + k)
    done;
    if !best = neg_infinity then None else Some !best
  end

let required t pid =
  ensure t;
  if not (in_graph t pid) then None
  else begin
    let nc = Array.length t.corners in
    let best = ref infinity in
    for k = 0 to nc - 1 do
      if pget t.required ((pid * nc) + k) < !best then
        best := pget t.required ((pid * nc) + k)
    done;
    if !best = infinity then None else Some !best
  end

let slack t pid =
  ensure t;
  if not (in_graph t pid) then None
  else begin
    let s = pin_worst_slack t pid in
    if s < infinity || timed t pid then Some s else None
  end

let corner_slack t k pid =
  ensure t;
  if k < 0 || k >= Array.length t.corners then
    invalid_arg "Sta.corner_slack: corner index out of range";
  if not (in_graph t pid) then None
  else begin
    let nc = Array.length t.corners in
    let a = pget t.arrival ((pid * nc) + k)
    and r = pget t.required ((pid * nc) + k) in
    if a > neg_infinity && r < infinity then Some (r -. a) else None
  end

let endpoint_slacks t =
  ensure t;
  Array.fold_right
    (fun pid acc ->
      match slack t pid with Some s -> (pid, s) :: acc | None -> acc)
    t.g.ep_pin []

let wns_tns t =
  ensure t;
  let w = ref infinity and tn = ref 0.0 in
  Array.iter
    (fun pid ->
      let s = pin_worst_slack t pid in
      if s < !w then w := s;
      if s < 0.0 then tn := !tn +. s)
    t.g.ep_pin;
  (!w, !tn)

let wns t = fst (wns_tns t)

let tns t = snd (wns_tns t)

let corner_wns_tns t k =
  ensure t;
  if k < 0 || k >= Array.length t.corners then
    invalid_arg "Sta.corner_wns_tns: corner index out of range";
  let nc = Array.length t.corners in
  Array.fold_left
    (fun (w, tn) pid ->
      let a = pget t.arrival ((pid * nc) + k)
      and r = pget t.required ((pid * nc) + k) in
      if a > neg_infinity && r < infinity then begin
        let s = r -. a in
        (Float.min w s, if s < 0.0 then tn +. s else tn)
      end
      else (w, tn))
    (infinity, 0.0) t.g.ep_pin

let per_corner_wns_tns t =
  ensure t;
  Array.to_list
    (Array.mapi
       (fun k c ->
         let w, tn = corner_wns_tns t k in
         (c.Corner.name, w, tn))
       t.corners)

let failing_endpoints t =
  ensure t;
  Array.fold_left
    (fun acc pid -> if pin_worst_slack t pid < 0.0 then acc + 1 else acc)
    0 t.g.ep_pin

let n_endpoints t = Array.length t.g.ep_pin

let output_load t pid =
  let p = Design.pin t.dsg pid in
  if p.Types.p_dir <> Types.Output then 0.0
  else match p.Types.p_net with Some nid -> net_load t nid | None -> 0.0

let reg_pin_slack t cid want_d =
  ensure t;
  let c = Design.cell t.dsg cid in
  (match c.Types.c_kind with
  | Types.Register _ -> ()
  | Types.Comb _ | Types.Clock_root | Types.Clock_gate _ | Types.Port _ ->
    invalid_arg "Sta: not a register");
  List.fold_left
    (fun acc pid ->
      let p = Design.pin t.dsg pid in
      let relevant =
        match p.Types.p_kind with
        | Types.Pin_d _ -> want_d && p.Types.p_net <> None
        | Types.Pin_q _ -> (not want_d) && p.Types.p_net <> None
        | _ -> false
      in
      if relevant && in_graph t pid then begin
        let s = pin_worst_slack t pid in
        if s < acc then s else acc
      end
      else acc)
    infinity c.Types.c_pins

let reg_d_slack t cid = reg_pin_slack t cid true

let reg_q_slack t cid = reg_pin_slack t cid false
