(* The eco-daemon workload: the shipped mbrd binary as its own process,
   driven in a closed loop by 2 client connections.

   Each client owns 4 sessions of D1 at scale 0.25. After loading them
   and composing each once, it sends a mixed stream to its own sessions,
   each request to one picked uniformly: 35 % perturb (seeded, default
   fraction), 40 % recompose, 25 % reads split evenly between telemetry
   (delta cursor) and query-metrics. Halfway through, every session gets
   one perturb and one zero-deadline recompose, which must answer
   `cancelled`. A client sends its next request only when the previous
   one has answered.

   Afterwards the daemon's per-session served counts must equal the
   clients' own counts, and every session is replayed in-process from
   its request log: the daemon's first and final recompose must equal,
   field for field at wire precision, a from-scratch Flow.run on the
   same inputs. *)

module C = Mbr_service.Client
module Pr = Mbr_service.Protocol
module J = Mbr_obs.Json
module G = Mbr_designgen.Generate
module Prof = Mbr_designgen.Profile
module Flow = Mbr_core.Flow
module M = Mbr_core.Metrics
module Eco = Mbr_designgen.Eco

let n_clients = 2

let sessions_per_client = 4

let scale = 0.25

(* What a session was sent, in order: what the replay re-applies. *)
type op = Perturb of int | Recompose | Deadline

type session = {
  name : string;
  seed : int;  (** profile seed *)
  mutable ops : op list;  (** newest first *)
  mutable sent : int;  (** requests sent to this session, load included *)
  mutable first : J.t option;  (** answer to the initial recompose *)
  mutable last : J.t option;  (** answer to the final recompose *)
}

type samples = {
  mutable loads : float list;
  mutable composes : float list;
  mutable recomposes : (float * bool) list;
      (** round trips of loop recomposes, and whether each was traced *)
  mutable exec : float list;  (** their server-side runtime_s *)
  mutable perturbs : float list;
  mutable telemetry : float list;
  mutable queries : float list;
  mutable reused : int;
  mutable blocks : int;
  mutable loop_done : int;  (** requests completed inside the loop *)
  mutable sent_total : int;
  mutable failures : string list;
}

let new_samples () =
  {
    loads = [];
    composes = [];
    recomposes = [];
    exec = [];
    perturbs = [];
    telemetry = [];
    queries = [];
    reused = 0;
    blocks = 0;
    loop_done = 0;
    sent_total = 0;
    failures = [];
  }

let now = Flow_wl.now

let num key j = Option.bind (J.member key j) J.to_float

let fail (s : samples) msg =
  Printf.printf "  FAIL %s\n%!" msg;
  s.failures <- msg :: s.failures

(* ---- the daemon process ---- *)

let proc_status_kb pid key =
  let ic = open_in (Printf.sprintf "/proc/%d/status" pid) in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec go () =
    match input_line ic with
    | line when String.starts_with ~prefix:(key ^ ":") line ->
      let n = String.length key + 1 in
      Scanf.sscanf (String.sub line n (String.length line - n)) " %d" Fun.id
    | _ -> go ()
  in
  go ()

let mb_of_kb kb = float_of_int kb /. 1024.0

let rec connect_retry sock pid deadline =
  match C.connect sock with
  | c -> c
  | exception Unix.Unix_error _ ->
    (match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ -> ()
    | _ -> failwith "mbrd exited before accepting connections");
    if now () > deadline then failwith "mbrd did not start within 60 s";
    Unix.sleepf 0.05;
    connect_retry sock pid deadline

(* Wait for the daemon to exit; past [grace] seconds it is killed. *)
let reap pid grace =
  let deadline = now () +. grace in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when now () < deadline ->
      Unix.sleepf 0.05;
      go ()
    | 0, _ ->
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid)
    | _ -> ()
  in
  go ()

let with_daemon mbrd f =
  (try Sys.mkdir "_perfbench" 0o755 with Sys_error _ -> ());
  let sock = Printf.sprintf "_perfbench/mbrd-%d.sock" (Unix.getpid ()) in
  let pid =
    Unix.create_process mbrd [| mbrd; "--socket"; sock |] Unix.stdin Unix.stderr
      Unix.stderr
  in
  let stopped = ref false in
  Fun.protect
    ~finally:(fun () ->
      if not !stopped then begin
        (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
        reap pid 10.0
      end)
    (fun () ->
      let ctl = connect_retry sock pid (now () +. 60.0) in
      let r = f ~pid ~sock ~ctl in
      ignore (C.shutdown ctl);
      C.close ctl;
      reap pid 60.0;
      stopped := true;
      r)

(* ---- clients ---- *)

let in_threads n f =
  let ts = List.init n (fun k -> Thread.create f k) in
  List.iter Thread.join ts

let expect_ok s what = function
  | Ok j -> Some j
  | Error e ->
    fail s
      (Printf.sprintf "%s: %s %s" what (Pr.error_code_to_string e.Pr.code) e.Pr.message);
    None

(* One request from client [s], its round trip timed around the public
   client call. In a traced run every other request of a client is
   wrapped in a span, so traced and untraced requests interleave. *)
let request (s : samples) ~traced verb f =
  s.sent_total <- s.sent_total + 1;
  let name = "service.client." ^ Pr.verb_to_string verb in
  Flow_wl.timed (fun () -> if traced then Span.with_span ~req:s.sent_total name f else f ())

(* Session requests are counted per session (the served-count audit)
   and logged (the replay). *)
let perturb s c ~traced sess ps =
  sess.sent <- sess.sent + 1;
  sess.ops <- Perturb ps :: sess.ops;
  let r, dt = request s ~traced Pr.Perturb (fun () -> C.perturb c ~session:sess.name ~seed:ps ()) in
  (expect_ok s ("perturb " ^ sess.name) r, dt)

let recompose ?timeout_s s c ~traced sess =
  sess.sent <- sess.sent + 1;
  sess.ops <- (if timeout_s = None then Recompose else Deadline) :: sess.ops;
  request s ~traced Pr.Recompose (fun () -> C.recompose c ~session:sess.name ?timeout_s ())

(* The loop runs for the run's seconds. A traced run, which reports
   p95s, runs on until the recompose and read samples are each large
   enough for a valid p95 (for at most 30 s more): a p95 leaves 1
   sample in 20 beyond it, so it needs 20 * min_beyond samples, plus
   slack for interpolation. *)
let min_samples = (20 * Pct.min_beyond) + 20

let loop_client ~conns ~sessions_of ~samples ~counts ~seed ~seconds ~trace k =
  let c = conns.(k) and s = samples.(k) and own = sessions_of k in
  let rng = Mbr_util.Rng.create (Seed.derive seed (1000 + k)) in
  let t0 = now () in
  let deadline = t0 +. seconds and halfway = t0 +. (seconds /. 2.0) in
  let cap = deadline +. 30.0 in
  let rc_done, reads_done = counts in
  let running () =
    let t = now () in
    t < deadline
    || trace && t < cap
       && (Atomic.get rc_done < min_samples || Atomic.get reads_done < min_samples)
  in
  let completed () = s.loop_done <- s.loop_done + 1 in
  let cursor = ref None and deadlines_sent = ref false and n = ref 0 in
  Span.with_span "eco.loop" @@ fun () ->
  while running () do
    incr n;
    let traced = trace && !n mod 2 = 0 in
    let seed () = Mbr_util.Rng.int rng 1_000_000_000 in
    if (not !deadlines_sent) && now () >= halfway then begin
      deadlines_sent := true;
      Array.iter
        (fun sess ->
          ignore (perturb s c ~traced sess (seed ()));
          match recompose ~timeout_s:0.0 s c ~traced sess with
          | Error { Pr.code = Pr.Cancelled; _ }, _ -> ()
          | r, _ ->
            fail s
              (Printf.sprintf "zero-deadline recompose of %s answered %s" sess.name
                 (match r with
                 | Ok _ -> "ok"
                 | Error e -> Pr.error_code_to_string e.Pr.code)))
        own
    end
    else begin
      let sess = own.(Mbr_util.Rng.int rng (Array.length own)) in
      let u = Mbr_util.Rng.float rng 1.0 in
      if u < 0.35 then begin
        match perturb s c ~traced sess (seed ()) with
        | Some _, dt ->
          s.perturbs <- dt :: s.perturbs;
          completed ()
        | None, _ -> ()
      end
      else if u < 0.75 then begin
        let r, dt = recompose s c ~traced sess in
        match expect_ok s ("recompose " ^ sess.name) r with
        | None -> ()
        | Some j ->
          s.recomposes <- (dt, traced) :: s.recomposes;
          completed ();
          Atomic.incr rc_done;
          s.exec <- Option.value (num "runtime_s" j) ~default:Float.nan :: s.exec;
          let int k = int_of_float (Option.value (num k j) ~default:0.0) in
          s.reused <- s.reused + int "blocks_reused";
          s.blocks <- s.blocks + int "blocks_reused" + int "blocks_resolved"
      end
      else if u < 0.875 then begin
        let r, dt = request s ~traced Pr.Telemetry (fun () -> C.telemetry c ?cursor:!cursor ()) in
        match expect_ok s "telemetry" r with
        | None -> ()
        | Some j ->
          cursor := Option.bind (J.member "cursor" j) J.to_int;
          s.telemetry <- dt :: s.telemetry;
          completed ();
          Atomic.incr reads_done
      end
      else begin
        let r, dt = request s ~traced Pr.Query_metrics (fun () -> C.query_metrics c) in
        if expect_ok s "query-metrics" r <> None then begin
          s.queries <- dt :: s.queries;
          completed ();
          Atomic.incr reads_done
        end
      end
    end
  done

(* ---- the in-process audit ---- *)

let wire_fields = [ "total_regs"; "n_merges"; "ilp_cost"; "wns"; "tns" ]

let local_fields (r : Flow.result) =
  [
    float_of_int r.Flow.after.M.total_regs;
    float_of_int r.Flow.n_merges;
    r.Flow.ilp_cost;
    r.Flow.after.M.wns;
    r.Flow.after.M.tns;
  ]

(* Field-by-field comparison at wire precision: both sides rendered by
   the daemon's own number printer. *)
let mismatches what (r : Flow.result) (j : J.t) =
  List.concat
    (List.map2
       (fun key v ->
         let here = J.to_string (J.Num v) in
         match J.member key j with
         | Some remote when J.to_string remote = here -> []
         | remote ->
           [
             Printf.sprintf "%s %s: daemon %s, in-process %s" what key
               (match remote with Some x -> J.to_string x | None -> "missing")
               here;
           ])
       wire_fields (local_fields r))

(* Replay one session: the same generated design, the same perturb
   seeds, the same recompose sequence (zero-deadline ones under an
   already-expired token, as the daemon ran them); the final recompose
   is replaced by a from-scratch Flow.run on the replayed state. *)
let audit_session sess =
  let g = G.generate (Prof.scaled { Prof.d1 with Prof.seed = sess.seed } scale) in
  let options = { Flow.default_options with Flow.jobs = Some 1; corners = g.G.corners } in
  let flow =
    Flow.Session.create ~options ~design:g.G.design ~placement:g.G.placement
      ~library:g.G.library ~sta_config:g.G.sta_config ()
  in
  let ops = List.rev sess.ops in
  let first = ref None and errs = ref [] in
  let check what r = function
    | Some j -> errs := !errs @ mismatches (sess.name ^ " " ^ what) r j
    | None -> errs := !errs @ [ sess.name ^ " " ^ what ^ ": no daemon answer" ]
  in
  let n = List.length ops in
  List.iteri
    (fun i op ->
      match op with
      | Perturb ps ->
        ignore (Eco.perturb ~config:Eco.default_config (Mbr_util.Rng.create ps) g)
      | Deadline ->
        ignore
          (Flow.Session.recompose ~cancel:(Mbr_util.Cancel.create ~timeout_s:0.0 ()) flow)
      | Recompose when i = n - 1 ->
        let r =
          Flow.run ~options ~design:g.G.design ~placement:g.G.placement
            ~library:g.G.library ~sta_config:g.G.sta_config ()
        in
        check "final recompose vs from-scratch run" r sess.last
      | Recompose ->
        let r = Flow.Session.recompose flow in
        if !first = None then begin
          first := Some r;
          check "first recompose" r sess.first
        end)
    ops;
  (!first, !errs)

(* The daemon's accounting: served counts per session must equal what
   the clients sent, with nothing pending; returns the failures and the
   daemon's metric snapshot. *)
let served_audit ctl sessions =
  match C.query_metrics ctl with
  | Error e -> ([ "query-metrics: " ^ e.Pr.message ], None)
  | Ok j ->
    let rows = Option.value (Option.bind (J.member "sessions" j) J.to_list) ~default:[] in
    let served name =
      List.find_map
        (fun row ->
          if Option.bind (J.member "name" row) J.to_str = Some name then
            Some
              ( Option.bind (J.member "served" row) J.to_int,
                Option.bind (J.member "pending" row) J.to_int )
          else None)
        rows
    in
    let errs =
      Array.to_list sessions
      |> List.filter_map (fun sess ->
             match served sess.name with
             | Some (Some n, Some 0) when n = sess.sent -> None
             | Some (n, p) ->
               Some
                 (Printf.sprintf "session %s: daemon served %s (pending %s), clients sent %d"
                    sess.name
                    (Option.fold ~none:"?" ~some:string_of_int n)
                    (Option.fold ~none:"?" ~some:string_of_int p)
                    sess.sent)
             | None -> Some ("session " ^ sess.name ^ " missing from query-metrics"))
    in
    let snap =
      Option.bind (J.member "metrics" j) (fun m ->
          Result.to_option (Mbr_obs.Metrics.snapshot_of_json m))
    in
    (errs, snap)

let run ~mbrd ~seed ~seconds ~trace : Table.outcome =
  let sessions =
    Array.init (n_clients * sessions_per_client) (fun i ->
        {
          name = Printf.sprintf "s%d" i;
          seed = Seed.derive seed i;
          ops = [];
          sent = 0;
          first = None;
          last = None;
        })
  in
  let sessions_of k = Array.sub sessions (k * sessions_per_client) sessions_per_client in
  let samples = Array.init n_clients (fun _ -> new_samples ()) in
  if trace then Span.enable ~workload:"eco-daemon";
  let run_daemon ~pid ~sock ~ctl =
    let conns = Array.init n_clients (fun _ -> C.connect sock) in
    Fun.protect ~finally:(fun () -> Array.iter C.close conns) @@ fun () ->
    (* set-up: first load sent -> last load answered *)
    let t0 = now () in
    let last_load = Array.make n_clients t0 in
    in_threads n_clients (fun k ->
        Span.with_span "eco.load_phase" @@ fun () ->
        Array.iter
          (fun sess ->
            sess.sent <- sess.sent + 1;
            let r, dt =
              request samples.(k) ~traced:trace Pr.Load (fun () ->
                  C.load conns.(k) ~session:sess.name ~profile:"d1" ~scale ~seed:sess.seed ())
            in
            samples.(k).loads <- dt :: samples.(k).loads;
            ignore (expect_ok samples.(k) ("load " ^ sess.name) r))
          (sessions_of k);
        last_load.(k) <- now ());
    let setup_s = Array.fold_left Float.max t0 last_load -. t0 in
    (* the initial composition of every session, one at a time *)
    Span.with_span "eco.compose_phase" (fun () ->
        Array.iteri
          (fun i sess ->
            let k = i / sessions_per_client in
            let r, dt = recompose samples.(k) conns.(k) ~traced:trace sess in
            samples.(k).composes <- dt :: samples.(k).composes;
            sess.first <- expect_ok samples.(k) ("recompose " ^ sess.name) r)
          sessions);
    let rss_before = proc_status_kb pid "VmRSS" in
    let t_loop = now () in
    let counts = (Atomic.make 0, Atomic.make 0) in
    in_threads n_clients (loop_client ~conns ~sessions_of ~samples ~counts ~seed ~seconds ~trace);
    let loop_s = now () -. t_loop in
    let rss_after = proc_status_kb pid "VmRSS" in
    (* every session ends on a plain recompose: the audited answer *)
    in_threads n_clients (fun k ->
        Array.iter
          (fun sess ->
            let r, _ = recompose samples.(k) conns.(k) ~traced:false sess in
            sess.last <- expect_ok samples.(k) ("recompose " ^ sess.name) r)
          (sessions_of k));
    let served_errs, snap = served_audit ctl sessions in
    let peak = mb_of_kb (proc_status_kb pid "VmHWM") in
    (setup_s, loop_s, peak, mb_of_kb (rss_after - rss_before), served_errs, snap)
  in
  let setup_s, loop_s, peak, rss_growth, served_errs, snap = with_daemon mbrd run_daemon in
  Span.disable ();
  (* replay every session in-process, two at a time *)
  let audits, audit_s =
    Flow_wl.timed (fun () -> Mbr_util.Pool.map_array ~jobs:2 audit_session sessions)
  in
  Printf.printf "  audit: %d sessions replayed in %.2f s\n%!" (Array.length sessions) audit_s;
  let audit_errs = Array.to_list audits |> List.concat_map snd in
  List.iter (fun m -> Printf.printf "  AUDIT FAIL %s\n%!" m) (served_errs @ audit_errs);
  let cat f = List.concat_map f (Array.to_list samples) in
  let loop_done = Array.fold_left (fun a s -> a + s.loop_done) 0 samples in
  Printf.printf "  initial composes (ms): %s\n%!"
    (String.concat " "
       (List.map (fun x -> Printf.sprintf "%.1f" (x *. 1000.0)) (cat (fun s -> s.composes))));
  Printf.printf "  set-up %.3f s, loop %.2f s, %d loop requests\n%!" setup_s loop_s loop_done;
  let ms = 1000.0 in
  let rc = cat (fun s -> List.map fst s.recomposes) in
  let exec = cat (fun s -> s.exec) in
  let rc_traced flag =
    cat (fun s -> List.filter_map (fun (dt, t) -> if t = flag then Some dt else None) s.recomposes)
  in
  let e2e =
    [
      ("setup_s", setup_s);
      ("compose_s", Pct.report ~name:"recompose runtime_s" ~scale:1.0 exec 50.0);
      ("recompose_ms", Pct.report ~name:"recompose round trip" ~scale:ms rc 50.0);
      ("peak_rss_mb", peak);
    ]
    @ Flow_wl.qor_of (Array.to_list audits |> List.filter_map fst)
  in
  let reads = cat (fun s -> s.telemetry @ s.queries) in
  let nonexec = List.map2 (fun rtt ex -> rtt -. ex) rc exec in
  let layers =
    if not trace then []
    else begin
      let c name = Option.fold ~none:0.0 ~some:(fun sn -> Flow_wl.counter sn name) snap in
      let blocks, reused =
        Array.fold_left (fun (b, r) s -> (b + s.blocks, r + s.reused)) (0, 0) samples
      in
      [
        ("service.recompose_p50_ms", Pct.report ~name:"service.recompose" ~scale:ms rc 50.0);
        ("service.recompose_p95_ms", Pct.report ~name:"service.recompose" ~scale:ms rc 95.0);
        ("service.read_p95_ms", Pct.report ~name:"service.read" ~scale:ms reads 95.0);
        ("service.throughput_rps", float_of_int loop_done /. loop_s);
        ("service.exec_p50_ms", Pct.report ~name:"service.exec" ~scale:ms exec 50.0);
        ("service.nonexec_p50_ms", Pct.report ~name:"service.nonexec" ~scale:ms nonexec 50.0);
        ("service.nonexec_p95_ms", Pct.report ~name:"service.nonexec" ~scale:ms nonexec 95.0);
        ( "service.load_p50_s",
          Pct.report ~name:"service.load" ~scale:1.0 (cat (fun s -> s.loads)) 50.0 );
        ( "service.perturb_p50_ms",
          Pct.report ~name:"service.perturb" ~scale:ms (cat (fun s -> s.perturbs)) 50.0 );
        ( "service.telemetry_p50_ms",
          Pct.report ~name:"service.telemetry" ~scale:ms (cat (fun s -> s.telemetry)) 50.0 );
        ( "service.query_metrics_p50_ms",
          Pct.report ~name:"service.query_metrics" ~scale:ms (cat (fun s -> s.queries)) 50.0 );
        ("service.cancelled", c "svc.cancelled");
        ("service.overloaded", c "svc.overloaded");
        ("service.errors", c "svc.errors");
        ("service.rss_growth_mb", rss_growth);
        ("sta.dirty_pins", c "sta.dirty_pins");
        ("sta.rebuild_fallbacks", c "sta.rebuild_fallbacks");
        ("sta.skew_frontier_pins", c "sta.skew.frontier_pins");
        ("sta.skew_level_passes", c "sta.skew.level_passes");
        ("compat.pairs_checked", c "compat.pairs_checked");
        ("compat.nodes_dirty", c "compat.nodes_dirty");
        ("compat.edges_copied", c "compat.edges_copied");
        ("allocate.blocks_reused_frac", float_of_int reused /. float_of_int (max 1 blocks));
        ("ilp.solves", c "ilp.solves");
        ("ilp.bb_nodes", c "ilp.bb_nodes");
        ("ilp.node_limit_hits", c "ilp.node_limit_hits");
        ("lp.simplex_pivots", c "lp.simplex_pivots");
        ("pool.tasks", c "pool.tasks");
        ("pool.chunks", c "pool.chunks");
        ("obs.trace_dropped", c "trace.dropped");
        ( "obs.trace_overhead_ratio",
          Pct.report ~name:"recompose traced" ~scale:1.0 (rc_traced true) 50.0
          /. Pct.report ~name:"recompose untraced" ~scale:1.0 (rc_traced false) 50.0 );
      ]
    end
  in
  let request_failures = cat (fun s -> s.failures) in
  let attempted =
    Array.fold_left (fun a s -> a + s.sent_total) 0 samples + Array.length sessions
  in
  let failed =
    List.length request_failures + List.length served_errs
    + Array.fold_left (fun a (_, e) -> if e = [] then a else a + 1) 0 audits
  in
  {
    Table.correct = failed = 0;
    attempted;
    failed;
    values = e2e @ layers @ [ ("failed_frac", float_of_int failed /. float_of_int attempted) ];
  }
