(* In-memory span recorder for the traced run.

   Spans are recorded by the benchmark around its calls into each
   layer's public functions; nothing inside the library is touched.
   Each span carries its name, start and end (monotonic seconds), the
   span that caused it, the request it belongs to, the workload, and
   the allocation it caused (words allocated and major collections,
   as deltas of the calling domain's Gc counters). Spans stay in
   memory until [write] puts them out when the run ends.

   Recording is off unless [enable] was called, so the untimed e2e
   runs pay one boolean test per call. Client threads of the daemon
   workload record concurrently, so the store is behind a mutex and
   the open-span stack is kept per thread. *)

type t = {
  id : int;
  name : string;
  parent : int;  (** -1 for a root span *)
  req : int;  (** request id the span serves, -1 when none *)
  t0 : float;
  t1 : float;
  alloc_words : float;
  major_gcs : int;
}

let enabled = ref false

let workload = ref ""

let lock = Mutex.create ()

let spans : t list ref = ref []

let next_id = ref 0

(* thread id -> stack of open span ids *)
let open_spans : (int, int list) Hashtbl.t = Hashtbl.create 8

let enable ~workload:w =
  enabled := true;
  workload := w

let disable () = enabled := false

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let alloc_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let with_span ?(req = -1) name f =
  if not !enabled then f ()
  else begin
    let tid = Thread.id (Thread.self ()) in
    let id, parent =
      locked (fun () ->
          let id = !next_id in
          incr next_id;
          let stack = Option.value (Hashtbl.find_opt open_spans tid) ~default:[] in
          Hashtbl.replace open_spans tid (id :: stack);
          (id, match stack with p :: _ -> p | [] -> -1))
    in
    let w0 = alloc_words () and g0 = (Gc.quick_stat ()).Gc.major_collections in
    let t0 = Mbr_obs.Clock.now_s () in
    let finish () =
      let t1 = Mbr_obs.Clock.now_s () in
      let w1 = alloc_words () and g1 = (Gc.quick_stat ()).Gc.major_collections in
      locked (fun () ->
          (match Hashtbl.find_opt open_spans tid with
          | Some (_ :: rest) -> Hashtbl.replace open_spans tid rest
          | _ -> ());
          spans :=
            {
              id;
              name;
              parent;
              req;
              t0;
              t1;
              alloc_words = w1 -. w0;
              major_gcs = g1 - g0;
            }
            :: !spans)
    in
    Fun.protect ~finally:finish f
  end

let all () = locked (fun () -> List.rev !spans)

let duration s = s.t1 -. s.t0

(* Per-name totals: (name, count, total_s, self_s, alloc_words). A
   span's self time is its duration minus the durations of its direct
   children, which nest inside it on one thread and never overlap. *)
let self_times () =
  let l = all () in
  let child_time = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_time s.parent
          (duration s
          +. Option.value (Hashtbl.find_opt child_time s.parent) ~default:0.0))
    l;
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self =
        duration s -. Option.value (Hashtbl.find_opt child_time s.id) ~default:0.0
      in
      let n, tot, sf, w =
        Option.value (Hashtbl.find_opt by_name s.name) ~default:(0, 0.0, 0.0, 0.0)
      in
      Hashtbl.replace by_name s.name
        (n + 1, tot +. duration s, sf +. self, w +. s.alloc_words))
    l;
  Hashtbl.fold (fun name (n, tot, sf, w) acc -> (name, n, tot, sf, w) :: acc) by_name []
  |> List.sort compare

(* [f] summed over every span called [name]. *)
let sum_by name f =
  List.fold_left (fun acc s -> if s.name = name then acc +. f s else acc) 0.0 (all ())

let total name = sum_by name duration

let to_json () =
  let module J = Mbr_obs.Json in
  let num f = J.Num f in
  J.Obj
    [
      ("workload", J.Str !workload);
      ( "spans",
        J.Arr
          (List.map
             (fun s ->
               J.Obj
                 [
                   ("id", num (float_of_int s.id));
                   ("name", J.Str s.name);
                   ("parent", num (float_of_int s.parent));
                   ("req", num (float_of_int s.req));
                   ("start_s", num s.t0);
                   ("end_s", num s.t1);
                   ("alloc_words", num s.alloc_words);
                   ("major_gcs", num (float_of_int s.major_gcs));
                 ])
             (all ())) );
    ]

let write path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  output_string oc (Mbr_obs.Json.to_string (to_json ()));
  output_char oc '\n'

let print_self_times () =
  Printf.printf "  %-28s %6s %12s %12s %10s\n" "span" "count" "total_s" "self_s" "alloc_Mw";
  List.iter
    (fun (name, n, tot, self, w) ->
      Printf.printf "  %-28s %6d %12.4f %12.4f %10.2f\n" name n tot self (w /. 1e6))
    (self_times ());
  flush stdout
