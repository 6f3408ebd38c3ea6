(* Prometheus text exposition (format 0.0.4) of a metrics snapshot.

   Snapshot keys carry labels in their canonical [name{k="v"}] form
   (see Metrics.series_name); here each key is split back apart, the
   base name is mapped onto the exposition grammar (dots become
   underscores, everything gets an [mbr_] prefix) and series of the
   same base name are grouped into one family under a single # TYPE
   line — the grouping matters because snapshot order is sorted by the
   full series key, which interleaves labeled and unlabeled names. *)

let is_legal_metric_name s =
  s <> ""
  && (match s.[0] with
     | 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true
     | _ -> false)
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true
         | _ -> false)
       s

let is_legal_label_name s =
  s <> ""
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false)
  && (not (String.length s >= 2 && s.[0] = '_' && s.[1] = '_'))
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false)
       s

let sanitize s =
  String.map
    (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' as c -> c | _ -> '_')
    s

let metric_name raw = "mbr_" ^ sanitize raw

let label_name raw =
  let s = sanitize raw in
  let s = if s = "" then "label" else s in
  let s =
    match s.[0] with '0' .. '9' -> "_" ^ s | _ -> s
  in
  (* leading "__" is reserved for the Prometheus server itself *)
  if String.length s >= 2 && s.[0] = '_' && s.[1] = '_' then
    "l" ^ s
  else s

let float_str f =
  if Float.is_nan f then "NaN"
  else if f = Float.infinity then "+Inf"
  else if f = Float.neg_infinity then "-Inf"
  else if Float.is_integer f && Float.abs f < 9.007199254740992e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%.12g" f

let labels_str labels =
  match labels with
  | [] -> ""
  | labels ->
    "{"
    ^ String.concat ","
        (List.map
           (fun (k, v) ->
             Printf.sprintf "%s=\"%s\"" (label_name k)
               (Metrics.escape_label_value v))
           labels)
    ^ "}"

type family = {
  fam_kind : string; (* "counter" | "gauge" | "histogram" *)
  mutable fam_lines : string list; (* reversed sample lines *)
}

let render (s : Metrics.snapshot) =
  (* Families keyed by exposition name, in first-appearance order.
     Two raw names may sanitize to the same exposition name with
     different kinds; the later one gets a numbered _dup suffix so the
     output always parses. *)
  let families : (string, family) Hashtbl.t = Hashtbl.create 32 in
  let order = ref [] in
  let family name kind =
    let rec claim name n =
      match Hashtbl.find_opt families name with
      | Some f when f.fam_kind = kind -> f
      | Some _ -> claim (Printf.sprintf "%s_dup%d" name n) (n + 1)
      | None ->
        let f = { fam_kind = kind; fam_lines = [] } in
        Hashtbl.replace families name f;
        order := name :: !order;
        f
    in
    claim name 1
  in
  let sample name kind labels value =
    let f = family name kind in
    f.fam_lines <-
      Printf.sprintf "%s%s %s" name (labels_str labels) value :: f.fam_lines
  in
  List.iter
    (fun (key, v) ->
      let base, labels = Metrics.split_series key in
      sample (metric_name base) "counter" labels (string_of_int v))
    s.Metrics.counters;
  List.iter
    (fun (key, v) ->
      let base, labels = Metrics.split_series key in
      sample (metric_name base) "gauge" labels (float_str v))
    s.Metrics.gauges;
  List.iter
    (fun (key, (h : Metrics.histo_snapshot)) ->
      let base, labels = Metrics.split_series key in
      let name = metric_name base in
      let f = family name "histogram" in
      let bucket le cum =
        f.fam_lines <-
          Printf.sprintf "%s_bucket%s %d" name
            (labels_str (labels @ [ ("le", le) ]))
            cum
          :: f.fam_lines
      in
      let nb = Array.length h.Metrics.bins in
      let cum = ref 0 in
      for i = 0 to nb - 1 do
        (if i < Array.length h.Metrics.counts then
           cum := !cum + h.Metrics.counts.(i));
        bucket (float_str h.Metrics.bins.(i)) !cum
      done;
      bucket "+Inf" h.Metrics.count;
      f.fam_lines <-
        Printf.sprintf "%s_sum%s %s" name (labels_str labels)
          (float_str h.Metrics.sum)
        :: f.fam_lines;
      f.fam_lines <-
        Printf.sprintf "%s_count%s %d" name (labels_str labels)
          h.Metrics.count
        :: f.fam_lines)
    s.Metrics.histograms;
  let buf = Buffer.create 4096 in
  List.iter
    (fun name ->
      let f = Hashtbl.find families name in
      Buffer.add_string buf
        (Printf.sprintf "# TYPE %s %s\n" name f.fam_kind);
      List.iter
        (fun line ->
          Buffer.add_string buf line;
          Buffer.add_char buf '\n')
        (List.rev f.fam_lines))
    (List.rev !order);
  Buffer.contents buf
