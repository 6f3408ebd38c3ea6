module Design = Mbr_netlist.Design
module Types = Mbr_netlist.Types
module Library = Mbr_liberty.Library
module Cell_lib = Mbr_liberty.Cell

exception Parse_error of string

type gate_resolver = string -> Types.comb_attrs option

let resolver_of_gates gates name =
  List.find_map
    (fun (g : Mbr_liberty.Liberty_io.gate) ->
      if g.Mbr_liberty.Liberty_io.g_name = name then
        Some
          Types.
            {
              gate = g.Mbr_liberty.Liberty_io.g_name;
              n_inputs = g.Mbr_liberty.Liberty_io.g_inputs;
              drive_res = g.Mbr_liberty.Liberty_io.g_drive_res;
              intrinsic = g.Mbr_liberty.Liberty_io.g_intrinsic;
              input_cap = g.Mbr_liberty.Liberty_io.g_input_cap;
              area = g.Mbr_liberty.Liberty_io.g_area;
              g_width = g.Mbr_liberty.Liberty_io.g_area /. 1.2;
              g_height = 1.2;
            }
      else None)
    gates

(* ---------- writer ---------- *)

let sanitize name =
  String.map
    (fun c ->
      if
        (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
        || c = '_'
      then c
      else '_')
    name

(* Net output names: a net carrying exactly one primary IO takes the
   port's name so the module interface reads naturally; extra ports on
   the same net become assign aliases. *)
let net_names dsg =
  let names = Array.init (Design.n_nets dsg) (fun _ -> "") in
  let used = Hashtbl.create 256 in
  let claim base =
    let rec go k =
      let cand = if k = 0 then base else Printf.sprintf "%s_%d" base k in
      if Hashtbl.mem used cand then go (k + 1)
      else begin
        Hashtbl.replace used cand ();
        cand
      end
    in
    go 0
  in
  let port_of_net = Hashtbl.create 64 in
  let extra_ports = ref [] in
  List.iter
    (fun cid ->
      let c = Design.cell dsg cid in
      match c.Types.c_kind with
      | Types.Port dir ->
        List.iter
          (fun pid ->
            match (Design.pin dsg pid).Types.p_net with
            | Some nid ->
              if Hashtbl.mem port_of_net nid then
                extra_ports := (c.Types.c_name, dir, nid) :: !extra_ports
              else Hashtbl.replace port_of_net nid (c.Types.c_name, dir)
            | None -> ())
          c.Types.c_pins
      | Types.Register _ | Types.Comb _ | Types.Clock_root | Types.Clock_gate _
        ->
        ())
    (Design.live_cells dsg);
  Hashtbl.iter
    (fun nid (pname, _) -> names.(nid) <- claim (sanitize pname))
    port_of_net;
  for nid = 0 to Design.n_nets dsg - 1 do
    if names.(nid) = "" then
      names.(nid) <- claim (sanitize (Design.net dsg nid).Types.n_name)
  done;
  (names, port_of_net, List.rev !extra_ports)

let reg_attr_string (a : Types.reg_attrs) =
  let parts = ref [] in
  if a.Types.fixed then parts := "mbr_fixed" :: !parts;
  if a.Types.size_only then parts := "mbr_size_only" :: !parts;
  (match a.Types.scan with
  | Some s ->
    parts := Printf.sprintf "mbr_scan_partition = %d" s.Types.partition :: !parts;
    (match s.Types.section with
    | Some (sec, pos) ->
      parts := Printf.sprintf "mbr_scan_section = %d" sec :: !parts;
      parts := Printf.sprintf "mbr_scan_pos = %d" pos :: !parts
    | None -> ())
  | None -> ());
  (match a.Types.gate_enable with
  | Some e -> parts := Printf.sprintf "mbr_enable = \"%s\"" e :: !parts
  | None -> ());
  match List.rev !parts with
  | [] -> ""
  | ps -> Printf.sprintf "(* %s *)\n  " (String.concat ", " ps)

let pin_name = Types.pin_kind_to_string

let to_verilog ?module_name dsg =
  let names, port_of_net, extra_ports = net_names dsg in
  let mname =
    match module_name with Some m -> m | None -> sanitize (Design.name dsg)
  in
  let buf = Buffer.create 16384 in
  let ports =
    Hashtbl.fold (fun nid (_, dir) acc -> (names.(nid), dir, nid) :: acc)
      port_of_net []
    @ List.map (fun (n, d, nid) -> (sanitize n, d, nid)) extra_ports
  in
  let ports = List.sort compare ports in
  Printf.bprintf buf "module %s (%s);\n" mname
    (String.concat ", " (List.map (fun (n, _, _) -> n) ports));
  List.iter
    (fun (n, dir, _) ->
      Printf.bprintf buf "  %s %s;\n"
        (match dir with Types.In_port -> "input" | Types.Out_port -> "output")
        n)
    ports;
  (* wires for every other live net *)
  let port_nets = Hashtbl.copy port_of_net in
  for nid = 0 to Design.n_nets dsg - 1 do
    if (not (Hashtbl.mem port_nets nid)) && Design.net_pins dsg nid <> [] then
      Printf.bprintf buf "  wire %s;\n" names.(nid)
  done;
  (* aliases for extra ports sharing a net *)
  List.iter
    (fun (pname, dir, nid) ->
      match dir with
      | Types.Out_port -> Printf.bprintf buf "  assign %s = %s;\n" (sanitize pname) names.(nid)
      | Types.In_port -> Printf.bprintf buf "  assign %s = %s;\n" names.(nid) (sanitize pname))
    extra_ports;
  (* instances *)
  let emit_instance master inst attr conns =
    let conns =
      List.filter_map
        (fun (pin, nid) ->
          match nid with
          | Some nid -> Some (Printf.sprintf ".%s(%s)" pin names.(nid))
          | None -> None)
        conns
    in
    Printf.bprintf buf "  %s%s %s (%s);\n" attr master (sanitize inst)
      (String.concat ", " conns)
  in
  List.iter
    (fun cid ->
      let c = Design.cell dsg cid in
      let pin_conns () =
        List.map
          (fun pid ->
            let p = Design.pin dsg pid in
            (pin_name p.Types.p_kind, p.Types.p_net))
          c.Types.c_pins
      in
      match c.Types.c_kind with
      | Types.Register a ->
        emit_instance a.Types.lib_cell.Cell_lib.name c.Types.c_name
          (reg_attr_string a) (pin_conns ())
      | Types.Comb g -> emit_instance g.Types.gate c.Types.c_name "" (pin_conns ())
      | Types.Clock_root -> emit_instance "CLKROOT" c.Types.c_name "" (pin_conns ())
      | Types.Clock_gate { enable } ->
        emit_instance "CLKGATE" c.Types.c_name
          (Printf.sprintf "(* mbr_enable = \"%s\" *)\n  " enable)
          (pin_conns ())
      | Types.Port _ -> ())
    (Design.live_cells dsg);
  Buffer.add_string buf "endmodule\n";
  Buffer.contents buf

(* ---------- parser ---------- *)

type token =
  | Tident of string
  | Tnum of int
  | Tstr of string
  | Tsym of char
  | Tattr of (string * string option) list
  | Teof

let tokenize src =
  let n = String.length src in
  let i = ref 0 in
  let line = ref 1 in
  let out = ref [] in
  let fail msg = raise (Parse_error (Printf.sprintf "line %d: %s" !line msg)) in
  let is_ident c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
    || c = '_' || c = '$'
  in
  while !i < n do
    let c = src.[!i] in
    if c = '\n' then (incr line; incr i)
    else if c = ' ' || c = '\t' || c = '\r' then incr i
    else if c = '/' && !i + 1 < n && src.[!i + 1] = '/' then begin
      while !i < n && src.[!i] <> '\n' do
        incr i
      done
    end
    else if c = '(' && !i + 1 < n && src.[!i + 1] = '*' then begin
      (* attribute list *)
      let stop =
        let rec find j =
          if j + 1 >= n then fail "unterminated attribute"
          else if src.[j] = '*' && src.[j + 1] = ')' then j
          else find (j + 1)
        in
        find (!i + 2)
      in
      let body = String.sub src (!i + 2) (stop - !i - 2) in
      i := stop + 2;
      let parse_item item =
        match String.index_opt item '=' with
        | None -> (String.trim item, None)
        | Some k ->
          let key = String.trim (String.sub item 0 k) in
          let v = String.trim (String.sub item (k + 1) (String.length item - k - 1)) in
          let v =
            if String.length v >= 2 && v.[0] = '"' then String.sub v 1 (String.length v - 2)
            else v
          in
          (key, Some v)
      in
      let items =
        List.filter_map
          (fun s -> if String.trim s = "" then None else Some (parse_item s))
          (String.split_on_char ',' body)
      in
      out := Tattr items :: !out
    end
    else if c = '"' then begin
      let rec find j = if j >= n then fail "unterminated string" else if src.[j] = '"' then j else find (j + 1) in
      let stop = find (!i + 1) in
      out := Tstr (String.sub src (!i + 1) (stop - !i - 1)) :: !out;
      i := stop + 1
    end
    else if is_ident c then begin
      let start = !i in
      while !i < n && is_ident src.[!i] do
        incr i
      done;
      let w = String.sub src start (!i - start) in
      match int_of_string_opt w with
      | Some v -> out := Tnum v :: !out
      | None -> out := Tident w :: !out
    end
    else if c = '(' || c = ')' || c = ';' || c = ',' || c = '.' || c = '=' then begin
      out := Tsym c :: !out;
      incr i
    end
    else fail (Printf.sprintf "unexpected character %C" c)
  done;
  List.rev (Teof :: !out)

type stream = { mutable toks : token list }

let peek s = match s.toks with t :: _ -> t | [] -> Teof

let advance s = match s.toks with _ :: r -> s.toks <- r | [] -> ()

let expect_sym s c =
  match peek s with
  | Tsym c' when c' = c -> advance s
  | _ -> raise (Parse_error (Printf.sprintf "expected %C" c))

let ident s what =
  match peek s with
  | Tident id ->
    advance s;
    id
  | _ -> raise (Parse_error ("expected " ^ what))

(* statements collected before design construction *)
type stmt =
  | Decl of string * string list (* input/output/wire *)
  | Assign of string * string
  | Inst of {
      master : string;
      inst : string;
      attrs : (string * string option) list;
      conns : (string * string) list;
    }

let parse_module src =
  let s = { toks = tokenize src } in
  (match ident s "module keyword" with
  | "module" -> ()
  | _ -> raise (Parse_error "expected 'module'"));
  let mname = ident s "module name" in
  expect_sym s '(';
  let rec ports acc =
    match peek s with
    | Tsym ')' ->
      advance s;
      List.rev acc
    | Tident id ->
      advance s;
      (match peek s with Tsym ',' -> advance s | _ -> ());
      ports (id :: acc)
    | _ -> raise (Parse_error "malformed port list")
  in
  let port_list = ports [] in
  expect_sym s ';';
  let stmts = ref [] in
  let pending_attrs = ref [] in
  let rec body () =
    match peek s with
    | Tident "endmodule" ->
      advance s;
      ()
    | Tattr items ->
      advance s;
      pending_attrs := !pending_attrs @ items;
      body ()
    | Tident (("input" | "output" | "wire") as kw) ->
      advance s;
      let rec names acc =
        let id = ident s "declaration name" in
        match peek s with
        | Tsym ',' ->
          advance s;
          names (id :: acc)
        | Tsym ';' ->
          advance s;
          List.rev (id :: acc)
        | _ -> raise (Parse_error "malformed declaration")
      in
      stmts := Decl (kw, names []) :: !stmts;
      body ()
    | Tident "assign" ->
      advance s;
      let lhs = ident s "assign lhs" in
      expect_sym s '=';
      let rhs = ident s "assign rhs" in
      expect_sym s ';';
      stmts := Assign (lhs, rhs) :: !stmts;
      body ()
    | Tident master ->
      advance s;
      let inst = ident s "instance name" in
      expect_sym s '(';
      let rec conns acc =
        match peek s with
        | Tsym ')' ->
          advance s;
          List.rev acc
        | Tsym '.' ->
          advance s;
          let pin = ident s "pin name" in
          expect_sym s '(';
          let net = ident s "net name" in
          expect_sym s ')';
          (match peek s with Tsym ',' -> advance s | _ -> ());
          conns ((pin, net) :: acc)
        | _ -> raise (Parse_error "malformed connection list")
      in
      let conns = conns [] in
      expect_sym s ';';
      let attrs = !pending_attrs in
      pending_attrs := [];
      stmts := Inst { master; inst; attrs; conns } :: !stmts;
      body ()
    | Teof -> raise (Parse_error "unexpected end of file (missing endmodule?)")
    | _ -> raise (Parse_error "unexpected token in module body")
  in
  body ();
  (mname, port_list, List.rev !stmts)

let pin_kind_of_name name =
  let tail s = int_of_string_opt (String.sub s 1 (String.length s - 1)) in
  let tail2 s = int_of_string_opt (String.sub s 2 (String.length s - 2)) in
  if name = "CK" then Some Types.Pin_clock
  else if name = "R" then Some Types.Pin_reset
  else if name = "SE" then Some Types.Pin_scan_enable
  else if name = "Y" then Some Types.Pin_out
  else if name = "P" then Some Types.Pin_port
  else if String.length name >= 2 && name.[0] = 'D' then
    Option.map (fun i -> Types.Pin_d i) (tail name)
  else if String.length name >= 2 && name.[0] = 'Q' then
    Option.map (fun i -> Types.Pin_q i) (tail name)
  else if String.length name >= 2 && name.[0] = 'A' then
    Option.map (fun i -> Types.Pin_in i) (tail name)
  else if String.length name >= 3 && String.sub name 0 2 = "SI" then
    Option.map (fun i -> Types.Pin_scan_in i) (tail2 name)
  else if String.length name >= 3 && String.sub name 0 2 = "SO" then
    Option.map (fun i -> Types.Pin_scan_out i) (tail2 name)
  else None

let of_verilog ~library ~gates src =
  let mname, port_list, stmts = parse_module src in
  (* alias resolution via union-find over names *)
  let alias = Hashtbl.create 16 in
  let rec resolve n = match Hashtbl.find_opt alias n with Some m -> resolve m | None -> n in
  List.iter
    (fun st -> match st with Assign (a, b) -> Hashtbl.replace alias a (resolve b) | Decl _ | Inst _ -> ())
    stmts;
  (* which nets are clocks: nets on CK pins or driven by CLKROOT/CLKGATE *)
  let clockish = Hashtbl.create 8 in
  List.iter
    (fun st ->
      match st with
      | Inst { master; conns; _ } ->
        List.iter
          (fun (pin, net) ->
            if pin = "CK" || ((master = "CLKROOT" || master = "CLKGATE") && pin = "Y")
            then Hashtbl.replace clockish (resolve net) ())
          conns
      | Decl _ | Assign _ -> ())
    stmts;
  let dsg = Design.create ~name:mname in
  let nets = Hashtbl.create 256 in
  let net_of name =
    let name = resolve name in
    match Hashtbl.find_opt nets name with
    | Some nid -> nid
    | None ->
      let nid = Design.add_net ~is_clock:(Hashtbl.mem clockish name) dsg name in
      Hashtbl.replace nets name nid;
      nid
  in
  (* port directions *)
  let dirs = Hashtbl.create 16 in
  List.iter
    (fun st ->
      match st with
      | Decl ("input", names) -> List.iter (fun n -> Hashtbl.replace dirs n Types.In_port) names
      | Decl ("output", names) -> List.iter (fun n -> Hashtbl.replace dirs n Types.Out_port) names
      | Decl _ | Assign _ | Inst _ -> ())
    stmts;
  List.iter
    (fun p ->
      match Hashtbl.find_opt dirs p with
      | Some dir -> ignore (Design.add_port dsg p dir (net_of p))
      | None -> raise (Parse_error ("port without direction: " ^ p)))
    port_list;
  (* instances *)
  let attr_flag attrs k = List.mem_assoc k attrs in
  let attr_int attrs k =
    match List.assoc_opt k attrs with
    | Some (Some v) -> int_of_string_opt v
    | _ -> None
  in
  let attr_str attrs k =
    match List.assoc_opt k attrs with Some (Some v) -> Some v | _ -> None
  in
  List.iter
    (fun st ->
      match st with
      | Decl _ | Assign _ -> ()
      | Inst { master; inst; attrs; conns } -> (
        let conns =
          List.map
            (fun (pin, net) ->
              match pin_kind_of_name pin with
              | Some k -> (k, net_of net)
              | None -> raise (Parse_error ("unknown pin name " ^ pin)))
            conns
        in
        let find k = List.assoc_opt k conns in
        match master with
        | "CLKROOT" -> (
          match find Types.Pin_out with
          | Some nid -> ignore (Design.add_clock_root dsg inst nid)
          | None -> raise (Parse_error (inst ^ ": CLKROOT without Y")))
        | "CLKGATE" -> (
          let enable =
            match attr_str attrs "mbr_enable" with Some e -> e | None -> inst
          in
          match (find (Types.Pin_in 0), find Types.Pin_out) with
          | Some a, Some y ->
            ignore (Design.add_clock_gate dsg inst ~enable ~ck_in:a ~ck_out:y)
          | _, _ -> raise (Parse_error (inst ^ ": CLKGATE needs A0 and Y")))
        | _ -> (
          match Library.find library master with
          | cell ->
            let bits = cell.Cell_lib.bits in
            let pick f = Array.init bits (fun b -> find (f b)) in
            let scan =
              match attr_int attrs "mbr_scan_partition" with
              | Some partition ->
                let section =
                  match
                    (attr_int attrs "mbr_scan_section", attr_int attrs "mbr_scan_pos")
                  with
                  | Some sec, Some pos -> Some (sec, pos)
                  | _, _ -> None
                in
                Some Types.{ partition; section }
              | None -> None
            in
            let a =
              Types.
                {
                  lib_cell = cell;
                  fixed = attr_flag attrs "mbr_fixed";
                  size_only = attr_flag attrs "mbr_size_only";
                  scan;
                  gate_enable = attr_str attrs "mbr_enable";
                }
            in
            let clock =
              match find Types.Pin_clock with
              | Some nid -> nid
              | None -> raise (Parse_error (inst ^ ": register without CK"))
            in
            let scan_pins f =
              List.filter_map
                (fun (k, nid) ->
                  match f k with Some b -> Some (b, nid) | None -> None)
                conns
            in
            let conn =
              {
                Design.d_nets = pick (fun b -> Types.Pin_d b);
                q_nets = pick (fun b -> Types.Pin_q b);
                clock;
                reset = find Types.Pin_reset;
                scan_enable = find Types.Pin_scan_enable;
                scan_ins =
                  scan_pins (function Types.Pin_scan_in b -> Some b | _ -> None);
                scan_outs =
                  scan_pins (function Types.Pin_scan_out b -> Some b | _ -> None);
              }
            in
            ignore (Design.add_register dsg inst a conn)
          | exception Not_found -> (
            match gates master with
            | Some g ->
              let inputs =
                List.filter_map
                  (fun (k, nid) ->
                    match k with Types.Pin_in i -> Some (i, nid) | _ -> None)
                  conns
                |> List.sort compare |> List.map snd
              in
              let output =
                match find Types.Pin_out with
                | Some nid -> nid
                | None -> raise (Parse_error (inst ^ ": gate without Y"))
              in
              ignore (Design.add_comb dsg inst g ~inputs ~output)
            | None -> raise (Parse_error ("unknown master " ^ master)))))
      )
    stmts;
  dsg
