type kind = Insert | Lookup | Ack_lookup | Remove | Send

type op = { kind : kind; flow : Packet.Flow.t }

type t = { label : string; seed : int; ops : op array }

let v ?(label = "adhoc") ?(seed = 0) ops = { label; seed; ops }

let length t = Array.length t.ops

let letter = function
  | Insert -> 'I'
  | Lookup -> 'L'
  | Ack_lookup -> 'A'
  | Remove -> 'R'
  | Send -> 'S'

let kind_of_letter = function
  | 'I' -> Some Insert
  | 'L' -> Some Lookup
  | 'A' -> Some Ack_lookup
  | 'R' -> Some Remove
  | 'S' -> Some Send
  | _ -> None

let endpoint_to_string (e : Packet.Flow.endpoint) =
  Printf.sprintf "%s:%d" (Packet.Ipv4.addr_to_string e.Packet.Flow.addr)
    e.Packet.Flow.port

let pp_op ppf op =
  Format.fprintf ppf "%c %s %s" (letter op.kind)
    (endpoint_to_string (Packet.Flow.local op.flow))
    (endpoint_to_string (Packet.Flow.remote op.flow))

let print t =
  let b = Buffer.create (64 + (Array.length t.ops * 40)) in
  Buffer.add_string b "# tcpdemux-check program v1\n";
  Buffer.add_string b (Printf.sprintf "# label: %s\n" t.label);
  Buffer.add_string b (Printf.sprintf "# seed: %d\n" t.seed);
  Array.iter
    (fun op ->
      Buffer.add_string b (Format.asprintf "%a" pp_op op);
      Buffer.add_char b '\n')
    t.ops;
  Buffer.contents b

let pp ppf t =
  Format.fprintf ppf "program %s (seed %d, %d ops):@." t.label t.seed
    (Array.length t.ops);
  Array.iter (fun op -> Format.fprintf ppf "  %a@." pp_op op) t.ops

(* "addr:port" -> endpoint.  Split on the last ':' (addresses here are
   dotted quads, which contain no colon, but be explicit anyway). *)
let endpoint_of_string s =
  match String.rindex_opt s ':' with
  | None -> Error (Printf.sprintf "endpoint %S: missing ':'" s)
  | Some i -> (
    let addr = String.sub s 0 i
    and port = String.sub s (i + 1) (String.length s - i - 1) in
    match Packet.Ipv4.addr_of_string addr with
    | Error e -> Error (Printf.sprintf "endpoint %S: %s" s e)
    | Ok addr -> (
      match Packet.Ipv4.decimal ~max_digits:5 port with
      | Some p when p <= 65535 -> Ok (Packet.Flow.endpoint addr p)
      | Some _ | None ->
        Error (Printf.sprintf "endpoint %S: bad port %S" s port)))

(* Header comments are advisory except label/seed, which we recover so
   a reprinted program keeps its provenance. *)
let header_field ~prefix line =
  let plen = String.length prefix in
  if String.length line > plen && String.sub line 0 plen = prefix then
    Some (String.trim (String.sub line plen (String.length line - plen)))
  else None

let parse text =
  let label = ref "parsed" and seed = ref 0 in
  let ops = ref [] in
  let error = ref None in
  let lines = String.split_on_char '\n' text in
  List.iteri
    (fun lineno line ->
      if !error = None then
        let line = String.trim line in
        if line = "" then ()
        else if line.[0] = '#' then begin
          (match header_field ~prefix:"# label:" line with
          | Some l -> label := l
          | None -> ());
          match header_field ~prefix:"# seed:" line with
          | Some s -> (
            match int_of_string_opt s with Some n -> seed := n | None -> ())
          | None -> ()
        end
        else
          match String.split_on_char ' ' line with
          | [ opcode; local; remote ] when String.length opcode = 1 -> (
            match kind_of_letter opcode.[0] with
            | None ->
              error :=
                Some (Printf.sprintf "line %d: unknown opcode %S" (lineno + 1)
                        opcode)
            | Some kind -> (
              match (endpoint_of_string local, endpoint_of_string remote) with
              | Ok local, Ok remote ->
                ops :=
                  { kind; flow = Packet.Flow.v ~local ~remote } :: !ops
              | Error e, _ | _, Error e ->
                error := Some (Printf.sprintf "line %d: %s" (lineno + 1) e)))
          | _ ->
            error :=
              Some
                (Printf.sprintf "line %d: expected 'OP local remote', got %S"
                   (lineno + 1) line))
    lines;
  match !error with
  | Some e -> Error e
  | None ->
    Ok { label = !label; seed = !seed; ops = Array.of_list (List.rev !ops) }

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> (
    match parse text with
    | Ok t -> Ok t
    | Error e -> Error (Printf.sprintf "%s: %s" path e))
  | exception Sys_error e -> Error e

let save path t = Out_channel.with_open_text path (fun oc ->
    Out_channel.output_string oc (print t))
