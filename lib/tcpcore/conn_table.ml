(* A listener binding packed as one immediate int, so probing for a
   listener on the receive path allocates no constructor:

     wildcard (port only)  : port                      (bits 0-15)
     specific (addr, port) : 1 lsl 48 | addr lsl 16 | port

   The specific form is the local endpoint's flow word with a bit-48
   discriminant that keeps the two namespaces disjoint; 49 significant
   bits fit an OCaml immediate int. *)
type binding = int

type ('conn, 'listener) t = {
  demux : 'conn Demux.Registry.t;
  listeners : (binding, 'listener) Hashtbl.t;
}

let create spec =
  { demux = Demux.Registry.create spec; listeners = Hashtbl.create 16 }

let demux t = t.demux

let specific word = (1 lsl 48) lor word
let word addr port = Packet.Flow.word { Packet.Flow.addr; port }

let binding_of ?addr port =
  match addr with
  | Some addr -> specific (word addr port)
  | None -> port

let listen ?addr t ~port listener =
  if port < 0 || port > 0xFFFF then invalid_arg "Conn_table.listen: bad port";
  let binding = binding_of ?addr port in
  if Hashtbl.mem t.listeners binding then
    invalid_arg "Conn_table.listen: port already has a listener";
  Hashtbl.replace t.listeners binding listener

let unlisten ?addr t ~port = Hashtbl.remove t.listeners (binding_of ?addr port)

(* The listener for a local endpoint's flow word: address-specific
   first, then the wildcard on its port. *)
let listener_of_word t word =
  match Hashtbl.find_opt t.listeners (specific word) with
  | Some _ as found -> found
  | None -> Hashtbl.find_opt t.listeners (word land 0xFFFF)

let listener ?addr t ~port =
  match addr with
  | Some addr -> listener_of_word t (word addr port)
  | None -> Hashtbl.find_opt t.listeners port

let listener_of_flow t flow = listener_of_word t (Packet.Flow.w0 flow)

let add_connection t flow conn = t.demux.Demux.Registry.insert flow conn

let remove_connection t flow =
  match t.demux.Demux.Registry.remove flow with
  | Some _ -> true
  | None -> false

type ('conn, 'listener) result =
  | Connection of 'conn Demux.Pcb.t
  | Listener of 'listener
  | No_match

let lookup t ?kind flow =
  match t.demux.Demux.Registry.lookup ?kind flow with
  | Some pcb -> Connection pcb
  | None -> (
    match listener_of_flow t flow with
    | Some listener -> Listener listener
    | None -> No_match)

let note_send t flow = t.demux.Demux.Registry.note_send flow
let connections t = t.demux.Demux.Registry.length ()
