include Hashtbl.Make (Packet.Flow)
