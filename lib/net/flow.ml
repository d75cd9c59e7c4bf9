type proto = Tcp | Udp | Icmp

let proto_to_string = function Tcp -> "tcp" | Udp -> "udp" | Icmp -> "icmp"

let proto_of_string = function
  | "tcp" -> Tcp
  | "udp" -> Udp
  | "icmp" -> Icmp
  | s -> invalid_arg ("Flow.proto_of_string: " ^ s)

let pp_proto ppf p = Format.pp_print_string ppf (proto_to_string p)

type key = {
  src_ip : Ipaddr.t;
  dst_ip : Ipaddr.t;
  proto : proto;
  src_port : int;
  dst_port : int;
}

let make ~src ~dst ?(proto = Tcp) ~sport ~dport () =
  { src_ip = src; dst_ip = dst; proto; src_port = sport; dst_port = dport }

let reverse k =
  {
    k with
    src_ip = k.dst_ip;
    dst_ip = k.src_ip;
    src_port = k.dst_port;
    dst_port = k.src_port;
  }

let proto_rank = function Tcp -> 0 | Udp -> 1 | Icmp -> 2

let compare a b =
  let c = Ipaddr.compare a.src_ip b.src_ip in
  if c <> 0 then c
  else
    let c = Ipaddr.compare a.dst_ip b.dst_ip in
    if c <> 0 then c
    else
      let c = Int.compare (proto_rank a.proto) (proto_rank b.proto) in
      if c <> 0 then c
      else
        let c = Int.compare a.src_port b.src_port in
        if c <> 0 then c else Int.compare a.dst_port b.dst_port

let equal a b =
  Ipaddr.equal a.src_ip b.src_ip
  && Ipaddr.equal a.dst_ip b.dst_ip
  && a.proto == b.proto && a.src_port = b.src_port && a.dst_port = b.dst_port

let canonical k =
  let r = reverse k in
  if compare k r <= 0 then k else r

let is_forward k = equal (canonical k) k

let hash k =
  let open Opennf_util.Hashing in
  let h =
    combine
      (Int64.of_int (Ipaddr.hash k.src_ip))
      (Int64.of_int (Ipaddr.hash k.dst_ip))
  in
  let h = combine h (Int64.of_int k.src_port) in
  let h = combine h (Int64.of_int k.dst_port) in
  let h = combine h (Int64.of_int (proto_rank k.proto)) in
  Int64.to_int h land max_int

(* Endpoints packed as (ip << 16 | port) and ordered, so both directions
   mix the same words; multiplicative mixing keeps the low bits (which
   pick a hashtable bucket) well spread. *)
let conn_hash_parts ~src ~dst ~proto ~sport ~dport =
  let a = (Ipaddr.to_int src lsl 16) lor sport
  and b = (Ipaddr.to_int dst lsl 16) lor dport in
  let lo = if a <= b then a else b and hi = if a <= b then b else a in
  let m = 0x2545F4914F6CDD1D in
  let h = (lo * m) lxor hi in
  let h = (h * m) lxor proto_rank proto in
  let h = h lxor (h lsr 29) in
  (h * m) lxor (h lsr 32) land max_int

let conn_hash k =
  conn_hash_parts ~src:k.src_ip ~dst:k.dst_ip ~proto:k.proto ~sport:k.src_port
    ~dport:k.dst_port

let to_string k =
  Printf.sprintf "%s:%d>%s:%d/%s"
    (Ipaddr.to_string k.src_ip)
    k.src_port
    (Ipaddr.to_string k.dst_ip)
    k.dst_port
    (proto_to_string k.proto)

let pp ppf k = Format.pp_print_string ppf (to_string k)

module Ord = struct
  type t = key

  let compare = compare
end

module Hashed = struct
  type t = key

  let equal = equal
  let hash = hash
end

module Map = Map.Make (Ord)
module Set = Set.Make (Ord)
module Table = Hashtbl.Make (Hashed)
