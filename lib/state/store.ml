module Arena = Opennf_util.Arena
open Opennf_net

(* Deterministic enumeration: results are in key order so simulation
   runs do not depend on hash-table iteration order. Each store pairs a
   point index (O(1) lookups and writes on the packet path) with an
   ordered array of its keys that writes only mark stale: the next
   ordered read sorts once, and reads after it walk the cached array
   until the key set changes again. *)

(* The per-flow index: canonicalized 5-tuples in {!Opennf_util.Arena}
   rows — the GC never walks them — with the NF's state as typed fields
   of the row payload, addressed by an integer handle. Point lookups go
   through a flat open-addressing index (an int array: no buckets, no
   cons cells); ordered reads walk [order], the live handles sorted by
   two ints packed from each row's key. *)
module Perflow_arena = struct
  (* Row layout: canonical key at offset 0, payload at {!payload_off}.
     13 key bytes, then padding so NF payload layouts start 8-aligned. *)
  let key_size = 13
  let payload_off = 16
  let proto_of_rank = function
    | 0 -> Flow.Tcp
    | 1 -> Flow.Udp
    | 2 -> Flow.Icmp
    | r -> invalid_arg (Printf.sprintf "Perflow_arena: proto rank %d" r)

  type t = {
    arena : Arena.t;
    (* Open-addressing index: slot 0 = empty, -1 = tombstone, else a
       live handle (handles are never 0: live generations are odd). *)
    mutable idx : int array;
    mutable mask : int;
    mutable count : int;
    mutable tombs : int;
    mutable order : int array option;
        (* Live handles in ascending key order; [None] once stale. *)
  }

  let min_slots = 64

  let create ~payload () =
    if payload < 0 then invalid_arg "Perflow_arena.create: negative payload";
    let arena = Arena.create ~stride:(payload_off + payload) () in
    {
      arena;
      idx = Array.make min_slots 0;
      mask = min_slots - 1;
      count = 0;
      tombs = 0;
      order = None;
    }

  let arena t = t.arena
  let size t = t.count

  (* Integer hash over the five key fields — applied identically to a
     [Flow.key] record and to row bytes, so probes need no boxing. *)
  let[@inline] mix h v = (h lxor v) * 0x2545F4914F6CDD1D
  let[@inline] hash5 src dst pr sp dp =
    let h = mix (mix (mix (mix (mix 0x9E3779B9 src) dst) pr) sp) dp in
    (h lxor (h lsr 29)) land max_int

  let[@inline] row_matches t h src dst pr sp dp =
    Arena.get_u32 t.arena h 0 = src
    && Arena.get_u32 t.arena h 4 = dst
    && Arena.get_u8 t.arena h 8 = pr
    && Arena.get_u16 t.arena h 9 = sp
    && Arena.get_u16 t.arena h 11 = dp

  (* Find the slot holding the key, or -1. Canonical key fields only. *)
  let probe_find t src dst pr sp dp =
    let hash = hash5 src dst pr sp dp in
    let i = ref (hash land t.mask) in
    let slot = ref (-1) in
    let continue = ref true in
    while !continue do
      let v = t.idx.(!i) in
      if v = 0 then continue := false
      else if v <> -1 && row_matches t v src dst pr sp dp then begin
        slot := !i;
        continue := false
      end
      else i := (!i + 1) land t.mask
    done;
    !slot

  let rehash t slots =
    let idx = Array.make slots 0 in
    let mask = slots - 1 in
    Array.iter
      (fun v ->
        if v <> 0 && v <> -1 then begin
          let hash =
            hash5 (Arena.get_u32 t.arena v 0) (Arena.get_u32 t.arena v 4)
              (Arena.get_u8 t.arena v 8)
              (Arena.get_u16 t.arena v 9)
              (Arena.get_u16 t.arena v 11)
          in
          let i = ref (hash land mask) in
          while idx.(!i) <> 0 do
            i := (!i + 1) land mask
          done;
          idx.(!i) <- v
        end)
      t.idx;
    t.idx <- idx;
    t.mask <- mask;
    t.tombs <- 0

  let key_of t h =
    {
      Flow.src_ip = Ipaddr.of_int (Arena.get_u32 t.arena h 0);
      dst_ip = Ipaddr.of_int (Arena.get_u32 t.arena h 4);
      proto = proto_of_rank (Arena.get_u8 t.arena h 8);
      src_port = Arena.get_u16 t.arena h 9;
      dst_port = Arena.get_u16 t.arena h 11;
    }

  (* Box-free point lookup: [Arena.null] means absent. *)
  let find t k =
    let k = Flow.canonical k in
    let s =
      probe_find t
        (Ipaddr.to_int k.Flow.src_ip)
        (Ipaddr.to_int k.Flow.dst_ip)
        (Flow.proto_rank k.Flow.proto) k.Flow.src_port k.Flow.dst_port
    in
    if s = -1 then Arena.null else t.idx.(s)

  let find_opt t k =
    let h = find t k in
    if h = Arena.null then None else Some h

  let mem t k = find t k <> Arena.null

  let insert t k =
    let k = Flow.canonical k in
    let src = Ipaddr.to_int k.Flow.src_ip
    and dst = Ipaddr.to_int k.Flow.dst_ip
    and pr = Flow.proto_rank k.Flow.proto
    and sp = k.Flow.src_port
    and dp = k.Flow.dst_port in
    (* One pass: find the key, remembering the first reusable slot. *)
    let hash = hash5 src dst pr sp dp in
    let i = ref (hash land t.mask) in
    let free = ref (-1) in
    let found = ref 0 in
    let continue = ref true in
    while !continue do
      let v = t.idx.(!i) in
      if v = 0 then begin
        if !free = -1 then free := !i;
        continue := false
      end
      else if v = -1 then begin
        if !free = -1 then free := !i;
        i := (!i + 1) land t.mask
      end
      else if row_matches t v src dst pr sp dp then begin
        found := v;
        continue := false
      end
      else i := (!i + 1) land t.mask
    done;
    if !found <> 0 then !found
    else begin
      let h = Arena.alloc t.arena in
      Arena.set_u32 t.arena h 0 src;
      Arena.set_u32 t.arena h 4 dst;
      Arena.set_u8 t.arena h 8 pr;
      Arena.set_u16 t.arena h 9 sp;
      Arena.set_u16 t.arena h 11 dp;
      if t.idx.(!free) = -1 then t.tombs <- t.tombs - 1;
      t.idx.(!free) <- h;
      t.count <- t.count + 1;
      t.order <- None;
      (* Keep (live + tombstones) at or below half the slots. *)
      if 2 * (t.count + t.tombs) > t.mask + 1 then begin
        let slots = ref (t.mask + 1) in
        while 2 * (t.count + 1) > !slots do
          slots := !slots * 2
        done;
        rehash t !slots
      end;
      h
    end

  let remove t k =
    let k = Flow.canonical k in
    let s =
      probe_find t
        (Ipaddr.to_int k.Flow.src_ip)
        (Ipaddr.to_int k.Flow.dst_ip)
        (Flow.proto_rank k.Flow.proto) k.Flow.src_port k.Flow.dst_port
    in
    if s = -1 then false
    else begin
      Arena.free t.arena t.idx.(s);
      t.idx.(s) <- -1;
      t.count <- t.count - 1;
      t.tombs <- t.tombs + 1;
      t.order <- None;
      true
    end

  (* Live handles sorted by two ints per row whose lexicographic order
     is [Flow.compare] on the canonical key: src and the top 30 bits of
     dst, then dst's low 2 bits, protocol rank and both ports. *)
  let ordered t =
    match t.order with
    | Some o -> o
    | None ->
      let a = t.arena and n = ref 0 in
      let hs = Array.make t.count 0 and ks = Array.make (2 * t.count) 0 in
      Arena.iter_live a (fun h ->
          let i = !n and dst = Arena.get_u32 a h 4 in
          hs.(i) <- h;
          ks.(2 * i) <- (Arena.get_u32 a h 0 lsl 30) lor (dst lsr 2);
          ks.((2 * i) + 1) <-
            ((dst land 3) lsl 40) lor (Arena.get_u8 a h 8 lsl 32)
            lor (Arena.get_u16 a h 9 lsl 16) lor Arena.get_u16 a h 11;
          n := i + 1);
      let cmp x y =
        let c = Int.compare ks.(2 * x) ks.(2 * y) in
        if c <> 0 then c else Int.compare ks.((2 * x) + 1) ks.((2 * y) + 1)
      in
      let perm = Array.init t.count Fun.id in
      Array.stable_sort cmp perm;
      let o = Array.map (Array.get hs) perm in
      t.order <- Some o;
      o

  (* Matching entries ascending, each row as [(key, v handle)]. *)
  let matching_map t filter v =
    match Filter.exact_key filter with
    | Some key ->
      let h = find t key in
      if h = Arena.null then [] else [ (key_of t h, v h) ]
    | None ->
      Array.fold_right
        (fun h acc ->
          let k = key_of t h in
          if Filter.matches_flow filter k then (k, v h) :: acc else acc)
        (ordered t) []

  let matching t filter = matching_map t filter Fun.id
end

(* Boxed values over the one per-flow index: a payload-free
   {!Perflow_arena} owns keys, canonicalization, lookup, order and
   filter matching; [vals] holds each value at its row's arena index
   (dense, reused after a free). *)
module Perflow = struct
  type 'a t = { rows : Perflow_arena.t; mutable vals : 'a option array }

  let create () = { rows = Perflow_arena.create ~payload:0 (); vals = [||] }
  let[@inline] row t h = Arena.index (Perflow_arena.arena t.rows) h
  let value t h = Option.get t.vals.(row t h)

  let find t k =
    let h = Perflow_arena.find t.rows k in
    if h = Arena.null then None else t.vals.(row t h)

  (* Rows are numbered densely, so a new row is at most one past the
     column's end. *)
  let set t k v =
    let i = row t (Perflow_arena.insert t.rows k) in
    let n = Array.length t.vals in
    if i >= n then begin
      let vals = Array.make (max 64 (2 * n)) None in
      Array.blit t.vals 0 vals 0 n;
      t.vals <- vals
    end;
    t.vals.(i) <- Some v

  let remove t k =
    let h = Perflow_arena.find t.rows k in
    if h <> Arena.null then begin
      t.vals.(row t h) <- None;
      ignore (Perflow_arena.remove t.rows k)
    end

  let mem t k = Perflow_arena.mem t.rows k

  let matching t filter = Perflow_arena.matching_map t.rows filter (value t)

  let fold t ~init ~f =
    Array.fold_left
      (fun acc h -> f (Perflow_arena.key_of t.rows h) (value t h) acc)
      init (Perflow_arena.ordered t.rows)

  let size t = Perflow_arena.size t.rows
end

(* A store's cached key [order] if still valid, else its table's keys
   sorted afresh. *)
let sorted_keys order fold table cmp =
  match order with
  | Some o -> o
  | None ->
    let a = Array.of_list (fold (fun k _ acc -> k :: acc) table []) in
    Array.sort cmp a;
    a

module Per_host = struct
  module H = Hashtbl.Make (Ipaddr)

  (* [order]: the hosts ascending, [None] once a host was added or
     removed; overwriting a host's value keeps it. *)
  type 'a t = { table : 'a H.t; mutable order : Ipaddr.t array option }

  let create () = { table = H.create 64; order = None }
  let find t ip = H.find_opt t.table ip

  let set t ip v =
    if Option.is_some t.order && not (H.mem t.table ip) then t.order <- None;
    H.replace t.table ip v

  let remove t ip =
    if H.mem t.table ip then t.order <- None;
    H.remove t.table ip

  let update t ip ~default ~f =
    let current = match find t ip with Some v -> v | None -> default () in
    set t ip (f current)

  (* When every address constraint pins a single host, probe the table
     instead of walking it. [matches_host] is satisfied by either
     endpoint constraint, so the candidates are the union of the pinned
     hosts (deduplicated, ascending). *)
  let exact_host = function
    | None -> Some None (* no constraint on this endpoint *)
    | Some p when Ipaddr.Prefix.bits p = 32 ->
      Some (Some (Ipaddr.Prefix.network p))
    | Some _ -> None (* wide prefix: no cheap candidate set *)

  let host_candidates filter =
    match (exact_host filter.Filter.src, exact_host filter.Filter.dst) with
    | Some None, Some None -> None (* unconstrained: full walk *)
    | Some (Some a), Some (Some b) ->
      let c = Ipaddr.compare a b in
      Some (if c < 0 then [ a; b ] else if c = 0 then [ a ] else [ b; a ])
    | Some (Some a), Some None | Some None, Some (Some a) -> Some [ a ]
    | None, _ | _, None -> None

  let matching t filter =
    match host_candidates filter with
    | Some hosts ->
      List.filter_map
        (fun ip ->
          if Filter.matches_host filter ip then
            Option.map (fun v -> (ip, v)) (H.find_opt t.table ip)
          else None)
        hosts
    | None ->
      let order = sorted_keys t.order H.fold t.table Ipaddr.compare in
      t.order <- Some order;
      Array.fold_right
        (fun ip acc ->
          if Filter.matches_host filter ip then (ip, H.find t.table ip) :: acc
          else acc)
        order []

  let fold t ~init ~f = H.fold (fun k v acc -> f k v acc) t.table init
  let size t = H.length t.table
end

module Keyed = struct
  (* [order] as in {!Per_host}, under the polymorphic key order. *)
  type ('k, 'a) t = {
    table : ('k, 'a) Hashtbl.t;
    relevant : Filter.t -> 'k -> 'a -> bool;
    mutable order : 'k array option;
  }

  let create ~relevant () = { table = Hashtbl.create 64; relevant; order = None }
  let find t k = Hashtbl.find_opt t.table k

  let set t k v =
    if Option.is_some t.order && not (Hashtbl.mem t.table k) then
      t.order <- None;
    Hashtbl.replace t.table k v

  let remove t k =
    if Hashtbl.mem t.table k then t.order <- None;
    Hashtbl.remove t.table k

  let matching t filter =
    let order = sorted_keys t.order Hashtbl.fold t.table Stdlib.compare in
    t.order <- Some order;
    Array.fold_right
      (fun k acc ->
        let v = Hashtbl.find t.table k in
        if t.relevant filter k v then (k, v) :: acc else acc)
      order []

  let fold t ~init ~f = Hashtbl.fold (fun k v acc -> f k v acc) t.table init
  let size t = Hashtbl.length t.table
end
