open Opennf_net

type entry = {
  filter : Filter.t;
  action : Protocol.event_action;
  parent : Filter.t option;
  seq : int;
  buffer : Packet.t Queue.t;
}

(* Exact-flow entries, keyed by [Filter.conn_hash] of the flowid they
   already carry (no second key is allocated). A hash may hold several
   bindings — stacked filters on one flow, or a collision — newest
   first, so every hit is re-checked against the packet. *)
module Conn = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash h = h
end)

(* First binding under [h] satisfying [ok]: the common single binding
   is answered without building the [find_all] list. *)
let find_in tbl h ok =
  match Conn.find_opt tbl h with
  | Some x when ok x -> Some x
  | Some _ -> List.find_opt ok (Conn.find_all tbl h)
  | None -> None

type t = {
  exact : entry Conn.t;
  mutable wild : entry list;  (** Newest first. *)
  mutable next_seq : int;
}

let create () = { exact = Conn.create 16; wild = []; next_seq = 0 }

let hits (p : Packet.t) e =
  Filter.matches_flow e.filter p.key
  &&
  match e.filter.Filter.tcp_flag with
  | None -> true
  | Some f -> Packet.has_flag p f

let add t ?parent filter action =
  let seq = t.next_seq and buffer = Queue.create () in
  let e = { filter; action; parent; seq; buffer } in
  t.next_seq <- t.next_seq + 1;
  match Filter.conn_hash filter with
  | Some h -> Conn.add t.exact h e
  | None -> t.wild <- e :: t.wild

(* The newest matching entry: the exact hit and the first wildcard hit
   are each the newest of their kind, so the larger [seq] wins. *)
let find t (p : Packet.t) =
  if Conn.length t.exact = 0 && t.wild = [] then None
  else
    let ok = hits p in
    let exact = find_in t.exact (Flow.conn_hash p.key) ok
    and wild = List.find_opt ok t.wild in
    match (exact, wild) with
    | Some e, Some w when w.seq > e.seq -> wild
    | Some _, _ -> exact
    | None, _ -> wild

let disable t filter =
  let hit e =
    Filter.equal e.filter filter
    || match e.parent with Some p -> Filter.equal p filter | None -> false
  in
  let dropped, keep = List.partition hit t.wild in
  t.wild <- keep;
  let dropped = ref dropped in
  Conn.filter_map_inplace
    (fun _ e ->
      if hit e then begin
        dropped := e :: !dropped;
        None
      end
      else Some e)
    t.exact;
  if Conn.length t.exact = 0 then Conn.reset t.exact;
  List.sort (fun a b -> Int.compare a.seq b.seq) !dropped

let buffered t =
  let sum acc e = acc + Queue.length e.buffer in
  Conn.fold (fun _ e acc -> sum acc e) t.exact (List.fold_left sum 0 t.wild)

module Tombstones = struct
  (* Exact flowids without an [app] go in the table; any other flowid
     (host-scoped, prefix, or naming application state) in the list. *)
  type t = { exact : Filter.t Conn.t; mutable rest : Filter.t list }

  let create () = { exact = Conn.create 16; rest = [] }

  let add t flowid =
    match (flowid.Filter.app, Filter.conn_hash flowid) with
    | None, Some h -> Conn.add t.exact h flowid
    | _ -> t.rest <- flowid :: t.rest

  let matches t (k : Flow.key) =
    if Conn.length t.exact = 0 && t.rest = [] then false
    else
      let hit f = Filter.matches_flow f k in
      Option.is_some (find_in t.exact (Flow.conn_hash k) hit)
      || List.exists hit t.rest

  (* An exact flowid can only accept tombstones on its own 5-tuple, all
     under its own hash; anything else is checked against every one. *)
  let clear_for t flowid =
    let cleared f = Filter.accepts_flowid f flowid in
    let kept l = List.filter (fun f -> not (cleared f)) l in
    if t.rest <> [] then t.rest <- kept t.rest;
    if Conn.length t.exact > 0 then
      match Filter.conn_hash flowid with
      | Some h ->
        let here = Conn.find_all t.exact h in
        let keep = kept here in
        if List.compare_lengths keep here <> 0 then begin
          List.iter (fun _ -> Conn.remove t.exact h) here;
          List.iter (Conn.add t.exact h) (List.rev keep)
        end
      | None ->
        Conn.filter_map_inplace
          (fun _ f -> if cleared f then None else Some f)
          t.exact
end
