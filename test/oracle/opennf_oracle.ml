(* Reference implementations in the seed's unindexed shape: a linear
   scan for the flow table and the runtime's event filters and
   tombstones, fold-and-sort for the state stores. *)

open Opennf_net
open Opennf_state

(* Highest priority wins; among equal priorities the newest install
   does. [Flowtable.rules] lists newest first, so the first rule of the
   best priority is the winner. Does not touch the [matched] counters. *)
let lookup table p =
  List.fold_left
    (fun best (r : Flowtable.rule) ->
      if not (List.exists (fun f -> Filter.matches_packet f p) r.filters) then
        best
      else
        match best with
        | Some (b : Flowtable.rule) when b.priority >= r.priority -> best
        | _ -> Some r)
    None (Flowtable.rules table)

let perflow_matching store filter =
  Store.Perflow.fold store ~init:[] ~f:(fun k v acc ->
      if Filter.matches_flow filter k then (k, v) :: acc else acc)
  |> List.sort (fun (a, _) (b, _) -> Flow.compare a b)

let per_host_matching store filter =
  Store.Per_host.fold store ~init:[] ~f:(fun ip v acc ->
      if Filter.matches_host filter ip then (ip, v) :: acc else acc)
  |> List.sort (fun (a, _) (b, _) -> Ipaddr.compare a b)

(* [relevant] is the predicate the store was created with. *)
let keyed_matching ~relevant store filter =
  Store.Keyed.fold store ~init:[] ~f:(fun k v acc ->
      if relevant filter k v then (k, v) :: acc else acc)
  |> List.sort compare

(* The NF runtime's event filters and tombstones as newest-first lists,
   scanned per packet: a packet gets the first (newest) filter that
   matches, and disabling a filter releases the buffers of the removed
   filters oldest first. Same interface as [Opennf_sb.Event_filters]. *)
module Event_filters = struct
  module E = Opennf_sb.Event_filters

  type t = { mutable filters : E.entry list; mutable next_seq : int }

  let create () = { filters = []; next_seq = 0 }

  let add t ?parent filter action =
    t.filters <-
      { E.filter; action; parent; seq = t.next_seq; buffer = Queue.create () }
      :: t.filters;
    t.next_seq <- t.next_seq + 1

  let find t (p : Packet.t) =
    List.find_opt
      (fun (ef : E.entry) ->
        Filter.matches_flow ef.filter p.key
        &&
        match ef.filter.tcp_flag with
        | None -> true
        | Some f -> Packet.has_flag p f)
      t.filters

  let disable t filter =
    let keep, drop =
      List.partition
        (fun (ef : E.entry) ->
          not
            (Filter.equal ef.filter filter
            || match ef.parent with
               | Some p -> Filter.equal p filter
               | None -> false))
        t.filters
    in
    t.filters <- keep;
    List.rev drop

  let buffered t =
    List.fold_left (fun acc (ef : E.entry) -> acc + Queue.length ef.buffer) 0
      t.filters

  module Tombstones = struct
    type t = { mutable flowids : Filter.t list }

    let create () = { flowids = [] }
    let add t flowid = t.flowids <- flowid :: t.flowids

    let matches t k =
      List.exists (fun f -> Filter.matches_flow f k) t.flowids

    let clear_for t flowid =
      t.flowids <-
        List.filter (fun f -> not (Filter.accepts_flowid f flowid)) t.flowids
  end
end
