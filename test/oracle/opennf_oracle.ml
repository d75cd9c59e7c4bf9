(* Reference implementations in the seed's unindexed shape: a linear
   scan for the flow table and fold-and-sort for the state stores. *)

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
