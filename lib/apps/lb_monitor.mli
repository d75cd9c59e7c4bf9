(** High-performance network monitoring (Figure 8 of the paper).

    Balances local network prefixes across IDS instances. Reassigning a
    prefix runs the paper's [movePrefix]: copy the scan-detection
    multi-flow state, then a loss-free move of the per-flow state for
    all active flows in the prefix. Multi-flow state stays eventually
    consistent by copying it in both directions every [sync_period]. *)

open Opennf_net
open Opennf

type t

val create :
  Controller.t ->
  ?sched:Shard.t ->
  instances:(Controller.nf * Ipaddr.Prefix.t list) list ->
  ?sync_period:float ->
  unit ->
  t
(** Blocking: installs the initial prefix→instance routes. The periodic
    multi-flow synchronization loops start at the first reassignment
    (pairs that never exchanged a prefix have nothing to keep
    consistent). [sync_period] defaults to 60 s, as in Figure 8. With
    [sched], prefix moves and sync copies are admitted through the
    shard group: moves of disjoint prefixes overlap, while operations on
    the same prefix or instance pair serialize. *)

val move_prefix : t -> Ipaddr.Prefix.t -> to_:Controller.nf -> Move.report
(** Blocking: the paper's [movePrefix(prefix, oldInst, newInst)]. *)

val assignment : t -> (string * Ipaddr.Prefix.t list) list
val syncs_performed : t -> int
val stop : t -> unit
(** Cancel the periodic synchronization loops. *)
