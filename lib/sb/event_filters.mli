(** An NF runtime's event filters and "moved away" tombstones (§4.3,
    §5.1), indexed so the per-packet check and the per-flow updates of a
    move cost O(1) per flow.

    Filters that pin a full 5-tuple (the per-flow late-lock filters) sit
    in a table keyed by {!Filter.conn_hash}; all others in a short
    newest-first list. Every filter carries the sequence number of its
    install, and a packet gets the newest filter that matches it — the
    first match of one newest-first list over all filters. *)

open Opennf_net

type entry = {
  filter : Filter.t;
  action : Protocol.event_action;
  parent : Filter.t option;
      (** Set for per-flow filters installed by late locking; removed
          when the parent filter is disabled. *)
  seq : int;  (** Install order, from 0. *)
  buffer : Packet.t Queue.t;  (** Packets parked by a [Buffer] action. *)
}

type t

val create : unit -> t
val add : t -> ?parent:Filter.t -> Filter.t -> Protocol.event_action -> unit

val find : t -> Packet.t -> entry option
(** The newest filter matching the packet in either direction, honouring
    its [tcp_flag]. With no filters installed this is one length check. *)

val disable : t -> Filter.t -> entry list
(** Remove every filter equal to the given one, and every filter whose
    [parent] is equal to it. Returns the removed entries oldest first,
    the order their buffers must be released in. *)

val buffered : t -> int
(** Packets parked in all buffers. *)

(** Flows whose state was deleted from this NF: their packets drop
    instead of re-creating state. Tombstones never expire; a put of a
    flow's state clears the ones it covers. *)
module Tombstones : sig
  type t

  val create : unit -> t

  val add : t -> Filter.t -> unit
  (** Exact flowids without [app] are keyed by flow; host, prefix and
      [app] flowids are kept in a list. *)

  val matches : t -> Flow.key -> bool
  (** Some tombstone matches the key in either direction. *)

  val clear_for : t -> Filter.t -> unit
  (** Drop every tombstone [f] with [Filter.accepts_flowid f flowid]. *)
end
