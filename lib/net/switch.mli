(** An OpenFlow-style SDN switch.

    The switch matches arriving packets against its flow table and
    forwards them out ports (channels to NF instances) and/or to the
    controller as packet-ins. The control interface models the costs
    that drive OpenNF's evaluation:

    - flow-mods take [flow_mod_delay] to become active after arriving;
    - barriers reply only after every earlier flow-mod is active
      (footnote 8's "existing SDN consistency mechanisms");
    - packet-outs drain at [packet_out_rate] per second. The production
      bottleneck behind Figure 11(b) — the control connection's
      throughput — is modeled on the controller→switch channel (see
      {!Controller.config}); the switch-side limiter defaults to
      effectively unlimited and exists for experiments that need a slow
      packet-out engine specifically. *)

type to_switch =
  | Install of {
      cookie : int;
      priority : int;
      filters : Filter.t list;
      actions : Flowtable.action list;
    }
  | Remove of { cookie : int }
  | Packet_out of { port : string; packet : Packet.t }
  | Barrier of { id : int }

type from_switch =
  | Packet_in of { packet : Packet.t; cookie : int }
  | Barrier_reply of { id : int }

type t

val create :
  Opennf_sim.Engine.t ->
  Audit.t ->
  name:string ->
  ?flow_mod_delay:float ->
  ?packet_out_rate:float ->
  unit ->
  t
(** Defaults: [flow_mod_delay] 10 ms, [packet_out_rate] effectively
    unlimited. *)

val attach_port : t -> name:string -> Packet.t Channel.t -> unit
(** Connect an output port. [Flowtable.Forward name] sends on it. *)

val register_controller_at : t -> conn:int -> from_switch Channel.t -> unit
(** Bind the channel on which the switch emits packet-ins and barrier
    replies for controller connection [conn] (controller shard [k]
    binds connection [k]). Barrier replies return on the connection
    that issued the barrier; packet-ins are routed by
    {!set_packet_in_router} (default: everything to connection 0).
    Raises if the slot is taken. *)

val set_packet_in_router : t -> (Packet.t -> int) -> unit
(** Route packet-ins by packet (e.g. a flowspace-shard hash). Replies
    to barriers are unaffected — those always return to the issuing
    connection. *)

(** {2 Replica stitching}

    A parallel sharded fabric runs one switch replica per shard (each
    on its own engine) standing in for one logical switch. Every
    replica agrees on the global connection numbering: replica [k]
    binds controller [k] at connection [k], and the other slots stay
    empty and route through the conn proxy. The hooks below stitch the
    replicas together; none are set in single-switch wiring. See
    {!Opennf.Fabric}. *)

val set_mod_tap : t -> (conn:int -> to_switch -> unit) -> unit
(** Called for every Install/Remove this replica receives, after local
    application — the parallel fabric mirrors it to the other replicas
    (via {!apply_mod}) at the same virtual time. *)

val apply_mod : t -> conn:int -> to_switch -> unit
(** Apply a mirrored Install/Remove exactly as {!control_from} would —
    same [flow_mod_delay], same per-conn barrier clock — but without
    re-firing the mod tap. Raises on non-flow-mod messages. *)

val set_conn_proxy : t -> (conn:int -> from_switch -> bool) -> unit
(** Fallback for switch→controller messages aimed at a connection not
    bound on this replica (e.g. a packet-in hashed to another shard);
    returns whether the proxy delivered it. *)

val set_port_proxy : t -> (port:string -> Packet.t -> bool) -> unit
(** Fallback for forwards out a port not attached on this replica (an
    NF homed on another shard); returns whether the proxy took the
    packet. When it declines, forward raises as for an unknown port. *)

val emit_to : t -> conn:int -> from_switch -> unit
(** Emit a switch→controller message on a connection, exactly as the
    switch itself would (the bound channel, or the conn proxy). A conn
    proxy calls this on the replica that owns the connection. *)

val connections : t -> int
(** Number of registered controller connections. *)

val control_from : t -> conn:int -> to_switch -> unit
(** Deliver a control message arriving on controller connection [conn]
    (call through a channel to model controller→switch latency). Barrier semantics are per-connection, as in OpenFlow: a
    barrier covers only the flow-mods that arrived on [conn], and its
    reply is emitted on [conn]'s channel. *)

val inject : t -> Packet.t -> unit
(** A data packet arrives at the switch. No matching rule ⇒ the packet
    is dropped (counted in [table_misses]). *)

val table : t -> Flowtable.t
val table_misses : t -> int

val decision_cache_stats : t -> int * int
(** [(hits, misses)] of the flow table's per-flow decision cache. *)

val packet_out_backlog : t -> int
(** Packet-outs accepted but not yet transmitted. *)

val slice_rule_counts : t -> shards:int -> int array
(** Installed rules per flow-table slice. The data plane is one shared
    table (it is one switch), but cookies are allocated strided by the
    owning controller shard ([cookie mod shards] = shard id), so the
    cookie partition {e is} the slice: entry [k] counts the rules shard
    [k] owns. *)
