(** The OpenNF controller: plumbing layer.

    Owns the channels to the SDN switch and to every attached NF,
    provides the scope-indexed southbound API (callable from simulation
    processes), event and packet-in subscriptions, and OpenFlow-style
    rule management with barriers. The northbound operations of §5 are
    built on top in {!Move}, {!Copy_op}, {!Share} and {!Notify}.

    All inbound messages (NF replies, events, packet-ins, barrier
    replies) pass through a serial controller CPU whose per-message cost
    scales with message size — the bottleneck the paper identifies in
    §8.3 ("threads are busy reading from sockets").

    {2 Resilience}

    With a {!resilience} config installed, every southbound call gets a
    deadline; missed deadlines are retried with exponential backoff
    under the {e same} request id (so duplicate replies are ignored),
    and [liveness_misses] consecutive misses declare the NF dead, firing
    {!on_nf_death} callbacks. Without it (the default) the controller
    behaves exactly as before: calls block until the reply arrives and
    no timer events are scheduled, keeping fault-free runs bit-identical
    to the legacy code. *)

open Opennf_net
open Opennf_state
module Proc = Opennf_sim.Proc

type config = {
  nf_latency : float;  (** Controller ↔ NF channel latency (s). *)
  sw_latency : float;  (** Controller ↔ switch channel latency (s). *)
  sw_bandwidth : float option;
      (** Bytes/s of the OpenFlow control connection; bounds the
          packet-out rate and makes flow-mods queue behind packet
          flushes (the paper's switch sustains ~3000 packet-outs/s). *)
  msg_cost : float;  (** Controller CPU per inbound message (s). *)
  msg_cost_per_byte : float;  (** Additional CPU per inbound byte. *)
  sb_batch_bytes : int option;
      (** When set, every attached NF is told ([Set_batching]) to
          coalesce streamed pieces into [Batch_reply] messages once the
          buffered payload reaches this many bytes, so N concurrent
          operations do not pay N× the per-message controller cost
          (§8.3). [None] (the default) keeps the per-message wire
          behaviour — and every virtual-time trace — exactly as before. *)
}

val default_config : config

type resilience = {
  call_timeout : float;  (** Deadline per southbound call attempt (s). *)
  max_retries : int;  (** Resends after the first attempt times out. *)
  backoff : float;  (** First retry delay; doubles per retry. *)
  liveness_misses : int;
      (** Consecutive missed deadlines before the NF is declared dead. *)
  probe_period : float;  (** Period of {!start_probes} heartbeats (s). *)
}

val default_resilience : resilience

val call_budget : resilience -> float
(** Worst-case wall-clock of one resilient call: all attempts time out
    and every backoff is paid. Operations use it to bound rollback. *)

type t
type nf

val create :
  Opennf_sim.Engine.t -> Audit.t -> switch:Switch.t -> ?config:config ->
  ?faults:Opennf_sim.Faults.t -> ?resilience:resilience ->
  ?shard:int -> ?shards:int -> unit -> t
(** [faults] is consulted by every control channel the controller
    creates (switch and NF links), keyed by channel name.

    [shard]/[shards] (defaults 0/1) place this instance in a sharded
    control plane (see {!Shard}): the instance binds switch connection
    [shard] ({!Switch.register_controller_at}; per-connection barriers),
    stripes its rule cookies by shard id, and labels its channels and
    metrics with the shard. With the defaults every name and every
    virtual-time event is identical to the single-controller
    controller. *)

val engine : t -> Opennf_sim.Engine.t

val shard_id : t -> int
(** This instance's shard id (0 in a single-controller fabric). *)

val shard_count : t -> int
(** Shard count of the control plane this instance belongs to. *)

val metric_suffix : t -> string
(** [".shard<k>"] when [shard_count > 1], [""] otherwise — appended to
    metric names by the controller and by per-shard components
    ({!Sched}) so single-shard metric namespaces are unchanged. *)

val set_group : t array -> unit
(** Introduce the members of a shard group to each other (index =
    shard id). Cross-shard routing ({!find_nf}, subscription placement,
    {!on_nf_death}, {!start_probes}) spans the group afterwards.
    Called by {!Fabric.create}; idempotent. *)

val set_par : t -> Opennf_sim.Par.t -> unit
(** Declare (to the whole group) that this control plane runs in
    parallel mode: one engine per shard on the channels of [par].
    Every cross-shard touch thereafter — southbound calls to NFs homed
    elsewhere, subscription placement, liveness reads — rides those
    channels instead of touching the peer's state directly. Called by
    the parallel {!Fabric.create}. *)

val par : t -> Opennf_sim.Par.t option
(** The parallel-run handle, when {!set_par} was called. *)

val nf_home : nf -> t
(** The controller shard that owns this NF: its channels, request-id
    namespace and pending tables serve every call to the NF, whichever
    shard's handle the caller holds. *)

val nf_shard : nf -> int
(** [shard_id (nf_home nf)]. *)

val obs : t -> Opennf_obs.Hub.t
(** The engine's observability hub (southbound taps, op spans and the
    scheduler's queue metrics all record through it). *)

val audit : t -> Audit.t
val resilience : t -> resilience option

val set_op_parent : t -> int -> unit
(** Stamp the ambient parent span for the next operation started on
    this shard. {!Sched} sets it (to the scheduler entry's span) right
    before running an admitted body; {!Op_engine.start} consumes it via
    {!take_op_parent}, so the op span nests under its scheduler span
    and queue wait is attributable per op. Safe as a per-shard ambient:
    procs are cooperative and the consume happens before the op's first
    blocking point. *)

val take_op_parent : t -> int
(** Read-and-clear the ambient op parent (0 when unset). *)

val attach : ?backend:Backend.t -> t -> Opennf_sb.Runtime.t -> nf
(** Wire an NF into the controller. The NF must (separately) be attached
    to a switch port bearing its runtime name. [backend] (default: the
    runtime's own backend, if it was created over one) registers where
    this instance's state lives, which lets operations take the
    {!state_path} fast paths. *)

val nf_name : nf -> string
val find_nf : t -> string -> nf option
val messages_handled : t -> int

val backend_of : nf -> Backend.t option
(** The state backend registered at {!attach} time, if any. *)

val state_path :
  t -> src:nf -> dst:nf -> scope:Scope.t ->
  [ `Transfer | `Same_store | `Replicated of Backend.t ]
(** How [scope]-labelled state actually gets from [src] to [dst]:
    [`Transfer] is the classic bulk get/del/put; [`Same_store] means
    both instances read the same (shared) backend and there is nothing
    to move; [`Replicated b] means the replication stream of [b]
    already carries it and a {!Backend.drain} suffices. Instances
    without backends always resolve to [`Transfer]. *)

(** {1 Liveness} *)

val nf_alive : t -> nf -> bool
(** False once the liveness monitor declared the NF dead. *)

val on_nf_death : t -> (string -> unit) -> unit
(** Register a callback fired (in its own process, so it may block) when
    an NF is declared dead. Callbacks fire in registration order. *)

val declare_nf_dead : t -> nf -> unit
(** Force the liveness verdict (used by tests and by operations that
    witness a crash directly). Idempotent. *)

val probe_async : t -> nf -> (unit, Op_error.t) result Proc.Ivar.t
(** Send a [Ping] through the NF's work queue; resolves [Ok ()] on the
    ack, or a typed error under the resilience policy. Detects wedged
    NFs, not just dead channels. *)

val start_probes : t -> until:float -> unit
(** Spawn a heartbeat process probing every live NF each [probe_period]
    until virtual time [until] (bounded so the simulation quiesces).
    Requires a resilience config; raises [Invalid_argument] without. *)

(** {1 Southbound calls}

    One scope-indexed family serves every scope: callers pass [~scope:Per],
    [Multi] or [All]. The blocking forms suspend the calling simulation
    process; the [_async] forms return a result ivar immediately (used to
    pipeline puts behind a streaming get). [enable_events]/[disable_events]
    are fire-and-forget, as in the paper. *)

val enable_events : t -> nf -> Filter.t -> Opennf_sb.Protocol.event_action -> unit
val disable_events : t -> nf -> Filter.t -> unit

val get_async :
  t -> nf -> scope:Scope.t ->
  ?on_piece:(Filter.t -> Chunk.t -> unit) ->
  ?late_lock:bool -> ?compress:bool -> Filter.t ->
  ((Filter.t * Chunk.t) list, Op_error.t) result Proc.Ivar.t
(** With [on_piece], the get streams (parallelizing optimization §5.1.3):
    the callback fires at each arriving chunk (exactly once per flowid,
    even under retries/duplication) and the resolved list contains all
    of them. [late_lock] applies to [Per] scope only; [All] scope
    ignores the filter and never streams. *)

val put_async :
  t -> nf -> scope:Scope.t -> (Filter.t * Chunk.t) list ->
  (unit, Op_error.t) result Proc.Ivar.t

val del_async :
  t -> nf -> scope:Scope.t -> Filter.t list ->
  (unit, Op_error.t) result Proc.Ivar.t
(** [All] scope resolves [Error (Bad_spec _)]: all-flows state is always
    relevant, so the API has no delete for it (§4.2). *)

val get :
  t -> nf -> scope:Scope.t ->
  ?on_piece:(Filter.t -> Chunk.t -> unit) ->
  ?late_lock:bool -> ?compress:bool -> Filter.t ->
  ((Filter.t * Chunk.t) list, Op_error.t) result

val put :
  t -> nf -> scope:Scope.t -> (Filter.t * Chunk.t) list ->
  (unit, Op_error.t) result

val del :
  t -> nf -> scope:Scope.t -> Filter.t list -> (unit, Op_error.t) result

(** {1 Events and packet-ins} *)

type subscription

val subscribe_events :
  t -> nf:string -> Filter.t ->
  (Packet.t -> Opennf_sb.Protocol.event_action -> unit) -> subscription
(** Callback runs for every event from [nf] whose packet matches the
    filter (connection-level match). *)

val subscribe_packet_in : t -> Filter.t -> (Packet.t -> unit) -> subscription
val unsubscribe : t -> subscription -> unit

(** {1 Forwarding state} *)

val fresh_cookie : t -> int

val install_rule :
  t -> cookie:int -> priority:int -> filters:Filter.t list ->
  actions:Flowtable.action list -> unit

val remove_rule : t -> cookie:int -> unit

val barrier : t -> unit
(** Block until the switch confirms all earlier flow-mods are active. *)

val packet_out : t -> port:string -> Packet.t -> unit

val set_route : t -> Filter.t -> nf -> unit
(** Blocking: point [filter] (and its mirror) at the NF with a base-
    priority rule, replacing any previous route set for the same filter,
    and wait for it to take effect. *)

val final_route_cookie : t -> Filter.t -> int
(** The stable cookie used for [filter]'s move-final rule. Memoized per
    filter, so repeated moves of the same flows replace one rule rather
    than accumulating one per move. *)

(** Rule priority conventions used by the move protocols. *)

val base_priority : int
val move_final_priority : int
val phase1_priority : int
val phase2_priority : int
