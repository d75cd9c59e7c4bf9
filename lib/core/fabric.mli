(** Testbed wiring: one switch, one controller, N NF instances.

    Mirrors the paper's evaluation setup (§8): an OpenFlow switch whose
    ports feed NF instances, an OpenNF controller connected to both, and
    traffic injected at the switch. Every experiment, test and example
    builds on this module.

    Every fabric owns a {!Opennf_sim.Faults.t} handle, consulted by all
    control channels, NF runtimes and switch ports it wires up. With no
    fault profiles registered it draws no randomness and schedules no
    events, so fault-free runs are bit-identical to a fabric without
    it. Pass [resilience] to also arm the controller's deadline/retry/
    liveness machinery. *)

open Opennf_net
module Engine = Opennf_sim.Engine

type t = {
  engine : Engine.t;
  audit : Audit.t;
  switch : Switch.t;
  ctrl : Controller.t;
      (** Shard 0's controller — {e the} controller of an unsharded
          fabric. *)
  sched : Shard.t;
      (** The shard group: one controller and one operation scheduler
          per shard (a group of one when [shards] is 1), idle (and free)
          until something is submitted to it. Every admitted operation
          goes through it ({!Move.submit}, {!Copy_op.submit},
          [?sched] of {!Share.start} and {!Notify.enable}); reach a
          shard's controller or scheduler with {!Shard.ctrl} and
          {!Shard.sched}. *)
  faults : Opennf_sim.Faults.t;
  link_latency : float;
  par : Opennf_sim.Par.t option;
      (** The parallel-run handle when the fabric was created with
          [~par:true] (round/delivery counts live on it); [None] in a
          serial fabric. *)
  engines : Engine.t array;
      (** Per-shard engines. In a serial fabric every entry aliases
          [engine]; in a parallel fabric entry [k] is shard [k]'s own
          engine. *)
  audits : Audit.t array;  (** Per-shard audits (see {!merged_audit}). *)
  switches : Switch.t array;  (** Per-shard switch replicas. *)
  shard_faults : Opennf_sim.Faults.t array;
  ports : (string, int * Opennf_net.Packet.t Channel.t) Hashtbl.t;
      (** NF port registry: name to (home shard, switch-side channel).
          The parallel port proxy routes cross-replica forwards with
          it. *)
  monitors : Opennf_obs.Monitor.t array;
      (** Live §5.1 guarantee checkers ({!Opennf_obs.Monitor}), one per
          audit stream, when the fabric was created with [~monitor:true];
          [[||]] otherwise. Online findings (order/duplicate) surface on
          them during the run; use {!verdict} for the full end-of-run
          check. *)
}

val create :
  ?seed:int ->
  ?obs:Opennf_obs.Hub.t ->
  ?shard_obs:(int -> Opennf_obs.Hub.t) ->
  ?config:Controller.config ->
  ?flow_mod_delay:float ->
  ?packet_out_rate:float ->
  ?link_latency:float ->
  ?fault_seed:int ->
  ?resilience:Controller.resilience ->
  ?max_concurrent_ops:int ->
  ?shards:int ->
  ?par:bool ->
  ?monitor:bool ->
  unit ->
  t
(** Defaults: [link_latency] 200 µs, switch defaults per {!Switch}, no
    resilience policy (legacy blocking behavior), [max_concurrent_ops]
    per {!Sched.create} (per shard). [obs] (default disabled) is handed to the
    engine and from there reaches every component the fabric wires up:
    op spans, scheduler queues, southbound taps, channel counters, the
    flow table and the audit ledger all record through it.

    [shards] (default 1) partitions the control plane: [shards] controller
    instances share the one switch (one OpenFlow connection each),
    packet-ins are routed to the shard owning the packet's flow
    ({!Shard.of_key}), and each shard has its own scheduler. By default all
    shards run in the same engine — every per-shard slot of the record
    aliases the one engine, audit, switch and faults handle — so the fabric
    stays one deterministic virtual-time simulation. With [shards = 1]
    every event is bit-identical to earlier fabrics.

    [par] (default false; only meaningful with [shards > 1]) runs each shard
    on its own engine, on its own domain, connected by the deterministic
    cross-engine channels of {!Opennf_sim.Par}: one switch replica, audit
    ledger and faults handle per shard, stitched back into one logical
    fabric. Results are independent of how many domains actually run the
    shards; semantic digests and virtual-time trace content match the serial
    run of the same scenario (same-timestamp micro-ordering may differ —
    compare with {!merged_audit} and {!Opennf_obs.Export.canonical}). Random
    link faults draw from per-shard RNG streams in parallel mode, so
    serial-vs-parallel equivalence holds for deterministic fault plans
    ([crash_at]), not random drop profiles. A single [obs] hub cannot span
    engines: pass [shard_obs] (one hub per shard index) to trace a parallel
    run.

    [monitor] (default false) attaches one {!Opennf_obs.Monitor} per audit
    stream — a pure observer, so monitored runs keep virtual-time results
    byte-identical to unmonitored ones. *)

val shards : t -> int

val parallel : t -> bool
(** Whether this fabric runs one engine per shard ([par]). *)

val merged_audit : t -> Audit.t
(** The fabric's audit ledger for queries: the single ledger of a
    serial fabric, or the deterministic merge of the per-shard ledgers
    ({!Audit.merged}) of a parallel one. *)

val monitored : t -> bool
(** Whether live guarantee monitors are attached ([~monitor:true]). *)

val verdict :
  ?history:int -> t -> Opennf_obs.Monitor.finding list
(** End-of-run guarantee check: replays the (shard-tagged) audit
    streams through {!Opennf_obs.Monitor.merged_verdict}, so the result
    is deterministic regardless of shard count or parallelism — and
    available on {e any} fabric, monitored or not (the audit ledger is
    always on). Call after {!run} returns. *)

val live_findings : t -> Opennf_obs.Monitor.finding list
(** Online findings (order/duplicate violations) streamed by the live
    monitors so far; [[]] when {!monitored} is false. Per-shard
    detection order — use {!verdict} for the canonical list. *)

val add_nf :
  ?backend:Opennf_state.Backend.t ->
  ?shard:int ->
  t ->
  name:string ->
  impl:Opennf_sb.Nf_api.impl ->
  costs:Opennf_sb.Costs.t ->
  Controller.nf * Opennf_sb.Runtime.t
(** Creates the NF runtime, connects it to a switch port named [name]
    and to the controller. [backend] declares where this instance's
    state lives (see {!Opennf_state.Backend}): it is wired into the
    runtime's packet path and registered with the controller, enabling
    the shared-store and replicated fast paths of {!Controller.state_path}.
    [shard] picks the home shard (default {!Shard.of_name} of [name];
    always 0 in a 1-shard fabric). *)

val inject : t -> Packet.t -> unit
(** Deliver a packet to the switch now. *)

val inject_at : t -> float -> Packet.t -> unit
(** Deliver a packet to the switch at an absolute virtual time. *)

val run : ?until:float -> ?workers:int -> t -> unit
(** Run the simulation: [Engine.run] on a serial fabric, the parallel
    coordinator ({!Opennf_sim.Par.run}) on a parallel one. [workers]
    caps the domains a parallel run uses (default: the machine's usable
    cores, never more than there are shards; ignored on a serial
    fabric); [until] is not supported in parallel mode. *)

val run_proc : ?workers:int -> t -> (unit -> unit) -> unit
(** Spawn a simulation process (for calling blocking northbound
    operations) on shard 0's engine and run until quiescent. *)
