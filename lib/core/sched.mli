(** Scope-aware admission control for northbound operations.

    Nothing in the controller stops two concurrent operations whose
    filters overlap from interleaving get/del/put on the same flows and
    corrupting state (the migration-correctness hazard formalized in
    arXiv:2404.07701). The scheduler closes that hole: every operation
    declares a {e footprint} — the filters it covers, the NF instances
    it reads/writes, and whether it updates forwarding state — and the
    scheduler admits operations so that

    - footprint-disjoint operations run concurrently, up to a
      configurable cap ([max_concurrent]);
    - conflicting operations queue FIFO per conflict class: each waiter
      runs after every earlier-submitted operation it conflicts with,
      but may overtake unrelated queues;
    - admission is deterministic (fixed scan order, monotone ids), so
      simulation runs stay reproducible.

    Footprints can shrink while held: an early-release move reports each
    flow as its chunk lands ({!Shard.release_flow}), letting an exact-flow
    waiter start before the whole move finishes.

    The scheduler is advisory plumbing, not a lock manager inside the
    controller: operations started directly ({!Move.start}) bypass it
    unchanged, which keeps single-op runs bit-identical to the
    pre-scheduler code. *)

open Opennf_net
module Proc = Opennf_sim.Proc

module Footprint : sig
  type t = {
    filters : Filter.t list;  (** Flow coverage (empty = none). *)
    reads : string list;  (** NF instances only read. *)
    writes : string list;  (** NF instances whose state is written. *)
    routes : bool;  (** Installs/removes forwarding rules. *)
    mutable released : Flow.key list;
        (** Flows already handed off (early release); exact-flow
            candidates for these keys no longer conflict. *)
  }

  val make :
    ?filters:Filter.t list ->
    ?reads:string list ->
    ?writes:string list ->
    ?routes:bool ->
    unit ->
    t

  val conflicts : held:t -> cand:t -> bool
  (** True when the operations must not interleave: they clash on a
      resource (route updates, write/write, or write/read on a common
      instance) {e and} their filters overlap ({!Filter.overlaps}),
      minus [held]'s released exact flows. *)

  val release : t -> Flow.key -> unit
  (** Record that [key]'s state has safely landed; exact-key candidates
      for it no longer conflict. Follow with {!repump} (or use
      {!Shard.release_flow}, which does both). *)
end

type t

val create : ?max_concurrent:int -> Controller.t -> t
(** A scheduler over [ctrl]'s operations. [max_concurrent] (default 8)
    caps simultaneously admitted operations; raises [Invalid_argument]
    below 1. Creation schedules nothing on the engine. *)

val submit : t -> footprint:Footprint.t -> (unit -> 'a) -> 'a Proc.Ivar.t
(** Queue [body] under [footprint]. Once admitted it runs in its own
    simulation process; the ivar resolves with its result. The footprint
    is held until [body] returns. *)

val repump : t -> unit
(** Re-scan the admission queue after a held footprint was shrunk
    ({!Footprint.release}), so exact-flow waiters on the released keys
    may be admitted now. {!Shard.release_flow} shrinks the footprint
    once, on the owning shard, and repumps every involved scheduler. *)

(** {1 Long-lived holds}

    {!Share} (and similar standing services) own their instances' state
    for their whole lifetime rather than for one call. *)

type handle

val acquire : t -> footprint:Footprint.t -> handle
(** Block until the footprint can be admitted, then hold it until
    {!release}. Counts against [max_concurrent]. *)

val release : t -> handle -> unit
(** Give the footprint back and admit eligible waiters. Idempotent. *)

(** {1 Introspection} *)

type stats = {
  admitted : int;  (** Operations admitted so far. *)
  completed : int;  (** Operations finished or released. *)
  peak_active : int;  (** Max simultaneously admitted. *)
  peak_waiting : int;  (** Max queue length observed. *)
}

val stats : t -> stats
val waiting_count : t -> int
