(** The northbound [move] operation (§5.1).

    Transfers both the state and the input (traffic) for a set of flows
    from one NF instance to another:

    - {b No_guarantee}: get → del → put → reroute. Packets reaching the
      source mid-move are dropped (§5.1, Figure 11(a)).
    - {b Loss_free}: events are enabled (action [drop]) on the source
      before the state transfer, buffered at the controller, and flushed
      to the destination after the put completes; then the route is
      updated (§5.1.1).
    - {b Order_preserving} (implies loss-free): additionally buffers at
      the destination and performs the two-phase forwarding update of
      Figure 6, so processing order equals the switch's forwarding
      order. Where the paper waits for the first packet-in before
      installing the second phase, this implementation uses switch
      barriers (footnote 8's consistency mechanisms) and then waits for
      the destination to have processed the last packet the switch sent
      toward the source — a strengthening that is provably race-free on
      FIFO channels and never blocks on idle flows.

    Optimizations (§5.1.3, {!Op_options.t}): [parallel] streams chunks
    from the get and pipelines one put per chunk; [early_release] adds
    late locking (the source starts raising events for a flow only when
    that flow's chunk is captured) and per-flow release of buffered
    events as soon as that flow's put is acknowledged. [early_release]
    implies [parallel] and, per the paper, must not be combined with a
    move of both per-flow and multi-flow scopes.

    {2 Failure handling}

    [run] returns [(report, Op_error.t) result]. A malformed spec is
    [Error (Bad_spec _)] before any message is sent. If an instance dies
    or a call times out mid-protocol (under the controller's resilience
    policy), the move {e rolls back}: every chunk the controller still
    holds is re-installed on the surviving instance, buffered packets
    are flushed to it, half-installed phase rules are removed, and the
    base route is pointed at the survivor — no flow is left blackholed.
    The error is then reported as [Nf_crashed] or [Timeout]. *)

open Opennf_net
open Opennf_state
module Proc = Opennf_sim.Proc

type guarantee = No_guarantee | Loss_free | Order_preserving

val pp_guarantee : Format.formatter -> guarantee -> unit

(** Observable protocol milestones, in order. [on_phase] hooks fire
    synchronously as each is reached — fault-injection tests use them to
    crash an instance at an exact protocol point. *)
type phase =
  | Transfer_started  (** Events armed; no state captured yet. *)
  | State_captured  (** Per-flow get finished; controller holds chunks. *)
  | State_deleted  (** Per-flow state deleted at the source. *)
  | State_installed  (** Per-flow state acked by the destination. *)
  | Phase1_installed  (** Two-phase update: src + controller rule live. *)
  | Phase2_installed  (** Two-phase update: dst rule live. *)

(** Deliberately broken-protocol knobs for exercising the runtime
    monitor ({!Opennf_obs.Monitor}): each reproduces a classic buggy
    controller. {b Test fixtures only} — never set in production specs. *)
type break_for_test =
  | Skip_order_wait
      (** Order-preserving handoff releases the destination's buffer
          without waiting for the last source-bound packet — the race
          the §5.1.2 two-phase wait exists to close. *)
  | Drop_buffered
      (** The flush at the end of a loss-free move silently discards
          the first buffered packet instead of relaying it. *)

type spec = {
  src : Controller.nf;
  dst : Controller.nf;
  filter : Filter.t;
  scope : Scope.t list;
      (** [Per], [Multi] and/or [All]. All-flows state has no delete
          (§4.2), so including [All] copies it under the move's event
          protection — giving the destination a snapshot consistent with
          exactly the packets the source processed. *)
  guarantee : guarantee;
  options : Op_options.t;
  disable_grace : float;
      (** Loss-free moves leave the source's drop-events enabled so
          in-flight stragglers keep being relayed; they are disabled
          this long after the move completes (the paper's "after
          several minutes", §5.1.1; default 0.5 s of virtual time). *)
  on_phase : (phase -> unit) option;
  break_for_test : break_for_test option;  (** Seeded-violation fixtures. *)
}

val spec :
  src:Controller.nf ->
  dst:Controller.nf ->
  filter:Filter.t ->
  ?scope:Scope.t list ->
  ?guarantee:guarantee ->
  ?options:Op_options.t ->
  ?parallel:bool ->
  ?early_release:bool ->
  ?compress:bool ->
  ?disable_grace:float ->
  ?on_phase:(phase -> unit) ->
  ?break_for_test:break_for_test ->
  unit ->
  spec
(** Defaults: scope [[Per]], [Loss_free], optimizations off. [options]
    overrides the individual optimization flags when given. Specs are
    not validated here — an impossible combination surfaces as
    [Error (Bad_spec _)] from {!run}. *)

type report = {
  rp_filter : Filter.t;
  rp_src : string;
  rp_dst : string;
  rp_guarantee : guarantee;
  started : float;
  finished : float;
  per_chunks : int;
  multi_chunks : int;
  state_bytes : int;  (** Serialized state transferred. *)
  relayed : int;  (** Packets carried through controller events. *)
}

val duration : report -> float
val pp_report : Format.formatter -> report -> unit

val run :
  ?notify_release:(Filter.t -> unit) ->
  Controller.t -> spec -> (report, Op_error.t) result
(** Blocking; call from a simulation process. [notify_release] fires per
    flow as its put is acknowledged under [early_release] (used by
    {!submit} to shrink the scheduler footprint); plain callers omit
    it. *)

val start : Controller.t -> spec -> (report, Op_error.t) result Proc.Ivar.t
(** Spawn the move and return an ivar filled with its result. *)

val footprint : spec -> Sched.Footprint.t
(** What the move touches: both instances written, the filter's flows
    covered, forwarding state updated. *)

val submit : Shard.t -> spec -> (report, Op_error.t) result Proc.Ivar.t
(** Queue the move through the shard group; it runs once no conflicting
    operation is ahead of it. A move within one shard queues on that
    shard's scheduler; a cross-shard move is admitted by the two-shard
    handshake and led by the source's home shard. Under
    [early_release], flows leave the held footprint — on every involved
    scheduler — as their chunks land. *)
