(** The northbound [copy] operation (§5.2.1).

    Clones state from one instance to another without deleting it at the
    source or touching forwarding state. Imports merge per the NF's
    semantics, so repeatedly copying yields eventual consistency;
    deciding {e when} to re-copy is the application's job (see
    {!Notify}).

    A copy has nothing to roll back: on a typed error the destination
    may hold a partial import, which the next copy round completes. *)

open Opennf_net
open Opennf_state
module Proc = Opennf_sim.Proc

type report = {
  cp_filter : Filter.t;
  cp_src : string;
  cp_dst : string;
  cp_scope : Scope.t list;
  started : float;
  finished : float;
  chunks : int;
  state_bytes : int;
}

val duration : report -> float
val pp_report : Format.formatter -> report -> unit

val run :
  Controller.t ->
  src:Controller.nf ->
  dst:Controller.nf ->
  filter:Filter.t ->
  ?scope:Scope.t list ->
  ?options:Op_options.t ->
  ?parallel:bool ->
  unit ->
  (report, Op_error.t) result
(** Blocking. Defaults: scope [[Multi]] (the common case in §6),
    [parallel] true. [options] overrides [parallel] when given. *)

val start :
  Controller.t ->
  src:Controller.nf ->
  dst:Controller.nf ->
  filter:Filter.t ->
  ?scope:Scope.t list ->
  ?options:Op_options.t ->
  ?parallel:bool ->
  unit ->
  (report, Op_error.t) result Proc.Ivar.t

val footprint :
  src:Controller.nf -> dst:Controller.nf -> filter:Filter.t ->
  Sched.Footprint.t
(** What a copy touches: source read, destination written, no
    forwarding changes. *)

val submit :
  Shard.t ->
  src:Controller.nf ->
  dst:Controller.nf ->
  filter:Filter.t ->
  ?scope:Scope.t list ->
  ?options:Op_options.t ->
  ?parallel:bool ->
  unit ->
  (report, Op_error.t) result Proc.Ivar.t
(** Queue the copy through the shard group (see {!Move.submit}); it
    runs once no conflicting operation is ahead of it. Two copies out of
    the same source may overlap (reads don't conflict); a copy conflicts
    with any move touching the same instances and flows. *)

