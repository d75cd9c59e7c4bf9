(** Selectively invoking advanced remote processing (§2.1, §6).

    Local IDS instances watch for HTTP requests from outdated browsers.
    When one raises that alert, the flow's per-flow state is moved —
    loss-free, so the cloud instance's malware digest covers the whole
    reply — to a more capable cloud IDS, and the flow's packets follow.
    Multi-flow scan counters stay local: they are irrelevant to the
    cloud instance's job (§6). *)

open Opennf_net
open Opennf

type t

val start :
  Controller.t ->
  ?sched:Shard.t ->
  local:(Controller.nf * Opennf_nfs.Ids.t) list ->
  cloud:Controller.nf ->
  unit ->
  t
(** Hooks each local IDS's alert stream (the stand-in for watching Bro's
    log output). With [sched], offload moves are admitted through the
    shard group — moves of distinct flows overlap, and they queue behind
    any conflicting operation on the same instances and flows. *)

val offloaded : t -> Flow.key list
(** Flows moved to the cloud so far, oldest first. *)

val offload_count : t -> int
