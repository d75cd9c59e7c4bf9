(** Audit ledger: the ground truth for safety properties.

    The switch logs every forwarding decision; NF runtimes log arrivals,
    processing, drops, buffering and event generation. Tests and benches
    query this ledger to check the paper's §5.1 definitions:

    - {b loss-freedom}: every packet the switch forwarded toward NF
      instances is eventually processed by exactly one instance;
    - {b order preservation}: the cross-instance processing order equals
      the switch's (first-time) forwarding order.

    Records are 24-byte rows in fixed-size byte slabs that are appended
    to and never copied: packet id, kind with the interned NF name, the
    interned flow (the packet's exact directed 5-tuple) and virtual time.
    A record costs O(1) with no hashing: the flow id is cached per packet
    id (and checked against the key, so a reused id still interns
    right), the NF id comes from a last-name cache, and switch arrivals
    are deduplicated by a bitset over packet ids. Negative and far-out
    ids take a hashed path, so memory stays O(records). Recording
    allocates nothing beyond a new slab, the doubling of the per-id
    tables and a flow's or NF's first sighting. When the engine's hub is
    tracing, each record is also mirrored into the hub trace as an
    instant (cat ["audit"]; attrs pkt, nf, src, dst, proto, sport,
    dport), so packet events and op spans share one deterministic buffer
    and one Chrome export. Queries always read the rows. *)

type t

val create : Opennf_sim.Engine.t -> t
(** Mirrors records into the engine hub's trace when it is tracing. *)

val merged : Opennf_sim.Engine.t -> t list -> t
(** Read-only union of several shard audits (the parallel fabric keeps
    one audit per shard engine). Records merge in (virtual time, shard
    index, position) order — deterministic, and per-key order identical
    to a serial run's, since one flow's packets all live on one shard.
    A query snapshot: do not log to it. *)

type record = { pkt : int; key : Flow.key; nf : string; time : float }

val on_entry : t -> (Opennf_obs.Monitor.entry -> unit) -> unit
(** Subscribe to the live ledger with typed records: [f entry] runs
    synchronously on every record as it is logged, in emission order,
    with the flow as this ledger's interned id ({!flow_name} renders
    it). The tap a {!Opennf_obs.Monitor} rides. The callback must
    observe only — it must not log back into the ledger or touch the
    simulation. A ledger without taps builds no entries. *)

val on_record : t -> (string -> record -> unit) -> unit
(** {!on_entry} with the record decoded: [f name record] runs on every
    record (names: ["arrival"], ["forward"], ["nf_arrival"],
    ["process"], ["drop"], ["event"], ["buffer"]), in emission order. *)

val flow_name : t -> int -> string
(** The canonical rendering of an interned flow id, e.g.
    ["10.0.0.1:20000->172.31.0.1:443/tcp"]. *)

val verdict :
  ?history:int -> (int * t) list -> Opennf_obs.Monitor.finding list
(** End-of-run guarantee check over shard-tagged ledgers: each ledger
    replays through {!Opennf_obs.Monitor.merged_verdict}. A ledger that
    mirrors into a tracing hub replays interleaved with that trace's op
    spans (its [k]-th audit instant is its [k]-th row), so findings
    carry op/phase context; otherwise it replays its rows alone.
    Deterministic, and invariant under permutation of the list. *)

(** {1 Recording} *)

val log_forward : t -> Packet.t -> dst:string -> unit
(** The switch forwarded the packet out the port named [dst]. Relays of
    an already-forwarded id are recorded but do not change the packet's
    first-forwarding position. *)

val log_switch_arrival : t -> Packet.t -> unit
(** The packet reached the switch from the network (recorded once per
    id). Arrival order is the ground truth for control planes that
    divert packets entirely to the controller, where no port forwarding
    happens until re-injection. *)

val log_nf_arrival : t -> Packet.t -> nf:string -> unit
val log_process : t -> Packet.t -> nf:string -> unit
val log_drop : t -> Packet.t -> nf:string -> unit
val log_evented : t -> Packet.t -> nf:string -> unit
(** The NF raised a packet-received event for this packet. *)

val log_buffered : t -> Packet.t -> nf:string -> unit

(** {1 Queries} *)

val forwarded_order : ?filter:Filter.t -> t -> int list
(** Packet ids in first-forwarding order (deduplicated). *)

val processed_order : ?filter:Filter.t -> ?nf:string -> t -> int list
(** Packet ids in processing order, across all instances unless [nf] is
    given. Ids repeat if a packet was processed more than once. *)

val drop_count : ?nf:string -> t -> int
val processed_count : ?nf:string -> t -> int

val lost : ?filter:Filter.t -> t -> nfs:string list -> int list
(** Ids forwarded to one of [nfs] (first forwarding) but never processed
    by any of them. *)

val duplicated : ?filter:Filter.t -> t -> int list
(** Ids processed more than once across all instances. *)

val order_violations : ?filter:Filter.t -> t -> (int * int) list
(** Pairs [(a, b)] where [a] was first-forwarded before [b] but processed
    after it (both restricted to [filter] and to processed packets). *)

val arrival_order_violations : ?filter:Filter.t -> t -> (int * int) list
(** Like {!order_violations}, but against switch {e arrival} order. *)

val added_latency : t -> pkt:int -> float option
(** [process_time - first NF arrival time] for the packet, if both are
    recorded. *)

val evented_ids : ?nf:string -> t -> int list
val buffered_ids : ?nf:string -> t -> int list
val first_forward_time : t -> pkt:int -> float option
val process_time : t -> pkt:int -> float option
(** The first-time queries ({!added_latency}, {!first_forward_time},
    {!process_time}) read an index built in one pass over the rows and
    extended as the ledger grows, so a query per packet stays linear
    overall. *)
