(** Streaming runtime verification of the paper's §5.1 guarantees.

    A monitor consumes the audit ledger's typed records ({!entry}, one
    per packet event, pushed by the ledger's tap) interleaved with the
    op spans of a trace stream ({!Trace.on_event}), and maintains
    per-flow automata for:

    - {b loss-freedom}: every packet the switch forwarded toward an NF
      is eventually processed by exactly one instance;
    - {b order preservation}: each flow's processing order equals its
      first-forwarding order (§5.1.2 is a per-flow property);
    - {b duplicate-freedom}: no packet is processed twice;
    - {b buffer conservation}: every packet an NF buffered during a
      move is eventually released and processed.

    Each record costs O(1) table work and renders no text. Per-flow
    state is a pair of counters plus
    a bounded ring of the last-k records, kept packed and rendered to
    text only when a finding is emitted. A packet's lifecycle state is
    retired to one entry of a processed-id set once it is processed, so
    memory is O(flows + in-flight packets + processed ids). The monitor
    is a pure observer: it never reads the engine clock, never
    schedules, and never records through the tracer, so a monitored
    run's virtual-time results are byte-identical to an unmonitored one.

    "Eventually" properties (loss, buffer conservation) cannot fire
    mid-stream; they are checked by {!verdict}, which scans the still-
    pending packets at end of stream. Order and duplicate violations
    are detected online and also delivered to {!on_finding} taps.

    Shard-awareness: in [~par:true] fabrics one monitor rides each
    shard's ledger; {!merged_verdict} replays shard-tagged streams in
    [(time, shard, position)] order, the [Audit.merged] discipline, so
    the combined verdict is deterministic and invariant under
    permutation of the per-shard list. *)

type property = Loss | Order | Duplicate | Buffer_conservation

val property_name : property -> string
(** ["loss"], ["order"], ["duplicate"], ["buffer"]. *)

type finding = {
  property : property;
  flow : string;  (** Canonical 5-tuple, e.g. ["10.0.0.1:20000->172.31.0.1:443/tcp"]. *)
  pkt : int;  (** Packet id. *)
  shard : int;  (** Shard whose audit stream witnessed the violation. *)
  vt : float;  (** Virtual time of the packet's last relevant event. *)
  op_span : int;  (** Trace span id of the op it occurred under; 0 if none. *)
  op : string;  (** That op's name (["move"], ["copy"], …); [""] if none. *)
  phase : string;  (** Last phase mark under that op (["captured"], …). *)
  detail : string;
  history : string list;  (** Last-k audit events of the flow, oldest first. *)
}

(** {1 Audit records} *)

type kind = Arrival | Forward | Nf_arrival | Process | Drop | Event | Buffer

val kind_name : kind -> string
(** The ledger's record names: ["arrival"], ["forward"], ["nf_arrival"],
    ["process"], ["drop"], ["event"], ["buffer"]. *)

val kind_code : kind -> int
val kind_of_code : int -> kind
(** Dense codes 0–6 in declaration order, for packed storage. *)

type entry = {
  kind : kind;
  pkt : int;  (** Packet id. *)
  nf : string;  (** Instance (or switch port) the record names. *)
  flow : int;
      (** The packet's exact directed 5-tuple as a dense id, interned by
          the ledger; rendered through the monitor's [flow_name]. *)
  vt : float;  (** Virtual time of the record. *)
}

(** {1 Live monitoring} *)

type t

val create :
  ?shard:int -> ?history:int -> flow_name:(int -> string) -> unit -> t
(** [shard] (default 0) tags this monitor's findings; [history]
    (default 8) is the per-flow last-k event ring size; [flow_name]
    renders an {!entry}'s flow id as the canonical 5-tuple string. It
    runs at most once per flow, and only when a finding is emitted. *)

val record : t -> entry -> unit
(** Push one audit record, in ledger emission order (what the ledger's
    tap does per record). *)

val feed : t -> Trace.ev -> unit
(** Push one trace event: op spans and their phase marks give later
    records their op/phase context; every other event is ignored. *)

val attach : t -> Trace.t -> unit
(** Subscribe {!feed} to a tracer's live stream, typically the engine
    hub's. A disabled tracer delivers nothing, so findings then carry
    packets only. *)

val events_seen : t -> int
(** Audit records consumed so far. *)

val in_flight : t -> int
(** Packets seen but not yet processed: the per-packet lifecycle state
    the monitor still holds. *)

val on_finding : t -> (finding -> unit) -> unit
(** Called synchronously on every {e online} finding (order/duplicate
    violations — the properties decidable mid-stream). *)

val findings : t -> finding list
(** Online findings so far, in detection order. *)

val verdict : t -> finding list
(** Full verdict: online findings plus the end-of-stream scan for
    pending packets (loss, buffer conservation), sorted canonically by
    (time, shard, packet, property). Does not mutate the monitor — it
    may be called repeatedly, and more events may still be fed after. *)

(** {1 Replay} *)

type item = Span of Trace.ev | Record of entry
(** One element of a replayed stream: a trace event ({!feed}) or an
    audit record ({!record}). *)

val merged_verdict :
  ?history:int ->
  flow_name:(int -> string) ->
  (int * item Seq.t) list ->
  finding list
(** Deterministic combined verdict over shard-tagged streams
    [(shard, items)] through a fresh monitor. Flow ids must share one
    id space across the streams. Items replay in ((virtual time, shard
    tag, stream position)) order — the [Audit.merged] discipline; a
    single stream replays as is, since one engine's clock never runs
    backwards. The result is a pure function of the tagged streams,
    invariant under permutation of the list. *)

val clean : finding list -> bool
(** [findings = []]. *)

val render : finding list -> string
(** Deterministic human rendering (virtual-time data only): identical
    runs produce identical bytes. *)
