(* Streaming checker for the §5.1 guarantees.

   Audit records arrive typed from the ledger's tap (or its replay),
   with the flow as a dense integer id, so the monitor can live below
   lib/net in the dependency order and still check any audit stream.
   Op spans (cat "op") from the trace stream give findings their
   op/phase context. Flow strings and history lines are rendered only
   when a finding is emitted. *)

type property = Loss | Order | Duplicate | Buffer_conservation

let property_name = function
  | Loss -> "loss"
  | Order -> "order"
  | Duplicate -> "duplicate"
  | Buffer_conservation -> "buffer"

let property_rank = function
  | Loss -> 0
  | Order -> 1
  | Duplicate -> 2
  | Buffer_conservation -> 3

type finding = {
  property : property;
  flow : string;
  pkt : int;
  shard : int;
  vt : float;
  op_span : int;
  op : string;
  phase : string;
  detail : string;
  history : string list;
}

type kind = Arrival | Forward | Nf_arrival | Process | Drop | Event | Buffer

let kind_name = function
  | Arrival -> "arrival"
  | Forward -> "forward"
  | Nf_arrival -> "nf_arrival"
  | Process -> "process"
  | Drop -> "drop"
  | Event -> "event"
  | Buffer -> "buffer"

let kind_code = function
  | Arrival -> 0
  | Forward -> 1
  | Nf_arrival -> 2
  | Process -> 3
  | Drop -> 4
  | Event -> 5
  | Buffer -> 6

let kinds = [| Arrival; Forward; Nf_arrival; Process; Drop; Event; Buffer |]
let kind_of_code c = kinds.(c)

type entry = { kind : kind; pkt : int; nf : string; flow : int; vt : float }
type item = Span of Trace.ev | Record of entry

(* The op context a record occurred under: the enclosing root op span
   and its last phase mark. Interned in [ctxs] so a retired packet keeps
   its context as an int; index 0 is "no op". *)
type ctx = { c_op : int; c_name : string; c_phase : string }

let no_ctx = { c_op = 0; c_name = ""; c_phase = "" }

(* Per-flow automaton: two counters (forward sequence numbering and the
   highest forwarded-sequence processed so far) plus a bounded ring of
   the last records, packed: time, packet id with the kind code in the
   low 3 bits, and the NF name (interned by the ledger, so storing it
   allocates nothing). O(1) state however long the flow lives. *)
type flow_state = {
  f_id : int;
  mutable f_name : string;  (* Rendered on first need; "" until then. *)
  mutable next_fwd : int;
  mutable max_done : int;
  ring_vt : float array;
  ring_ev : int array;
  ring_nf : string array;
  mutable ring_len : int;
  mutable ring_pos : int;
}

(* Lifecycle of a packet not yet processed. Processing retires it to
   the [processed] set as one int (first-sighting flow id and context
   index): that is all duplicate-freedom needs. *)
type pkt_state = {
  p_flow : flow_state;  (* Flow of the packet's first record. *)
  mutable p_seq : int;  (* First-forward sequence within the flow; -1. *)
  mutable p_forwarded : bool;
  mutable p_buffered : bool;
  mutable p_nf : string;  (* Instance of the last record. *)
  mutable p_vt : float;
  mutable p_shard : int;
  mutable p_ctx : int;
}

type op_info = {
  o_key : int * int;
  o_id : int;
  o_name : string;
  o_shard : int;
  mutable o_phase : string;  (* Last phase mark; "" before the first. *)
  mutable o_ctx : int;  (* Interned (id, name, phase); -1 until needed. *)
}

type t = {
  k : int;
  flow_name : int -> string;
  mutable cur_shard : int;  (* Stream tag; only merged replay varies it. *)
  mutable flows : flow_state option array;  (* By flow id. *)
  pkts : (int, pkt_state) Hashtbl.t;  (* In flight. *)
  processed : (int, int) Hashtbl.t;  (* pkt -> (flow id lsl 31) lor ctx. *)
  mutable ctxs : ctx array;
  mutable n_ctxs : int;
  (* Op-context tracking, keyed by (shard, span id): span ids are
     per-tracer counters, so merged replays of several shard buffers
     would collide on the bare id. *)
  roots : (int * int, op_info) Hashtbl.t;
  children : (int * int, op_info) Hashtbl.t;  (* child -> its root *)
  mutable open_roots : op_info list;  (* Newest first. *)
  mutable streamed : finding list;  (* Newest first. *)
  mutable events : int;
  mutable taps : (finding -> unit) list;
}

let create ?(shard = 0) ?(history = 8) ~flow_name () =
  {
    k = Stdlib.max 1 history;
    flow_name;
    cur_shard = shard;
    flows = [||];
    pkts = Hashtbl.create 1024;
    processed = Hashtbl.create 1024;
    ctxs = Array.make 16 no_ctx;
    n_ctxs = 1;
    roots = Hashtbl.create 16;
    children = Hashtbl.create 16;
    open_roots = [];
    streamed = [];
    events = 0;
    taps = [];
  }

let events_seen t = t.events
let in_flight t = Hashtbl.length t.pkts
let on_finding t f = t.taps <- t.taps @ [ f ]
let findings t = List.rev t.streamed
let clean = function [] -> true | _ :: _ -> false

(* --- per-flow state --------------------------------------------------------- *)

let flow_state t id =
  let n = Array.length t.flows in
  if id >= n then begin
    let bigger = Array.make (Stdlib.max (id + 1) (2 * n)) None in
    Array.blit t.flows 0 bigger 0 n;
    t.flows <- bigger
  end;
  match t.flows.(id) with
  | Some fs -> fs
  | None ->
    let fs =
      {
        f_id = id;
        f_name = "";
        next_fwd = 0;
        max_done = -1;
        ring_vt = Array.make t.k 0.0;
        ring_ev = Array.make t.k 0;
        ring_nf = Array.make t.k "";
        ring_len = 0;
        ring_pos = 0;
      }
    in
    t.flows.(id) <- Some fs;
    fs

let flow_key t fs =
  if fs.f_name = "" then fs.f_name <- t.flow_name fs.f_id;
  fs.f_name

let ring_push fs (e : entry) =
  let i = fs.ring_pos in
  fs.ring_vt.(i) <- e.vt;
  fs.ring_ev.(i) <- (e.pkt lsl 3) lor kind_code e.kind;
  fs.ring_nf.(i) <- e.nf;
  fs.ring_pos <- (i + 1) mod Array.length fs.ring_ev;
  if fs.ring_len < Array.length fs.ring_ev then fs.ring_len <- fs.ring_len + 1

let ring_lines fs =
  let n = Array.length fs.ring_ev in
  List.init fs.ring_len (fun i ->
      let j = (fs.ring_pos - fs.ring_len + i + (2 * n)) mod n in
      let ev = fs.ring_ev.(j) in
      Printf.sprintf "%.6f %s pkt=%d nf=%s" fs.ring_vt.(j)
        (kind_name (kind_of_code (ev land 7)))
        (ev asr 3) fs.ring_nf.(j))

(* --- op context ------------------------------------------------------------ *)

let root_of t key =
  match Hashtbl.find_opt t.roots key with
  | Some _ as root -> root
  | None -> Hashtbl.find_opt t.children key

(* The op a record "occurred under": the newest still-open root op span
   on the record's own shard (ops from other shards — merged replay
   only — are someone else's context). *)
let current_op t =
  List.find_opt (fun o -> fst o.o_key = t.cur_shard) t.open_roots

let ctx_index t o =
  if o.o_ctx < 0 then begin
    if t.n_ctxs = Array.length t.ctxs then begin
      let bigger = Array.make (2 * t.n_ctxs) no_ctx in
      Array.blit t.ctxs 0 bigger 0 t.n_ctxs;
      t.ctxs <- bigger
    end;
    t.ctxs.(t.n_ctxs) <-
      { c_op = o.o_id; c_name = o.o_name; c_phase = o.o_phase };
    o.o_ctx <- t.n_ctxs;
    t.n_ctxs <- t.n_ctxs + 1
  end;
  o.o_ctx

let op_open t (ev : Trace.ev) =
  let key = (t.cur_shard, ev.Trace.id) in
  match
    if ev.Trace.parent = 0 then None
    else root_of t (t.cur_shard, ev.Trace.parent)
  with
  | Some root -> Hashtbl.replace t.children key root
  | None ->
    let o_shard =
      let s = ref t.cur_shard in
      Array.iter
        (fun (k, v) ->
          match v with
          | Trace.Int sh when k = "shard" -> s := sh
          | _ -> ())
        ev.Trace.attrs;
      !s
    in
    let o =
      {
        o_key = key;
        o_id = ev.Trace.id;
        o_name = ev.Trace.name;
        o_shard;
        o_phase = "";
        o_ctx = -1;
      }
    in
    Hashtbl.replace t.roots key o;
    t.open_roots <- o :: t.open_roots

let span_close t (ev : Trace.ev) =
  let key = (t.cur_shard, ev.Trace.id) in
  if Hashtbl.mem t.roots key then begin
    Hashtbl.remove t.roots key;
    t.open_roots <- List.filter (fun o -> o.o_key <> key) t.open_roots
  end
  else Hashtbl.remove t.children key

let phase_mark t (ev : Trace.ev) =
  match root_of t (t.cur_shard, ev.Trace.parent) with
  | Some root ->
    root.o_phase <- ev.Trace.name;
    root.o_ctx <- -1
  | None -> ()

(* --- findings --------------------------------------------------------------- *)

let finding t ~property ~fs ~pkt ~shard ~vt ~ctx ~detail =
  let c = t.ctxs.(ctx) in
  {
    property;
    flow = flow_key t fs;
    pkt;
    shard;
    vt;
    op_span = c.c_op;
    op = c.c_name;
    phase = c.c_phase;
    detail;
    history = ring_lines fs;
  }

let emit t f =
  t.streamed <- f :: t.streamed;
  List.iter (fun tap -> tap f) t.taps

let pack ~flow ~ctx = (flow lsl 31) lor ctx
let packed_flow p = p lsr 31
let packed_ctx p = p land 0x7fff_ffff

(* A record for a packet still in flight. [fs] is the record's own flow,
   which numbers forwards and orders processing. *)
let in_flight_record t fs ps (e : entry) op shard =
  ps.p_vt <- e.vt;
  ps.p_nf <- e.nf;
  ps.p_shard <- shard;
  Option.iter (fun o -> ps.p_ctx <- ctx_index t o) op;
  match e.kind with
  | Forward ->
    (* First forwarding assigns the flow-order sequence; relays of the
       same id (packet-outs during a move) keep the original slot. *)
    if not ps.p_forwarded then begin
      ps.p_forwarded <- true;
      ps.p_seq <- fs.next_fwd;
      fs.next_fwd <- fs.next_fwd + 1
    end
  | Process ->
    if ps.p_seq >= 0 then
      if ps.p_seq < fs.max_done then
        emit t
          (finding t ~property:Order ~fs:ps.p_flow ~pkt:e.pkt ~shard
             ~vt:e.vt ~ctx:ps.p_ctx
             ~detail:
               (Printf.sprintf
                  "forwarded %d packet(s) before the newest processed one \
                   but processed after it"
                  (fs.max_done - ps.p_seq)))
      else fs.max_done <- ps.p_seq;
    Hashtbl.remove t.pkts e.pkt;
    Hashtbl.replace t.processed e.pkt
      (pack ~flow:ps.p_flow.f_id ~ctx:ps.p_ctx)
  | Buffer -> ps.p_buffered <- true
  | Arrival | Nf_arrival | Drop | Event -> ()

(* A record for a retired packet: only a second processing matters. Its
   context is the record's op if any, else the last one the packet was
   seen under. *)
let processed_record t packed (e : entry) op shard =
  let ctx =
    match op with
    | None -> packed_ctx packed
    | Some o ->
      let ctx = ctx_index t o in
      if ctx <> packed_ctx packed then
        Hashtbl.replace t.processed e.pkt
          (pack ~flow:(packed_flow packed) ~ctx);
      ctx
  in
  match e.kind with
  | Process ->
    emit t
      (finding t ~property:Duplicate
         ~fs:(flow_state t (packed_flow packed))
         ~pkt:e.pkt ~shard ~vt:e.vt ~ctx
         ~detail:(Printf.sprintf "processed again at %s" e.nf))
  | Arrival | Forward | Nf_arrival | Drop | Event | Buffer -> ()

let record t (e : entry) =
  t.events <- t.events + 1;
  let fs = flow_state t e.flow in
  ring_push fs e;
  let op = current_op t in
  let shard = match op with None -> t.cur_shard | Some o -> o.o_shard in
  match Hashtbl.find t.pkts e.pkt with
  | ps -> in_flight_record t fs ps e op shard
  | exception Not_found -> (
    match Hashtbl.find t.processed e.pkt with
    | packed -> processed_record t packed e op shard
    | exception Not_found ->
      let ps =
        {
          p_flow = fs;
          p_seq = -1;
          p_forwarded = false;
          p_buffered = false;
          p_nf = e.nf;
          p_vt = e.vt;
          p_shard = shard;
          p_ctx = 0;
        }
      in
      Hashtbl.add t.pkts e.pkt ps;
      in_flight_record t fs ps e op shard)

let feed t (ev : Trace.ev) =
  match ev.Trace.kind with
  | Trace.Instant ->
    if ev.Trace.cat = "op" && ev.Trace.parent <> 0 then phase_mark t ev
  | Trace.Begin -> if ev.Trace.cat = "op" then op_open t ev
  | Trace.End -> span_close t ev

let attach t tr = Trace.on_event tr (feed t)

(* --- verdict ---------------------------------------------------------------- *)

let finding_key (f : finding) =
  (f.vt, f.shard, f.pkt, property_rank f.property, f.flow, f.detail)

let verdict t =
  let pending = ref [] in
  Hashtbl.iter
    (fun pkt (ps : pkt_state) ->
      let pend property detail =
        pending :=
          finding t ~property ~fs:ps.p_flow ~pkt ~shard:ps.p_shard ~vt:ps.p_vt
            ~ctx:ps.p_ctx ~detail
          :: !pending
      in
      if ps.p_forwarded then
        pend Loss
          (Printf.sprintf "forwarded (flow seq %d) but never processed"
             ps.p_seq);
      if ps.p_buffered then
        pend Buffer_conservation
          (Printf.sprintf "buffered at %s but never released" ps.p_nf))
    t.pkts;
  List.sort
    (fun a b -> compare (finding_key a) (finding_key b))
    (List.rev_append t.streamed !pending)

let push t shard item =
  t.cur_shard <- shard;
  match item with Span ev -> feed t ev | Record e -> record t e

let item_vt = function Span ev -> ev.Trace.vt | Record e -> e.vt

let merged_verdict ?history ~flow_name sources =
  let t = create ?history ~flow_name () in
  (match sources with
  | [ (shard, items) ] -> Seq.iter (push t shard) items
  | _ ->
    let evs = ref [] in
    List.iter
      (fun (shard, items) ->
        Seq.iteri
          (fun pos item -> evs := (item_vt item, shard, pos, item) :: !evs)
          items)
      sources;
    List.sort
      (fun ((a : float), (b : int), (c : int), _) (d, e, f, _) ->
        compare (a, b, c) (d, e, f))
      !evs
    |> List.iter (fun (_, shard, _, item) -> push t shard item));
  verdict t

(* --- rendering --------------------------------------------------------------- *)

let render findings =
  match findings with
  | [] -> "monitor: clean (0 violations)\n"
  | fs ->
    let b = Buffer.create 512 in
    Buffer.add_string b
      (Printf.sprintf "monitor: %d violation(s)\n" (List.length fs));
    List.iter
      (fun f ->
        Buffer.add_string b
          (Printf.sprintf "  [%s] pkt=%d flow=%s shard=%d t=%.9f%s%s\n"
             (property_name f.property)
             f.pkt f.flow f.shard f.vt
             (if f.op = "" then ""
              else Printf.sprintf " op=%s#%d" f.op f.op_span)
             (if f.phase = "" then "" else " phase=" ^ f.phase));
        Buffer.add_string b ("    " ^ f.detail ^ "\n");
        List.iter
          (fun h -> Buffer.add_string b ("    | " ^ h ^ "\n"))
          f.history)
      fs;
    Buffer.contents b
