module Engine = Opennf_sim.Engine
module Trace = Opennf_obs.Trace
module Monitor = Opennf_obs.Monitor

type record = { pkt : int; key : Flow.key; nf : string; time : float }

(* Dense interning: values get ids 0, 1, ... in first-seen order. A hit
   is one hash lookup and allocates nothing. *)
module Intern (H : Hashtbl.S) = struct
  type t = { ids : int H.t; mutable vals : H.key array; mutable n : int }

  let create () = { ids = H.create 64; vals = [||]; n = 0 }

  let id t v =
    match H.find t.ids v with
    | i -> i
    | exception Not_found ->
      let i = t.n in
      if i = Array.length t.vals then begin
        let vals = Array.make (Stdlib.max 64 (2 * i)) v in
        Array.blit t.vals 0 vals 0 i;
        t.vals <- vals
      end;
      t.vals.(i) <- v;
      H.add t.ids v i;
      t.n <- i + 1;
      i

  let find t v = H.find_opt t.ids v
  let value t i = t.vals.(i)
  let count t = t.n
end

module Keys = Intern (Hashtbl.Make (struct
  type t = Flow.key

  let equal = Flow.equal
  let hash = Flow.conn_hash
end))

module Names = Intern (Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end))

(* Rows are 24 bytes, in emission order, in fixed-size [Bytes] slabs
   that are appended to and never copied (nor scanned by the GC): packet
   id; tag = kind code lor (NF id lsl 3), lor (flow id lsl 32); time. *)
let slab_bits = 12
let slab_mask = (1 lsl slab_bits) - 1
let row_bytes = 24

(* [mirror] is the hub trace when it is tracing, else the disabled
   tracer. [last_nf] caches the last NF name's id: names come in runs. *)
type t = {
  engine : Engine.t;
  mirror : Trace.t;
  mutable len : int;
  mutable slabs : Bytes.t array;
  keys : Keys.t;
  nfs : Names.t;
  mutable last_nf : string;
  mutable last_nf_id : int;
  mutable arrived : Bytes.t;
  mutable pkt_flows : Bytes.t;
  hashed_arrived : (int, unit) Hashtbl.t;
  mutable taps : (Monitor.entry -> unit) list;
  (* First-time index: [(pkt lsl 3) lor kind code] -> row of the
     packet's first record of that kind, over rows [0, first_upto). *)
  first : (int, int) Hashtbl.t;
  mutable first_upto : int;
}

(* The switch is interned first (id 0), so arrivals need no lookup. *)
let make engine mirror =
  let nfs = Names.create () in
  ignore (Names.id nfs "sw");
  {
    engine;
    mirror;
    len = 0;
    slabs = [||];
    keys = Keys.create ();
    nfs;
    last_nf = "sw";
    last_nf_id = 0;
    arrived = Bytes.make 128 '\000';
    pkt_flows = Bytes.make 4096 '\000';
    hashed_arrived = Hashtbl.create 16;
    taps = [];
    first = Hashtbl.create 16;
    first_upto = 0;
  }

(* Packet ids in [0, 2 * rows + 65536) are dense: they index the arrival
   bitset and a cache of the packet's last flow id (4 bytes, id + 1), so
   both stay O(records). Other ids take the hashed arrival set. The bound
   only grows, so an id hashed early may be dense later: arrival lookups
   also read the hashed set while it is not empty. *)
let dense t id = id >= 0 && id < (2 * t.len) + 65536

let create engine =
  let obs = Engine.obs engine in
  make engine
    (if Opennf_obs.Hub.tracing obs then Opennf_obs.Hub.trace obs
     else Trace.disabled)

let[@inline] word t i w =
  Bytes.get_int64_le t.slabs.(i lsr slab_bits)
    (((i land slab_mask) * row_bytes) + (8 * w))

let pkt_at t i = Int64.to_int (word t i 0)
let tag_at t i = Int64.to_int (word t i 1) land 0xFFFF_FFFF
let flow_at t i = Int64.to_int (word t i 1) lsr 32
let time_at t i = Int64.float_of_bits (word t i 2)
let kind_of t i = Monitor.kind_of_code (tag_at t i land 7)
let nf_of t i = Names.value t.nfs (tag_at t i lsr 3)
let key_of t i = Keys.value t.keys (flow_at t i)

(* Row [i] as a typed entry, its flow id mapped through [flow]. *)
let entry t ~flow i =
  {
    Monitor.kind = kind_of t i;
    pkt = pkt_at t i;
    nf = nf_of t i;
    flow = flow (flow_at t i);
    vt = time_at t i;
  }

let on_entry t f = t.taps <- t.taps @ [ f ]

let on_record t f =
  on_entry t (fun (e : Monitor.entry) ->
      f (Monitor.kind_name e.kind)
        { pkt = e.pkt; key = Keys.value t.keys e.flow; nf = e.nf; time = e.vt })

let render_key (k : Flow.key) =
  Printf.sprintf "%s:%d->%s:%d/%s"
    (Ipaddr.to_string k.Flow.src_ip)
    k.Flow.src_port
    (Ipaddr.to_string k.Flow.dst_ip)
    k.Flow.dst_port
    (Flow.proto_to_string k.Flow.proto)

let flow_name t id = render_key (Keys.value t.keys id)

(* Standard IP protocol numbers, so traces read like packet captures. *)
let proto_code = function Flow.Tcp -> 6 | Flow.Udp -> 17 | Flow.Icmp -> 1

(* The record as a positional 7-attribute instant, the layout the
   Chrome export and the trace-decoding oracle read. Only built when the
   hub is tracing. *)
let mirror t kind pkt nf (k : Flow.key) =
  Trace.instant t.mirror ~cat:"audit" ~name:(Monitor.kind_name kind)
    ~attrs:
      [|
        ("pkt", Trace.Int pkt);
        ("nf", Trace.Str nf);
        ("src", Trace.Int (Ipaddr.to_int k.Flow.src_ip));
        ("dst", Trace.Int (Ipaddr.to_int k.Flow.dst_ip));
        ("proto", Trace.Int (proto_code k.Flow.proto));
        ("sport", Trace.Int k.Flow.src_port);
        ("dport", Trace.Int k.Flow.dst_port);
      |]
    ()

let append t ~pkt ~tag ~flow ~time =
  let i = t.len and s = t.len lsr slab_bits in
  if s = Array.length t.slabs then
    t.slabs <- Array.append t.slabs (Array.make (Stdlib.max 8 s) Bytes.empty);
  if i land slab_mask = 0 then
    t.slabs.(s) <- Bytes.create ((slab_mask + 1) * row_bytes);
  let b = t.slabs.(s) and o = (i land slab_mask) * row_bytes in
  Bytes.set_int64_le b o (Int64.of_int pkt);
  Bytes.set_int64_le b (o + 8) (Int64.of_int (tag lor (flow lsl 32)));
  Bytes.set_int64_le b (o + 16) (Int64.bits_of_float time);
  t.len <- i + 1

(* [b] zero-extended, by doubling, to more than [n] bytes. *)
let widen b n =
  let len = ref (Bytes.length b) in
  while !len <= n do
    len := 2 * !len
  done;
  let b' = Bytes.make !len '\000' in
  Bytes.blit b 0 b' 0 (Bytes.length b);
  b'

(* The flow cached for a dense packet id if it is this key (an id may
   be reused with another key), else one hash lookup. *)
let flow_id t pkt key =
  if not (dense t pkt) then Keys.id t.keys key
  else begin
    if 4 * pkt >= Bytes.length t.pkt_flows then
      t.pkt_flows <- widen t.pkt_flows (4 * pkt);
    let c = Int32.to_int (Bytes.get_int32_le t.pkt_flows (4 * pkt)) - 1 in
    if c >= 0 && (let k = Keys.value t.keys c in k == key || Flow.equal k key)
    then c
    else begin
      let f = Keys.id t.keys key in
      Bytes.set_int32_le t.pkt_flows (4 * pkt) (Int32.of_int (f + 1));
      f
    end
  end

let nf_id t nf =
  if not (nf == t.last_nf || String.equal nf t.last_nf) then begin
    t.last_nf_id <- Names.id t.nfs nf;
    t.last_nf <- nf
  end;
  t.last_nf_id

let log_id t kind (p : Packet.t) nf nf_ix =
  let pkt = p.Packet.id and key = p.Packet.key in
  append t ~pkt
    ~tag:(Monitor.kind_code kind lor (nf_ix lsl 3))
    ~flow:(flow_id t pkt key) ~time:(Engine.now t.engine);
  if Trace.enabled t.mirror then mirror t kind pkt nf key;
  match t.taps with
  | [] -> ()
  | taps ->
    let e = entry t ~flow:Fun.id (t.len - 1) in
    List.iter (fun f -> f e) taps

let log t kind p nf = log_id t kind p nf (nf_id t nf)

(* Rows of all sources in (virtual time, source index, position) order —
   a pure function of the per-shard ledgers, so the merge is as
   deterministic as its parts. Per-key relative order matches a serial
   run's: one flow's packets all live on one shard, so their relative
   order is that shard's row order. *)
let merged engine sources =
  let t = make engine Trace.disabled in
  let srcs = Array.of_list sources in
  let rows =
    Array.concat
      (List.mapi (fun s a -> Array.init a.len (fun i -> (s, i))) sources)
  in
  Array.sort
    (fun (s1, i1) (s2, i2) ->
      let c = Float.compare (time_at srcs.(s1) i1) (time_at srcs.(s2) i2) in
      if c <> 0 then c
      else
        let c = Int.compare s1 s2 in
        if c <> 0 then c else Int.compare i1 i2)
    rows;
  Array.iter
    (fun (s, i) ->
      let a = srcs.(s) in
      append t ~pkt:(pkt_at a i)
        ~tag:((tag_at a i land 7) lor (Names.id t.nfs (nf_of a i) lsl 3))
        ~flow:(Keys.id t.keys (key_of a i))
        ~time:(time_at a i))
    rows;
  t

(* Whether packet [id] already arrived; marks it arrived. *)
let seen_arrival t id =
  let hashed =
    Hashtbl.length t.hashed_arrived > 0 && Hashtbl.mem t.hashed_arrived id
  in
  if dense t id then begin
    if id lsr 3 >= Bytes.length t.arrived then
      t.arrived <- widen t.arrived (id lsr 3);
    let byte = Bytes.get_uint8 t.arrived (id lsr 3) and bit = 1 lsl (id land 7) in
    Bytes.set_uint8 t.arrived (id lsr 3) (byte lor bit);
    hashed || byte land bit <> 0
  end
  else hashed || (Hashtbl.add t.hashed_arrived id (); false)

let log_switch_arrival t p =
  if not (seen_arrival t p.Packet.id) then log_id t Monitor.Arrival p "sw" 0

let log_forward t p ~dst = log t Monitor.Forward p dst
let log_nf_arrival t p ~nf = log t Monitor.Nf_arrival p nf
let log_process t p ~nf = log t Monitor.Process p nf
let log_drop t p ~nf = log t Monitor.Drop p nf
let log_evented t p ~nf = log t Monitor.Event p nf
let log_buffered t p ~nf = log t Monitor.Buffer p nf

(* --- verdict ----------------------------------------------------------------- *)

(* The ledger as a replay stream. Mirrored: the hub trace in order, each
   audit instant standing for the ledger's next row (the two are
   appended together, so they correspond one to one). Otherwise: the
   rows alone. [flow] maps ledger flow ids into the replay's id space. *)
let items t ~flow : Monitor.item Seq.t =
  let row i = Monitor.Record (entry t ~flow i) in
  if not (Trace.enabled t.mirror) then Seq.map row (Seq.init t.len Fun.id)
  else
    let tr = t.mirror in
    let rec walk pos r () =
      if pos = Trace.length tr then begin
        if r <> t.len then
          invalid_arg "Audit.verdict: hub trace and ledger out of step";
        Seq.Nil
      end
      else
        let ev = Trace.nth tr pos in
        if ev.Trace.kind = Trace.Instant && ev.Trace.cat = "audit" then
          Seq.Cons (row r, walk (pos + 1) (r + 1))
        else Seq.Cons (Monitor.Span ev, walk (pos + 1) r)
    in
    walk 0 0

(* Flows are re-interned into one id space: one flow's records may sit
   on several shards' ledgers. *)
let verdict ?history sources =
  let all = Keys.create () in
  let remap t =
    let ids = Array.make (Keys.count t.keys) (-1) in
    fun id ->
      if ids.(id) < 0 then ids.(id) <- Keys.id all (Keys.value t.keys id);
      ids.(id)
  in
  Monitor.merged_verdict ?history
    ~flow_name:(fun id -> render_key (Keys.value all id))
    (List.map (fun (shard, t) -> (shard, items t ~flow:(remap t))) sources)

(* --- queries ----------------------------------------------------------------- *)

let iter_kind t kind f =
  let code = Monitor.kind_code kind in
  for i = 0 to t.len - 1 do
    if tag_at t i land 7 = code then f i
  done

(* Row predicates, evaluated once per interned flow or NF. *)
let flow_pred filter t =
  match filter with
  | None -> fun _ -> true
  | Some f ->
    let ok =
      Array.init (Keys.count t.keys) (fun id ->
          Filter.matches_flow f (Keys.value t.keys id))
    in
    fun i -> ok.(flow_at t i)

let nf_pred nf t =
  match nf with
  | None -> fun _ -> true
  | Some n -> (
    match Names.find t.nfs n with
    | None -> fun _ -> false
    | Some id -> fun i -> tag_at t i lsr 3 = id)

let ids_of_kind t kind pred =
  let acc = ref [] in
  iter_kind t kind (fun i -> if pred i then acc := pkt_at t i :: !acc);
  List.rev !acc

let forwarded_order ?filter t =
  let in_filter = flow_pred filter t in
  let seen = Hashtbl.create 64 in
  ids_of_kind t Monitor.Forward (fun i ->
      let id = pkt_at t i in
      in_filter i
      && (not (Hashtbl.mem seen id))
      && (Hashtbl.add seen id ();
          true))

let processed_order ?filter ?nf t =
  let in_filter = flow_pred filter t and by_nf = nf_pred nf t in
  ids_of_kind t Monitor.Process (fun i -> in_filter i && by_nf i)

let drop_count ?nf t = List.length (ids_of_kind t Monitor.Drop (nf_pred nf t))

let processed_count ?nf t =
  List.length (ids_of_kind t Monitor.Process (nf_pred nf t))

let lost ?filter t ~nfs =
  let in_nfs =
    let ok =
      Array.init (Names.count t.nfs) (fun id ->
          List.mem (Names.value t.nfs id) nfs)
    in
    fun i -> ok.(tag_at t i lsr 3)
  in
  let processed = Hashtbl.create 1024 in
  iter_kind t Monitor.Process (fun i ->
      if in_nfs i then Hashtbl.replace processed (pkt_at t i) ());
  let in_filter = flow_pred filter t in
  let seen = Hashtbl.create 64 in
  ids_of_kind t Monitor.Forward (fun i ->
      let id = pkt_at t i in
      in_filter i && in_nfs i
      && (not (Hashtbl.mem seen id))
      && (not (Hashtbl.mem processed id))
      && (Hashtbl.add seen id ();
          true))

let duplicated ?filter t =
  let in_filter = flow_pred filter t in
  let counts = Hashtbl.create 1024 in
  iter_kind t Monitor.Process (fun i ->
      if in_filter i then
        let id = pkt_at t i in
        Hashtbl.replace counts id
          (1 + Option.value ~default:0 (Hashtbl.find_opt counts id)));
  Hashtbl.fold (fun id n acc -> if n > 1 then id :: acc else acc) counts []

let violations_against t reference_order ?filter () =
  let pos = Hashtbl.create 1024 in
  List.iteri (fun i id -> Hashtbl.replace pos id i) reference_order;
  let proc =
    List.filter (fun id -> Hashtbl.mem pos id) (processed_order ?filter t)
  in
  (* A violation is an inversion between the reference position and the
     processing position. Report adjacent-in-processing inversions, which
     is enough to witness any reordering. *)
  let rec scan acc = function
    | a :: (b :: _ as rest) ->
      let pa = Hashtbl.find pos a and pb = Hashtbl.find pos b in
      let acc = if pa > pb then (b, a) :: acc else acc in
      scan acc rest
    | [ _ ] | [] -> List.rev acc
  in
  scan [] proc

let order_violations ?filter t =
  violations_against t (forwarded_order ?filter t) ?filter ()

let arrival_order_violations ?filter t =
  violations_against t
    (ids_of_kind t Monitor.Arrival (flow_pred filter t))
    ?filter ()

let first_time t kind pkt =
  for i = t.first_upto to t.len - 1 do
    let k = (pkt_at t i lsl 3) lor (tag_at t i land 7) in
    if not (Hashtbl.mem t.first k) then Hashtbl.add t.first k i
  done;
  t.first_upto <- t.len;
  Hashtbl.find_opt t.first ((pkt lsl 3) lor Monitor.kind_code kind)
  |> Option.map (fun i -> time_at t i)

let added_latency t ~pkt =
  match
    (first_time t Monitor.Nf_arrival pkt, first_time t Monitor.Process pkt)
  with
  | Some arrival, Some proc -> Some (proc -. arrival)
  | _ -> None

let evented_ids ?nf t = ids_of_kind t Monitor.Event (nf_pred nf t)
let buffered_ids ?nf t = ids_of_kind t Monitor.Buffer (nf_pred nf t)
let first_forward_time t ~pkt = first_time t Monitor.Forward pkt
let process_time t ~pkt = first_time t Monitor.Process pkt
