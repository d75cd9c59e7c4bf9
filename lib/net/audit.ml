module Engine = Opennf_sim.Engine
module Trace = Opennf_obs.Trace
module Monitor = Opennf_obs.Monitor

type record = { pkt : int; key : Flow.key; nf : string; time : float }

(* Copy [a] into an array of at least [2 * length a] slots, padded with
   [fill] (a float [fill] makes a flat float array). *)
let grow a fill =
  let n = Array.length a in
  let b = Array.make (Stdlib.max 64 (2 * n)) fill in
  Array.blit a 0 b 0 n;
  b

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
      if i = Array.length t.vals then t.vals <- grow t.vals v;
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

(* One row per record, in emission order. [mirror] is the hub trace when
   it is tracing, else the disabled tracer. *)
type t = {
  engine : Engine.t;
  mirror : Trace.t;
  mutable len : int;
  mutable pkts : int array;
  mutable tags : int array;  (* kind code lor (nf id lsl 3) *)
  mutable flows : int array;
  mutable times : float array;
  keys : Keys.t;
  nfs : Names.t;
  arrived : (int, unit) Hashtbl.t;
  mutable taps : (Monitor.entry -> unit) list;
  (* First-time index: [(pkt lsl 3) lor kind code] -> row of the
     packet's first record of that kind, over rows [0, first_upto). *)
  first : (int, int) Hashtbl.t;
  mutable first_upto : int;
}

let make engine mirror =
  {
    engine;
    mirror;
    len = 0;
    pkts = Array.make 64 0;
    tags = Array.make 64 0;
    flows = Array.make 64 0;
    times = Array.make 64 0.0;
    keys = Keys.create ();
    nfs = Names.create ();
    arrived = Hashtbl.create 1024;
    taps = [];
    first = Hashtbl.create 16;
    first_upto = 0;
  }

let create engine =
  let obs = Engine.obs engine in
  make engine
    (if Opennf_obs.Hub.tracing obs then Opennf_obs.Hub.trace obs
     else Trace.disabled)

let kind_of t i = Monitor.kind_of_code (t.tags.(i) land 7)
let nf_of t i = Names.value t.nfs (t.tags.(i) lsr 3)
let key_of t i = Keys.value t.keys t.flows.(i)

(* Row [i] as a typed entry, its flow id mapped through [flow]. *)
let entry t ~flow i =
  {
    Monitor.kind = kind_of t i;
    pkt = t.pkts.(i);
    nf = nf_of t i;
    flow = flow t.flows.(i);
    vt = t.times.(i);
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

let append t ~pkt ~kind ~nf ~key ~time =
  let i = t.len in
  if i = Array.length t.pkts then begin
    t.pkts <- grow t.pkts 0;
    t.tags <- grow t.tags 0;
    t.flows <- grow t.flows 0;
    t.times <- grow t.times 0.0
  end;
  t.pkts.(i) <- pkt;
  t.tags.(i) <- Monitor.kind_code kind lor (Names.id t.nfs nf lsl 3);
  t.flows.(i) <- Keys.id t.keys key;
  t.times.(i) <- time;
  t.len <- i + 1

let log t kind (p : Packet.t) nf =
  append t ~pkt:p.Packet.id ~kind ~nf ~key:p.Packet.key
    ~time:(Engine.now t.engine);
  if Trace.enabled t.mirror then mirror t kind p.Packet.id nf p.Packet.key;
  match t.taps with
  | [] -> ()
  | taps ->
    let e = entry t ~flow:Fun.id (t.len - 1) in
    List.iter (fun f -> f e) taps

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
      let c = Float.compare srcs.(s1).times.(i1) srcs.(s2).times.(i2) in
      if c <> 0 then c
      else
        let c = Int.compare s1 s2 in
        if c <> 0 then c else Int.compare i1 i2)
    rows;
  Array.iter
    (fun (s, i) ->
      let a = srcs.(s) in
      append t ~pkt:a.pkts.(i) ~kind:(kind_of a i) ~nf:(nf_of a i)
        ~key:(key_of a i) ~time:a.times.(i))
    rows;
  t

let log_switch_arrival t p =
  if not (Hashtbl.mem t.arrived p.Packet.id) then begin
    Hashtbl.add t.arrived p.Packet.id ();
    log t Monitor.Arrival p "sw"
  end

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
    if t.tags.(i) land 7 = code then f i
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
    fun i -> ok.(t.flows.(i))

let nf_pred nf t =
  match nf with
  | None -> fun _ -> true
  | Some n -> (
    match Names.find t.nfs n with
    | None -> fun _ -> false
    | Some id -> fun i -> t.tags.(i) lsr 3 = id)

let ids_of_kind t kind pred =
  let acc = ref [] in
  iter_kind t kind (fun i -> if pred i then acc := t.pkts.(i) :: !acc);
  List.rev !acc

let forwarded_order ?filter t =
  let in_filter = flow_pred filter t in
  let seen = Hashtbl.create 64 in
  ids_of_kind t Monitor.Forward (fun i ->
      in_filter i
      && (not (Hashtbl.mem seen t.pkts.(i)))
      && (Hashtbl.add seen t.pkts.(i) ();
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
    fun i -> ok.(t.tags.(i) lsr 3)
  in
  let processed = Hashtbl.create 1024 in
  iter_kind t Monitor.Process (fun i ->
      if in_nfs i then Hashtbl.replace processed t.pkts.(i) ());
  let in_filter = flow_pred filter t in
  let seen = Hashtbl.create 64 in
  ids_of_kind t Monitor.Forward (fun i ->
      let id = t.pkts.(i) in
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
        let id = t.pkts.(i) in
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
    let k = (t.pkts.(i) lsl 3) lor (t.tags.(i) land 7) in
    if not (Hashtbl.mem t.first k) then Hashtbl.add t.first k i
  done;
  t.first_upto <- t.len;
  Hashtbl.find_opt t.first ((pkt lsl 3) lor Monitor.kind_code kind)
  |> Option.map (fun i -> t.times.(i))

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
