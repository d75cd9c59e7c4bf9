(* Reference implementations in the seed's unindexed shape: a linear
   scan for the flow table and the runtime's event filters and
   tombstones, fold-and-sort for the state stores, trace folds for the
   audit ledger. *)

open Opennf_net
open Opennf_state

(* Highest priority wins; among equal priorities the newest install
   does. [Flowtable.rules] lists newest first, so the first rule of the
   best priority is the winner. Does not touch the [matched] counters. *)
let lookup table p =
  List.fold_left
    (fun best (r : Flowtable.rule) ->
      if not (List.exists (fun f -> Filter.matches_packet f p) r.filters) then
        best
      else
        match best with
        | Some (b : Flowtable.rule) when b.priority >= r.priority -> best
        | _ -> Some r)
    None (Flowtable.rules table)

let perflow_matching store filter =
  Store.Perflow.fold store ~init:[] ~f:(fun k v acc ->
      if Filter.matches_flow filter k then (k, v) :: acc else acc)
  |> List.sort (fun (a, _) (b, _) -> Flow.compare a b)

let per_host_matching store filter =
  Store.Per_host.fold store ~init:[] ~f:(fun ip v acc ->
      if Filter.matches_host filter ip then (ip, v) :: acc else acc)
  |> List.sort (fun (a, _) (b, _) -> Ipaddr.compare a b)

(* [relevant] is the predicate the store was created with. *)
let keyed_matching ~relevant store filter =
  Store.Keyed.fold store ~init:[] ~f:(fun k v acc ->
      if relevant filter k v then (k, v) :: acc else acc)
  |> List.sort compare

(* The NF runtime's event filters and tombstones as newest-first lists,
   scanned per packet: a packet gets the first (newest) filter that
   matches, and disabling a filter releases the buffers of the removed
   filters oldest first. Same interface as [Opennf_sb.Event_filters]. *)
module Event_filters = struct
  module E = Opennf_sb.Event_filters

  type t = { mutable filters : E.entry list; mutable next_seq : int }

  let create () = { filters = []; next_seq = 0 }

  let add t ?parent filter action =
    t.filters <-
      { E.filter; action; parent; seq = t.next_seq; buffer = Queue.create () }
      :: t.filters;
    t.next_seq <- t.next_seq + 1

  let find t (p : Packet.t) =
    List.find_opt
      (fun (ef : E.entry) ->
        Filter.matches_flow ef.filter p.key
        &&
        match ef.filter.tcp_flag with
        | None -> true
        | Some f -> Packet.has_flag p f)
      t.filters

  let disable t filter =
    let keep, drop =
      List.partition
        (fun (ef : E.entry) ->
          not
            (Filter.equal ef.filter filter
            || match ef.parent with
               | Some p -> Filter.equal p filter
               | None -> false))
        t.filters
    in
    t.filters <- keep;
    List.rev drop

  let buffered t =
    List.fold_left (fun acc (ef : E.entry) -> acc + Queue.length ef.buffer) 0
      t.filters

  module Tombstones = struct
    type t = { mutable flowids : Filter.t list }

    let create () = { flowids = [] }
    let add t flowid = t.flowids <- flowid :: t.flowids

    let matches t k =
      List.exists (fun f -> Filter.matches_flow f k) t.flowids

    let clear_for t flowid =
      t.flowids <-
        List.filter (fun f -> not (Filter.accepts_flowid f flowid)) t.flowids
  end
end

(* The audit ledger's queries as folds over a tracing hub's buffer: each
   record is an audit instant (cat "audit") whose positional attributes
   (pkt, nf, src, dst, proto, sport, dport) are decoded per query. Same
   query interface as [Audit], with the trace in place of the ledger. *)
module Audit_trace = struct
  module Trace = Opennf_obs.Trace

  type record = { pkt : int; key : Flow.key; nf : string; time : float }

  let proto_of_code = function 17 -> Flow.Udp | 1 -> Flow.Icmp | _ -> Flow.Tcp

  let decode (ev : Trace.ev) =
    let a = ev.Trace.attrs in
    let int i = match snd a.(i) with Trace.Int v -> v | _ -> 0 in
    let str i = match snd a.(i) with Trace.Str s -> s | _ -> "" in
    {
      pkt = int 0;
      nf = str 1;
      key =
        Flow.make
          ~src:(Ipaddr.of_int (int 2))
          ~dst:(Ipaddr.of_int (int 3))
          ~proto:(proto_of_code (int 4))
          ~sport:(int 5) ~dport:(int 6) ();
      time = ev.Trace.vt;
    }

  let is_audit (ev : Trace.ev) =
    ev.Trace.kind = Trace.Instant && ev.Trace.cat = "audit"

  (* Chronological records of one kind: the buffer is in emission
     order, so one forward scan suffices. *)
  let records tr wanted =
    List.rev
      (Trace.fold tr
         (fun acc ev ->
           if is_audit ev && ev.Trace.name = wanted then decode ev :: acc
           else acc)
         [])

  (* The old [Audit.merged]: the audit instants of several buffers
     re-recorded into one in (virtual time, source index, position)
     order. *)
  let merged sources =
    let cursor = ref 0.0 in
    let tr = Trace.create () in
    Trace.set_clock tr (fun () -> !cursor);
    let evs = ref [] in
    List.iteri
      (fun src t ->
        let pos = ref 0 in
        Trace.iter t (fun ev ->
            if is_audit ev then begin
              evs := (ev.Trace.vt, src, !pos, ev) :: !evs;
              incr pos
            end))
      sources;
    List.iter
      (fun ((vt : float), _, _, (ev : Trace.ev)) ->
        cursor := vt;
        Trace.instant tr ~cat:"audit" ~name:ev.Trace.name
          ~attrs:ev.Trace.attrs ())
      (List.sort compare (List.rev !evs));
    tr

  let in_filter filter (r : record) =
    match filter with None -> true | Some f -> Filter.matches_flow f r.key

  let by_nf nf (r : record) = match nf with None -> true | Some n -> r.nf = n

  let first_time tr wanted pkt =
    List.find_map
      (fun r -> if r.pkt = pkt then Some r.time else None)
      (records tr wanted)

  let forwarded_order ?filter tr =
    let seen = Hashtbl.create 64 in
    List.filter_map
      (fun r ->
        if in_filter filter r && not (Hashtbl.mem seen r.pkt) then begin
          Hashtbl.add seen r.pkt ();
          Some r.pkt
        end
        else None)
      (records tr "forward")

  let processed_order ?filter ?nf tr =
    List.filter_map
      (fun r -> if in_filter filter r && by_nf nf r then Some r.pkt else None)
      (records tr "process")

  let drop_count ?nf tr =
    List.length (List.filter (by_nf nf) (records tr "drop"))

  let processed_count ?nf tr =
    List.length (List.filter (by_nf nf) (records tr "process"))

  let lost ?filter tr ~nfs =
    let processed = Hashtbl.create 1024 in
    List.iter
      (fun r -> if List.mem r.nf nfs then Hashtbl.replace processed r.pkt ())
      (records tr "process");
    let seen = Hashtbl.create 64 in
    List.filter_map
      (fun r ->
        if
          in_filter filter r
          && List.mem r.nf nfs
          && (not (Hashtbl.mem seen r.pkt))
          && not (Hashtbl.mem processed r.pkt)
        then begin
          Hashtbl.add seen r.pkt ();
          Some r.pkt
        end
        else None)
      (records tr "forward")

  let duplicated ?filter tr =
    let counts = Hashtbl.create 1024 in
    List.iter
      (fun r ->
        if in_filter filter r then
          Hashtbl.replace counts r.pkt
            (1 + Option.value ~default:0 (Hashtbl.find_opt counts r.pkt)))
      (records tr "process");
    Hashtbl.fold (fun id n acc -> if n > 1 then id :: acc else acc) counts []

  let violations_against tr reference_order ?filter () =
    let pos = Hashtbl.create 1024 in
    List.iteri (fun i id -> Hashtbl.replace pos id i) reference_order;
    let proc =
      List.filter (fun id -> Hashtbl.mem pos id) (processed_order ?filter tr)
    in
    let rec scan acc = function
      | a :: (b :: _ as rest) ->
        let pa = Hashtbl.find pos a and pb = Hashtbl.find pos b in
        scan (if pa > pb then (b, a) :: acc else acc) rest
      | [ _ ] | [] -> List.rev acc
    in
    scan [] proc

  let order_violations ?filter tr =
    violations_against tr (forwarded_order ?filter tr) ?filter ()

  let arrival_order_violations ?filter tr =
    let arrivals =
      List.filter_map
        (fun r -> if in_filter filter r then Some r.pkt else None)
        (records tr "arrival")
    in
    violations_against tr arrivals ?filter ()

  let added_latency tr ~pkt =
    match (first_time tr "nf_arrival" pkt, first_time tr "process" pkt) with
    | Some arrival, Some proc -> Some (proc -. arrival)
    | _ -> None

  let evented_ids ?nf tr =
    List.filter_map
      (fun r -> if by_nf nf r then Some r.pkt else None)
      (records tr "event")

  let buffered_ids ?nf tr =
    List.filter_map
      (fun r -> if by_nf nf r then Some r.pkt else None)
      (records tr "buffer")

  let first_forward_time tr ~pkt = first_time tr "forward" pkt
  let process_time tr ~pkt = first_time tr "process" pkt
end
