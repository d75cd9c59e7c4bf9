(* Unit tests for the audit ledger itself — the checker the safety
   claims rest on must be right. *)

module Engine = Opennf_sim.Engine
module Hub = Opennf_obs.Hub
module Oracle = Opennf_oracle.Audit_trace
open Opennf_net

let ip = Ipaddr.v
let key = Flow.make ~src:(ip 10 0 0 1) ~dst:(ip 172 16 0 1) ~sport:1 ~dport:80 ()
let other = Flow.make ~src:(ip 9 9 9 9) ~dst:(ip 8 8 8 8) ~sport:2 ~dport:443 ()

let pkt id k = Packet.create ~id ~key:k ~sent_at:0.0 ()

let bed () =
  let e = Engine.create () in
  (e, Audit.create e)

let test_forwarded_order_dedupes () =
  let _, a = bed () in
  Audit.log_forward a (pkt 1 key) ~dst:"nf1";
  Audit.log_forward a (pkt 2 key) ~dst:"nf1";
  Audit.log_forward a (pkt 1 key) ~dst:"nf2" (* relay of 1 *);
  Alcotest.(check (list int)) "first positions kept" [ 1; 2 ]
    (Audit.forwarded_order a)

let test_lost_and_processed () =
  let _, a = bed () in
  Audit.log_forward a (pkt 1 key) ~dst:"nf1";
  Audit.log_forward a (pkt 2 key) ~dst:"nf1";
  Audit.log_forward a (pkt 3 key) ~dst:"elsewhere";
  Audit.log_process a (pkt 1 key) ~nf:"nf1";
  Alcotest.(check (list int)) "2 lost, 3 out of scope" [ 2 ]
    (Audit.lost a ~nfs:[ "nf1" ]);
  Alcotest.(check int) "processed count" 1 (Audit.processed_count ~nf:"nf1" a)

let test_duplicated () =
  let _, a = bed () in
  Audit.log_process a (pkt 1 key) ~nf:"nf1";
  Audit.log_process a (pkt 1 key) ~nf:"nf2";
  Audit.log_process a (pkt 2 key) ~nf:"nf1";
  Alcotest.(check (list int)) "id 1 twice" [ 1 ] (Audit.duplicated a)

let test_order_violations_detects_inversion () =
  let _, a = bed () in
  Audit.log_forward a (pkt 1 key) ~dst:"nf1";
  Audit.log_forward a (pkt 2 key) ~dst:"nf1";
  Audit.log_process a (pkt 2 key) ~nf:"nf1";
  Audit.log_process a (pkt 1 key) ~nf:"nf1";
  Alcotest.(check (list (pair int int))) "inversion found" [ (1, 2) ]
    (Audit.order_violations a)

let test_order_violations_in_order_silent () =
  let _, a = bed () in
  Audit.log_forward a (pkt 1 key) ~dst:"nf1";
  Audit.log_forward a (pkt 2 key) ~dst:"nf1";
  Audit.log_process a (pkt 1 key) ~nf:"nf1";
  Audit.log_process a (pkt 2 key) ~nf:"nf2";
  Alcotest.(check (list (pair int int))) "cross-instance but ordered" []
    (Audit.order_violations a)

let test_order_violations_filtered () =
  let _, a = bed () in
  Audit.log_forward a (pkt 1 key) ~dst:"nf1";
  Audit.log_forward a (pkt 2 other) ~dst:"nf1";
  Audit.log_process a (pkt 2 other) ~nf:"nf1";
  Audit.log_process a (pkt 1 key) ~nf:"nf1";
  (* Globally inverted, but each flow alone is ordered. *)
  Alcotest.(check int) "global inversion" 1
    (List.length (Audit.order_violations a));
  Alcotest.(check (list (pair int int))) "per-flow clean" []
    (Audit.order_violations ~filter:(Filter.of_key key) a)

let test_arrival_vs_forward_order () =
  let _, a = bed () in
  (* Arrives 1 then 2, but 1 is diverted (no forward) and re-injected
     late: forwarding order is 2,1 while arrival order is 1,2. *)
  Audit.log_switch_arrival a (pkt 1 key);
  Audit.log_switch_arrival a (pkt 2 key);
  Audit.log_forward a (pkt 2 key) ~dst:"nf1";
  Audit.log_forward a (pkt 1 key) ~dst:"nf1";
  Audit.log_process a (pkt 2 key) ~nf:"nf1";
  Audit.log_process a (pkt 1 key) ~nf:"nf1";
  Alcotest.(check (list (pair int int))) "fine vs forwarding" []
    (Audit.order_violations a);
  Alcotest.(check (list (pair int int))) "violation vs arrival" [ (1, 2) ]
    (Audit.arrival_order_violations a)

let test_added_latency () =
  let e, a = bed () in
  Engine.schedule e ~delay:1.0 (fun () -> Audit.log_nf_arrival a (pkt 5 key) ~nf:"nf1");
  Engine.schedule e ~delay:1.5 (fun () -> Audit.log_process a (pkt 5 key) ~nf:"nf2");
  Engine.run e;
  match Audit.added_latency a ~pkt:5 with
  | Some l -> Alcotest.(check (float 1e-9)) "0.5s" 0.5 l
  | None -> Alcotest.fail "latency missing"

let test_evented_and_buffered_ids () =
  let _, a = bed () in
  Audit.log_evented a (pkt 1 key) ~nf:"nf1";
  Audit.log_evented a (pkt 2 key) ~nf:"nf2";
  Audit.log_buffered a (pkt 3 key) ~nf:"nf2";
  Alcotest.(check (list int)) "all events" [ 1; 2 ] (Audit.evented_ids a);
  Alcotest.(check (list int)) "per nf" [ 2 ] (Audit.evented_ids ~nf:"nf2" a);
  Alcotest.(check (list int)) "buffered" [ 3 ] (Audit.buffered_ids a)


(* --- columns vs the trace-decoding oracle ---------------------------------- *)

(* Three NFs, and two connections seen in both directions plus a third
   seen one way only. *)
let eq_nfs = [ "nf1"; "nf2"; "nf3" ]
let conn_a =
  Flow.make ~src:(ip 10 0 0 1) ~dst:(ip 172 16 0 1) ~sport:1000 ~dport:80 ()

let conn_b =
  Flow.make ~src:(ip 10 0 0 2) ~dst:(ip 172 16 0 1) ~proto:Flow.Udp ~sport:53
    ~dport:5353 ()

let conn_c =
  Flow.make ~src:(ip 10 9 0 7) ~dst:(ip 172 16 0 9) ~sport:7 ~dport:443 ()

let eq_keys =
  [ conn_a; Flow.reverse conn_a; conn_b; Flow.reverse conn_b; conn_c ]

let eq_filters =
  None
  :: List.map Option.some
       [
         Filter.any;
         Filter.of_key conn_a;
         Filter.of_key (Flow.reverse conn_b);
         Filter.of_key conn_c;
         Filter.of_src_host (ip 10 0 0 2);
         Filter.of_dst_host (ip 172 16 0 1);
       ]

(* A seeded random audit stream: each packet may arrive (sometimes
   twice), is forwarded to a random NF and sometimes relayed to another,
   then arrives, is buffered, raises an event, is processed 0, 1 or 2
   times (lost, clean, duplicated) and may be dropped. Per-packet event
   offsets are random, so processing order often inverts forwarding
   order. [offset] keeps one shard's times disjoint from another's.
   Packet [n] gets id [id_of n]; [on_arrival] sees each switch arrival
   attempt, deduplicated or not. *)
let schedule_stream ?(id_of = Fun.id) ?(on_arrival = ignore) rng e a ~pkts
    ~offset =
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  for n = 1 to pkts do
    let p = pkt (id_of n) (pick eq_keys) in
    let arrive () =
      on_arrival p.Packet.id;
      Audit.log_switch_arrival a p
    in
    let at = ref ((float_of_int n *. 1e-3) +. offset) in
    let step f =
      at := !at +. (float_of_int (1 + Random.State.int rng 40) *. 1e-4);
      Engine.schedule_at e !at f
    in
    let maybe pct f = if Random.State.int rng 100 < pct then step f in
    let nf = pick eq_nfs in
    maybe 80 arrive;
    maybe 10 arrive;
    step (fun () -> Audit.log_forward a p ~dst:nf);
    maybe 20 (fun () -> Audit.log_forward a p ~dst:(pick eq_nfs));
    maybe 90 (fun () -> Audit.log_nf_arrival a p ~nf);
    maybe 20 (fun () -> Audit.log_buffered a p ~nf);
    maybe 30 (fun () -> Audit.log_evented a p ~nf);
    let processes =
      match Random.State.int rng 10 with 0 -> 0 | 1 -> 2 | _ -> 1
    in
    for _ = 1 to processes do
      step (fun () -> Audit.log_process a p ~nf:(pick eq_nfs))
    done;
    maybe 10 (fun () -> Audit.log_drop a p ~nf)
  done

let traced_engine () = Engine.create ~obs:(Hub.create ~trace:true ()) ()
let trace_of e = Hub.trace (Engine.obs e)

let check_first_times label a tr ~ids =
  let opt = Alcotest.(option (float 0.0)) in
  List.iter
    (fun pkt ->
      let l s = Printf.sprintf "%s: %s pkt %d" label s pkt in
      Alcotest.check opt (l "added_latency") (Oracle.added_latency tr ~pkt)
        (Audit.added_latency a ~pkt);
      Alcotest.check opt (l "first_forward_time")
        (Oracle.first_forward_time tr ~pkt)
        (Audit.first_forward_time a ~pkt);
      Alcotest.check opt (l "process_time") (Oracle.process_time tr ~pkt)
        (Audit.process_time a ~pkt))
    ids

(* Every query, every filter and NF restriction, against the oracle. *)
let check_equiv label a tr ~ids =
  let ints s = Alcotest.(check (list int)) (label ^ ": " ^ s) in
  let pairs s = Alcotest.(check (list (pair int int))) (label ^ ": " ^ s) in
  let int s = Alcotest.(check int) (label ^ ": " ^ s) in
  let nfs = None :: List.map Option.some ("nowhere" :: eq_nfs) in
  List.iteri
    (fun fi filter ->
      let s q = Printf.sprintf "%s (filter %d)" q fi in
      ints (s "forwarded_order")
        (Oracle.forwarded_order ?filter tr)
        (Audit.forwarded_order ?filter a);
      List.iter
        (fun nf ->
          ints (s "processed_order")
            (Oracle.processed_order ?filter ?nf tr)
            (Audit.processed_order ?filter ?nf a))
        nfs;
      List.iter
        (fun sub ->
          ints (s "lost")
            (Oracle.lost ?filter tr ~nfs:sub)
            (Audit.lost ?filter a ~nfs:sub))
        [ eq_nfs; [ "nf1" ]; [ "nf2"; "nf3" ]; []; [ "nowhere" ] ];
      ints (s "duplicated") (Oracle.duplicated ?filter tr)
        (Audit.duplicated ?filter a);
      pairs (s "order_violations")
        (Oracle.order_violations ?filter tr)
        (Audit.order_violations ?filter a);
      pairs (s "arrival_order_violations")
        (Oracle.arrival_order_violations ?filter tr)
        (Audit.arrival_order_violations ?filter a))
    eq_filters;
  List.iter
    (fun nf ->
      int "drop_count" (Oracle.drop_count ?nf tr) (Audit.drop_count ?nf a);
      int "processed_count"
        (Oracle.processed_count ?nf tr)
        (Audit.processed_count ?nf a);
      ints "evented_ids" (Oracle.evented_ids ?nf tr) (Audit.evented_ids ?nf a);
      ints "buffered_ids"
        (Oracle.buffered_ids ?nf tr)
        (Audit.buffered_ids ?nf a))
    nfs;
  check_first_times label a tr ~ids

(* The widened streams' packet ids: dense ids past the per-id tables'
   initial capacity, negative ids, sparse huge ids, and the id of packet
   [n - 5] reused by packet [n] with a key of its own draw. *)
let wide_id n =
  match n mod 10 with
  | 3 -> -n
  | 7 -> (1 lsl 40) + (n * 1_000_003)
  | 5 when n > 5 -> n - 5
  | _ -> n

(* Ledger lengths that end a slab and that open the next one: the
   ledger packs 4096 rows per slab, and each boundary of such a slab is
   also one of any smaller power-of-two slab. *)
let slab_edges =
  List.concat_map (fun k -> [ k * 4096; (k * 4096) + 1 ]) [ 1; 2; 3 ]

(* First occurrences, in order. *)
let dedup l =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun x -> (not (Hashtbl.mem seen x)) && (Hashtbl.add seen x (); true))
    l

(* Seeds 1-12: 300 packets, ids 1..300. Seed 13: 3000 packets
   (about 15k rows, past three slabs) with [wide_id] ids, every query
   also checked as the ledger crosses each slab boundary. *)
let test_oracle_equivalence () =
  let exercised = ref (0, 0, 0) and wide_seen = ref (0, 0, 0) in
  for seed = 1 to 13 do
    let wide = seed > 12 in
    let pkts = if wide then 3000 else 300 in
    let id_of = if wide then wide_id else Fun.id in
    let ids =
      if wide then
        -999_999 :: (1 lsl 41) :: List.init 64 (fun i -> wide_id (1 + (i * 47)))
      else List.init (pkts + 2) Fun.id
    in
    let rng = Random.State.make [| seed |] in
    let e = traced_engine () in
    let a = Audit.create e in
    let tr = trace_of e in
    let attempts = ref [] in
    schedule_stream ~id_of
      ~on_arrival:(fun id -> attempts := id :: !attempts)
      rng e a ~pkts ~offset:0.0;
    (* Query mid-stream, so later appends must extend the first-time
       index a query already built. *)
    Engine.schedule_at e 0.15 (fun () ->
        check_first_times (Printf.sprintf "seed %d, mid-run" seed) a tr ~ids);
    if wide then begin
      let rows = ref 0 in
      Audit.on_entry a (fun _ ->
          incr rows;
          if List.mem !rows slab_edges then
            check_equiv (Printf.sprintf "seed %d, %d rows" seed !rows) a tr ~ids)
    end;
    Engine.run e;
    let label = Printf.sprintf "seed %d" seed in
    check_equiv label a tr ~ids;
    Alcotest.(check (list int))
      (label ^ ": one arrival per id, at its first attempt")
      (dedup (List.rev !attempts))
      (List.map (fun (r : Oracle.record) -> r.pkt) (Oracle.records tr "arrival"));
    let l, d, o = !exercised in
    exercised :=
      ( l + List.length (Audit.lost a ~nfs:eq_nfs),
        d + List.length (Audit.duplicated a),
        o + List.length (Audit.order_violations a) );
    if wide then begin
      let fwd = Oracle.records tr "forward" in
      let keys_of id =
        dedup
          (List.filter_map
             (fun (r : Oracle.record) -> if r.pkt = id then Some r.key else None)
             fwd)
      in
      let ids = dedup (List.map (fun (r : Oracle.record) -> r.pkt) fwd) in
      let n, h, r = !wide_seen in
      wide_seen :=
        ( n + List.length (List.filter (fun id -> id < 0) ids),
          h + List.length (List.filter (fun id -> id >= 1 lsl 40) ids),
          r
          + List.length
              (List.filter
                 (fun id -> id mod 10 = 0 && List.length (keys_of id) > 1)
                 ids) )
    end
  done;
  let l, d, o = !exercised and n, h, r = !wide_seen in
  Alcotest.(check bool)
    (Printf.sprintf
       "exercises lost (%d), duplicated (%d), reordered (%d), negative (%d), \
        huge (%d) and two-key (%d) ids"
       l d o n h r)
    true
    (l > 0 && d > 0 && o > 0 && n > 0 && h > 0 && r > 0)

let rec permutations = function
  | [] -> [ [] ]
  | l ->
    List.concat_map
      (fun x ->
        List.map (List.cons x) (permutations (List.filter (fun y -> y != x) l)))
      l

(* Three shard ledgers with disjoint record times, merged in every
   shard order: each merge answers every query like the oracle's merge
   of the shard traces, and holds the same rows as the identity order's. *)
let test_merged_equivalence () =
  let pkts = 120 in
  let rng = Random.State.make [| 42 |] in
  let shards =
    List.init 3 (fun s ->
        let e = traced_engine () in
        let a = Audit.create e in
        schedule_stream rng e a ~pkts ~offset:(float_of_int s *. 1e-6);
        Engine.run e;
        (s, a, trace_of e))
  in
  let oracle_merge perm =
    Oracle.merged (List.map (fun (_, _, tr) -> tr) perm)
  in
  let kinds =
    [ "arrival"; "forward"; "nf_arrival"; "process"; "drop"; "event"; "buffer" ]
  in
  let rows tr = List.map (Oracle.records tr) kinds in
  let reference = rows (oracle_merge shards) in
  List.iter
    (fun perm ->
      let label =
        "merged "
        ^ String.concat "" (List.map (fun (s, _, _) -> string_of_int s) perm)
      in
      let merged =
        Audit.merged (Engine.create ()) (List.map (fun (_, a, _) -> a) perm)
      in
      let otr = oracle_merge perm in
      check_equiv label merged otr ~ids:(List.init (pkts + 2) Fun.id);
      Alcotest.(check bool)
        (label ^ ": same rows as the identity order")
        true
        (rows otr = reference))
    (permutations shards)

(* --- ledger edge cases --------------------------------------------------- *)

(* Forward then process for ids 0..n-1 (two rows each, about six slabs),
   alternating flows, at distinct times: every query reads the rows
   back, and the rows on either side of each slab boundary decode
   exactly. *)
let test_rows_across_slabs () =
  let n = (3 * 4096) + 3 in
  let e, a = bed () in
  let time id = float_of_int id *. 0.5e-3 in
  let key_of id = if id land 1 = 0 then key else other in
  let seen = Hashtbl.create 64 in
  Audit.on_record a (fun kind r -> Hashtbl.replace seen (kind, r.Audit.pkt) r);
  for id = 0 to n - 1 do
    Engine.schedule_at e (time id) (fun () ->
        let p = pkt id (key_of id) in
        Audit.log_forward a p ~dst:"nf1";
        Audit.log_process a p ~nf:(if id mod 3 = 0 then "nf2" else "nf1"))
  done;
  Engine.run e;
  let all = List.init n Fun.id in
  Alcotest.(check (list int)) "forwarded_order" all (Audit.forwarded_order a);
  Alcotest.(check (list int)) "processed_order" all (Audit.processed_order a);
  Alcotest.(check (list int))
    "processed_order, one flow"
    (List.filter (fun id -> id land 1 = 1) all)
    (Audit.processed_order ~filter:(Filter.of_key other) a);
  Alcotest.(check (list int))
    "processed_order, one NF"
    (List.filter (fun id -> id mod 3 = 0) all)
    (Audit.processed_order ~nf:"nf2" a);
  Alcotest.(check int) "processed_count" n (Audit.processed_count a);
  Alcotest.(check (list int)) "nothing lost" []
    (Audit.lost a ~nfs:[ "nf1"; "nf2" ]);
  (* Row 2 id is id's forward, row 2 id + 1 its process. *)
  List.iter
    (fun k ->
      for row = (k * 4096) - 2 to (k * 4096) + 1 do
        let id = row / 2 in
        let l s = Printf.sprintf "row %d (pkt %d): %s" row id s in
        Alcotest.(check (option (float 0.0)))
          (l "first_forward_time") (Some (time id))
          (Audit.first_forward_time a ~pkt:id);
        Alcotest.(check (option (float 0.0)))
          (l "added_latency") None (Audit.added_latency a ~pkt:id);
        let kind = if row land 1 = 0 then "forward" else "process" in
        let r = Hashtbl.find seen (kind, id) in
        Alcotest.(check bool) (l "flow") true (Flow.equal r.Audit.key (key_of id));
        Alcotest.(check (float 0.0)) (l "time") (time id) r.Audit.time
      done)
    [ 1; 2; 3; 4; 5; 6 ]

(* Dense ids far past the per-id tables' initial capacity, each
   arriving twice: one arrival each, and each id keeps its own flow. *)
let test_ids_past_capacity () =
  let e = traced_engine () in
  let a = Audit.create e in
  let ids = List.init 3000 (fun i -> i * 7) in
  let key_of id = if id mod 3 = 0 then key else other in
  List.iter
    (fun id ->
      let p = pkt id (key_of id) in
      Audit.log_switch_arrival a p;
      Audit.log_forward a p ~dst:"nf1";
      Audit.log_switch_arrival a p)
    ids;
  Alcotest.(check (list int))
    "one arrival per id" ids
    (List.map (fun (r : Oracle.record) -> r.pkt) (Oracle.records (trace_of e) "arrival"));
  Alcotest.(check (list int))
    "forwarded_order, one flow"
    (List.filter (fun id -> id mod 3 = 0) ids)
    (Audit.forwarded_order ~filter:(Filter.of_key key) a);
  Alcotest.(check (list (pair int int))) "arrival order kept" []
    (Audit.arrival_order_violations a)

(* Negative and sparse huge ids take the hashed path: deduplicated and
   queryable like dense ones, and logging them allocates nothing in
   proportion to the id. An id hashed while it lies past the dense bound
   stays deduplicated once the ledger's growth makes it dense. *)
let test_negative_and_sparse_ids () =
  let _, a = bed () in
  let odd = [ -1; -7; min_int; 1 lsl 40; (1 lsl 40) + 1; max_int ] in
  List.iter
    (fun id ->
      let p = pkt id other in
      Audit.log_switch_arrival a p;
      Audit.log_switch_arrival a p;
      Audit.log_forward a p ~dst:"nf1";
      Audit.log_process a p ~nf:"nf1")
    odd;
  let arrivals = ref 0 in
  Audit.on_record a (fun kind _ -> if kind = "arrival" then incr arrivals);
  List.iter (fun id -> Audit.log_switch_arrival a (pkt id other)) odd;
  Alcotest.(check int) "no second arrival" 0 !arrivals;
  Alcotest.(check (list int)) "forwarded_order" odd (Audit.forwarded_order a);
  Alcotest.(check (list int)) "processed_order" odd (Audit.processed_order a);
  Alcotest.(check (list int)) "nothing lost" [] (Audit.lost a ~nfs:[ "nf1" ]);
  Alcotest.(check (option (float 0.0))) "first_forward_time" (Some 0.0)
    (Audit.first_forward_time a ~pkt:(1 lsl 40));
  (* A minor collection settles the allocation counters. *)
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  for k = 1 to 1000 do
    let p = pkt ((1 lsl 40) + (k lsl 24)) key in
    Audit.log_switch_arrival a p;
    Audit.log_forward a p ~dst:"nf1"
  done;
  Gc.minor ();
  let bytes = Gc.allocated_bytes () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "1000 sparse ids allocate %.0f bytes, under 1 MB" bytes)
    true (bytes < 1e6);
  (* [late] is past the dense bound now; 40k more rows bring it inside. *)
  let late = 100_000 in
  Audit.log_switch_arrival a (pkt late key);
  for id = 0 to 19_999 do
    Audit.log_forward a (pkt id key) ~dst:"nf1";
    Audit.log_process a (pkt id key) ~nf:"nf1"
  done;
  arrivals := 0;
  Audit.log_switch_arrival a (pkt late key);
  Alcotest.(check int) "late id still deduplicated" 0 !arrivals

(* One id logged under two keys (a trace merged from two generators
   reuses ids): the per-id flow cache must not pin the first key, so
   both flows are interned and each record keeps its own. *)
let test_reused_id_two_keys () =
  let _, a = bed () in
  let flows = ref [] in
  Audit.on_entry a (fun en -> flows := en.Opennf_obs.Monitor.flow :: !flows);
  List.iter
    (fun k ->
      Audit.log_forward a (pkt 7 k) ~dst:"nf1";
      Audit.log_process a (pkt 7 k) ~nf:"nf1")
    [ key; other; key; other ];
  let k = "10.0.0.1:1->172.16.0.1:80/tcp" and o = "9.9.9.9:2->8.8.8.8:443/tcp" in
  Alcotest.(check (list string))
    "each record keeps its key"
    [ k; k; o; o; k; k; o; o ]
    (List.rev_map (Audit.flow_name a) !flows);
  Alcotest.(check int) "two flows interned" 2
    (List.length (List.sort_uniq compare !flows));
  List.iter
    (fun k ->
      let filter = Filter.of_key k in
      Alcotest.(check (list int)) "forwarded under each key" [ 7 ]
        (Audit.forwarded_order ~filter a);
      Alcotest.(check (list int)) "processed under each key" [ 7; 7 ]
        (Audit.processed_order ~filter a))
    [ key; other ];
  Alcotest.(check (list int)) "duplicated" [ 7 ] (Audit.duplicated a)

let suite =
  [
    Alcotest.test_case "forwarded order dedupes relays" `Quick
      test_forwarded_order_dedupes;
    Alcotest.test_case "lost/processed accounting" `Quick test_lost_and_processed;
    Alcotest.test_case "duplicate detection" `Quick test_duplicated;
    Alcotest.test_case "order violation detection" `Quick
      test_order_violations_detects_inversion;
    Alcotest.test_case "ordered runs are silent" `Quick
      test_order_violations_in_order_silent;
    Alcotest.test_case "per-flow filtering" `Quick test_order_violations_filtered;
    Alcotest.test_case "arrival vs forwarding order" `Quick
      test_arrival_vs_forward_order;
    Alcotest.test_case "added latency" `Quick test_added_latency;
    Alcotest.test_case "evented/buffered queries" `Quick
      test_evented_and_buffered_ids;
    Alcotest.test_case "columns == trace-decoding oracle (randomized)" `Quick
      test_oracle_equivalence;
    Alcotest.test_case "merged == oracle merge, any shard order" `Quick
      test_merged_equivalence;
    Alcotest.test_case "rows across slab boundaries" `Quick
      test_rows_across_slabs;
    Alcotest.test_case "dense ids past initial capacity" `Quick
      test_ids_past_capacity;
    Alcotest.test_case "negative and sparse huge ids" `Quick
      test_negative_and_sparse_ids;
    Alcotest.test_case "one id, two keys" `Quick test_reused_id_two_keys;
  ]
