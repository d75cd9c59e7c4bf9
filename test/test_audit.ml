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
   order. [offset] keeps one shard's times disjoint from another's. *)
let schedule_stream rng e a ~pkts ~offset =
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  for id = 1 to pkts do
    let p = pkt id (pick eq_keys) in
    let at = ref ((float_of_int id *. 1e-3) +. offset) in
    let step f =
      at := !at +. (float_of_int (1 + Random.State.int rng 40) *. 1e-4);
      Engine.schedule_at e !at f
    in
    let maybe pct f = if Random.State.int rng 100 < pct then step f in
    let nf = pick eq_nfs in
    maybe 80 (fun () -> Audit.log_switch_arrival a p);
    maybe 10 (fun () -> Audit.log_switch_arrival a p);
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

let check_first_times label a tr ~pkts =
  let opt = Alcotest.(option (float 0.0)) in
  for pkt = 0 to pkts + 1 do
    let l s = Printf.sprintf "%s: %s pkt %d" label s pkt in
    Alcotest.check opt (l "added_latency") (Oracle.added_latency tr ~pkt)
      (Audit.added_latency a ~pkt);
    Alcotest.check opt (l "first_forward_time")
      (Oracle.first_forward_time tr ~pkt)
      (Audit.first_forward_time a ~pkt);
    Alcotest.check opt (l "process_time") (Oracle.process_time tr ~pkt)
      (Audit.process_time a ~pkt)
  done

(* Every query, every filter and NF restriction, against the oracle. *)
let check_equiv label a tr ~pkts =
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
  check_first_times label a tr ~pkts

let test_oracle_equivalence () =
  let pkts = 300 in
  let exercised = ref (0, 0, 0) in
  for seed = 1 to 12 do
    let rng = Random.State.make [| seed |] in
    let e = traced_engine () in
    let a = Audit.create e in
    let tr = trace_of e in
    schedule_stream rng e a ~pkts ~offset:0.0;
    (* Query mid-stream, so later appends must extend the first-time
       index a query already built. *)
    Engine.schedule_at e 0.15 (fun () ->
        check_first_times (Printf.sprintf "seed %d, mid-run" seed) a tr ~pkts);
    Engine.run e;
    check_equiv (Printf.sprintf "seed %d" seed) a tr ~pkts;
    let l, d, o = !exercised in
    exercised :=
      ( l + List.length (Audit.lost a ~nfs:eq_nfs),
        d + List.length (Audit.duplicated a),
        o + List.length (Audit.order_violations a) )
  done;
  let l, d, o = !exercised in
  Alcotest.(check bool)
    (Printf.sprintf "exercises lost (%d), duplicated (%d), reordered (%d) ids"
       l d o)
    true
    (l > 0 && d > 0 && o > 0)

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
      check_equiv label merged otr ~pkts;
      Alcotest.(check bool)
        (label ^ ": same rows as the identity order")
        true
        (rows otr = reference))
    (permutations shards)

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
  ]
