(* Tests for the network substrate: addresses, flows, filters, flow
   tables, channels and the SDN switch. *)

module Engine = Opennf_sim.Engine
open Opennf_net

let ip = Ipaddr.v

(* --- ipaddr -------------------------------------------------------------- *)

let test_ip_string_roundtrip () =
  List.iter
    (fun s ->
      Alcotest.(check string) "roundtrip" s
        (Ipaddr.to_string (Ipaddr.of_string s)))
    [ "0.0.0.0"; "10.1.2.3"; "255.255.255.255"; "192.168.0.1" ]

let test_ip_rejects_bad () =
  List.iter
    (fun s ->
      Alcotest.(check bool) ("rejects " ^ s) true
        (try
           ignore (Ipaddr.of_string s);
           false
         with Invalid_argument _ -> true))
    [ "10.0.0"; "1.2.3.4.5"; "256.0.0.1"; "a.b.c.d"; "" ]

let test_prefix_membership () =
  let p = Ipaddr.Prefix.of_string "10.1.0.0/16" in
  Alcotest.(check bool) "inside" true (Ipaddr.Prefix.mem (ip 10 1 200 7) p);
  Alcotest.(check bool) "outside" false (Ipaddr.Prefix.mem (ip 10 2 0 1) p);
  let all = Ipaddr.Prefix.of_string "0.0.0.0/0" in
  Alcotest.(check bool) "/0 matches all" true (Ipaddr.Prefix.mem (ip 9 9 9 9) all)

let test_prefix_subset () =
  let p16 = Ipaddr.Prefix.of_string "10.1.0.0/16" in
  let p24 = Ipaddr.Prefix.of_string "10.1.5.0/24" in
  Alcotest.(check bool) "/24 in /16" true (Ipaddr.Prefix.subset p24 p16);
  Alcotest.(check bool) "/16 not in /24" false (Ipaddr.Prefix.subset p16 p24);
  Alcotest.(check bool) "self" true (Ipaddr.Prefix.subset p16 p16)

let test_prefix_normalizes_host_bits () =
  let p = Ipaddr.Prefix.make (ip 10 1 2 3) 16 in
  Alcotest.(check string) "zeroed" "10.1.0.0/16" (Ipaddr.Prefix.to_string p)

(* --- flow ----------------------------------------------------------------- *)

let key = Flow.make ~src:(ip 10 0 0 1) ~dst:(ip 172 16 0 1) ~sport:1234 ~dport:80 ()

let test_flow_canonical_involution () =
  Alcotest.(check bool) "canonical(k) = canonical(rev k)" true
    (Flow.equal (Flow.canonical key) (Flow.canonical (Flow.reverse key)))

let test_flow_reverse_involution () =
  Alcotest.(check bool) "rev rev = id" true
    (Flow.equal key (Flow.reverse (Flow.reverse key)))

let flow_arbitrary =
  QCheck.make
    ~print:(fun k -> Flow.to_string k)
    QCheck.Gen.(
      let ip_gen = map Ipaddr.of_int (int_bound 0xFFFFFF) in
      let port = int_bound 65535 in
      map
        (fun (src, dst, sport, dport) -> Flow.make ~src ~dst ~sport ~dport ())
        (quad ip_gen ip_gen port port))

let flow_canonical_prop =
  QCheck.Test.make ~name:"flow canonical direction-independent" ~count:500
    flow_arbitrary (fun k ->
      Flow.equal (Flow.canonical k) (Flow.canonical (Flow.reverse k)))

let flow_hash_consistent_prop =
  QCheck.Test.make ~name:"flow equal implies same hash" ~count:500
    flow_arbitrary (fun k -> Flow.hash k = Flow.hash { k with Flow.src_ip = k.Flow.src_ip })

(* --- filter ---------------------------------------------------------------- *)

let test_filter_any_matches () =
  Alcotest.(check bool) "any" true (Filter.matches_key Filter.any key)

let test_filter_directed_vs_flow () =
  let f = Filter.of_src_host (ip 10 0 0 1) in
  Alcotest.(check bool) "directed forward" true (Filter.matches_key f key);
  Alcotest.(check bool) "directed reverse" false
    (Filter.matches_key f (Flow.reverse key));
  Alcotest.(check bool) "flow-level both" true
    (Filter.matches_flow f (Flow.reverse key))

let test_filter_ports_proto () =
  let f = Filter.make ~proto:Flow.Tcp ~dst_port:80 () in
  Alcotest.(check bool) "matches" true (Filter.matches_key f key);
  let f2 = Filter.make ~dst_port:443 () in
  Alcotest.(check bool) "port mismatch" false (Filter.matches_key f2 key)

let test_filter_tcp_flag () =
  let f = Filter.make ~proto:Flow.Tcp ~tcp_flag:Packet.Syn () in
  let syn = Packet.create ~id:1 ~key ~flags:[ Syn ] ~sent_at:0.0 () in
  let ack = Packet.create ~id:2 ~key ~flags:[ Ack ] ~sent_at:0.0 () in
  Alcotest.(check bool) "syn matches" true (Filter.matches_packet f syn);
  Alcotest.(check bool) "ack does not" false (Filter.matches_packet f ack)

let test_filter_mirror () =
  let f = Filter.make ~src:(Ipaddr.Prefix.of_string "10.0.0.0/8") ~dst_port:80 () in
  let m = Filter.mirror f in
  Alcotest.(check bool) "mirrored dst" true
    (m.Filter.dst = Some (Ipaddr.Prefix.of_string "10.0.0.0/8"));
  Alcotest.(check bool) "mirrored sport" true (m.Filter.src_port = Some 80);
  Alcotest.(check bool) "double mirror" true (Filter.equal f (Filter.mirror m))

let test_filter_symmetric () =
  Alcotest.(check bool) "any symmetric" true (Filter.is_symmetric Filter.any);
  Alcotest.(check bool) "src filter not" false
    (Filter.is_symmetric (Filter.of_src_host (ip 1 2 3 4)))

let test_accepts_flowid () =
  let prefix_filter = Filter.of_src_prefix (Ipaddr.Prefix.of_string "10.0.0.0/8") in
  let flowid = Filter.of_key key in
  Alcotest.(check bool) "per-flow flowid accepted" true
    (Filter.accepts_flowid prefix_filter flowid);
  let host_flowid = Filter.of_src_host (ip 10 0 0 1) in
  Alcotest.(check bool) "host flowid accepted" true
    (Filter.accepts_flowid prefix_filter host_flowid);
  let other = Filter.of_src_host (ip 203 0 113 1) in
  (* Fields absent from the flowid are ignored: a dst-less flowid is
     accepted by mirror matching only through absent fields, so a
     completely foreign host is still rejected on the direct side but
     accepted via the mirror's wildcard — the filter cannot rule it out.
     Per-flow flowids (full 5-tuples) are exact. *)
  let full_other =
    Filter.of_key
      (Flow.make ~src:(ip 203 0 113 1) ~dst:(ip 203 0 113 2) ~sport:1 ~dport:2 ())
  in
  Alcotest.(check bool) "foreign 5-tuple rejected" false
    (Filter.accepts_flowid prefix_filter full_other);
  ignore other

let test_filter_exact_key () =
  Alcotest.(check (option string)) "full 5-tuple recovered"
    (Some (Flow.to_string key))
    (Option.map Flow.to_string (Filter.exact_key (Filter.of_key key)));
  Alcotest.(check bool) "partial filter has no key" true
    (Filter.exact_key (Filter.of_src_host (ip 1 1 1 1)) = None)

let test_filter_app_field () =
  let flowid = Filter.of_app "/objects/a" in
  Alcotest.(check bool) "app flowid self-accepted" true
    (Filter.accepts_flowid (Filter.of_app "/objects/a") flowid);
  Alcotest.(check bool) "different url rejected" false
    (Filter.accepts_flowid (Filter.of_app "/objects/b") flowid);
  Alcotest.(check bool) "wildcard accepts" true
    (Filter.accepts_flowid Filter.any flowid)

let accepts_own_flowid_prop =
  QCheck.Test.make ~name:"filter accepts its own flows' flowids" ~count:500
    flow_arbitrary (fun k ->
      Filter.accepts_flowid (Filter.of_key k) (Filter.of_key k)
      && Filter.accepts_flowid Filter.any (Filter.of_key k)
      && Filter.accepts_flowid
           (Filter.of_src_host k.Flow.src_ip)
           (Filter.of_key k))

let matches_flow_symmetric_prop =
  QCheck.Test.make ~name:"matches_flow is direction-independent" ~count:500
    flow_arbitrary (fun k ->
      let f = Filter.of_src_host k.Flow.src_ip in
      Filter.matches_flow f k = Filter.matches_flow f (Flow.reverse k))

(* --- flowtable ----------------------------------------------------------- *)

let pkt ?(flags = []) k = Packet.create ~id:0 ~key:k ~flags ~sent_at:0.0 ()

let test_flowtable_priority () =
  let t = Flowtable.create () in
  Flowtable.install t ~cookie:1 ~priority:100 ~filters:[ Filter.any ]
    ~actions:[ Flowtable.Forward "low" ];
  Flowtable.install t ~cookie:2 ~priority:200 ~filters:[ Filter.of_key key ]
    ~actions:[ Flowtable.Forward "high" ];
  (match Flowtable.lookup t (pkt key) with
  | Some r -> Alcotest.(check int) "high priority wins" 2 r.Flowtable.cookie
  | None -> Alcotest.fail "no match");
  let other = Flow.make ~src:(ip 9 9 9 9) ~dst:(ip 8 8 8 8) ~sport:1 ~dport:2 () in
  match Flowtable.lookup t (pkt other) with
  | Some r -> Alcotest.(check int) "fallback" 1 r.Flowtable.cookie
  | None -> Alcotest.fail "no fallback"

let test_flowtable_replace_cookie () =
  let t = Flowtable.create () in
  Flowtable.install t ~cookie:7 ~priority:100 ~filters:[ Filter.any ]
    ~actions:[ Flowtable.Forward "a" ];
  Flowtable.install t ~cookie:7 ~priority:100 ~filters:[ Filter.any ]
    ~actions:[ Flowtable.Forward "b" ];
  Alcotest.(check int) "one rule" 1 (Flowtable.size t);
  match Flowtable.lookup t (pkt key) with
  | Some { Flowtable.actions = [ Flowtable.Forward "b" ]; _ } -> ()
  | _ -> Alcotest.fail "replacement not in effect"

let test_flowtable_tie_latest_wins () =
  let t = Flowtable.create () in
  Flowtable.install t ~cookie:1 ~priority:100 ~filters:[ Filter.any ]
    ~actions:[ Flowtable.Forward "first" ];
  Flowtable.install t ~cookie:2 ~priority:100 ~filters:[ Filter.any ]
    ~actions:[ Flowtable.Forward "second" ];
  match Flowtable.lookup t (pkt key) with
  | Some r -> Alcotest.(check int) "latest wins tie" 2 r.Flowtable.cookie
  | None -> Alcotest.fail "no match"

let test_flowtable_remove_and_counters () =
  let t = Flowtable.create () in
  Flowtable.install t ~cookie:1 ~priority:100 ~filters:[ Filter.any ]
    ~actions:[ Flowtable.Forward "x" ];
  ignore (Flowtable.lookup t (pkt key));
  ignore (Flowtable.lookup t (pkt key));
  (match Flowtable.find t ~cookie:1 with
  | Some r -> Alcotest.(check int) "matched counter" 2 r.Flowtable.matched
  | None -> Alcotest.fail "rule missing");
  Flowtable.remove t ~cookie:1;
  Alcotest.(check bool) "removed" true (Flowtable.lookup t (pkt key) = None)

let test_flowtable_multi_filter_rule () =
  let t = Flowtable.create () in
  Flowtable.install t ~cookie:1 ~priority:100
    ~filters:[ Filter.of_key key; Filter.of_key (Flow.reverse key) ]
    ~actions:[ Flowtable.Forward "nf" ];
  Alcotest.(check bool) "forward dir" true (Flowtable.lookup t (pkt key) <> None);
  Alcotest.(check bool) "reverse dir" true
    (Flowtable.lookup t (pkt (Flow.reverse key)) <> None)

(* --- channel ---------------------------------------------------------------- *)

let test_channel_latency_and_order () =
  let e = Engine.create () in
  let log = ref [] in
  let ch = Channel.create e ~latency:0.010 ~name:"t" () in
  Channel.set_handler ch (fun v -> log := (Engine.now e, v) :: !log);
  Channel.send ch 1;
  Engine.schedule e ~delay:0.001 (fun () -> Channel.send ch 2);
  Engine.run e;
  Alcotest.(check (list (pair (float 1e-9) int)))
    "latency + order"
    [ (0.010, 1); (0.011, 2) ]
    (List.rev !log)

let test_channel_bandwidth_serializes () =
  let e = Engine.create () in
  let log = ref [] in
  let ch = Channel.create e ~latency:0.0 ~bandwidth:1000.0 ~name:"t" () in
  Channel.set_handler ch (fun v -> log := (Engine.now e, v) :: !log);
  Channel.send ch ~size:500 "big";
  Channel.send ch ~size:100 "small";
  Engine.run e;
  Alcotest.(check (list (pair (float 1e-9) string)))
    "serialization delay"
    [ (0.5, "big"); (0.6, "small") ]
    (List.rev !log)

let test_channel_counts () =
  let e = Engine.create () in
  let ch = Channel.create e ~latency:0.0 ~name:"t" () in
  Channel.set_handler ch ignore;
  Channel.send ch ~size:10 ();
  Channel.send ch ~size:20 ();
  Alcotest.(check int) "count" 2 (Channel.sent_count ch);
  Alcotest.(check int) "bytes" 30 (Channel.bytes_sent ch);
  Engine.run e

(* --- switch -------------------------------------------------------------------- *)

type sw_bed = {
  e : Engine.t;
  audit : Audit.t;
  sw : Switch.t;
  received : (string * int) list ref;  (* port, packet id *)
  ctrl_msgs : (float * Switch.from_switch) list ref;
      (** Arrival time and message, newest first. *)
}

(* Latency of the bed's switch->controller channel: [ctrl_msgs] records
   arrival times, so a message emitted at [t] is seen at [t +. ctrl_latency]. *)
let ctrl_latency = 0.0001

let switch_bed ?flow_mod_delay () =
  let e = Engine.create () in
  let audit = Audit.create e in
  let sw = Switch.create e audit ~name:"sw" ?flow_mod_delay () in
  let received = ref [] in
  let attach name =
    let ch = Channel.create e ~latency:0.0001 ~name () in
    Channel.set_handler ch (fun (p : Packet.t) ->
        received := (name, p.Packet.id) :: !received);
    Switch.attach_port sw ~name ch
  in
  attach "nf1";
  attach "nf2";
  let ctrl_msgs = ref [] in
  let to_ctrl = Channel.create e ~latency:ctrl_latency ~name:"sw->ctrl" () in
  Channel.set_handler to_ctrl (fun m ->
      ctrl_msgs := (Engine.now e, m) :: !ctrl_msgs);
  Switch.register_controller_at sw ~conn:0 to_ctrl;
  { e; audit; sw; received; ctrl_msgs }

let test_switch_forwards_by_rule () =
  let b = switch_bed () in
  Switch.control_from b.sw ~conn:0
    (Switch.Install
       { cookie = 1; priority = 100; filters = [ Filter.any ];
         actions = [ Flowtable.Forward "nf1" ] });
  Engine.schedule b.e ~delay:0.05 (fun () ->
      Switch.inject b.sw (Packet.create ~id:42 ~key ~sent_at:0.05 ()));
  Engine.run b.e;
  Alcotest.(check (list (pair string int))) "delivered" [ ("nf1", 42) ] !(b.received)

let test_switch_flow_mod_delay () =
  let b = switch_bed ~flow_mod_delay:0.010 () in
  Switch.control_from b.sw ~conn:0
    (Switch.Install
       { cookie = 1; priority = 100; filters = [ Filter.any ];
         actions = [ Flowtable.Forward "nf1" ] });
  (* Before the mod applies: table miss. *)
  Engine.schedule b.e ~delay:0.005 (fun () ->
      Switch.inject b.sw (Packet.create ~id:1 ~key ~sent_at:0.005 ()));
  Engine.schedule b.e ~delay:0.015 (fun () ->
      Switch.inject b.sw (Packet.create ~id:2 ~key ~sent_at:0.015 ()));
  Engine.run b.e;
  Alcotest.(check (list (pair string int))) "only the late one" [ ("nf1", 2) ]
    !(b.received);
  Alcotest.(check int) "early one missed" 1 (Switch.table_misses b.sw)

let test_switch_packet_in_and_multi_action () =
  let b = switch_bed () in
  Switch.control_from b.sw ~conn:0
    (Switch.Install
       { cookie = 1; priority = 100; filters = [ Filter.any ];
         actions = [ Flowtable.Forward "nf1"; Flowtable.To_controller ] });
  Engine.schedule b.e ~delay:0.05 (fun () ->
      Switch.inject b.sw (Packet.create ~id:7 ~key ~sent_at:0.05 ()));
  Engine.run b.e;
  Alcotest.(check (list (pair string int))) "forwarded" [ ("nf1", 7) ] !(b.received);
  match !(b.ctrl_msgs) with
  | [ (_, Switch.Packet_in { packet; _ }) ] ->
    Alcotest.(check int) "packet-in id" 7 packet.Packet.id
  | _ -> Alcotest.fail "expected exactly one packet-in"

let test_switch_barrier_after_mods () =
  let b = switch_bed ~flow_mod_delay:0.010 () in
  Switch.control_from b.sw ~conn:0
    (Switch.Install
       { cookie = 1; priority = 100; filters = [ Filter.any ];
         actions = [ Flowtable.Forward "nf1" ] });
  Switch.control_from b.sw ~conn:0 (Switch.Barrier { id = 9 });
  Engine.run b.e;
  match !(b.ctrl_msgs) with
  | [ (reply_at, Switch.Barrier_reply { id }) ] ->
    Alcotest.(check int) "id echo" 9 id;
    (* Emitted no earlier than the 10 ms flow-mod delay, plus the link. *)
    Alcotest.(check bool) "after flow-mod applied" true
      (reply_at >= 0.010 +. ctrl_latency)
  | _ -> Alcotest.fail "expected exactly one barrier reply"

let test_switch_packet_out_rate_limit () =
  let e = Engine.create () in
  let audit = Audit.create e in
  let sw = Switch.create e audit ~name:"sw" ~packet_out_rate:100.0 () in
  let times = ref [] in
  let ch = Channel.create e ~latency:0.0 ~name:"nf1" () in
  Channel.set_handler ch (fun (_ : Packet.t) -> times := Engine.now e :: !times);
  Switch.attach_port sw ~name:"nf1" ch;
  for i = 0 to 4 do
    Switch.control_from sw ~conn:0
      (Switch.Packet_out
         { port = "nf1"; packet = Packet.create ~id:i ~key ~sent_at:0.0 () })
  done;
  Alcotest.(check int) "backlog visible" 5 (Switch.packet_out_backlog sw);
  Engine.run e;
  match List.rev !times with
  | [ _; t2; _; _; t5 ] ->
    Alcotest.(check (float 1e-9)) "second at 1/rate spacing" 0.02 t2;
    Alcotest.(check (float 1e-9)) "fifth" 0.05 t5
  | _ -> Alcotest.fail "expected 5 deliveries"

let suite =
  [
    Alcotest.test_case "ipaddr: string roundtrip" `Quick test_ip_string_roundtrip;
    Alcotest.test_case "ipaddr: rejects bad input" `Quick test_ip_rejects_bad;
    Alcotest.test_case "prefix: membership" `Quick test_prefix_membership;
    Alcotest.test_case "prefix: subset" `Quick test_prefix_subset;
    Alcotest.test_case "prefix: normalizes" `Quick test_prefix_normalizes_host_bits;
    Alcotest.test_case "flow: canonical" `Quick test_flow_canonical_involution;
    Alcotest.test_case "flow: reverse involution" `Quick
      test_flow_reverse_involution;
    QCheck_alcotest.to_alcotest flow_canonical_prop;
    QCheck_alcotest.to_alcotest flow_hash_consistent_prop;
    Alcotest.test_case "filter: any" `Quick test_filter_any_matches;
    Alcotest.test_case "filter: directed vs flow-level" `Quick
      test_filter_directed_vs_flow;
    Alcotest.test_case "filter: ports/proto" `Quick test_filter_ports_proto;
    Alcotest.test_case "filter: tcp flag" `Quick test_filter_tcp_flag;
    Alcotest.test_case "filter: mirror" `Quick test_filter_mirror;
    Alcotest.test_case "filter: symmetry" `Quick test_filter_symmetric;
    Alcotest.test_case "filter: accepts_flowid" `Quick test_accepts_flowid;
    Alcotest.test_case "filter: exact key" `Quick test_filter_exact_key;
    Alcotest.test_case "filter: app (URL) field" `Quick test_filter_app_field;
    QCheck_alcotest.to_alcotest accepts_own_flowid_prop;
    QCheck_alcotest.to_alcotest matches_flow_symmetric_prop;
    Alcotest.test_case "flowtable: priority" `Quick test_flowtable_priority;
    Alcotest.test_case "flowtable: cookie replace" `Quick
      test_flowtable_replace_cookie;
    Alcotest.test_case "flowtable: tie latest wins" `Quick
      test_flowtable_tie_latest_wins;
    Alcotest.test_case "flowtable: remove & counters" `Quick
      test_flowtable_remove_and_counters;
    Alcotest.test_case "flowtable: multi-filter rule" `Quick
      test_flowtable_multi_filter_rule;
    Alcotest.test_case "channel: latency & order" `Quick
      test_channel_latency_and_order;
    Alcotest.test_case "channel: bandwidth" `Quick test_channel_bandwidth_serializes;
    Alcotest.test_case "channel: counters" `Quick test_channel_counts;
    Alcotest.test_case "switch: forwards by rule" `Quick test_switch_forwards_by_rule;
    Alcotest.test_case "switch: flow-mod delay" `Quick test_switch_flow_mod_delay;
    Alcotest.test_case "switch: packet-in & multi-action" `Quick
      test_switch_packet_in_and_multi_action;
    Alcotest.test_case "switch: barrier waits for mods" `Quick
      test_switch_barrier_after_mods;
    Alcotest.test_case "switch: packet-out rate limit" `Quick
      test_switch_packet_out_rate_limit;
  ]
