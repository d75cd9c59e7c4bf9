(* Runtime guarantee monitor (ISSUE 10): the streaming §5.1 checker.

   Fault-free runs — serial, sharded, parallel — must be clean; the
   seeded broken-controller knobs ({!Move.break_for_test}) must each
   produce the expected finding with exact op/phase/flow context; and
   the merged verdict and canonical trace export must be invariant
   under permutation of the per-shard trace buffers. *)

module Engine = Opennf_sim.Engine
module Proc = Opennf_sim.Proc
module Costs = Opennf_sb.Costs
module Dummy = Opennf_nfs.Dummy
module Monitor = Opennf_obs.Monitor
module Export = Opennf_obs.Export
module Hub = Opennf_obs.Hub
module Trace = Opennf_obs.Trace
module H = Helpers
open Opennf_net
open Opennf

let traced_bed ?packet_out_rate ?shards () =
  let obs = Hub.create ~trace:true () in
  (obs, H.prads_pair ?packet_out_rate ?shards ~obs ~monitor:true ())

let lf_spec ?break_for_test tb =
  Move.spec ~src:tb.H.nf1 ~dst:tb.H.nf2 ~filter:Filter.any
    ~guarantee:Move.Loss_free ?break_for_test ()

let op_spec ?break_for_test tb =
  Move.spec ~src:tb.H.nf1 ~dst:tb.H.nf2 ~filter:Filter.any
    ~guarantee:Move.Order_preserving ?break_for_test ()

let run_move tb spec =
  H.run_with tb ~at:0.5 (fun () ->
      match Move.run tb.H.fab.Fabric.ctrl spec with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "move failed: %a" Op_error.pp e)

(* --- fault-free runs are clean --------------------------------------------- *)

let test_clean_serial () =
  let _obs, tb = traced_bed () in
  run_move tb (lf_spec tb);
  Alcotest.(check (list reject)) "no online findings" []
    (Fabric.live_findings tb.H.fab);
  let v = Fabric.verdict tb.H.fab in
  Alcotest.(check bool) (Monitor.render v) true (Monitor.clean v)

let test_clean_sharded () =
  let tb = H.prads_pair ~shards:2 ~monitor:true () in
  H.run_with tb ~at:0.5 (fun () ->
      match
        Proc.Ivar.read
          (Move.submit tb.H.fab.Fabric.sched (op_spec tb))
      with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "move failed: %a" Op_error.pp e);
  Alcotest.(check (list reject)) "no online findings" []
    (Fabric.live_findings tb.H.fab);
  let v = Fabric.verdict tb.H.fab in
  Alcotest.(check bool) (Monitor.render v) true (Monitor.clean v)

(* --- seeded violations ------------------------------------------------------ *)

(* The broken flush: a loss-free move that silently discards the first
   buffered packet. The monitor must report exactly one loss, pinned to
   the move and the flow that lost its packet. *)
let broken_flush_verdict () =
  let _obs, tb = traced_bed () in
  run_move tb (lf_spec ~break_for_test:Move.Drop_buffered tb);
  Fabric.verdict tb.H.fab

let test_seeded_loss () =
  let v = broken_flush_verdict () in
  Alcotest.(check int) "exactly one finding" 1 (List.length v);
  let f = List.hd v in
  Alcotest.(check string) "property" "loss"
    (Monitor.property_name f.Monitor.property);
  Alcotest.(check string) "attributed to the move" "move" f.Monitor.op;
  Alcotest.(check bool) "op span linked" true (f.Monitor.op_span <> 0);
  (* The victim is the first packet the move buffered: it was relayed
     (and last seen) the moment the source's events were armed, before
     the transfer's first phase mark — so its phase context is exactly
     the empty pre-capture window. *)
  Alcotest.(check string) "phase: before the first phase mark" ""
    f.Monitor.phase;
  Alcotest.(check string) "flow key" "172.16.0.1:80->10.1.0.3:10002/tcp"
    f.Monitor.flow;
  Alcotest.(check bool) "history non-empty" true (f.Monitor.history <> [])

let test_seeded_loss_deterministic () =
  let r1 = Monitor.render (broken_flush_verdict ()) in
  let r2 = Monitor.render (broken_flush_verdict ()) in
  Alcotest.(check string) "byte-identical report across runs" r1 r2

(* The broken handoff: an order-preserving move that releases the
   destination's buffer without waiting for the last source-bound
   packet — the §5.1.2 race. Detected online (order violations are
   decidable mid-stream), so it must surface through the live monitors,
   not just the end-of-run verdict. *)
let test_seeded_reorder () =
  let _obs, tb = traced_bed ~packet_out_rate:400.0 () in
  run_move tb (op_spec ~break_for_test:Move.Skip_order_wait tb);
  let live = Fabric.live_findings tb.H.fab in
  Alcotest.(check bool) "online finding streamed" true (live <> []);
  let v = Fabric.verdict tb.H.fab in
  let orders =
    List.filter (fun f -> f.Monitor.property = Monitor.Order) v
  in
  Alcotest.(check bool)
    (Printf.sprintf "order violation found:\n%s" (Monitor.render v))
    true (orders <> []);
  List.iter
    (fun f ->
      Alcotest.(check string) "attributed to the move" "move" f.Monitor.op)
    orders;
  (* The same scenario without the broken knob is clean — the finding
     is the knob's doing, not the scenario's. *)
  let _obs, tb' = traced_bed ~packet_out_rate:400.0 () in
  run_move tb' (op_spec tb');
  let v' = Fabric.verdict tb'.H.fab in
  Alcotest.(check bool) (Monitor.render v') true (Monitor.clean v')

(* --- typed stream, hand-fed ---------------------------------------------------- *)

let ev ?(id = 0) ?(parent = 0) ?(attrs = [||]) kind ~cat ~name vt =
  { Trace.kind; id; parent; cat; name; vt; wall = 0.0; attrs }

let rec_ kind ~pkt ~nf ~flow vt = { Monitor.kind; pkt; nf; flow; vt }

(* A packet processed under a move, retired, then processed again after
   the move closed: the duplicate finding keeps the first sighting's
   flow and the last op context the packet was seen under, and takes
   the shard and time of the duplicate record itself. *)
let test_duplicate_after_retire () =
  let m =
    Monitor.create ~shard:3
      ~flow_name:(function 0 -> "flow-a" | 1 -> "flow-b" | _ -> "?")
      ()
  in
  Monitor.feed m
    (ev Trace.Begin ~id:5 ~cat:"op" ~name:"move"
       ~attrs:[| ("shard", Trace.Int 1) |]
       0.5);
  Monitor.feed m (ev Trace.Instant ~parent:5 ~cat:"op" ~name:"captured" 0.6);
  Monitor.record m (rec_ Monitor.Forward ~pkt:1 ~nf:"nf1" ~flow:0 1.0);
  Monitor.record m (rec_ Monitor.Forward ~pkt:2 ~nf:"nf1" ~flow:1 1.05);
  Monitor.record m (rec_ Monitor.Process ~pkt:1 ~nf:"nf1" ~flow:0 1.1);
  Alcotest.(check int) "pkt 1 retired, pkt 2 in flight" 1
    (Monitor.in_flight m);
  Monitor.feed m (ev Trace.End ~id:5 ~cat:"" ~name:"" 1.5);
  Monitor.record m (rec_ Monitor.Process ~pkt:1 ~nf:"nf2" ~flow:0 2.0);
  Monitor.record m (rec_ Monitor.Process ~pkt:2 ~nf:"nf1" ~flow:1 2.1);
  Alcotest.(check int) "nothing in flight" 0 (Monitor.in_flight m);
  Alcotest.(check int) "records seen" 5 (Monitor.events_seen m);
  match Monitor.findings m with
  | [ f ] ->
    Alcotest.(check string) "property" "duplicate"
      (Monitor.property_name f.Monitor.property);
    Alcotest.(check string) "flow" "flow-a" f.Monitor.flow;
    Alcotest.(check int) "pkt" 1 f.Monitor.pkt;
    Alcotest.(check int) "shard: the record's own (no op open)" 3
      f.Monitor.shard;
    Alcotest.(check (float 0.0)) "vt" 2.0 f.Monitor.vt;
    Alcotest.(check int) "op span: last context seen" 5 f.Monitor.op_span;
    Alcotest.(check string) "op" "move" f.Monitor.op;
    Alcotest.(check string) "phase" "captured" f.Monitor.phase;
    Alcotest.(check string) "detail" "processed again at nf2"
      f.Monitor.detail;
    Alcotest.(check (list string)) "history, rendered on emission"
      [
        "1.000000 forward pkt=1 nf=nf1";
        "1.100000 process pkt=1 nf=nf1";
        "2.000000 process pkt=1 nf=nf2";
      ]
      f.Monitor.history;
    Alcotest.(check bool) "verdict: the duplicate only" true
      (Monitor.verdict m = [ f ])
  | fs -> Alcotest.failf "expected one finding:\n%s" (Monitor.render fs)

(* Under an open op the duplicate takes that op's context and shard. *)
let test_duplicate_under_op () =
  let m = Monitor.create ~flow_name:(fun _ -> "flow") () in
  Monitor.record m (rec_ Monitor.Process ~pkt:9 ~nf:"nf1" ~flow:0 1.0);
  Monitor.feed m
    (ev Trace.Begin ~id:2 ~cat:"op" ~name:"copy"
       ~attrs:[| ("shard", Trace.Int 4) |]
       1.5);
  Monitor.feed m (ev Trace.Begin ~id:3 ~parent:2 ~cat:"op" ~name:"xfer" 1.6);
  Monitor.feed m (ev Trace.Instant ~parent:3 ~cat:"op" ~name:"ack" 1.7);
  Monitor.record m (rec_ Monitor.Process ~pkt:9 ~nf:"nf2" ~flow:0 2.0);
  match Monitor.findings m with
  | [ f ] ->
    Alcotest.(check (list string)) "shard/op/phase"
      [ "4"; "2"; "copy"; "ack" ]
      [
        string_of_int f.Monitor.shard;
        string_of_int f.Monitor.op_span;
        f.Monitor.op;
        f.Monitor.phase;
      ]
  | fs -> Alcotest.failf "expected one finding:\n%s" (Monitor.render fs)

(* A clean monitored run leaves no per-packet lifecycle state behind. *)
let test_in_flight_drains () =
  let _obs, tb = traced_bed () in
  run_move tb (lf_spec tb);
  match tb.H.fab.Fabric.monitors with
  | [| m |] ->
    Alcotest.(check bool) "records seen" true (Monitor.events_seen m > 0);
    Alcotest.(check int) "in flight after a clean run" 0 (Monitor.in_flight m)
  | _ -> Alcotest.fail "expected one monitor"

(* --- tap discipline ----------------------------------------------------------- *)

let test_disabled_tap () =
  (* A tap registered on a disabled tracer must never fire (the hot
     path stays the bail-on-[on] one). *)
  let tr = Hub.trace Hub.disabled in
  let fired = ref false in
  Trace.on_event tr (fun _ -> fired := true);
  let span = Trace.span_open tr ~cat:"op" ~name:"x" () in
  Trace.instant tr ~cat:"audit" ~name:"y" ();
  Trace.span_close tr span ();
  Alcotest.(check bool) "tap never fired" false !fired

(* --- permutation invariance (QCheck) ---------------------------------------- *)

(* Random parallel workloads on 2 or 4 shards: the merged verdict over
   the shard-tagged ledgers and the canonical export of the per-shard
   hub traces are pure functions of their sets, whatever order the
   shards are listed in. *)

type pconfig = { seed : int; shards : int; ops : int; flows : int; rot : int }

let pconfig_gen =
  QCheck.Gen.(
    map
      (fun (seed, two, ops, flows, rot) ->
        {
          seed = 1 + seed;
          shards = (if two then 2 else 4);
          ops = 1 + ops;
          flows = 2 + flows;
          rot = rot;
        })
      (tup5 (int_bound 10_000) bool (int_bound 4) (int_bound 30)
         (int_bound 3)))

let pconfig_print c =
  Printf.sprintf "{seed=%d shards=%d ops=%d flows=%d rot=%d}" c.seed c.shards
    c.ops c.flows c.rot

let pconfig_arb = QCheck.make ~print:pconfig_print pconfig_gen

let subnet i = Ipaddr.Prefix.make (Ipaddr.v 10 (120 + i) 0 0) 16
let servers = Ipaddr.Prefix.make (Ipaddr.v 172 31 0 0) 16
let pair_filter i = Filter.make ~src:(subnet i) ~dst:servers ()

let pair_key i k =
  Flow.make
    ~src:(Ipaddr.of_int (Ipaddr.to_int (Ipaddr.v 10 (120 + i) 0 0) + k + 1))
    ~dst:(Ipaddr.v 172 31 0 1) ~proto:Flow.Tcp ~sport:(40000 + k) ~dport:443 ()

(* Run the random workload on a parallel fabric with one tracing hub per
   shard; return the shard-tagged ledgers and hub traces. *)
let par_run c =
  let hubs = Array.init c.shards (fun _ -> Hub.create ~trace:true ()) in
  let fab =
    Fabric.create ~seed:c.seed ~shards:c.shards ~par:true
      ~shard_obs:(Array.get hubs) ()
  in
  let pairs =
    List.init c.ops (fun i ->
        let d1 = Dummy.create () in
        let d2 = Dummy.create () in
        Dummy.seed_flows d1 (List.init c.flows (pair_key i));
        let home = i mod c.shards in
        let src, _ =
          Fabric.add_nf fab ~shard:home ~name:(Printf.sprintf "src%d" i)
            ~impl:(Dummy.impl d1) ~costs:Costs.dummy
        in
        let dst, _ =
          Fabric.add_nf fab
            ~shard:((i + 1) mod c.shards)
            ~name:(Printf.sprintf "dst%d" i)
            ~impl:(Dummy.impl d2) ~costs:Costs.dummy
        in
        (i, src, dst))
  in
  Proc.spawn fab.Fabric.engine (fun () ->
      List.iter
        (fun (i, src, _) -> Controller.set_route fab.Fabric.ctrl (pair_filter i) src)
        pairs);
  Engine.schedule_at fab.Fabric.engine 0.1 (fun () ->
      Proc.spawn fab.Fabric.engine (fun () ->
          List.map
            (fun (i, src, dst) ->
              Move.submit fab.Fabric.sched
                (Move.spec ~src ~dst ~filter:(pair_filter i)
                   ~guarantee:Move.Loss_free ~parallel:true ()))
            pairs
          |> List.iter (fun iv -> ignore (Proc.Ivar.read iv))));
  Fabric.run fab;
  ( List.mapi (fun k a -> (k, a)) (Array.to_list fab.Fabric.audits),
    List.mapi (fun k h -> (k, Hub.trace h)) (Array.to_list hubs) )

let rotate n l =
  let len = List.length l in
  let n = ((n mod len) + len) mod len in
  let rec go n l acc =
    if n = 0 then l @ List.rev acc
    else match l with [] -> List.rev acc | x :: tl -> go (n - 1) tl (x :: acc)
  in
  go n l []

let prop_permutation_invariance =
  QCheck.Test.make
    ~name:"merged verdict + canonical export invariant under shard permutation"
    ~count:10 pconfig_arb (fun c ->
      let ledgers, traces = par_run c in
      let permute l = rotate c.rot (List.rev l) in
      let v1 = Audit.verdict ledgers in
      let v2 = Audit.verdict (permute ledgers) in
      let c1 = Export.canonical (List.map snd traces) in
      let c2 = Export.canonical (List.map snd (permute traces)) in
      Monitor.clean v1
      && String.equal (Monitor.render v1) (Monitor.render v2)
      && v1 = v2
      && String.equal c1 c2)

let suite =
  [
    Alcotest.test_case "fault-free LF move: clean (serial)" `Quick
      test_clean_serial;
    Alcotest.test_case "fault-free OP move: clean (2 shards)" `Quick
      test_clean_sharded;
    Alcotest.test_case "seeded Drop_buffered: exact loss finding" `Quick
      test_seeded_loss;
    Alcotest.test_case "seeded Drop_buffered: deterministic report" `Quick
      test_seeded_loss_deterministic;
    Alcotest.test_case "seeded Skip_order_wait: online order finding" `Quick
      test_seeded_reorder;
    Alcotest.test_case "tap on a disabled tracer never fires" `Quick
      test_disabled_tap;
    QCheck_alcotest.to_alcotest prop_permutation_invariance;
    Alcotest.test_case "typed stream: duplicate after retirement" `Quick
      test_duplicate_after_retire;
    Alcotest.test_case "typed stream: duplicate under an open op" `Quick
      test_duplicate_under_op;
    Alcotest.test_case "in-flight state drains after a clean run" `Quick
      test_in_flight_drains;
  ]
