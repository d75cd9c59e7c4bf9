(* Fault injection: crash-at-every-phase rollback for moves, resilient
   southbound calls under lossy/duplicating control channels, and the
   primitives (read_timeout, fill_if_empty, fault plans) they rest on. *)

module Engine = Opennf_sim.Engine
module Proc = Opennf_sim.Proc
module Faults = Opennf_sim.Faults
open Opennf_net
open Opennf
module H = Helpers

(* A resilience policy snappy enough for short tests but tolerant of the
   testbed's normal control-plane latencies. *)
let resilience =
  {
    Controller.call_timeout = 0.05;
    max_retries = 2;
    backoff = 0.01;
    liveness_misses = 3;
    probe_period = 0.1;
  }

(* Generous variant: never declares an instance dead by mistake under
   heavy jitter; used for the link-fault properties. *)
let patient =
  {
    Controller.call_timeout = 0.5;
    max_retries = 3;
    backoff = 0.05;
    liveness_misses = 100;
    probe_period = 0.5;
  }

(* --- primitives --------------------------------------------------------- *)

let test_read_timeout () =
  let engine = Engine.create () in
  let observed = ref [] in
  Proc.spawn engine (fun () ->
      let ivar = Proc.Ivar.create engine in
      Engine.schedule engine ~delay:0.5 (fun () -> Proc.Ivar.fill ivar 42);
      (match Proc.Ivar.read_timeout ivar ~timeout:0.1 with
      | None -> observed := "miss" :: !observed
      | Some _ -> observed := "early" :: !observed);
      (match Proc.Ivar.read_timeout ivar ~timeout:1.0 with
      | Some 42 -> observed := "hit" :: !observed
      | Some _ | None -> observed := "wrong" :: !observed));
  Engine.run engine;
  Alcotest.(check (list string)) "timeout then value" [ "hit"; "miss" ]
    !observed

let test_fill_if_empty () =
  let engine = Engine.create () in
  let ivar = Proc.Ivar.create engine in
  Alcotest.(check bool) "first fill" true (Proc.Ivar.fill_if_empty ivar 1);
  Alcotest.(check bool) "second fill ignored" false
    (Proc.Ivar.fill_if_empty ivar 2);
  Engine.run engine;
  Alcotest.(check (option int)) "first value wins" (Some 1)
    (Proc.Ivar.peek ivar)

let test_fault_plans_are_deterministic () =
  let plans seed =
    let engine = Engine.create () in
    let f = Faults.create engine ~seed () in
    Faults.set_link f ~name:"l" ~drop:0.2 ~dup:0.2 ~jitter:0.001 ();
    List.init 64 (fun _ -> Faults.plan f ~link:"l")
  in
  Alcotest.(check bool) "same seed, same schedule" true
    (plans 11 = plans 11);
  Alcotest.(check bool) "different seed, different schedule" true
    (plans 11 <> plans 12)

let test_no_profile_draws_nothing () =
  let engine = Engine.create () in
  let f = Faults.create engine () in
  let p = List.init 16 (fun _ -> Faults.plan f ~link:"quiet") in
  Alcotest.(check bool) "all pass-through" true
    (List.for_all (fun x -> x = (1, 0.0)) p);
  Alcotest.(check int) "nothing dropped" 0 (Faults.dropped_count f)

(* --- typed errors from the southbound API ------------------------------- *)

let test_del_allflows_is_bad_spec () =
  let tb = H.prads_pair ~flows:5 () in
  let saw = ref None in
  H.run_with tb ~at:1.0 (fun () ->
      saw :=
        Some (Controller.del tb.H.fab.ctrl tb.H.nf1 ~scope:Opennf_state.Scope.All []));
  match !saw with
  | Some (Error (Op_error.Bad_spec _)) -> ()
  | _ -> Alcotest.fail "del ~scope:All must be Bad_spec"

let test_call_timeout_when_replies_drop () =
  (* The source's reply channel eats everything; with liveness disabled
     (high miss threshold) the call must surface as Timeout. *)
  let tb =
    H.prads_pair ~flows:5 ~resilience:{ resilience with liveness_misses = 99 } ()
  in
  Faults.set_link tb.H.fab.faults ~name:"prads1->ctrl" ~drop:1.0 ();
  let saw = ref None in
  H.run_with tb ~at:1.0 (fun () ->
      saw :=
        Some
          (Controller.get tb.H.fab.ctrl tb.H.nf1 ~scope:Opennf_state.Scope.Per
             Filter.any));
  match !saw with
  | Some (Error (Op_error.Timeout { nf = "prads1"; _ })) -> ()
  | _ -> Alcotest.fail "expected Timeout from a reply blackhole"

let test_liveness_declares_death () =
  let tb = H.prads_pair ~flows:5 ~rate:200.0 ~resilience () in
  Faults.crash_at tb.H.fab.faults ~node:"prads1" 0.9;
  let deaths = ref [] in
  Controller.on_nf_death tb.H.fab.ctrl (fun name -> deaths := name :: !deaths);
  let saw = ref None in
  H.run_with tb ~at:1.0 (fun () ->
      saw :=
        Some
          (Controller.get tb.H.fab.ctrl tb.H.nf1 ~scope:Opennf_state.Scope.Per
             Filter.any));
  (match !saw with
  | Some (Error (Op_error.Nf_crashed { nf = "prads1" })) -> ()
  | _ -> Alcotest.fail "expected Nf_crashed after liveness misses");
  Alcotest.(check (list string)) "death callback fired" [ "prads1" ] !deaths;
  Alcotest.(check bool) "marked dead" false
    (Controller.nf_alive tb.H.fab.ctrl tb.H.nf1)

(* [Op_error.ok_exn] is the one unwrapper of operation results: a move
   against a dead instance must surface as [Op_failed (Nf_crashed _)],
   printed through the registered printer. *)
let test_ok_exn_raises_on_crashed_nf () =
  let tb = H.prads_pair ~flows:5 ~rate:200.0 ~resilience () in
  Faults.crash_at tb.H.fab.faults ~node:"prads1" 0.9;
  let raised = ref None in
  H.run_with tb ~at:1.0 (fun () ->
      match
        Op_error.ok_exn
          (Move.run tb.H.fab.ctrl
             (Move.spec ~src:tb.H.nf1 ~dst:tb.H.nf2 ~filter:Filter.any
                ~guarantee:Move.Loss_free ()))
      with
      | _ -> ()
      | exception (Op_error.Op_failed _ as exn) -> raised := Some exn);
  match !raised with
  | Some (Op_error.Op_failed (Op_error.Nf_crashed { nf = "prads1" }) as exn) ->
    Alcotest.(check string) "registered printer"
      "Op_failed: NF prads1 crashed" (Printexc.to_string exn)
  | Some exn -> Alcotest.failf "wrong error: %s" (Printexc.to_string exn)
  | None -> Alcotest.fail "ok_exn must raise on a move from a dead NF"

(* --- crash-at-every-phase move rollback --------------------------------- *)

(* Run a move at t=1.0 under [resilience], crashing [node] when [phase]
   fires. Returns (result, testbed, survivor-processed-before-crash). *)
let crash_at_phase ~node ~phase ?(guarantee = Move.Loss_free) () =
  let tb = H.prads_pair ~flows:10 ~rate:500.0 ~duration:2.5 ~resilience () in
  let result = ref None in
  let processed_at_crash = ref (-1) in
  H.run_with tb ~at:1.0 (fun () ->
      result :=
        Some
          (Move.run tb.H.fab.ctrl
             (Move.spec ~src:tb.H.nf1 ~dst:tb.H.nf2 ~filter:Filter.any
                ~guarantee
                ~on_phase:(fun p ->
                  if p = phase then begin
                    Faults.crash_now tb.H.fab.faults ~node;
                    processed_at_crash :=
                      Opennf_sb.Runtime.processed_count
                        (if node = "prads1" then tb.H.rt2 else tb.H.rt1)
                  end)
                ())));
  (Option.get !result, tb, !processed_at_crash)

let check_crashed ~nf = function
  | Error (Op_error.Nf_crashed { nf = n }) ->
    Alcotest.(check string) "crashed instance reported" nf n
  | Ok _ -> Alcotest.fail "move must not succeed across a crash"
  | Error e -> Alcotest.fail ("unexpected error: " ^ Op_error.to_string e)

(* After a rollback the survivor must keep processing traffic: the flows
   were re-routed, not blackholed. *)
let check_survivor_kept_processing ~survivor_rt ~processed_at_crash =
  Alcotest.(check bool) "hook saw the crash" true (processed_at_crash >= 0);
  Alcotest.(check bool) "survivor processed packets after the rollback" true
    (Opennf_sb.Runtime.processed_count survivor_rt > processed_at_crash)

let test_src_crash_during_get () =
  (* Source dies before exporting anything: nothing was captured, the
     destination starts fresh, and traffic must flow to it. *)
  let result, tb, p = crash_at_phase ~node:"prads1" ~phase:Move.Transfer_started () in
  check_crashed ~nf:"prads1" result;
  check_survivor_kept_processing ~survivor_rt:tb.H.rt2 ~processed_at_crash:p

let test_dst_crash_during_put () =
  (* Destination dies after the source's state was captured and deleted:
     the rollback must re-install every chunk on the source. *)
  let result, tb, p = crash_at_phase ~node:"prads2" ~phase:Move.State_deleted () in
  check_crashed ~nf:"prads2" result;
  Alcotest.(check int) "all state restored at the source" 10
    (Opennf_nfs.Prads.connection_count tb.H.prads1);
  Alcotest.(check int) "nothing left at the dead destination" 0
    (Opennf_nfs.Prads.connection_count tb.H.prads2);
  check_survivor_kept_processing ~survivor_rt:tb.H.rt1 ~processed_at_crash:p

let test_dst_crash_after_install () =
  (* Destination dies after acking every put: the final route toward it
     is already installed, so the rollback must retire that rule (it
     outranks the base route) or the survivor never sees traffic. *)
  let result, tb, p = crash_at_phase ~node:"prads2" ~phase:Move.State_installed () in
  check_crashed ~nf:"prads2" result;
  Alcotest.(check int) "state restored at the source" 10
    (Opennf_nfs.Prads.connection_count tb.H.prads1);
  check_survivor_kept_processing ~survivor_rt:tb.H.rt1 ~processed_at_crash:p

let test_dst_crash_at_phase1 () =
  let result, tb, p =
    crash_at_phase ~node:"prads2" ~phase:Move.Phase1_installed
      ~guarantee:Move.Order_preserving ()
  in
  check_crashed ~nf:"prads2" result;
  Alcotest.(check int) "state restored at the source" 10
    (Opennf_nfs.Prads.connection_count tb.H.prads1);
  check_survivor_kept_processing ~survivor_rt:tb.H.rt1 ~processed_at_crash:p

let test_dst_crash_at_phase2 () =
  let result, tb, p =
    crash_at_phase ~node:"prads2" ~phase:Move.Phase2_installed
      ~guarantee:Move.Order_preserving ()
  in
  check_crashed ~nf:"prads2" result;
  Alcotest.(check int) "state restored at the source" 10
    (Opennf_nfs.Prads.connection_count tb.H.prads1);
  check_survivor_kept_processing ~survivor_rt:tb.H.rt1 ~processed_at_crash:p

let test_fault_free_resilient_move_is_clean () =
  (* Resilience armed but no fault registered: the move must behave like
     a plain loss-free move. *)
  let tb = H.prads_pair ~flows:10 ~rate:500.0 ~resilience () in
  H.run_with tb ~at:1.0 (fun () ->
      match
        Move.run tb.H.fab.ctrl
          (Move.spec ~src:tb.H.nf1 ~dst:tb.H.nf2 ~filter:Filter.any
             ~guarantee:Move.Loss_free ())
      with
      | Ok _ -> ()
      | Error e -> Alcotest.fail (Op_error.to_string e));
  H.assert_loss_free tb;
  Alcotest.(check int) "state moved" 10
    (Opennf_nfs.Prads.connection_count tb.H.prads2)

(* --- guarantees under link faults (randomized) -------------------------- *)

type link_cfg = {
  seed : int;
  flows : int;
  rate : float;
  dup : float;
  jitter : float;
}

let link_cfg_gen =
  QCheck.Gen.(
    map
      (fun (seed, flows, rate_k, dup_k, jitter_k) ->
        {
          seed;
          flows = 5 + flows;
          rate = 200.0 +. (100.0 *. float_of_int rate_k);
          dup = 0.05 *. float_of_int dup_k;
          jitter = 0.0005 *. float_of_int jitter_k;
        })
      (tup5 (int_bound 10_000) (int_bound 30) (int_bound 8) (int_bound 6)
         (int_bound 4)))

let print_link_cfg c =
  Printf.sprintf "{seed=%d flows=%d rate=%.0f dup=%.2f jitter=%.4f}" c.seed
    c.flows c.rate c.dup c.jitter

let link_cfg_arb = QCheck.make ~print:print_link_cfg link_cfg_gen

(* Jitter and duplication on every controller<->NF channel. Drops are
   excluded: retries recover from them, but only by re-sending whole
   requests, which legitimately re-processes control work; dup/jitter
   must be absorbed with no observable difference. *)
let fault_control_links tb ~dup ~jitter =
  List.iter
    (fun name ->
      Faults.set_link tb.H.fab.faults ~name ~dup ~jitter ())
    [ "ctrl->prads1"; "prads1->ctrl"; "ctrl->prads2"; "prads2->ctrl" ]

let run_faulted_move c ~guarantee =
  let tb =
    H.prads_pair ~seed:c.seed ~flows:c.flows ~rate:c.rate ~resilience:patient ()
  in
  fault_control_links tb ~dup:c.dup ~jitter:c.jitter;
  H.run_with tb ~at:0.6 (fun () ->
      match
        Move.run tb.H.fab.ctrl
          (Move.spec ~src:tb.H.nf1 ~dst:tb.H.nf2 ~filter:Filter.any ~guarantee ())
      with
      | Ok _ -> ()
      | Error e -> Alcotest.fail (Op_error.to_string e));
  tb

let no_loss tb =
  Audit.lost tb.H.fab.audit ~nfs:H.nf_names = []
  && Audit.duplicated tb.H.fab.audit = []

let prop_loss_free_under_link_faults =
  QCheck.Test.make
    ~name:"loss-free move under control-channel dup+jitter (random)" ~count:15
    link_cfg_arb (fun c ->
      let tb = run_faulted_move c ~guarantee:Move.Loss_free in
      no_loss tb && Opennf_nfs.Prads.connection_count tb.H.prads1 = 0)

let prop_order_preserving_under_link_faults =
  QCheck.Test.make
    ~name:"OP move under control-channel dup+jitter (random)" ~count:10
    link_cfg_arb (fun c ->
      let tb = run_faulted_move c ~guarantee:Move.Order_preserving in
      no_loss tb
      && Audit.order_violations tb.H.fab.audit = []
      && Audit.arrival_order_violations tb.H.fab.audit = [])

(* --- streamed-get piece dedupe ------------------------------------------ *)

(* A streamed per-flow get from prads1 while its reply channel
   duplicates messages with probability [dup]. Returns the chunks in
   order, the fresh pieces [on_piece] saw, the [ctrl.dup_pieces]
   counter, the duplicates the fault plan injected, and the inbound
   messages the controller handled after the get returned. *)
let streamed_get ~dup =
  let obs = Opennf_obs.Hub.create ~metrics:true () in
  let tb = H.prads_pair ~flows:40 ~obs () in
  if dup > 0.0 then
    Faults.set_link tb.H.fab.faults ~name:"prads1->ctrl" ~dup ();
  let chunks = ref [] and fresh = ref 0 and at_return = ref 0 in
  H.run_with tb ~at:1.0 (fun () ->
      (match
         Controller.get tb.H.fab.ctrl tb.H.nf1 ~scope:Opennf_state.Scope.Per
           ~on_piece:(fun _ _ -> incr fresh)
           Filter.any
       with
      | Ok cs ->
        chunks :=
          List.map
            (fun (f, (c : Opennf_state.Chunk.t)) ->
              Filter.to_string f ^ "=" ^ c.data)
            cs
      | Error e ->
        Alcotest.failf "streamed get failed: %s" (Op_error.to_string e));
      at_return := Controller.messages_handled tb.H.fab.ctrl);
  ( !chunks,
    !fresh,
    Opennf_obs.Metrics.counter_value (Opennf_obs.Hub.metrics obs) "ctrl.dup_pieces",
    Faults.duplicated_count tb.H.fab.faults,
    Controller.messages_handled tb.H.fab.ctrl - !at_return )

(* Every replayed piece is dropped and counted, and the chunk list is
   the fault-free one in arrival order. The only duplicate that is not a
   piece is the [Done]'s twin, which arrives after the get returned. *)
let test_duplicated_pieces_are_deduped () =
  let clean, clean_fresh, clean_dups, _, clean_after = streamed_get ~dup:0.0 in
  Alcotest.(check int) "fault-free: no replays" 0 clean_dups;
  Alcotest.(check int) "fault-free: one piece per chunk" (List.length clean)
    clean_fresh;
  Alcotest.(check bool) "fault-free: state to stream" true (List.length clean > 10);
  List.iter
    (fun dup ->
      let name = Printf.sprintf "dup=%.1f: " dup in
      let chunks, fresh, dups, injected, after = streamed_get ~dup in
      let done_twin = after - clean_after in
      Alcotest.(check (list string)) (name ^ "chunks as fault-free, in order")
        clean chunks;
      Alcotest.(check int) (name ^ "one fresh piece per chunk") (List.length clean)
        fresh;
      Alcotest.(check bool) (name ^ "Done duplicated at most once") true
        (done_twin = 0 || done_twin = 1);
      Alcotest.(check int) (name ^ "ctrl.dup_pieces = injected piece duplicates")
        (injected - done_twin) dups;
      Alcotest.(check bool) (name ^ "some pieces replayed") true (dups > 0))
    [ 0.3; 1.0 ];
  let _, _, dups, injected, _ = streamed_get ~dup:1.0 in
  Alcotest.(check int) "dup=1.0: every piece replayed once"
    (List.length clean) dups;
  Alcotest.(check int) "dup=1.0: every message duplicated"
    (List.length clean + 1) injected

(* --- faults registered after the fabric exists ----------------------- *)

(* Each NF runtime resolves its fault record once, at creation, and
   channels consult the link table per message; faults registered after
   both exist must still act. [processed_samples] reads prads1's
   processed count at each instant in [samples] and once more when the
   run has drained, running [op] (if any) at t = 1.0. *)
let processed_samples tb ?op samples =
  let seen =
    List.map
      (fun at ->
        let r = ref (-1) in
        Engine.schedule_at tb.H.fab.Fabric.engine at (fun () ->
            r := Opennf_sb.Runtime.processed_count tb.H.rt1);
        r)
      samples
  in
  let result = ref None in
  (match op with
  | None -> Fabric.run tb.H.fab
  | Some op -> H.run_with tb ~at:1.0 (fun () -> result := Some (op ())));
  (List.map ( ! ) seen @ [ Opennf_sb.Runtime.processed_count tb.H.rt1 ], !result)

let test_node_faults_registered_late () =
  let tb = H.prads_pair ~flows:10 ~rate:500.0 ~resilience () in
  Faults.crash_at tb.H.fab.Fabric.faults ~node:"prads1" 1.0;
  (match processed_samples tb [ 0.5; 1.01 ] with
  | [ before; at_crash; final ], _ ->
    Alcotest.(check bool) "processing before the crash" true (0 < before && before < at_crash);
    Alcotest.(check int) "nothing processed after the crash" at_crash final
  | _ -> assert false);
  let tb = H.prads_pair ~flows:10 ~rate:500.0 ~resilience () in
  Faults.hang tb.H.fab.Fabric.faults ~node:"prads1" ~from_:0.8 ~until:1.2;
  (match processed_samples tb [ 0.81; 1.19 ] with
  | [ start; end_; final ], _ ->
    Alcotest.(check int) "nothing processed inside the hang" start end_;
    Alcotest.(check bool) "processing resumes after the hang" true (final > end_)
  | _ -> assert false);
  let tb = H.prads_pair ~flows:10 ~rate:500.0 ~resilience () in
  Faults.crash_on_nth_op tb.H.fab.Fabric.faults ~node:"prads1" 1;
  let get () =
    Controller.get tb.H.fab.Fabric.ctrl tb.H.nf1 ~scope:Opennf_state.Scope.Per Filter.any
  in
  match processed_samples tb ~op:get [ 0.99; 1.1 ] with
  | [ before; after_op; final ], Some (Error _) ->
    Alcotest.(check bool) "processing before the op" true (before > 0);
    Alcotest.(check int) "the first southbound op crashed the node" after_op final;
    Alcotest.(check bool) "node reported crashed" true
      (Faults.crashed tb.H.fab.Fabric.faults ~node:"prads1")
  | _, Some (Ok _) -> Alcotest.fail "a get to a node crashed by its op must fail"
  | _ -> assert false

let test_link_profile_registered_late () =
  let engine = Engine.create () in
  let f = Faults.create engine () in
  let ch = Channel.create engine ~latency:0.001 ~faults:f ~name:"l" () in
  let got = ref 0 in
  Channel.set_handler ch (fun () -> incr got);
  Channel.send ch ();
  Faults.set_link f ~name:"l" ~dup:1.0 ();
  Channel.send ch ();
  Faults.set_link f ~name:"l" ~drop:1.0 ();
  Channel.send ch ();
  Faults.clear_link f ~name:"l";
  Channel.send ch ();
  Engine.run engine;
  Alcotest.(check int) "1 + 2 (dup) + 0 (drop) + 1 deliveries" 4 !got;
  Alcotest.(check int) "one drop" 1 (Channel.dropped_count ch);
  Alcotest.(check (pair int int)) "fault counters" (1, 1)
    (Faults.dropped_count f, Faults.duplicated_count f)

let suite =
  [
    Alcotest.test_case "ivar read_timeout" `Quick test_read_timeout;
    Alcotest.test_case "ivar fill_if_empty" `Quick test_fill_if_empty;
    Alcotest.test_case "fault plans deterministic" `Quick
      test_fault_plans_are_deterministic;
    Alcotest.test_case "no profile, no randomness" `Quick
      test_no_profile_draws_nothing;
    Alcotest.test_case "del all-flows is Bad_spec" `Quick
      test_del_allflows_is_bad_spec;
    Alcotest.test_case "reply blackhole times out" `Quick
      test_call_timeout_when_replies_drop;
    Alcotest.test_case "liveness declares death" `Quick
      test_liveness_declares_death;
    Alcotest.test_case "src crash during get rolls back" `Quick
      test_src_crash_during_get;
    Alcotest.test_case "dst crash during put rolls back" `Quick
      test_dst_crash_during_put;
    Alcotest.test_case "dst crash after install rolls back" `Quick
      test_dst_crash_after_install;
    Alcotest.test_case "dst crash at phase 1 rolls back" `Quick
      test_dst_crash_at_phase1;
    Alcotest.test_case "dst crash at phase 2 rolls back" `Quick
      test_dst_crash_at_phase2;
    Alcotest.test_case "fault-free resilient move is clean" `Quick
      test_fault_free_resilient_move_is_clean;
    Alcotest.test_case "ok_exn raises Op_failed on a dead NF" `Quick
      test_ok_exn_raises_on_crashed_nf;
    Alcotest.test_case "streamed get dedupes duplicated pieces" `Quick
      test_duplicated_pieces_are_deduped;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_loss_free_under_link_faults;
        prop_order_preserving_under_link_faults;
      ]
  @ [
      Alcotest.test_case "node faults registered after the runtime" `Quick
        test_node_faults_registered_late;
      Alcotest.test_case "link profile registered after the channel" `Quick
        test_link_profile_registered_late;
    ]
