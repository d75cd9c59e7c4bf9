(* The operation scheduler (ISSUE 3): footprint conflict semantics,
   concurrency of disjoint operations, serialization of overlapping
   ones, crash containment under concurrency, southbound piece batching,
   and the Op_engine accounting helper they all share. *)

module Engine = Opennf_sim.Engine
module Proc = Opennf_sim.Proc
module Faults = Opennf_sim.Faults
module Scope = Opennf_state.Scope
module Costs = Opennf_sb.Costs
module Dummy = Opennf_nfs.Dummy
open Opennf_net
open Opennf

(* --- filter overlap ----------------------------------------------------- *)

let subnet i = Ipaddr.Prefix.make (Ipaddr.v 10 (80 + i) 0 0) 16
let servers = Ipaddr.Prefix.make (Ipaddr.v 172 31 0 0) 16

(* Src and dst both bound: disjoint subnets give genuinely disjoint
   filters even under the mirrored (connection-level) check. *)
let two_sided i = Filter.make ~src:(subnet i) ~dst:servers ()

let key_in_subnet i k =
  Flow.make
    ~src:(Ipaddr.of_int (Ipaddr.to_int (Ipaddr.v 10 (80 + i) 0 0) + k + 1))
    ~dst:(Ipaddr.v 172 31 0 1) ~proto:Flow.Tcp ~sport:(30000 + k) ~dport:443 ()

let test_filter_overlaps () =
  let check = Alcotest.(check bool) in
  check "filter vs itself" true (Filter.overlaps (two_sided 0) (two_sided 0));
  check "disjoint two-sided subnets" false
    (Filter.overlaps (two_sided 0) (two_sided 1));
  check "any overlaps everything" true (Filter.overlaps Filter.any (two_sided 0));
  check "contained prefix overlaps" true
    (Filter.overlaps
       (Filter.of_src_prefix (subnet 0))
       (Filter.of_key (key_in_subnet 0 1)));
  check "distinct exact keys are disjoint" false
    (Filter.overlaps
       (Filter.of_key (key_in_subnet 0 1))
       (Filter.of_key (key_in_subnet 0 2)));
  (* Connection-level conservatism: a src-only prefix also covers the
     reverse direction, so two src-only prefixes always intersect. *)
  check "src-only prefixes overlap via the mirror" true
    (Filter.overlaps
       (Filter.of_src_prefix (subnet 0))
       (Filter.of_src_prefix (subnet 1)))

(* --- footprint conflicts ------------------------------------------------ *)

let test_footprint_conflicts () =
  let fp = Sched.Footprint.make in
  let conflicts held cand = Sched.Footprint.conflicts ~held ~cand in
  let check = Alcotest.(check bool) in
  let f0 = two_sided 0 and f1 = two_sided 1 in
  (* Reads never conflict with reads, even on the same instance+flows. *)
  check "read/read" false
    (conflicts
       (fp ~filters:[ f0 ] ~reads:[ "a" ] ())
       (fp ~filters:[ f0 ] ~reads:[ "a" ] ()));
  (* Write/write on the same instance with overlapping flows. *)
  check "write/write same nf" true
    (conflicts
       (fp ~filters:[ f0 ] ~writes:[ "a" ] ())
       (fp ~filters:[ f0 ] ~writes:[ "a" ] ()));
  (* Same instances, disjoint flows: no conflict. *)
  check "write/write disjoint filters" false
    (conflicts
       (fp ~filters:[ f0 ] ~writes:[ "a" ] ())
       (fp ~filters:[ f1 ] ~writes:[ "a" ] ()));
  (* Write vs read of the same instance. *)
  check "write/read" true
    (conflicts
       (fp ~filters:[ f0 ] ~writes:[ "a" ] ())
       (fp ~filters:[ f0 ] ~reads:[ "a" ] ()));
  (* Disjoint instance sets never clash without routes. *)
  check "disjoint instances" false
    (conflicts
       (fp ~filters:[ f0 ] ~writes:[ "a" ] ())
       (fp ~filters:[ f0 ] ~writes:[ "b" ] ()));
  (* Two route-touching ops with overlapping flows clash even on
     disjoint instances. *)
  check "routes x routes" true
    (conflicts
       (fp ~filters:[ f0 ] ~writes:[ "a" ] ~routes:true ())
       (fp ~filters:[ f0 ] ~writes:[ "b" ] ~routes:true ()));
  (* Early release: once the holder released a flow, an exact-key
     candidate for it passes. *)
  let held = fp ~filters:[ f0 ] ~writes:[ "a" ] () in
  let want = fp ~filters:[ Filter.of_key (key_in_subnet 0 3) ] ~writes:[ "a" ] () in
  check "exact-key blocked before release" true (conflicts held want);
  Sched.Footprint.release held (key_in_subnet 0 3);
  check "exact-key passes after release" false (conflicts held want)

(* --- dummy-NF fabric ---------------------------------------------------- *)

type pair = { src : Controller.nf; dst : Controller.nf; d1 : Dummy.t; d2 : Dummy.t }

(* [n] src/dst dummy pairs; pair [i] holds [flows] flows in subnet
   [subnet_of i] (so callers choose disjoint or shared coverage). *)
let dummy_bed ?(seed = 5) ?config ?resilience ?max_concurrent_ops ~n ~flows
    ~subnet_of () =
  let fab = Fabric.create ~seed ?config ?resilience ?max_concurrent_ops () in
  let pairs =
    List.init n (fun i ->
        let d1 = Dummy.create () in
        let d2 = Dummy.create () in
        Dummy.seed_flows d1 (List.init flows (key_in_subnet (subnet_of i)));
        let src, _ =
          Fabric.add_nf fab ~name:(Printf.sprintf "src%d" i) ~impl:(Dummy.impl d1)
            ~costs:Costs.dummy
        in
        let dst, _ =
          Fabric.add_nf fab ~name:(Printf.sprintf "dst%d" i) ~impl:(Dummy.impl d2)
            ~costs:Costs.dummy
        in
        { src; dst; d1; d2 })
      |> fun ps ->
    Proc.spawn fab.engine (fun () ->
        List.iteri
          (fun i p -> Controller.set_route fab.ctrl (two_sided (subnet_of i)) p.src)
          ps);
    ps
  in
  (fab, pairs)

let spec_for ~filter p =
  Move.spec ~src:p.src ~dst:p.dst ~filter ~guarantee:Move.Loss_free
    ~parallel:true ()

(* Run [moves] through the scheduler at t=0.1; returns results in
   submission order plus the virtual makespan. *)
let run_scheduled fab specs =
  let results = ref [] in
  let finished = ref 0.0 in
  Engine.schedule_at fab.Fabric.engine 0.1 (fun () ->
      Proc.spawn fab.Fabric.engine (fun () ->
          let ivars = List.map (Move.submit fab.Fabric.sched) specs in
          results := List.map Proc.Ivar.read ivars;
          finished := Engine.now fab.Fabric.engine));
  Fabric.run fab;
  (!results, !finished -. 0.1)

(* --- concurrency of disjoint moves -------------------------------------- *)

let test_disjoint_moves_concurrent () =
  let n = 4 and flows = 12 in
  let fab, pairs = dummy_bed ~n ~flows ~subnet_of:(fun i -> i) () in
  let specs = List.mapi (fun i p -> spec_for ~filter:(two_sided i) p) pairs in
  let results, makespan = run_scheduled fab specs in
  let reports = List.map Op_error.ok_exn results in
  List.iter
    (fun r -> Alcotest.(check int) "all flows moved" flows r.Move.per_chunks)
    reports;
  List.iter
    (fun p ->
      Alcotest.(check int) "src drained" 0 (Dummy.flow_count p.d1);
      Alcotest.(check int) "dst imported all" flows (Dummy.imported_count p.d2))
    pairs;
  let stats = Sched.stats (Shard.sched fab.Fabric.sched 0) in
  Alcotest.(check int) "all admitted at once" n stats.Sched.peak_active;
  Alcotest.(check int) "all completed" n stats.Sched.completed;
  (* Overlap in virtual time: the makespan must undercut the sum of the
     individual durations (true concurrency, not interleaved waiting). *)
  let total = List.fold_left (fun acc r -> acc +. Move.duration r) 0.0 reports in
  Alcotest.(check bool)
    (Printf.sprintf "sublinear makespan (%.4f < %.4f)" makespan total)
    true
    (makespan < total)

let test_overlapping_moves_serialize () =
  (* Chain A->B then B->A over the same filter: the second conflicts
     (shared instances, overlapping flows) and must observe the first's
     final state — every flow returns home, nothing lost or duplicated. *)
  let flows = 10 in
  let fab, pairs = dummy_bed ~n:1 ~flows ~subnet_of:(fun _ -> 0) () in
  let p = List.hd pairs in
  let there = spec_for ~filter:(two_sided 0) p in
  let back =
    Move.spec ~src:p.dst ~dst:p.src ~filter:(two_sided 0)
      ~guarantee:Move.Loss_free ~parallel:true ()
  in
  let results, _ = run_scheduled fab [ there; back ] in
  let reports = List.map Op_error.ok_exn results in
  List.iter
    (fun r ->
      Alcotest.(check int) "each leg carries every flow" flows r.Move.per_chunks)
    reports;
  Alcotest.(check int) "flows back at the source" flows (Dummy.flow_count p.d1);
  Alcotest.(check int) "destination drained" 0 (Dummy.flow_count p.d2);
  let stats = Sched.stats (Shard.sched fab.Fabric.sched 0) in
  Alcotest.(check int) "never ran together" 1 stats.Sched.peak_active;
  Alcotest.(check int) "second waited" 1 stats.Sched.peak_waiting

let test_cap_one_serializes_everything () =
  let n = 3 and flows = 6 in
  let fab, pairs = dummy_bed ~max_concurrent_ops:1 ~n ~flows ~subnet_of:(fun i -> i) () in
  let specs = List.mapi (fun i p -> spec_for ~filter:(two_sided i) p) pairs in
  let results, _ = run_scheduled fab specs in
  List.iter (fun r -> ignore (Op_error.ok_exn r)) results;
  let stats = Sched.stats (Shard.sched fab.Fabric.sched 0) in
  Alcotest.(check int) "cap respected" 1 stats.Sched.peak_active;
  Alcotest.(check int) "all completed" n stats.Sched.completed

let test_bad_cap_rejected () =
  let fab = Fabric.create () in
  Alcotest.check_raises "zero cap"
    (Invalid_argument "Sched.create: max_concurrent must be at least 1")
    (fun () -> ignore (Sched.create ~max_concurrent:0 fab.Fabric.ctrl))

(* --- share holds block conflicting moves --------------------------------- *)

let test_share_hold_blocks_move () =
  let flows = 6 in
  let fab, pairs = dummy_bed ~n:1 ~flows ~subnet_of:(fun _ -> 0) () in
  let p = List.hd pairs in
  let sched = fab.Fabric.sched in
  let move_done = ref None in
  Engine.schedule_at fab.Fabric.engine 0.1 (fun () ->
      Proc.spawn fab.Fabric.engine (fun () ->
          let share =
            Op_error.ok_exn
              (Share.start fab.Fabric.ctrl ~sched
                 ~instances:[ p.src; p.dst ] ~filter:(two_sided 0)
                 ~consistency:Share.Strong ())
          in
          let ivar = Move.submit sched (spec_for ~filter:(two_sided 0) p) in
          (* The move conflicts with the live share; give it time to run
             if the scheduler (wrongly) admitted it. *)
          Proc.sleep 0.5;
          Alcotest.(check int) "move queued behind the share" 1
            (Sched.waiting_count (Shard.sched sched 0));
          Alcotest.(check bool) "move not finished under the hold" true
            (Proc.Ivar.peek ivar = None);
          Share.stop share;
          move_done := Some (Proc.Ivar.read ivar)));
  Fabric.run fab;
  match !move_done with
  | Some (Ok r) ->
    Alcotest.(check int) "move ran after release" flows r.Move.per_chunks
  | Some (Error e) -> Alcotest.fail ("move failed: " ^ Op_error.to_string e)
  | None -> Alcotest.fail "move never completed"

(* --- crash containment under concurrency -------------------------------- *)

let resilience =
  {
    Controller.call_timeout = 0.05;
    max_retries = 2;
    backoff = 0.01;
    liveness_misses = 3;
    probe_period = 0.1;
  }

let test_crash_under_concurrency () =
  (* Two concurrent disjoint moves; the first's source dies mid-transfer
     (via the on_phase hook, as in test_faults). The crashed move fails
     typed, the other completes untouched, and the scheduler retires
     both. *)
  let flows = 8 in
  let fab, pairs = dummy_bed ~resilience ~n:2 ~flows ~subnet_of:(fun i -> i) () in
  let p0 = List.nth pairs 0 and p1 = List.nth pairs 1 in
  let s0 =
    Move.spec ~src:p0.src ~dst:p0.dst ~filter:(two_sided 0)
      ~guarantee:Move.Loss_free ~parallel:true
      ~on_phase:(fun ph ->
        if ph = Move.Transfer_started then
          Faults.crash_now fab.Fabric.faults ~node:"src0")
      ()
  in
  let s1 = spec_for ~filter:(two_sided 1) p1 in
  let results, _ = run_scheduled fab [ s0; s1 ] in
  (match results with
  | [ crashed; survived ] ->
    (match crashed with
    | Error (Op_error.Nf_crashed { nf = "src0" }) -> ()
    | Ok _ -> Alcotest.fail "move across a crash must not succeed"
    | Error e -> Alcotest.fail ("unexpected error: " ^ Op_error.to_string e));
    let r = Op_error.ok_exn survived in
    Alcotest.(check int) "unrelated move unaffected" flows r.Move.per_chunks;
    Alcotest.(check int) "its flows all arrived" flows (Dummy.imported_count p1.d2)
  | _ -> Alcotest.fail "expected two results");
  let stats = Sched.stats (Shard.sched fab.Fabric.sched 0) in
  Alcotest.(check int) "scheduler retired both" 2 stats.Sched.completed

(* --- southbound batching ------------------------------------------------ *)

let run_batched ~batch =
  let flows = 40 in
  let config = { Controller.default_config with sb_batch_bytes = batch } in
  let fab, pairs = dummy_bed ~config ~n:1 ~flows ~subnet_of:(fun _ -> 0) () in
  let p = List.hd pairs in
  let results, _ = run_scheduled fab [ spec_for ~filter:(two_sided 0) p ] in
  let r = Op_error.ok_exn (List.hd results) in
  (r, Controller.messages_handled fab.Fabric.ctrl, Dummy.imported_count p.d2)

let test_batching_reduces_messages () =
  let r_plain, msgs_plain, imported_plain = run_batched ~batch:None in
  let r_batch, msgs_batch, imported_batch = run_batched ~batch:(Some 2048) in
  Alcotest.(check int) "same chunks either way" r_plain.Move.per_chunks
    r_batch.Move.per_chunks;
  Alcotest.(check int) "same bytes either way" r_plain.Move.state_bytes
    r_batch.Move.state_bytes;
  Alcotest.(check int) "same final state" imported_plain imported_batch;
  Alcotest.(check bool)
    (Printf.sprintf "fewer controller messages (%d < %d)" msgs_batch msgs_plain)
    true
    (msgs_batch < msgs_plain)

(* --- Op_engine accounting ----------------------------------------------- *)

let test_tally_account () =
  let t = Op_engine.tally () in
  let chunk key bytes =
    (Filter.of_key key, Opennf_state.Chunk.v ~kind:"t" (String.make bytes 'x'))
  in
  let sized =
    [ chunk (key_in_subnet 0 1) 100; chunk (key_in_subnet 0 2) 50 ]
  in
  Op_engine.account t sized;
  Op_engine.account t [ chunk (key_in_subnet 0 3) 25 ];
  Alcotest.(check int) "chunks counted" 3 t.Op_engine.chunks;
  Alcotest.(check int) "bytes folded"
    (List.fold_left
       (fun acc (_, c) -> acc + Opennf_state.Chunk.size c)
       (Opennf_state.Chunk.size (snd (chunk (key_in_subnet 0 3) 25)))
       sized)
    t.Op_engine.bytes

(* --- properties --------------------------------------------------------- *)

(* Scheduled-concurrent vs strictly-sequential execution of the same
   disjoint workload: the semantic report fields (chunks, bytes,
   endpoints) and final NF states must agree exactly; only timings may
   differ (concurrency shares the controller CPU). *)
let prop_disjoint_equals_sequential =
  QCheck.Test.make ~name:"disjoint concurrent moves == sequential (random)"
    ~count:12
    QCheck.(
      triple (int_range 2 5) (int_range 1 20) (int_range 1 1000))
    (fun (n, flows, seed) ->
      let outcome cap =
        let fab, pairs =
          dummy_bed ~seed ~max_concurrent_ops:cap ~n ~flows ~subnet_of:(fun i -> i)
            ()
        in
        let specs = List.mapi (fun i p -> spec_for ~filter:(two_sided i) p) pairs in
        let results, _ = run_scheduled fab specs in
        List.map2
          (fun r p ->
            let r = Op_error.ok_exn r in
            ( r.Move.rp_src, r.Move.rp_dst, r.Move.per_chunks,
              r.Move.multi_chunks, r.Move.state_bytes,
              Dummy.flow_count p.d1, Dummy.imported_count p.d2 ))
          results pairs
      in
      outcome n = outcome 1)

(* Overlapping moves hop the same state through a chain of instances;
   serialization must conserve it: every hop carries all [flows] chunks
   and only the last instance holds state afterwards. *)
let prop_overlap_conserves_chunks =
  QCheck.Test.make ~name:"overlapping moves conserve chunks (random)" ~count:12
    QCheck.(pair (int_range 2 4) (int_range 1 15))
    (fun (hops, flows) ->
      let fab, pairs = dummy_bed ~n:1 ~flows ~subnet_of:(fun _ -> 0) () in
      let p = List.hd pairs in
      let extra =
        List.init (hops - 1) (fun i ->
            let d = Dummy.create () in
            let nf, _ =
              Fabric.add_nf fab ~name:(Printf.sprintf "hop%d" i)
                ~impl:(Dummy.impl d) ~costs:Costs.dummy
            in
            (nf, d))
      in
      let stations = (p.src, p.d1) :: (p.dst, p.d2) :: extra in
      let specs =
        List.map2
          (fun (src, _) (dst, _) ->
            Move.spec ~src ~dst ~filter:(two_sided 0) ~guarantee:Move.Loss_free
              ~parallel:true ())
          (List.filteri (fun i _ -> i < List.length stations - 1) stations)
          (List.tl stations)
      in
      let results, _ = run_scheduled fab specs in
      let reports = List.map Op_error.ok_exn results in
      List.for_all (fun r -> r.Move.per_chunks = flows) reports
      && (let counts = List.map (fun (_, d) -> Dummy.flow_count d) stations in
          let last = List.length counts - 1 in
          List.for_all2
            (fun i c -> if i = last then c = flows else c = 0)
            (List.init (List.length counts) Fun.id)
            counts)
      && (Sched.stats (Shard.sched fab.Fabric.sched 0)).Sched.peak_active = 1)

let suite =
  [
    Alcotest.test_case "Filter.overlaps" `Quick test_filter_overlaps;
    Alcotest.test_case "footprint conflicts" `Quick test_footprint_conflicts;
    Alcotest.test_case "disjoint moves run concurrently" `Quick
      test_disjoint_moves_concurrent;
    Alcotest.test_case "overlapping moves serialize" `Quick
      test_overlapping_moves_serialize;
    Alcotest.test_case "cap=1 serializes everything" `Quick
      test_cap_one_serializes_everything;
    Alcotest.test_case "invalid cap rejected" `Quick test_bad_cap_rejected;
    Alcotest.test_case "share hold blocks conflicting move" `Quick
      test_share_hold_blocks_move;
    Alcotest.test_case "crash contained under concurrency" `Quick
      test_crash_under_concurrency;
    Alcotest.test_case "piece batching reduces controller messages" `Quick
      test_batching_reduces_messages;
    Alcotest.test_case "Op_engine.tally accounting" `Quick test_tally_account;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_disjoint_equals_sequential; prop_overlap_conserves_chunks ]
