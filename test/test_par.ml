(* Wall-clock parallel shard execution (ISSUE 9): each shard on its own
   engine, coupled by the deterministic channels of {!Opennf_sim.Par}.
   The contract under test: a parallel run produces the same semantic
   outcomes, the same audit digests and the same canonical virtual-time
   trace content as the serial single-engine run of the same scenario —
   for any worker count — and repeated parallel runs are bit-identical
   to each other. *)

module Engine = Opennf_sim.Engine
module Proc = Opennf_sim.Proc
module Par = Opennf_sim.Par
module Faults = Opennf_sim.Faults
module Hashing = Opennf_util.Hashing
module Costs = Opennf_sb.Costs
module Dummy = Opennf_nfs.Dummy
module Export = Opennf_obs.Export
module Hub = Opennf_obs.Hub
module H = Helpers
open Opennf_net
open Opennf

let subnet i = Ipaddr.Prefix.make (Ipaddr.v 10 (80 + i) 0 0) 16
let servers = Ipaddr.Prefix.make (Ipaddr.v 172 31 0 0) 16
let two_sided i = Filter.make ~src:(subnet i) ~dst:servers ()

let key_in_subnet i k =
  Flow.make
    ~src:(Ipaddr.of_int (Ipaddr.to_int (Ipaddr.v 10 (80 + i) 0 0) + k + 1))
    ~dst:(Ipaddr.v 172 31 0 1) ~proto:Flow.Tcp ~sport:(30000 + k) ~dport:443 ()

(* --- the workload ----------------------------------------------------------

   [n] src/dst dummy pairs. [cross = false] homes each pair entirely on
   shard [i mod shards] (every move intra-shard, the embarrassingly
   parallel case); [cross = true] homes sources on [i mod shards] and
   destinations on [(i + 1) mod shards], so every move exercises the
   cross-shard admission handshake and cross-engine southbound calls. *)

type pair = { src : Controller.nf; dst : Controller.nf; d1 : Dummy.t; d2 : Dummy.t }

let bed ?(seed = 5) ?obs ?shard_obs ?par ?resilience ~cross ~shards ~n ~flows
    () =
  let fab = Fabric.create ~seed ?obs ?shard_obs ?par ?resilience ~shards () in
  let pairs =
    List.init n (fun i ->
        let d1 = Dummy.create () in
        let d2 = Dummy.create () in
        Dummy.seed_flows d1 (List.init flows (key_in_subnet i));
        let s_home = i mod shards in
        let d_home = if cross then (i + 1) mod shards else s_home in
        let src, _ =
          Fabric.add_nf fab ~shard:s_home ~name:(Printf.sprintf "src%d" i)
            ~impl:(Dummy.impl d1) ~costs:Costs.dummy
        in
        let dst, _ =
          Fabric.add_nf fab ~shard:d_home ~name:(Printf.sprintf "dst%d" i)
            ~impl:(Dummy.impl d2) ~costs:Costs.dummy
        in
        { src; dst; d1; d2 })
  in
  Proc.spawn fab.engine (fun () ->
      List.iteri
        (fun i p -> Controller.set_route fab.ctrl (two_sided i) p.src)
        pairs);
  (fab, pairs)

let spec_for ~filter p =
  Move.spec ~src:p.src ~dst:p.dst ~filter ~guarantee:Move.Loss_free
    ~parallel:true ()

let run_moves ?workers fab specs =
  let results = ref [] in
  Engine.schedule_at fab.Fabric.engine 0.1 (fun () ->
      Proc.spawn fab.Fabric.engine (fun () ->
          let ivars = List.map (Move.submit fab.Fabric.sched) specs in
          results := List.map Proc.Ivar.read ivars));
  Fabric.run ?workers fab;
  !results

(* Audit digest over the merged ledger: per-flow processed sequences
   folded in deterministic key order. *)
let audit_digest fab keys =
  let audit = Fabric.merged_audit fab in
  List.fold_left
    (fun acc key ->
      List.fold_left
        (fun acc id -> Hashing.combine acc (Int64.of_int id))
        (Hashing.combine acc 1L)
        (Audit.processed_order ~filter:(Filter.of_key key) audit))
    (Hashing.fnv1a64 "flows") keys

(* Everything observable about a run, comparable serial-vs-parallel:
   move reports, dummy store counts, the audit digest. *)
let outcome ?workers ?seed ?shard_obs ?par ~cross ~shards ~n ~flows () =
  let fab, pairs = bed ?seed ?shard_obs ?par ~cross ~shards ~n ~flows () in
  let specs = List.mapi (fun i p -> spec_for ~filter:(two_sided i) p) pairs in
  let results = run_moves ?workers fab specs in
  let semantic =
    List.map2
      (fun r p ->
        let r = Op_error.ok_exn r in
        ( r.Move.rp_src, r.Move.rp_dst, r.Move.per_chunks, r.Move.multi_chunks,
          r.Move.state_bytes, Dummy.flow_count p.d1, Dummy.imported_count p.d2
        ))
      results pairs
  in
  let keys =
    List.concat (List.init n (fun i -> List.init flows (key_in_subnet i)))
  in
  (semantic, audit_digest fab keys, fab)

(* --- parallel == serial ---------------------------------------------------- *)

let check_equiv ?workers ~cross ~shards ~n ~flows () =
  let serial, s_digest, _ = outcome ~cross ~shards ~n ~flows () in
  let par, p_digest, fab = outcome ?workers ~par:true ~cross ~shards ~n ~flows () in
  Alcotest.(check bool) "fabric really ran parallel" true (Fabric.parallel fab);
  Alcotest.(check bool) "semantic outcomes identical" true (serial = par);
  Alcotest.(check bool) "audit digests identical" true (s_digest = p_digest)

let test_par_disjoint_equals_serial () =
  check_equiv ~workers:1 ~cross:false ~shards:2 ~n:4 ~flows:8 ();
  check_equiv ~cross:false ~shards:4 ~n:4 ~flows:8 ()

let test_par_cross_shard_equals_serial () =
  check_equiv ~cross:true ~shards:2 ~n:4 ~flows:8 ();
  check_equiv ~cross:true ~shards:4 ~n:4 ~flows:8 ()

(* Worker count must never change results — 1 worker serializes the
   whole protocol (what single-core CI exercises), max uses every
   usable domain. *)
let test_par_workers_dont_matter () =
  let one, d1, _ =
    outcome ~workers:1 ~par:true ~cross:true ~shards:4 ~n:4 ~flows:6 ()
  in
  let many, d2, fab =
    outcome ~par:true ~cross:true ~shards:4 ~n:4 ~flows:6 ()
  in
  Alcotest.(check bool) "semantics independent of workers" true (one = many);
  Alcotest.(check bool) "digest independent of workers" true (d1 = d2);
  Alcotest.(check bool) "coordinator ran rounds" true
    (match fab.Fabric.par with Some p -> Par.rounds p > 0 | None -> false)

(* --- repeat-run determinism ------------------------------------------------ *)

(* Same seed, two parallel runs: identical digests and byte-identical
   canonical trace content (per-shard hubs, merged by Export.canonical). *)
let test_par_repeat_determinism () =
  let traced () =
    let hubs = Array.init 4 (fun _ -> Hub.create ~trace:true ()) in
    let semantic, digest, _ =
      outcome ~par:true ~shard_obs:(fun k -> hubs.(k)) ~cross:true ~shards:4
        ~n:4 ~flows:6 ()
    in
    let canon =
      Export.canonical (Array.to_list (Array.map Hub.trace hubs))
    in
    (semantic, digest, canon)
  in
  let s1, d1, c1 = traced () in
  let s2, d2, c2 = traced () in
  Alcotest.(check bool) "semantics repeat" true (s1 = s2);
  Alcotest.(check bool) "digests repeat" true (d1 = d2);
  Alcotest.(check bool) "canonical traces byte-identical" true (c1 = c2);
  Alcotest.(check bool) "traces non-empty" true (String.length c1 > 0)

(* Parallel trace content == serial trace content, canonicalized. The
   serial fabric buffers one trace; the parallel one buffers per shard;
   both canonicalize to the same string when virtual-time behavior
   matches. *)
let test_par_trace_equals_serial () =
  let canon_serial =
    let obs = Hub.create ~trace:true () in
    let fab, pairs = bed ~obs ~cross:true ~shards:2 ~n:2 ~flows:4 () in
    let specs = List.mapi (fun i p -> spec_for ~filter:(two_sided i) p) pairs in
    ignore (run_moves fab specs);
    Export.canonical [ Hub.trace obs ]
  and canon_par =
    let hubs = Array.init 2 (fun _ -> Hub.create ~trace:true ()) in
    let fab, pairs =
      bed
        ~shard_obs:(fun k -> hubs.(k))
        ~par:true ~cross:true ~shards:2 ~n:2 ~flows:4 ()
    in
    let specs = List.mapi (fun i p -> spec_for ~filter:(two_sided i) p) pairs in
    ignore (run_moves fab specs);
    Export.canonical (Array.to_list (Array.map Hub.trace hubs))
  in
  Alcotest.(check string) "canonical trace content matches serial" canon_serial
    canon_par

(* --- deterministic crash faults -------------------------------------------- *)

(* A crash planted at a fixed virtual time on the victim's home shard:
   the doomed move fails typed, the healthy pair's move is untouched,
   and serial and parallel agree on both. *)
let resilience =
  {
    Controller.call_timeout = 0.05;
    max_retries = 3;
    backoff = 0.01;
    liveness_misses = 4;
    probe_period = 0.1;
  }

let crash_outcome ?par () =
  let shards = 2 in
  let fab, pairs =
    bed ?par ~resilience ~cross:false ~shards ~n:2 ~flows:6 ()
  in
  (* src1 homes on shard 1; plant the crash on its home faults handle,
     timed to land mid-transfer. *)
  Faults.crash_at fab.Fabric.shard_faults.(1 mod shards) ~node:"src1" 0.101;
  let specs = List.mapi (fun i p -> spec_for ~filter:(two_sided i) p) pairs in
  let results = run_moves fab specs in
  List.map
    (function
      | Ok r -> `Ok (r.Move.per_chunks, r.Move.state_bytes)
      | Error (Op_error.Nf_crashed { nf }) -> `Crashed nf
      | Error e -> `Other (Op_error.to_string e))
    results

let test_par_crash_equals_serial () =
  let serial = crash_outcome () in
  let par = crash_outcome ~par:true () in
  Alcotest.(check bool) "crash outcomes identical" true (serial = par);
  match par with
  | [ `Ok _; `Crashed "src1" ] -> ()
  | _ -> Alcotest.fail "expected healthy move + typed crash"

(* --- shares across shards -------------------------------------------------- *)

let share_outcome ?par () =
  let shards = 2 in
  let fab, pairs = bed ?par ~cross:true ~shards ~n:2 ~flows:4 () in
  let p0 = List.hd pairs in
  let synced = ref (-1) in
  Engine.schedule_at fab.Fabric.engine 0.1 (fun () ->
      Proc.spawn fab.Fabric.engine (fun () ->
          match
            Share.start fab.Fabric.ctrl ~sched:fab.Fabric.sched
              ~instances:[ p0.src; p0.dst ] ~filter:(two_sided 0)
              ~consistency:Share.Strong ()
          with
          | Error e -> Alcotest.fail (Op_error.to_string e)
          | Ok share ->
            Share.stop share;
            synced := (Share.stats share).Share.updates_synced));
  Fabric.run fab;
  (!synced, Dummy.flow_count p0.d1, Dummy.flow_count p0.d2)

let test_par_share_equals_serial () =
  let serial = share_outcome () in
  let par = share_outcome ~par:true () in
  Alcotest.(check bool) "share outcomes identical" true (serial = par)

(* --- random workloads ------------------------------------------------------ *)

let prop_par_equals_serial =
  QCheck.Test.make ~name:"parallel == serial (random workloads)" ~count:6
    QCheck.(
      quad (int_range 1 4) (int_range 1 8) (int_range 1 1000) bool)
    (fun (n, flows, seed, cross) ->
      let run shards par =
        let semantic, digest, _ =
          outcome ~seed ?par:(if par then Some true else None) ~cross ~shards
            ~n ~flows ()
        in
        (semantic, digest)
      in
      run 2 true = run 2 false && run 4 true = run 4 false)

let suite =
  [
    Alcotest.test_case "parallel disjoint == serial" `Quick
      test_par_disjoint_equals_serial;
    Alcotest.test_case "parallel cross-shard == serial" `Quick
      test_par_cross_shard_equals_serial;
    Alcotest.test_case "worker count never changes results" `Quick
      test_par_workers_dont_matter;
    Alcotest.test_case "repeat runs bit-identical" `Quick
      test_par_repeat_determinism;
    Alcotest.test_case "canonical trace == serial" `Quick
      test_par_trace_equals_serial;
    Alcotest.test_case "deterministic crash == serial" `Quick
      test_par_crash_equals_serial;
    Alcotest.test_case "cross-shard share == serial" `Quick
      test_par_share_equals_serial;
  ]
  @ List.map QCheck_alcotest.to_alcotest [ prop_par_equals_serial ]
