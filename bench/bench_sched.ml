(* Operation scheduler + southbound batching benchmark (ISSUE 3).

   Mixed concurrent workloads of loss-free moves and copies over dummy
   NFs, admitted through {!Opennf.Sched}:

   - disjoint filters at growing concurrency caps: makespan should be
     sublinear in the number of operations (they overlap in virtual
     time), approaching the sequential sum at cap 1;
   - deliberately overlapping operations: the scheduler serializes them,
     so makespan matches the sequential baseline regardless of cap;
   - southbound piece batching on vs off: same transfers, fewer inbound
     controller messages (§8.3), shorter makespan under contention.

   Emits BENCH_sched.json so future PRs can track the trajectory. Sizes
   are kept small: this experiment also runs under `dune build @ci` as a
   bench smoke test. *)

module Engine = Opennf_sim.Engine
module Proc = Opennf_sim.Proc
module Costs = Opennf_sb.Costs
open Opennf_net
open Opennf
module H = Harness

let subnet_prefix i = Ipaddr.Prefix.make (Ipaddr.v 10 (60 + i) 0 0) 16
let server_prefix = Ipaddr.Prefix.make (Ipaddr.v 172 31 0 0) 16

(* Pin both ends: [Filter.overlaps] is connection-level (it also checks
   the mirrored direction), so src-only prefixes always intersect. With
   src and dst both bound, distinct subnets are genuinely disjoint. *)
let op_filter i = Filter.make ~src:(subnet_prefix i) ~dst:server_prefix ()

let keys_in_subnet i n =
  let base = Ipaddr.to_int (Ipaddr.v 10 (60 + i) 0 0) in
  List.init n (fun k ->
      Flow.make
        ~src:(Ipaddr.of_int (base + (k mod 250) + 1))
        ~dst:(Ipaddr.v 172 31 0 1) ~proto:Flow.Tcp
        ~sport:(20000 + k) ~dport:443 ())

type outcome = {
  makespan : float;  (* Virtual s, submit of first to completion of last. *)
  avg_op : float;  (* Mean per-operation virtual duration. *)
  messages : int;  (* Controller inbound messages over the whole run. *)
  peak_active : int;
  peak_waiting : int;
  rep_chunks : int;  (* Chunks summed over the operation reports. *)
  rep_bytes : int;  (* State bytes summed over the operation reports. *)
}

(* [ops] operation slots; every even slot is a loss-free move, every odd
   slot a multi-scope copy, each between its own src/dst dummy pair.
   [overlap] gives every operation the same filter (subnet 0) so the
   scheduler must serialize; otherwise each slot owns subnet [i]. *)
let run_once ~obs ~cap ~ops ~flows ~overlap ~batch =
  let config = { Controller.default_config with sb_batch_bytes = batch } in
  let fab =
    Fabric.create ~seed:(ops + flows) ~obs ~config ~max_concurrent_ops:cap ()
  in
  let pairs =
    List.init ops (fun i ->
        let d1 = Opennf_nfs.Dummy.create () in
        let d2 = Opennf_nfs.Dummy.create () in
        let seed_subnet = if overlap then 0 else i in
        Opennf_nfs.Dummy.seed_flows d1 (keys_in_subnet seed_subnet flows);
        let nf1, _ =
          Fabric.add_nf fab
            ~name:(Printf.sprintf "src%d" i)
            ~impl:(Opennf_nfs.Dummy.impl d1) ~costs:Costs.dummy
        in
        let nf2, _ =
          Fabric.add_nf fab
            ~name:(Printf.sprintf "dst%d" i)
            ~impl:(Opennf_nfs.Dummy.impl d2) ~costs:Costs.dummy
        in
        (i, nf1, nf2))
  in
  Proc.spawn fab.engine (fun () ->
      List.iter
        (fun (i, nf1, _) ->
          let sn = if overlap then 0 else i in
          Controller.set_route fab.ctrl (op_filter sn) nf1)
        pairs);
  let durations = ref [] in
  let chunks = ref 0 in
  let bytes = ref 0 in
  let finished = ref 0.0 in
  H.run_at fab ~at:1.0 (fun () ->
      let pending =
        List.map
          (fun (i, nf1, nf2) ->
            let filter = op_filter (if overlap then 0 else i) in
            if i mod 2 = 0 then
              let ivar =
                Move.submit fab.sched
                  (Move.spec ~src:nf1 ~dst:nf2 ~filter ~guarantee:Move.Loss_free
                     ~parallel:true ())
              in
              fun () ->
                let r = Op_error.ok_exn (Proc.Ivar.read ivar) in
                durations := Move.duration r :: !durations;
                chunks := !chunks + r.Move.per_chunks + r.Move.multi_chunks;
                bytes := !bytes + r.Move.state_bytes
            else
              let ivar =
                Copy_op.submit fab.sched ~src:nf1 ~dst:nf2 ~filter
                  ~scope:[ Opennf_state.Scope.Per ] ()
              in
              fun () ->
                let r = Op_error.ok_exn (Proc.Ivar.read ivar) in
                durations := Copy_op.duration r :: !durations;
                chunks := !chunks + r.Copy_op.chunks;
                bytes := !bytes + r.Copy_op.state_bytes)
          pairs
      in
      List.iter (fun wait -> wait ()) pending;
      finished := Engine.now fab.engine);
  let stats = Sched.stats (Shard.sched fab.sched 0) in
  let n = max 1 (List.length !durations) in
  {
    makespan = !finished -. 1.0;
    avg_op = List.fold_left ( +. ) 0.0 !durations /. float_of_int n;
    messages = Controller.messages_handled fab.ctrl;
    peak_active = stats.Sched.peak_active;
    peak_waiting = stats.Sched.peak_waiting;
    rep_chunks = !chunks;
    rep_bytes = !bytes;
  }

let ops = 8
let flows = 60

type scenario = {
  name : string;
  cap : int;
  overlap : bool;
  batch : int option;
}

let scenarios =
  [
    { name = "disjoint cap=1"; cap = 1; overlap = false; batch = None };
    { name = "disjoint cap=2"; cap = 2; overlap = false; batch = None };
    { name = "disjoint cap=4"; cap = 4; overlap = false; batch = None };
    { name = "disjoint cap=8"; cap = 8; overlap = false; batch = None };
    { name = "overlapping cap=8"; cap = 8; overlap = true; batch = None };
    { name = "disjoint cap=8 batch=4k"; cap = 8; overlap = false;
      batch = Some 4096 };
  ]

let json_row s o =
  Printf.sprintf
    "    {\"scenario\": %S, \"cap\": %d, \"overlap\": %b, \"batch_bytes\": %s, \
     \"ops\": %d, \"flows_per_op\": %d, \"makespan_virtual_s\": %.6f, \
     \"avg_op_virtual_s\": %.6f, \"ctrl_messages\": %d, \"peak_active\": %d, \
     \"peak_waiting\": %d}"
    s.name s.cap s.overlap
    (match s.batch with None -> "null" | Some b -> string_of_int b)
    ops flows o.makespan o.avg_op o.messages o.peak_active o.peak_waiting

(* --- shard scaling ------------------------------------------------------- *)

(* Controller-CPU-bound: 8 disjoint moves of 200 flows each is ~29 ms of
   serialized controller CPU per move, so the serial fabric's makespan is
   dominated by the one inbox worker and sharding it shows up directly. *)
let sweep_ops = 8
let sweep_flows = 200

let shard_sweep () =
  let runs =
    List.map
      (fun shards ->
        H.run_shard_workload ~ops:sweep_ops ~flows:sweep_flows ~shards ())
      (H.shard_counts ())
  in
  let serial =
    match runs with
    | first :: _ when first.H.s_shards = 1 -> Some first
    | _ -> None
  in
  let speedup r =
    match serial with
    | Some s -> s.H.s_makespan /. r.H.s_makespan
    | None -> 1.0
  in
  H.table
    ~header:
      [ "shards"; "makespan (ms)"; "speedup"; "cross-shard ops"; "ctrl msgs" ]
    (List.map
       (fun r ->
         [
           string_of_int r.H.s_shards; H.ms r.H.s_makespan;
           Printf.sprintf "%.2fx" (speedup r); string_of_int r.H.s_cross;
           string_of_int r.H.s_messages;
         ])
       runs);
  (match serial with
  | Some s
    when List.exists (fun r -> r.H.s_digest <> s.H.s_digest) runs ->
    H.note "shard sweep: semantic DIVERGENCE between shard counts"
  | _ -> H.note "shard sweep: identical semantic digests at every count");
  (runs, speedup)

let json_shard_row speedup r =
  Printf.sprintf
    "    {\"shards\": %d, \"ops\": %d, \"flows_per_op\": %d, \
     \"makespan_virtual_s\": %.6f, \"speedup_vs_serial\": %.2f, \
     \"cross_shard_ops\": %d, \"ctrl_messages\": %d}"
    r.H.s_shards sweep_ops sweep_flows r.H.s_makespan (speedup r) r.H.s_cross
    r.H.s_messages

let run () =
  H.section
    "Scheduler: mixed moves+copies makespan vs concurrency cap (dummy NFs)";
  (* One metrics-only hub shared by every scenario's fabric: the final
     snapshot aggregates the whole bench and must reconcile with the
     per-operation reports. *)
  let obs = Opennf_obs.Hub.create () in
  let rows =
    List.map
      (fun s ->
        (s, run_once ~obs ~cap:s.cap ~ops ~flows ~overlap:s.overlap ~batch:s.batch))
      scenarios
  in
  H.table
    ~header:
      [ "scenario"; "makespan (ms)"; "avg op (ms)"; "ctrl msgs";
        "peak active"; "peak waiting" ]
    (List.map
       (fun (s, o) ->
         [ s.name; H.ms o.makespan; H.ms o.avg_op; string_of_int o.messages;
           string_of_int o.peak_active; string_of_int o.peak_waiting ])
       rows);
  H.note
    "Expected shape: disjoint-filter makespan shrinks as the cap grows \
     (operations overlap in virtual time); overlapping operations \
     serialize to the cap=1 shape; piece batching cuts controller \
     messages for the same transfers.";
  H.section "Sharded control plane: disjoint-move makespan vs shard count";
  (* Separate fabrics without the shared hub: a sharded fabric interns
     shard-suffixed metric names, which would pollute the aggregated
     snapshot the reconciliation below checks. *)
  let shard_runs, speedup = shard_sweep () in
  let oc = open_out "BENCH_sched.json" in
  output_string oc "{\n  \"bench\": \"sched\",\n  \"rows\": [\n";
  output_string oc (String.concat ",\n" (List.map (fun (s, o) -> json_row s o) rows));
  output_string oc "\n  ],\n  \"shard_sweep\": [\n";
  output_string oc
    (String.concat ",\n" (List.map (json_shard_row speedup) shard_runs));
  output_string oc "\n  ]\n}\n";
  close_out oc;
  H.note "wrote BENCH_sched.json";
  let metrics = Opennf_obs.Hub.metrics obs in
  let cv = Opennf_obs.Metrics.counter_value metrics in
  let want_ops = List.length scenarios * ops in
  let want_chunks = List.fold_left (fun a (_, o) -> a + o.rep_chunks) 0 rows in
  let want_bytes = List.fold_left (fun a (_, o) -> a + o.rep_bytes) 0 rows in
  H.note
    "metrics reconciliation: op.completed=%d (reports: %d), op.chunks=%d \
     (reports: %d), op.bytes=%d (reports: %d)%s"
    (cv "op.completed") want_ops (cv "op.chunks") want_chunks (cv "op.bytes")
    want_bytes
    (if
       cv "op.completed" = want_ops
       && cv "op.chunks" = want_chunks
       && cv "op.bytes" = want_bytes
     then " -- ok"
     else " -- MISMATCH");
  H.write_metrics ~bench:"sched" obs

(* Standalone gate for @bench-check: the same disjoint workload on 1, 2
   and 4 shards must produce identical semantic digests (reports + final
   stores), every sharded run must admit cross-shard moves, and a
   repeated sharded run must reproduce its virtual makespan exactly (the
   sharded control plane stays deterministic). *)
let run_shardcheck () =
  H.section "Shard equivalence (sharded vs serial control plane)";
  let ops = 6 and flows = 40 in
  (* Destinations one shard over: every sharded move takes the two-shard
     admission handshake. *)
  let run shards = H.run_shard_workload ~cross:true ~ops ~flows ~shards () in
  let serial = run 1 in
  let sharded = List.map run [ 2; 4 ] in
  List.iter
    (fun r ->
      H.note "shards=%d: makespan %s ms, cross-shard ops %d, digest %s"
        r.H.s_shards (H.ms r.H.s_makespan) r.H.s_cross
        (if r.H.s_digest = serial.H.s_digest then "identical" else "DIVERGED"))
    (serial :: sharded);
  if List.exists (fun r -> r.H.s_digest <> serial.H.s_digest) sharded then
    failwith "shard check: sharded run diverged from the serial control plane";
  if List.exists (fun r -> r.H.s_cross = 0) sharded then
    failwith "shard check: a sharded run admitted no cross-shard operation";
  let again = run 4 in
  if again <> List.nth sharded 1 then
    failwith "shard check: repeated 4-shard run was not deterministic"

let () =
  H.register ~id:"sched" ~descr:"op scheduler + sb batching" run;
  H.register ~id:"shardcheck"
    ~descr:"sharded vs serial control plane: semantic-digest equivalence gate"
    run_shardcheck
