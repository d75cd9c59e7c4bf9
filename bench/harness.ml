(* Shared experiment scaffolding: table rendering, testbed builders and
   measurement helpers used by every bench_* module. *)

module Engine = Opennf_sim.Engine
module Proc = Opennf_sim.Proc
module Costs = Opennf_sb.Costs
module Runtime = Opennf_sb.Runtime
open Opennf_net
open Opennf

(* --- output ------------------------------------------------------------ *)

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let note fmt = Printf.ksprintf (fun s -> Printf.printf "%s\n" s) fmt

let table ~header rows =
  let all = header :: rows in
  let cols = List.length header in
  let width c =
    List.fold_left (fun acc row -> max acc (String.length (List.nth row c))) 0 all
  in
  let widths = List.init cols width in
  let print_row row =
    List.iteri
      (fun c cell -> Printf.printf "%-*s  " (List.nth widths c) cell)
      row;
    print_newline ()
  in
  print_row header;
  print_row (List.map (fun w -> String.make w '-') widths);
  List.iter print_row rows

let ms v = Printf.sprintf "%.1f" (1000.0 *. v)
let mb bytes = Printf.sprintf "%.1f" (float_of_int bytes /. 1_048_576.0)
let kb bytes = Printf.sprintf "%.1f" (float_of_int bytes /. 1024.0)

(* --- wall-clock measurement ---------------------------------------------- *)

type timed = {
  t_min : float;  (** Best of the repeats (s) — the noise-robust estimate. *)
  t_spread : float;  (** max - min over the repeats (s): run-to-run jitter. *)
  t_repeats : int;
}

(* Min-of-k wall time of [f], rebuilding everything each repeat. The
   minimum is the estimate (scheduling noise and cold caches only ever
   add time); the spread is recorded next to it in the BENCH JSON so a
   consumer gating on a ratio can judge whether the numbers are stable
   enough to gate on. OPENNF_BENCH_REPEATS overrides [k]. *)
let time_min_of ?(k = 3) f =
  let k =
    match Sys.getenv_opt "OPENNF_BENCH_REPEATS" with
    | Some s -> Stdlib.max 1 (int_of_string (String.trim s))
    | None -> k
  in
  let result = ref None in
  let times =
    List.init k (fun _ ->
        Gc.compact ();
        let t0 = Unix.gettimeofday () in
        let r = f () in
        result := Some r;
        Unix.gettimeofday () -. t0)
  in
  let mn = List.fold_left Float.min infinity times in
  let mx = List.fold_left Float.max neg_infinity times in
  ({ t_min = mn; t_spread = mx -. mn; t_repeats = k }, Option.get !result)

(* --- testbeds ----------------------------------------------------------- *)

type prads_bed = {
  fab : Fabric.t;
  nf1 : Controller.nf;
  nf2 : Controller.nf;
  rt1 : Runtime.t;
  rt2 : Runtime.t;
  keys : Flow.key list;
  move_at : float;
      (** Earliest time every flow's state exists at nf1 (the paper
          moves "once state for 500 flows has been created"). *)
}

(* The §8.1.1 testbed: two PRADS monitors, [flows] flows at [rate]
   packets/second initially routed to the first instance. *)
let prads_bed ?(seed = 101) ?(flows = 500) ?(rate = 2500.0) ?duration
    ?packet_out_rate ?resilience ?monitor () =
  let fab = Fabric.create ~seed ?packet_out_rate ?resilience ?monitor () in
  let prads1 = Opennf_nfs.Prads.create () in
  let prads2 = Opennf_nfs.Prads.create () in
  let nf1, rt1 =
    Fabric.add_nf fab ~name:"prads1" ~impl:(Opennf_nfs.Prads.impl prads1)
      ~costs:Costs.prads
  in
  let nf2, rt2 =
    Fabric.add_nf fab ~name:"prads2" ~impl:(Opennf_nfs.Prads.impl prads2)
      ~costs:Costs.prads
  in
  let gen = Opennf_trace.Gen.create ~seed:(seed * 3) () in
  let handshakes = 2.0 *. float_of_int flows /. rate in
  let move_at = 0.05 +. handshakes +. 0.5 in
  let duration =
    match duration with Some d -> d | None -> handshakes +. 2.5
  in
  let schedule, keys =
    Opennf_trace.Gen.steady_flows gen ~flows ~rate ~start:0.05 ~duration ()
  in
  List.iter (fun (at, p) -> Fabric.inject_at fab at p) schedule;
  Proc.spawn fab.engine (fun () -> Controller.set_route fab.ctrl Filter.any nf1);
  { fab; nf1; nf2; rt1; rt2; keys; move_at }

(* Run [body] at virtual time [at], then the whole simulation. *)
let run_at ?workers fab ~at body =
  Engine.schedule_at fab.Fabric.engine at (fun () ->
      Proc.spawn fab.Fabric.engine body);
  Fabric.run ?workers fab

(* Added latency (s) of the packets a move affected: those carried in
   events or buffered at the destination. *)
let affected_latency audit =
  let ids =
    List.sort_uniq Int.compare (Audit.evented_ids audit @ Audit.buffered_ids audit)
  in
  let stats = Opennf_util.Stats.Summary.create () in
  List.iter
    (fun pkt ->
      match Audit.added_latency audit ~pkt with
      | Some l -> Opennf_util.Stats.Summary.add stats l
      | None -> ())
    ids;
  stats

(* --- sharded control plane ----------------------------------------------- *)

(* The shard counts a bench sweeps. OPENNF_SHARDS pins the whole sweep
   to one count, so `OPENNF_SHARDS=2 ./main.exe sched` measures exactly
   that configuration; the bench passes each count to Fabric.create as
   [~shards]. *)
let shard_counts ?(default = [ 1; 2; 4 ]) () =
  match Sys.getenv_opt "OPENNF_SHARDS" with
  | None -> default
  | Some s -> [ int_of_string (String.trim s) ]

type shard_run = {
  s_shards : int;
  s_makespan : float;  (* Virtual s, submission to completion of last. *)
  s_cross : int;  (* Operations admitted via the cross-shard handshake. *)
  s_messages : int;  (* Inbound controller messages, summed over shards. *)
  s_digest : int64;  (* Semantic outcome digest (reports + final stores). *)
  s_domains : int;  (* Worker domains a parallel run stepped on; 0 serial. *)
}

(* The shard-scaling workload: [ops] disjoint loss-free moves between
   dummy pairs, pair [i] homed on shard [i mod shards]. Controller CPU
   dominates (3 inbound messages per flow), so the virtual makespan
   measures how well the control plane parallelizes; the digest proves
   the sharded run computed the same thing as the serial one. [cross]
   homes each pair's destination on shard [(i + 1) mod shards] instead,
   so with more than one shard every move goes through the cross-shard
   admission handshake (the digest does not depend on placement). [par]
   runs each shard on its own engine/domain; [obs]/[shard_obs] attach
   tracing hubs for canonical trace comparison; [workers] caps the
   domains of a parallel run. *)
(* [monitor] attaches the live guarantee checkers ({!Fabric.create});
   [on_fabric] runs after the simulation completes, before the fabric is
   dropped — the moncheck gate reads {!Fabric.verdict} through it. *)
let run_shard_workload ?(seed = 42) ?(cross = false) ?obs ?shard_obs ?par
    ?workers ?monitor ?on_fabric ~ops ~flows ~shards () =
  let subnet i = Ipaddr.Prefix.make (Ipaddr.v 10 (160 + i) 0 0) 16 in
  let servers = Ipaddr.Prefix.make (Ipaddr.v 172 31 0 0) 16 in
  let filter i = Filter.make ~src:(subnet i) ~dst:servers () in
  let keys i n =
    let base = Ipaddr.to_int (Ipaddr.v 10 (160 + i) 0 0) in
    List.init n (fun k ->
        Flow.make
          ~src:(Ipaddr.of_int (base + (k mod 250) + 1))
          ~dst:(Ipaddr.v 172 31 0 1) ~proto:Flow.Tcp ~sport:(20000 + k)
          ~dport:443 ())
  in
  let fab = Fabric.create ~seed ?obs ?shard_obs ?par ?monitor ~shards () in
  let pairs =
    List.init ops (fun i ->
        let d1 = Opennf_nfs.Dummy.create () in
        let d2 = Opennf_nfs.Dummy.create () in
        Opennf_nfs.Dummy.seed_flows d1 (keys i flows);
        let home = i mod shards in
        let dst_home = if cross then (i + 1) mod shards else home in
        let nf1, _ =
          Fabric.add_nf fab ~shard:home
            ~name:(Printf.sprintf "src%d" i)
            ~impl:(Opennf_nfs.Dummy.impl d1) ~costs:Costs.dummy
        in
        let nf2, _ =
          Fabric.add_nf fab ~shard:dst_home
            ~name:(Printf.sprintf "dst%d" i)
            ~impl:(Opennf_nfs.Dummy.impl d2) ~costs:Costs.dummy
        in
        (i, nf1, nf2, d1, d2))
  in
  Proc.spawn fab.engine (fun () ->
      List.iter
        (fun (i, nf1, _, _, _) -> Controller.set_route fab.ctrl (filter i) nf1)
        pairs);
  let finished = ref 0.0 in
  let digest = ref (Opennf_util.Hashing.fnv1a64 "shards") in
  let fold i = digest := Opennf_util.Hashing.combine !digest (Int64.of_int i) in
  run_at ?workers fab ~at:1.0 (fun () ->
      let ivars =
        List.map
          (fun (i, nf1, nf2, _, _) ->
            Move.submit fab.Fabric.sched
              (Move.spec ~src:nf1 ~dst:nf2 ~filter:(filter i)
                 ~guarantee:Move.Loss_free ~parallel:true ()))
          pairs
      in
      List.iter
        (fun ivar ->
          let r = Op_error.ok_exn (Proc.Ivar.read ivar) in
          fold r.Move.per_chunks;
          fold r.Move.state_bytes)
        ivars;
      finished := Engine.now fab.Fabric.engine);
  List.iter
    (fun (_, _, _, d1, d2) ->
      fold (Opennf_nfs.Dummy.flow_count d1);
      fold (Opennf_nfs.Dummy.imported_count d2))
    pairs;
  Option.iter (fun f -> f fab) on_fabric;
  {
    s_shards = shards;
    s_makespan = !finished -. 1.0;
    s_cross = Opennf.Shard.cross_shard_ops fab.Fabric.sched;
    s_messages = Opennf.Shard.messages_handled fab.Fabric.sched;
    s_digest = !digest;
    s_domains =
      (match fab.Fabric.par with
      | Some p -> Opennf_sim.Par.workers_used p
      | None -> 0);
  }

(* --- metrics snapshots --------------------------------------------------- *)

(* Metrics snapshot written next to the BENCH_*.json files. A separate
   file on purpose: the committed BENCH baselines must stay
   byte-identical whether or not a bench carries an observability hub. *)
let write_metrics ~bench hub =
  let path = Printf.sprintf "METRICS_%s.json" bench in
  let oc = open_out path in
  output_string oc
    (Opennf_obs.Export.metrics_json (Opennf_obs.Hub.metrics hub));
  output_string oc "\n";
  close_out oc;
  note "wrote %s" path

(* --- registry ------------------------------------------------------------ *)

type experiment = { id : string; descr : string; run : unit -> unit }

let experiments : experiment list ref = ref []
let register ~id ~descr run = experiments := { id; descr; run } :: !experiments
let all () = List.rev !experiments
