(* One repeat of one benchmark workload, driven through [Fabric] the way
   users drive it, printed as one JSON object on stdout.

     bench.exe --workload W --seed N --mode untraced|traced|monitored
     bench.exe --selftest

   Modes:
   - [untraced]: the plain fabric; the wall metrics come from here.
   - [traced]: the same inputs, with timers around the calls into each
     layer's public functions (switch inject, NF port receive, every
     field of the NF implementation) and a tracing, metrics-recording
     observability hub for the counters and the critical path.
   - [monitored]: the plain fabric with the live guarantee monitors.

   Every mode checks the correctness gate and prints a digest of the
   virtual-time outputs; [run.py] compares digests across repeats and
   modes. [--selftest] shows the gate firing on a move seeded with the
   [Drop_buffered] bug, and passing on small clean workloads. *)

module Engine = Opennf_sim.Engine
module Proc = Opennf_sim.Proc
module Rng = Opennf_util.Rng
module Gen = Opennf_trace.Gen
module Hub = Opennf_obs.Hub
module Metrics = Opennf_obs.Metrics
module Monitor = Opennf_obs.Monitor
module Critical_path = Opennf_obs.Critical_path
module Runtime = Opennf_sb.Runtime
module Nf_api = Opennf_sb.Nf_api
module Costs = Opennf_sb.Costs
module Chunk = Opennf_state.Chunk
module Prads = Opennf_nfs.Prads
module Dummy = Opennf_nfs.Dummy
open Opennf_net
open Opennf

external now_ns : unit -> int = "perfbench_now_ns" [@@noalloc]

let secs ns = float_of_int ns /. 1e9

(* --- layer timers ------------------------------------------------------ *)

(* Self-time accounting over a stack of open layer calls: entering a
   layer charges the time since the last boundary to the layer below
   it, so nested calls are never counted twice and the layer totals
   add up to the wall time their calls covered. *)
module Probe = struct
  type t = { name : string; mutable calls : int; mutable ns : int }

  let all : t list ref = ref []

  let make name =
    let p = { name; calls = 0; ns = 0 } in
    all := p :: !all;
    p

  let stack = Array.make 64 { name = ""; calls = 0; ns = 0 }
  let depth = ref 0
  let mark = ref 0

  let enter p =
    let t = now_ns () in
    if !depth > 0 then begin
      let top = stack.(!depth - 1) in
      top.ns <- top.ns + (t - !mark)
    end;
    mark := t;
    stack.(!depth) <- p;
    incr depth;
    p.calls <- p.calls + 1

  let leave () =
    let t = now_ns () in
    decr depth;
    let top = stack.(!depth) in
    top.ns <- top.ns + (t - !mark);
    mark := t

  let wrap p f x =
    enter p;
    match f x with
    | v ->
      leave ();
      v
    | exception e ->
      leave ();
      raise e
end

let p_switch = Probe.make "switch.inject"
let p_receive = Probe.make "sb.receive"
let p_process = Probe.make "nf.process"
let p_export = Probe.make "nf.export"
let p_import = Probe.make "nf.import"
let p_list = Probe.make "nf.list"
let p_delete = Probe.make "nf.delete"
let export_bytes = ref 0

let count_chunk = function
  | Some c as r ->
    export_bytes := !export_bytes + Chunk.size c;
    r
  | None -> None

(* Every field of the NF implementation, timed. *)
let instrument (i : Nf_api.impl) : Nf_api.impl =
  let w = Probe.wrap in
  {
    i with
    process_packet = w p_process i.process_packet;
    list_perflow = w p_list i.list_perflow;
    export_perflow = (fun f -> count_chunk (w p_export i.export_perflow f));
    import_perflow = (fun f c -> w p_import (i.import_perflow f) c);
    delete_perflow = w p_delete i.delete_perflow;
    list_multiflow = w p_list i.list_multiflow;
    export_multiflow = (fun f -> count_chunk (w p_export i.export_multiflow f));
    import_multiflow = (fun f c -> w p_import (i.import_multiflow f) c);
    delete_multiflow = w p_delete i.delete_multiflow;
    export_allflows =
      (fun () ->
        let cs = w p_export i.export_allflows () in
        List.iter (fun c -> ignore (count_chunk (Some c))) cs;
        cs);
    import_allflows = w p_import i.import_allflows;
  }

(* --- workloads ---------------------------------------------------------- *)

type mode = Untraced | Traced | Monitored

let modes = [ Untraced; Traced; Monitored ]

let mode_name = function
  | Untraced -> "untraced"
  | Traced -> "traced"
  | Monitored -> "monitored"

type workload = Steady | Storm | Live

let workload_name = function
  | Steady -> "steady-datapath"
  | Storm -> "move-storm"
  | Live -> "live-op-move"

let workload_of_string = function
  | "steady-datapath" -> Steady
  | "move-storm" -> Storm
  | "live-op-move" -> Live
  | s -> failwith ("unknown workload " ^ s)

(* Workload sizes; flow counts vary by a few percent with the seed.
   [full] keeps each PRADS instance below its capacity (75 us of CPU per
   packet, about 13k pkt/s) and the live moves below the rate the
   controller can relay packets at, so every workload is in a steady
   state (see README.md). [small] shrinks them for the self-test. *)
type sizes = {
  steady_flows : int;
  steady_rate : float;
  steady_secs : float;  (* Virtual seconds of data packets. *)
  storm_moves : int;
  storm_flows : int;  (* Per move. *)
  live_flows : int;
  live_rate : float;
  live_moves : int;
  live_secs : float;
}

let full =
  {
    steady_flows = 10_000;
    steady_rate = 10_000.0;
    steady_secs = 3.0;
    storm_moves = 20;
    storm_flows = 1000;
    live_flows = 2000;
    live_rate = 2500.0;
    live_moves = 6;
    live_secs = 7.0;
  }

let small =
  {
    steady_flows = 300;
    steady_rate = 3000.0;
    steady_secs = 0.5;
    storm_moves = 3;
    storm_flows = 100;
    live_flows = 150;
    live_rate = 1500.0;
    live_moves = 2;
    live_secs = 2.0;
  }

type built = {
  fab : Fabric.t;
  hub : Hub.t option;
  nfs : (string * Runtime.t * Nf_api.impl) list;
      (** Name, runtime and the {e uninstrumented} implementation. *)
  injected : int;
  guarantee : Move.guarantee option;  (** Of the workload's moves. *)
  expect_moves : int;
  moves : (Move.report, Op_error.t) result list ref;  (** Newest first. *)
  submit_at : float;
  checks : unit -> string list;  (** Workload-specific correctness. *)
}

let add_nfs fab ~mode specs =
  List.map
    (fun (name, impl, costs) ->
      let wired = if mode = Traced then instrument impl else impl in
      let nf, rt = Fabric.add_nf fab ~name ~impl:wired ~costs in
      (nf, (name, rt, impl)))
    specs

(* The NF port handlers [Fabric.add_nf] installed, re-installed as timed
   calls of the same [Runtime.receive]. *)
let time_ports (fab : Fabric.t) nfs =
  List.iter
    (fun (name, rt, _) ->
      let _, port = Hashtbl.find fab.Fabric.ports name in
      Channel.set_handler port (Probe.wrap p_receive (Runtime.receive rt)))
    nfs

let inject_all (fab : Fabric.t) ~mode schedule =
  List.iter
    (fun (at, p) ->
      match mode with
      | Traced ->
        (* Exactly [Fabric.inject_at] on a serial fabric, timed. *)
        Engine.schedule_at fab.Fabric.engine at (fun () ->
            Probe.wrap p_switch (Switch.inject fab.Fabric.switch) p)
      | Untraced | Monitored -> Fabric.inject_at fab at p)
    schedule;
  List.length schedule

let fabric ~mode ~seed =
  match mode with
  | Untraced -> (Fabric.create ~seed ~monitor:false (), None)
  | Monitored -> (Fabric.create ~seed ~monitor:true (), None)
  | Traced ->
    let hub = Hub.create ~trace:true ~metrics:true () in
    (Fabric.create ~seed ~obs:hub ~monitor:false (), Some hub)

let spawn_at (fab : Fabric.t) at body =
  Engine.schedule_at fab.Fabric.engine at (fun () ->
      Proc.spawn fab.Fabric.engine body)

(* Seed-drawn flow space: a different /16 source and destination net per
   seed, so flow keys (and so every hash-indexed structure) vary with it. *)
let nets rng =
  ( Ipaddr.v 10 (1 + Rng.int rng 200) 0 0,
    Ipaddr.v 172 (16 + Rng.int rng 16) 0 0 )

let around rng n pct =
  let d = n * pct / 100 in
  n - d + Rng.int rng ((2 * d) + 1)

let steady sz ~mode ~seed =
  let gen = Gen.create ~seed () in
  let rng = Gen.rng gen in
  let flows = around rng sz.steady_flows 3 in
  let src_net, dst_net = nets rng in
  let fab, hub = fabric ~mode ~seed in
  let nfs =
    add_nfs fab ~mode [ ("prads1", Prads.impl (Prads.create ()), Costs.prads) ]
  in
  let nf = fst (List.hd nfs) and nfs = List.map snd nfs in
  if mode = Traced then time_ports fab nfs;
  let schedule, _ =
    Gen.steady_flows gen ~flows ~rate:sz.steady_rate ~start:0.05
      ~duration:sz.steady_secs ~src_net ~dst_net ()
  in
  let injected = inject_all fab ~mode schedule in
  Proc.spawn fab.Fabric.engine (fun () ->
      Controller.set_route fab.Fabric.ctrl Filter.any nf);
  {
    fab;
    hub;
    nfs;
    injected;
    guarantee = None;
    expect_moves = 0;
    moves = ref [];
    submit_at = 0.0;
    checks = (fun () -> []);
  }

(* §8.3 / Figure 13: simultaneous loss-free parallel moves between Dummy
   pairs, each over its own /16 source subnet; no traffic. *)
let storm sz ~mode ~seed =
  let gen = Gen.create ~seed () in
  let rng = Gen.rng gen in
  let fab, hub = fabric ~mode ~seed in
  let subnet i = Ipaddr.Prefix.make (Ipaddr.v 10 (40 + i) 0 0) 16 in
  let keys i n =
    let seen = Hashtbl.create n in
    let base = Ipaddr.to_int (Ipaddr.v 10 (40 + i) 0 0) in
    let rec draw acc k =
      if k = 0 then acc
      else
        let key =
          Flow.make
            ~src:(Ipaddr.of_int (base + 1 + Rng.int rng 65_000))
            ~dst:(Ipaddr.v 172 30 (Rng.int rng 250) (1 + Rng.int rng 250))
            ~proto:Flow.Tcp
            ~sport:(1024 + Rng.int rng 60_000)
            ~dport:443 ()
        in
        if Hashtbl.mem seen key then draw acc k
        else begin
          Hashtbl.add seen key ();
          draw (key :: acc) (k - 1)
        end
    in
    draw [] n
  in
  let pairs =
    List.init sz.storm_moves (fun i ->
        let n = around rng sz.storm_flows 5 in
        let d1 = Dummy.create () and d2 = Dummy.create () in
        Dummy.seed_flows d1 (keys i n);
        let added =
          add_nfs fab ~mode
            [
              (Printf.sprintf "src%d" i, Dummy.impl d1, Costs.dummy);
              (Printf.sprintf "dst%d" i, Dummy.impl d2, Costs.dummy);
            ]
        in
        (i, n, d1, d2, added))
  in
  let nfs = List.concat_map (fun (_, _, _, _, a) -> List.map snd a) pairs in
  if mode = Traced then time_ports fab nfs;
  Proc.spawn fab.Fabric.engine (fun () ->
      List.iter
        (fun (i, _, _, _, a) ->
          Controller.set_route fab.Fabric.ctrl
            (Filter.of_src_prefix (subnet i))
            (fst (List.hd a)))
        pairs);
  let moves = ref [] in
  let submit_at = 1.0 in
  spawn_at fab submit_at (fun () ->
      let ivars =
        List.map
          (fun (i, _, _, _, a) ->
            let src = fst (List.nth a 0) and dst = fst (List.nth a 1) in
            Move.start fab.Fabric.ctrl
              (Move.spec ~src ~dst
                 ~filter:(Filter.of_src_prefix (subnet i))
                 ~guarantee:Move.Loss_free ~parallel:true ()))
          pairs
      in
      List.iter (fun iv -> moves := Proc.Ivar.read iv :: !moves) ivars);
  let checks () =
    List.concat_map
      (fun (i, n, d1, d2, _) ->
        (if Dummy.flow_count d1 <> 0 then
           [ Printf.sprintf "move %d left %d flows at the source" i
               (Dummy.flow_count d1) ]
         else [])
        @
        if Dummy.imported_count d2 <> n then
          [ Printf.sprintf "move %d installed %d of %d flows" i
              (Dummy.imported_count d2) n ]
        else [])
      pairs
  in
  {
    fab;
    hub;
    nfs;
    injected = 0;
    guarantee = Some Move.Loss_free;
    expect_moves = sz.storm_moves;
    moves;
    submit_at;
    checks;
  }

(* Figures 10/11: LF+OP moves with parallelizing and early release
   shuttling every flow between two PRADS instances under live traffic,
   starting once every flow's handshake has created its state. With
   [break_lf] the moves are loss-free only and carry the seeded
   [Drop_buffered] bug (self-test). *)
let live ?(break_lf = false) sz ~mode ~seed =
  let gen = Gen.create ~seed () in
  let rng = Gen.rng gen in
  let flows = around rng sz.live_flows 3 in
  let src_net, dst_net = nets rng in
  let fab, hub = fabric ~mode ~seed in
  let p1 = Prads.create () and p2 = Prads.create () in
  let added =
    add_nfs fab ~mode
      [
        ("prads1", Prads.impl p1, Costs.prads);
        ("prads2", Prads.impl p2, Costs.prads);
      ]
  in
  let nf1 = fst (List.nth added 0) and nf2 = fst (List.nth added 1) in
  let nfs = List.map snd added in
  if mode = Traced then time_ports fab nfs;
  let handshakes = 2.0 *. float_of_int flows /. sz.live_rate in
  let schedule, _ =
    Gen.steady_flows gen ~flows ~rate:sz.live_rate ~start:0.05
      ~duration:(handshakes +. sz.live_secs) ~src_net ~dst_net ()
  in
  let traffic_end = fst (List.nth schedule (List.length schedule - 1)) in
  let injected = inject_all fab ~mode schedule in
  Proc.spawn fab.Fabric.engine (fun () ->
      Controller.set_route fab.Fabric.ctrl Filter.any nf1);
  let guarantee = if break_lf then Move.Loss_free else Move.Order_preserving in
  let moves = ref [] in
  let submit_at = 0.05 +. handshakes +. 0.5 in
  spawn_at fab submit_at (fun () ->
      for k = 0 to sz.live_moves - 1 do
        let src, dst = if k mod 2 = 0 then (nf1, nf2) else (nf2, nf1) in
        let spec =
          if break_lf then
            Move.spec ~src ~dst ~filter:Filter.any ~guarantee ~parallel:true
              ~break_for_test:Move.Drop_buffered ()
          else
            Move.spec ~src ~dst ~filter:Filter.any ~guarantee ~parallel:true
              ~early_release:true ()
        in
        moves := Proc.Ivar.read (Move.submit fab.Fabric.sched spec) :: !moves
      done);
  let checks () =
    let last_done =
      List.fold_left
        (fun acc -> function Ok r -> max acc r.Move.finished | Error _ -> acc)
        0.0 !moves
    in
    let home, away = if sz.live_moves mod 2 = 0 then (p1, p2) else (p2, p1) in
    (if last_done > traffic_end then
       [ Printf.sprintf "traffic ended at %.3fs, before the last move (%.3fs)"
           traffic_end last_done ]
     else [])
    @ (if Prads.connection_count away <> 0 then
         [ Printf.sprintf "%d connections left behind after the last move"
             (Prads.connection_count away) ]
       else [])
    @
    if Prads.connection_count home <> flows then
      [ Printf.sprintf "%d of %d connections at the final instance"
          (Prads.connection_count home) flows ]
    else []
  in
  {
    fab;
    hub;
    nfs;
    injected;
    guarantee = Some guarantee;
    expect_moves = sz.live_moves;
    moves;
    submit_at;
    checks;
  }

let build ?break_lf sz w ~mode ~seed =
  match w with
  | Steady -> steady sz ~mode ~seed
  | Storm -> storm sz ~mode ~seed
  | Live -> live ?break_lf sz ~mode ~seed

(* --- outputs -------------------------------------------------------------- *)

(* FNV-1a, 64-bit: a stable digest of the virtual-time outputs. *)
let fnv = ref 0xcbf29ce484222325L

let feed s =
  String.iter
    (fun c ->
      let x = Int64.logxor !fnv (Int64.of_int (Char.code c)) in
      fnv := Int64.mul x 0x100000001b3L)
    s;
  fnv := Int64.mul (Int64.logxor !fnv 0xffL) 0x100000001b3L

let feedf x = feed (Printf.sprintf "%h" x)

(* Every NF's final state, read through its own uninstrumented export
   functions after the run. *)
let state_digest nfs =
  List.iter
    (fun (name, _, (i : Nf_api.impl)) ->
      feed name;
      let chunks list export =
        List.filter_map
          (fun f ->
            Option.map
              (fun (c : Chunk.t) ->
                Filter.to_string f ^ "=" ^ c.kind ^ ":" ^ c.data)
              (export f))
          (list Filter.any)
        |> List.sort String.compare
      in
      List.iter feed (chunks i.list_perflow i.export_perflow);
      List.iter feed (chunks i.list_multiflow i.export_multiflow);
      List.iter
        (fun (c : Chunk.t) -> feed (c.kind ^ ":" ^ c.data))
        (i.export_allflows ()))
    nfs

let sorted l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile. *)
let pct a p =
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

module J = struct
  let buf = Buffer.create 4096
  let first = ref true

  let sep () =
    if not !first then Buffer.add_char buf ',';
    first := false

  let key k =
    sep ();
    Buffer.add_string buf (Printf.sprintf "%S:" k)

  let num k v =
    key k;
    Buffer.add_string buf
      (if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
       else Printf.sprintf "%.17g" v)

  let int k v = num k (float_of_int v)

  let str k v =
    key k;
    Buffer.add_string buf (Printf.sprintf "%S" v)

  let bool k v =
    key k;
    Buffer.add_string buf (if v then "true" else "false")

  let strs k l =
    key k;
    Buffer.add_string buf
      ("[" ^ String.concat "," (List.map (Printf.sprintf "%S") l) ^ "]")

  let obj k f =
    key k;
    Buffer.add_char buf '{';
    first := true;
    f ();
    Buffer.add_char buf '}';
    first := false

  let render f =
    Buffer.clear buf;
    first := true;
    Buffer.add_char buf '{';
    f ();
    Buffer.add_char buf '}';
    Buffer.contents buf
end

(* --- one repeat -------------------------------------------------------- *)

let word_mb = float_of_int (Sys.word_size / 8) /. 1048576.0
let share n d = if d = 0 then 0.0 else float_of_int n /. float_of_int d

(* Virtual critical-path totals over every completed op: the scheduler
   queue wait and one entry per phase slice, "/" mapped to ".". *)
let critical_path trace =
  let paths = Critical_path.analyze trace in
  J.num "cp.queue_wait_ms"
    (1e3
    *. List.fold_left (fun acc o -> acc +. o.Critical_path.cp_queue_wait) 0.0
         paths);
  let phases = Hashtbl.create 16 in
  List.iter
    (fun o ->
      List.iter
        (fun (ph, d) ->
          let prev = Option.value ~default:0.0 (Hashtbl.find_opt phases ph) in
          Hashtbl.replace phases ph (prev +. d))
        o.Critical_path.cp_slices)
    paths;
  Hashtbl.fold (fun ph d acc -> (ph, d) :: acc) phases []
  |> List.sort compare
  |> List.iter (fun (ph, d) ->
         let name = String.map (function '/' -> '.' | c -> c) ph in
         J.num ("cp." ^ name ^ "_ms") (1e3 *. d))

(* The dispatch floor: [events] no-op closures through a fresh engine. *)
let noop_dispatch_ns events =
  let e = Engine.create () in
  let noop () = () in
  for k = 1 to events do
    Engine.schedule_at e (float_of_int k *. 1e-6) noop
  done;
  let t = now_ns () in
  Engine.run e;
  float_of_int (now_ns () - t) /. float_of_int (max 1 events)

(* The gate's view of the guarantee findings: properties the workload's
   moves promise are failures; order findings under loss-free-only moves
   are legitimate and only counted. *)
let classify (b : built) findings =
  let fatal (f : Monitor.finding) =
    match (f.property, b.guarantee) with
    | Monitor.Order, Some Move.Loss_free -> false
    | _ -> true
  in
  List.partition fatal findings

let gate (b : built) ~verdict ~processed_ids =
  let fatal, tolerated = classify b verdict in
  let fails = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> fails := s :: !fails) fmt in
  List.iter
    (fun p ->
      let n =
        List.length
          (List.filter (fun (f : Monitor.finding) -> f.property = p) fatal)
      in
      if n > 0 then fail "%d %s finding(s)" n (Monitor.property_name p))
    Monitor.[ Loss; Duplicate; Buffer_conservation; Order ];
  let names = List.map (fun (n, _, _) -> n) b.nfs in
  let lost = List.length (Audit.lost b.fab.Fabric.audit ~nfs:names) in
  if lost > 0 then fail "Audit.lost = %d" lost;
  let errors =
    List.filter_map (function Ok _ -> None | Error e -> Some e) !(b.moves)
  in
  List.iter
    (fun e -> fail "move failed: %s" (Format.asprintf "%a" Op_error.pp e))
    errors;
  if List.length !(b.moves) <> b.expect_moves then
    fail "%d of %d moves completed" (List.length !(b.moves)) b.expect_moves;
  if b.guarantee = None && processed_ids <> b.injected then
    fail "%d of %d injected packets processed" processed_ids b.injected;
  List.iter (fun s -> fail "%s" s) (b.checks ());
  (List.rev !fails, List.length tolerated, List.length errors)

let run_once ?break_lf ?(verdict = true) sz w ~mode ~seed =
  let records = ref 0 and buffered = ref 0 in
  let t0 = now_ns () in
  let b = build ?break_lf sz w ~mode ~seed in
  let t1 = now_ns () in
  if mode = Traced then
    Audit.on_record b.fab.Fabric.audit (fun kind _ ->
        incr records;
        if String.equal kind "buffer" then incr buffered);
  List.iter (fun p -> p.Probe.calls <- 0; p.Probe.ns <- 0) !Probe.all;
  export_bytes := 0;
  let g0 = Gc.quick_stat () in
  Fabric.run b.fab;
  let t2 = now_ns () in
  let g1 = Gc.quick_stat () in
  let heap_mb = float_of_int g1.Gc.top_heap_words *. word_mb in
  let verdict =
    if verdict then Fabric.verdict b.fab else Fabric.live_findings b.fab
  in
  let t3 = now_ns () in
  let audit = b.fab.Fabric.audit in
  let events = Engine.processed b.fab.Fabric.engine in
  (* Virtual outputs. *)
  let processed_ids =
    let seen = Hashtbl.create 4096 in
    List.iter
      (fun id -> Hashtbl.replace seen id ())
      (Audit.processed_order audit);
    Hashtbl.length seen
  in
  let reports =
    List.rev !(b.moves)
    |> List.filter_map (function Ok r -> Some r | Error _ -> None)
  in
  let durations = List.map (fun r -> 1e3 *. Move.duration r) reports in
  let makespan =
    List.fold_left (fun acc r -> max acc r.Move.finished) b.submit_at reports
    -. b.submit_at
  in
  let latencies =
    if b.expect_moves = 0 || b.injected = 0 then []
    else
      List.sort_uniq Int.compare
        (Audit.evented_ids audit @ Audit.buffered_ids audit)
      |> List.filter_map (fun pkt -> Audit.added_latency audit ~pkt)
      |> List.map (fun s -> 1e3 *. s)
  in
  let failures, order_findings, move_errors = gate b ~verdict ~processed_ids in
  let fails_reconcile = ref [] in
  fnv := 0xcbf29ce484222325L;
  feed (string_of_int events);
  feedf (Engine.now b.fab.Fabric.engine);
  List.iter
    (fun r ->
      feedf r.Move.started;
      feedf r.Move.finished;
      feed
        (Printf.sprintf "%d/%d/%d/%d" r.Move.per_chunks r.Move.multi_chunks
           r.Move.state_bytes r.Move.relayed))
    reports;
  List.iter feedf latencies;
  feed (string_of_int processed_ids);
  state_digest b.nfs;
  let sum_rt f = List.fold_left (fun acc (_, rt, _) -> acc + f rt) 0 b.nfs in
  let port_sent =
    List.fold_left
      (fun acc (name, _, _) ->
        acc + Channel.sent_count (snd (Hashtbl.find b.fab.Fabric.ports name)))
      0 b.nfs
  in
  let chunks_moved =
    List.fold_left
      (fun acc r -> acc + r.Move.per_chunks + r.Move.multi_chunks)
      0 reports
  in
  if mode = Traced then begin
    let check name ok lhs rhs =
      if not ok then
        fails_reconcile :=
          Printf.sprintf "reconciliation: %s (%d vs %d)" name lhs rhs
          :: !fails_reconcile
    in
    check "switch.injects = packets scheduled"
      (p_switch.calls = b.injected) p_switch.calls b.injected;
    let processed = sum_rt Runtime.processed_count in
    check "nf.process.calls = sum Runtime.processed_count"
      (p_process.calls = processed) p_process.calls processed;
    check "sb.receive.calls = sum data-port Channel.sent_count"
      (p_receive.calls = port_sent) p_receive.calls port_sent;
    check "nf.export.calls >= sum (per_chunks + multi_chunks)"
      (p_export.calls >= chunks_moved) p_export.calls chunks_moved
  end;
  let failures = failures @ List.rev !fails_reconcile in
  let lat = sorted latencies and dur = sorted durations in
  let lost = b.injected - processed_ids in
  let json =
    J.render (fun () ->
        J.str "workload" (workload_name w);
        J.int "seed" seed;
        J.str "mode" (mode_name mode);
        J.str "ocaml" Sys.ocaml_version;
        J.bool "ok" (failures = []);
        J.strs "failures" failures;
        J.str "digest" (Printf.sprintf "%016Lx" !fnv);
        J.num "setup_s" (secs (t1 - t0));
        J.num "run_s" (secs (t2 - t1));
        J.num "verdict_s" (secs (t3 - t2));
        J.num "peak_heap_mb" heap_mb;
        J.int "injected" b.injected;
        J.int "lost" (max 0 lost);
        J.int "moves" b.expect_moves;
        J.int "move_errors" move_errors;
        J.int "order_findings" order_findings;
        J.obj "virtual" (fun () ->
            J.num "pkt_loss_ratio" (share (max 0 lost) b.injected);
            J.num "op_fail_ratio" (share move_errors b.expect_moves);
            J.num "move_ms_p50" (pct dur 0.5);
            J.int "move_samples" (Array.length dur);
            J.num "makespan_ms" (1e3 *. makespan);
            J.num "added_latency_ms_p50" (pct lat 0.5);
            J.num "added_latency_ms_p99" (pct lat 0.99);
            J.int "added_latency_samples" (Array.length lat);
            J.int "events" events);
        J.obj "gc" (fun () ->
            J.int "minor_collections"
              (g1.Gc.minor_collections - g0.Gc.minor_collections);
            J.int "major_collections"
              (g1.Gc.major_collections - g0.Gc.major_collections);
            J.num "minor_words" (g1.Gc.minor_words -. g0.Gc.minor_words);
            J.num "major_words" (g1.Gc.major_words -. g0.Gc.major_words));
        match b.hub with
        | None -> ()
        | Some hub ->
          let fab = b.fab in
          let total f = List.fold_left (fun acc r -> acc + f r) 0 reports in
          J.obj "layers" (fun () ->
              List.iter
                (fun p ->
                  J.int (p.Probe.name ^ ".calls") p.Probe.calls;
                  J.num (p.Probe.name ^ ".busy_s") (secs p.Probe.ns))
                (List.rev !Probe.all);
              J.int "nf.export.bytes" !export_bytes;
              J.int "switch.table_misses" (Switch.table_misses fab.switch);
              let hits, misses = Switch.decision_cache_stats fab.switch in
              J.int "switch.cache_hits" hits;
              J.int "switch.cache_misses" misses;
              J.int "sb.processed" (sum_rt Runtime.processed_count);
              J.int "sb.buffered" !buffered;
              J.int "sb.tombstone_dropped" (sum_rt Runtime.tombstone_dropped);
              List.iter
                (fun name ->
                  J.int name (Metrics.counter_value (Hub.metrics hub) name))
                [
                  "sb.requests"; "sb.replies"; "sb.request_bytes";
                  "sb.reply_bytes"; "op.chunks"; "op.bytes"; "ctrl.dup_pieces";
                  "ctrl.retries"; "ch.msgs"; "ch.bytes";
                ];
              J.int "ch.data_sent" port_sent;
              J.int "ctrl.messages" (Controller.messages_handled fab.ctrl);
              J.int "move.relayed" (total (fun r -> r.Move.relayed));
              J.int "move.state_bytes" (total (fun r -> r.Move.state_bytes));
              J.int "audit.records" !records;
              critical_path (Hub.trace hub);
              J.num "sim.noop_dispatch_ns" (noop_dispatch_ns events)))
  in
  (failures = [], json)

(* --- self-test ------------------------------------------------------------ *)

let selftest () =
  let ok = ref true in
  let expect what cond =
    Printf.eprintf "selftest: %-58s %s\n%!" what
      (if cond then "ok" else "FAILED");
    if not cond then ok := false
  in
  List.iter
    (fun w ->
      List.iter
        (fun mode ->
          expect
            (Printf.sprintf "%s (%s) passes the gate" (workload_name w)
               (mode_name mode))
            (fst (run_once small w ~mode ~seed:7)))
        [ Untraced; Traced ])
    [ Steady; Storm; Live ];
  expect "seeded Drop_buffered move fails the gate"
    (not (fst (run_once ~break_lf:true small Live ~mode:Untraced ~seed:7)));
  if not !ok then exit 1

let () =
  let workload = ref "" and seed = ref 1 and mode = ref "untraced" in
  let verdict = ref true and self = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload,
       "W steady-datapath|move-storm|live-op-move");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--mode", Arg.Set_string mode, "M untraced|traced|monitored");
      ("--no-verdict", Arg.Clear verdict,
       " skip the guarantee verdict (a repeat of an already checked seed)");
      ("--selftest", Arg.Set self, " run the gate self-test");
    ]
    (fun a -> raise (Arg.Bad a))
    "bench.exe --workload W --seed N --mode M";
  if !self then selftest ()
  else
    let mode =
      try List.find (fun m -> mode_name m = !mode) modes
      with Not_found -> failwith ("unknown mode " ^ !mode)
    in
    let ok, json =
      run_once ~verdict:!verdict full (workload_of_string !workload) ~mode
        ~seed:!seed
    in
    print_endline json;
    if not ok then exit 1
