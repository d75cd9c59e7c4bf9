(* Flows-per-move sweep: does a move cost the same per flow at 1k, 2k
   and 4k flows?

   Two full-stack move workloads, at growing flows per move:

   - storm: 20 simultaneous loss-free parallel moves between Dummy pairs,
     no traffic (fig13; the controller and op engine carry the load);
   - live: two PRADS instances under 2500 pkt/s, six LF+OP moves with
     parallelizing and early release shuttling every flow (fig10/11;
     events relayed by the controller, late-lock filters, buffering and
     tombstones in the runtime).

   Every repeat runs with the layer timers on: the NF port handlers are
   re-installed as timed [Runtime.receive] calls and every field of the
   NF implementation is timed, with self-time accounting so a nested
   call is never counted twice. [run_s] is the min-of-k wall time of
   [Fabric.run] with its spread; the layer columns come from the fastest
   repeat. [residual] is [run_s] minus [sb.receive] and NF time: the
   controller, channels and engine dispatch together.

   Sizes come from OPENNF_MOVESWEEP_SIZES (default "1k 2k 4k"); the
   @bench-check smoke sets small ones. Writes BENCH_movesweep.json with a
   host fingerprint. The virtual-time columns (events, final clock) must
   not depend on the host or on the implementation of any index. *)

module H = Harness
module Engine = Opennf_sim.Engine
module Proc = Opennf_sim.Proc
module Runtime = Opennf_sb.Runtime
module Nf_api = Opennf_sb.Nf_api
module Costs = Opennf_sb.Costs
module Gen = Opennf_trace.Gen
module Prads = Opennf_nfs.Prads
module Dummy = Opennf_nfs.Dummy
open Opennf_net
open Opennf

(* --- self-time layer timers ---------------------------------------------- *)

type probe = { mutable calls : int; mutable busy : float }

let p_receive = { calls = 0; busy = 0.0 }
let p_nf = { calls = 0; busy = 0.0 }

(* Entering a probe charges the time since the last boundary to the
   probe below it on the stack, so the totals are self times. *)
let stack : probe list ref = ref []
let mark = ref 0.0

let charge now =
  (match !stack with
  | top :: _ -> top.busy <- top.busy +. (now -. !mark)
  | [] -> ());
  mark := now

let wrap p f x =
  charge (Unix.gettimeofday ());
  stack := p :: !stack;
  p.calls <- p.calls + 1;
  let leave () =
    charge (Unix.gettimeofday ());
    stack := List.tl !stack
  in
  match f x with
  | v ->
    leave ();
    v
  | exception e ->
    leave ();
    raise e

let instrument (i : Nf_api.impl) : Nf_api.impl =
  let w f = wrap p_nf f in
  {
    i with
    process_packet = w i.process_packet;
    list_perflow = w i.list_perflow;
    export_perflow = w i.export_perflow;
    import_perflow = (fun f c -> w (i.import_perflow f) c);
    delete_perflow = w i.delete_perflow;
    list_multiflow = w i.list_multiflow;
    export_multiflow = w i.export_multiflow;
    import_multiflow = (fun f c -> w (i.import_multiflow f) c);
    delete_multiflow = w i.delete_multiflow;
  }

let add_nf fab name impl costs =
  let nf, rt = Fabric.add_nf fab ~name ~impl:(instrument impl) ~costs in
  let _, port = Hashtbl.find fab.Fabric.ports name in
  Channel.set_handler port (wrap p_receive (Runtime.receive rt));
  nf

(* --- workloads ------------------------------------------------------------ *)

let spawn_at fab at body =
  Engine.schedule_at fab.Fabric.engine at (fun () ->
      Proc.spawn fab.Fabric.engine body)

let storm_moves = 20

let storm ~flows fab =
  let rng = Opennf_util.Rng.create ~seed:7 in
  let subnet i = Ipaddr.Prefix.make (Ipaddr.v 10 (40 + i) 0 0) 16 in
  let keys i =
    let seen = Hashtbl.create flows in
    let base = Ipaddr.to_int (Ipaddr.v 10 (40 + i) 0 0) in
    let rec draw acc k =
      if k = 0 then acc
      else
        let key =
          Flow.make
            ~src:(Ipaddr.of_int (base + 1 + Opennf_util.Rng.int rng 65_000))
            ~dst:(Ipaddr.v 172 30 (Opennf_util.Rng.int rng 250) 1)
            ~sport:(1024 + Opennf_util.Rng.int rng 60_000)
            ~dport:443 ()
        in
        if Hashtbl.mem seen key then draw acc k
        else begin
          Hashtbl.add seen key ();
          draw (key :: acc) (k - 1)
        end
    in
    draw [] flows
  in
  let pairs =
    List.init storm_moves (fun i ->
        let d1 = Dummy.create () in
        Dummy.seed_flows d1 (keys i);
        let src =
          add_nf fab (Printf.sprintf "src%d" i) (Dummy.impl d1) Costs.dummy
        in
        let dst =
          add_nf fab (Printf.sprintf "dst%d" i) (Dummy.impl (Dummy.create ()))
            Costs.dummy
        in
        (i, src, dst))
  in
  Proc.spawn fab.Fabric.engine (fun () ->
      List.iter
        (fun (i, src, _) ->
          Controller.set_route fab.Fabric.ctrl
            (Filter.of_src_prefix (subnet i))
            src)
        pairs);
  spawn_at fab 1.0 (fun () ->
      List.map
        (fun (i, src, dst) ->
          Move.start fab.Fabric.ctrl
            (Move.spec ~src ~dst ~filter:(Filter.of_src_prefix (subnet i))
               ~guarantee:Move.Loss_free ~parallel:true ()))
        pairs
      |> List.iter (fun iv -> ignore (Proc.Ivar.read iv)))

let live_moves = 6
let live_rate = 2500.0

let live ~flows fab =
  let gen = Gen.create ~seed:7 () in
  let nf1 = add_nf fab "prads1" (Prads.impl (Prads.create ())) Costs.prads in
  let nf2 = add_nf fab "prads2" (Prads.impl (Prads.create ())) Costs.prads in
  let handshakes = 2.0 *. float_of_int flows /. live_rate in
  let schedule, _ =
    Gen.steady_flows gen ~flows ~rate:live_rate ~start:0.05
      ~duration:(handshakes +. 7.0) ()
  in
  List.iter (fun (at, p) -> Fabric.inject_at fab at p) schedule;
  Proc.spawn fab.Fabric.engine (fun () ->
      Controller.set_route fab.Fabric.ctrl Filter.any nf1);
  spawn_at fab (0.55 +. handshakes) (fun () ->
      for k = 0 to live_moves - 1 do
        let src, dst = if k mod 2 = 0 then (nf1, nf2) else (nf2, nf1) in
        Move.spec ~src ~dst ~filter:Filter.any ~guarantee:Move.Order_preserving
          ~parallel:true ~early_release:true ()
        |> Move.submit fab.Fabric.sched |> Proc.Ivar.read |> ignore
      done)

(* --- measurement ---------------------------------------------------------- *)

type run = {
  run_s : float;
  receive_calls : int;
  receive_s : float;
  nf_s : float;
  events : int;
  minor_words : float;
  virtual_end : float;
}

let measure build ~flows =
  let fab = Fabric.create ~seed:1 () in
  build ~flows fab;
  p_receive.calls <- 0;
  p_receive.busy <- 0.0;
  p_nf.calls <- 0;
  p_nf.busy <- 0.0;
  Gc.compact ();
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  Fabric.run fab;
  let run_s = Unix.gettimeofday () -. t0 in
  {
    run_s;
    receive_calls = p_receive.calls;
    receive_s = p_receive.busy;
    nf_s = p_nf.busy;
    events = Engine.processed fab.Fabric.engine;
    minor_words = Gc.minor_words () -. w0;
    virtual_end = Engine.now fab.Fabric.engine;
  }

let repeats = 3

(* Min-of-k: the fastest repeat is the estimate and supplies the layer
   columns; the spread (max - min) is recorded beside it. Virtual
   outputs must agree across repeats. *)
let sweep_point build ~flows =
  let runs = List.init repeats (fun _ -> measure build ~flows) in
  let best =
    List.fold_left
      (fun b r -> if r.run_s < b.run_s then r else b)
      (List.hd runs) runs
  in
  let worst = List.fold_left (fun m r -> Float.max m r.run_s) 0.0 runs in
  let differs r = r.events <> best.events || r.virtual_end <> best.virtual_end in
  if List.exists differs runs then
    failwith "movesweep: virtual outputs differ across repeats";
  (best, worst -. best.run_s)

let ns_per_call r =
  if r.receive_calls = 0 then 0.0
  else 1e9 *. r.receive_s /. float_of_int r.receive_calls

let residual r = r.run_s -. r.receive_s -. r.nf_s
let words_per_event r = r.minor_words /. float_of_int (max 1 r.events)

let sizes () =
  match Sys.getenv_opt "OPENNF_MOVESWEEP_SIZES" with
  | Some s -> Bench_scale.parse_sizes s
  | None -> [ 1_000; 2_000; 4_000 ]

(* Per flow moved: flows per move times the moves of the workload. *)
let us_per_flow name flows r =
  let moves = if name = "storm" then storm_moves else live_moves in
  1e6 *. r.run_s /. float_of_int (moves * flows)

let json_row (name, flows, r, spread) =
  Printf.sprintf
    {|    {"workload": "%s", "flows_per_move": %d, "run_s_min": %.4f, "run_s_spread": %.4f, "repeats": %d, "run_us_per_flow_moved": %.2f, "sb_receive_calls": %d, "sb_receive_ns_per_call": %.0f, "nf_s": %.4f, "residual_s": %.4f, "minor_words_per_event": %.1f, "events": %d, "virtual_end_s": %.6f}|}
    name flows r.run_s spread repeats
    (us_per_flow name flows r) r.receive_calls (ns_per_call r) r.nf_s
    (residual r) (words_per_event r)
    r.events r.virtual_end

let run () =
  H.section "Flows-per-move sweep (per-flow move cost, per layer)";
  let rows =
    List.concat_map
      (fun (name, build) ->
        List.map
          (fun flows ->
            let r, spread = sweep_point build ~flows in
            (name, flows, r, spread))
          (sizes ()))
      [ ("storm", storm); ("live", live) ]
  in
  H.table
    ~header:
      [
        "workload"; "flows/move"; "run_s (min)"; "spread"; "us/flow moved";
        "sb.receive ns/call"; "nf s"; "residual s"; "minor w/event"; "events";
      ]
    (List.map
       (fun (name, flows, r, spread) ->
         [
           name; string_of_int flows; Printf.sprintf "%.3f" r.run_s;
           Printf.sprintf "%.3f" spread;
           Printf.sprintf "%.2f" (us_per_flow name flows r);
           Printf.sprintf "%.0f" (ns_per_call r);
           Printf.sprintf "%.3f" r.nf_s;
           Printf.sprintf "%.3f" (residual r);
           Printf.sprintf "%.0f" (words_per_event r);
           string_of_int r.events;
         ])
       rows);
  let oc = open_out "BENCH_movesweep.json" in
  Printf.fprintf oc
    "{\n  \"bench\": \"movesweep\",\n  \"host\": %s,\n  \"rows\": [\n%s\n  ]\n}\n"
    (H.host_fingerprint ())
    (String.concat ",\n" (List.map json_row rows));
  close_out oc;
  H.note "wrote BENCH_movesweep.json"

let () =
  H.register ~id:"movesweep"
    ~descr:"per-flow move cost at 1k/2k/4k flows per move, per layer" run
