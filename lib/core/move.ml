module Engine = Opennf_sim.Engine
module Proc = Opennf_sim.Proc
module Protocol = Opennf_sb.Protocol
open Opennf_net
open Opennf_state

let ( let* ) = Result.bind

type guarantee = No_guarantee | Loss_free | Order_preserving

let pp_guarantee ppf g =
  Format.pp_print_string ppf
    (match g with
    | No_guarantee -> "none"
    | Loss_free -> "loss-free"
    | Order_preserving -> "loss-free+order-preserving")

type phase =
  | Transfer_started
  | State_captured
  | State_deleted
  | State_installed
  | Phase1_installed
  | Phase2_installed

(* Deliberately broken protocol variants (monitor test fixtures). *)
type break_for_test = Skip_order_wait | Drop_buffered

type spec = {
  src : Controller.nf;
  dst : Controller.nf;
  filter : Filter.t;
  scope : Scope.t list;
  guarantee : guarantee;
  options : Op_options.t;
  disable_grace : float;
      (** How long after completion to disable the source's events
          (§5.1.1: "after several minutes" — long enough for stragglers
          in flight or queued at the source to drain). *)
  on_phase : (phase -> unit) option;
  break_for_test : break_for_test option;
}

let spec ~src ~dst ~filter ?(scope = [ Scope.Per ]) ?(guarantee = Loss_free)
    ?options ?parallel ?early_release ?compress ?(disable_grace = 0.5)
    ?on_phase ?break_for_test () =
  let options =
    match options with
    | Some o -> o
    | None -> Op_options.make ?parallel ?early_release ?compress ()
  in
  {
    src;
    dst;
    filter;
    scope;
    guarantee;
    options;
    disable_grace;
    on_phase;
    break_for_test;
  }

let validate spec =
  if
    spec.options.Op_options.early_release
    && Scope.mem Scope.Per spec.scope
    && Scope.mem Scope.Multi spec.scope
  then
    Error
      (Op_error.Bad_spec
         {
           reason =
             "early release cannot combine per-flow and multi-flow scopes \
              (§5.1.3)";
         })
  else if spec.options.Op_options.early_release && Scope.mem Scope.All spec.scope
  then
    Error
      (Op_error.Bad_spec
         {
           reason =
             "early release lets the source keep processing during the \
              transfer, so it cannot give a consistent all-flows snapshot";
         })
  else Ok ()

let fire spec phase = Option.iter (fun f -> f phase) spec.on_phase

type report = {
  rp_filter : Filter.t;
  rp_src : string;
  rp_dst : string;
  rp_guarantee : guarantee;
  started : float;
  finished : float;
  per_chunks : int;
  multi_chunks : int;
  state_bytes : int;
  relayed : int;
}

let duration r = r.finished -. r.started

let pp_report ppf r =
  Format.fprintf ppf
    "move %s->%s %a (%a): %.1fms, %d per-flow + %d multi-flow chunks, %dB \
     state, %d packets relayed"
    r.rp_src r.rp_dst Filter.pp r.rp_filter pp_guarantee r.rp_guarantee
    (1000.0 *. duration r)
    r.per_chunks r.multi_chunks r.state_bytes r.relayed

(* Relay bookkeeping for loss-free moves: packets arriving at the source
   during the move reach the controller as events and are re-injected
   toward the destination via packet-outs. [dst_port] is mutable so a
   rollback can redirect still-buffered packets to the survivor. *)
type relay_state = {
  ctrl : Controller.t;
  mutable dst_port : string;
  mark_do_not_buffer : bool;
  mutable buffering : bool;  (* Queue events until the put completes. *)
  global_q : Packet.t Queue.t;
  (* Early release: per-flow queues until that flow's chunk is put. *)
  flow_q : Packet.t Queue.t Flow.Table.t;
  released : unit Flow.Table.t;
  (* Packet ids already relayed: a duplicated event message must not
     become a duplicated packet at the destination. *)
  seen : (int, unit) Hashtbl.t;
  mutable relayed : int;
}

let relay rs (p : Packet.t) =
  if not (Hashtbl.mem rs.seen p.Packet.id) then begin
    Hashtbl.replace rs.seen p.Packet.id ();
    if rs.mark_do_not_buffer then p.Packet.do_not_buffer <- true;
    rs.relayed <- rs.relayed + 1;
    Controller.packet_out rs.ctrl ~port:rs.dst_port p
  end

let on_source_event rs ~early_release (p : Packet.t) =
  if early_release then begin
    let k = Flow.canonical p.Packet.key in
    if Flow.Table.mem rs.released k then relay rs p
    else begin
      let q =
        match Flow.Table.find_opt rs.flow_q k with
        | Some q -> q
        | None ->
          let q = Queue.create () in
          Flow.Table.add rs.flow_q k q;
          q
      in
      Queue.push p q
    end
  end
  else if rs.buffering then Queue.push p rs.global_q
  else relay rs p

let release_flow rs flowid =
  match Filter.exact_key flowid with
  | None -> ()
  | Some key ->
    let k = Flow.canonical key in
    Flow.Table.replace rs.released k ();
    (match Flow.Table.find_opt rs.flow_q k with
    | Some q ->
      Queue.iter (relay rs) q;
      Queue.clear q
    | None -> ())

let flush_all rs =
  Queue.iter (relay rs) rs.global_q;
  Queue.clear rs.global_q;
  Flow.Table.iter
    (fun k q ->
      Flow.Table.replace rs.released k ();
      Queue.iter (relay rs) q;
      Queue.clear q)
    rs.flow_q;
  rs.buffering <- false

(* Mid-operation progress, kept so a failure can roll back: chunks the
   controller captured (and therefore still holds), and forwarding rules
   installed by the two-phase update. The transfers themselves live in
   {!Op_engine.transfer}; [per_got]/[multi_got] are its [record] sinks. *)
type ctx = {
  per_got : (Filter.t * Chunk.t) list ref;  (* Newest first. *)
  multi_got : (Filter.t * Chunk.t) list ref;
  mutable phase_cookies : int list;
  mutable handoff_subs : Controller.subscription list;
  mutable final_cookie : int option;
      (* The [move_final_priority] rule toward the destination, if
         already installed: it outranks the base route, so a rollback
         must retire it or the survivor's route would never match. *)
}

let reroute_final t spec =
  let filters =
    if Filter.is_symmetric spec.filter then [ spec.filter ]
    else [ spec.filter; Filter.mirror spec.filter ]
  in
  (* Stable per-filter cookie: moving the same flows again replaces the
     previous final rule instead of growing the table per move. *)
  let cookie = Controller.final_route_cookie t spec.filter in
  Controller.install_rule t ~cookie ~priority:Controller.move_final_priority
    ~filters ~actions:[ Flowtable.Forward (Controller.nf_name spec.dst) ];
  cookie

(* Wait for the destination to process a specific packet. With a
   resilience policy, the wait is chopped into call-sized slices; each
   miss probes the destination through its work queue, so a dead or
   wedged NF turns the wait into a typed error instead of a wedged
   simulation. *)
let wait_for_dst t spec ivar =
  match Controller.resilience t with
  | None ->
    Proc.Ivar.read ivar;
    Ok ()
  | Some r ->
    let dst_name = Controller.nf_name spec.dst in
    let rec loop rounds =
      match Proc.Ivar.read_timeout ivar ~timeout:r.Controller.call_timeout with
      | Some () -> Ok ()
      | None ->
        if not (Controller.nf_alive t spec.dst) then
          Error (Op_error.Nf_crashed { nf = dst_name })
        else if rounds <= 0 then
          Error
            (Op_error.Timeout
               { nf = dst_name; after = 10.0 *. r.Controller.call_timeout })
        else (
          match Proc.Ivar.read (Controller.probe_async t spec.dst) with
          | Ok () -> loop (rounds - 1)
          | Error e -> Error e)
    in
    loop 10

(* The two-phase forwarding update plus destination handoff of Figure 6,
   with barriers in place of the paper's wait-for-first-packet (see the
   interface comment). *)
let order_preserving_handoff t spec ctx ~frame =
  let engine = Controller.engine t in
  let dst_name = Controller.nf_name spec.dst in
  (* Track which packets dst has finished processing, so we can wait for
     the last packet the switch sent toward the source. *)
  let dst_processed = Hashtbl.create 256 in
  let waiting : (int * unit Proc.Ivar.t) option ref = ref None in
  let dst_sub =
    Controller.subscribe_events t ~nf:dst_name spec.filter
      (fun p disposition ->
        match disposition with
        | Protocol.Process ->
          Hashtbl.replace dst_processed p.Packet.id ();
          (match !waiting with
          | Some (id, ivar) when id = p.Packet.id ->
            waiting := None;
            ignore (Proc.Ivar.fill_if_empty ivar ())
          | Some _ | None -> ())
        | Protocol.Buffer | Protocol.Drop -> ())
  in
  ctx.handoff_subs <- dst_sub :: ctx.handoff_subs;
  Controller.enable_events t spec.dst spec.filter Protocol.Buffer;
  (* Remember the most recent packet the switch copied to us. *)
  let last_packet = ref None in
  let pin_sub =
    Controller.subscribe_packet_in t spec.filter (fun p -> last_packet := Some p)
  in
  ctx.handoff_subs <- pin_sub :: ctx.handoff_subs;
  let filters =
    if Filter.is_symmetric spec.filter then [ spec.filter ]
    else [ spec.filter; Filter.mirror spec.filter ]
  in
  (* Phase 1: to both the source and the controller. *)
  let cookie1 = Controller.fresh_cookie t in
  Controller.install_rule t ~cookie:cookie1
    ~priority:Controller.phase1_priority ~filters
    ~actions:
      [
        Flowtable.Forward (Controller.nf_name spec.src); Flowtable.To_controller;
      ];
  ctx.phase_cookies <- cookie1 :: ctx.phase_cookies;
  Controller.barrier t;
  Op_engine.mark frame "phase1";
  fire spec Phase1_installed;
  (* Phase 2: directly to the destination. *)
  let cookie2 = Controller.fresh_cookie t in
  Controller.install_rule t ~cookie:cookie2
    ~priority:Controller.phase2_priority ~filters
    ~actions:[ Flowtable.Forward dst_name ];
  ctx.phase_cookies <- cookie2 :: ctx.phase_cookies;
  Controller.barrier t;
  Op_engine.mark frame "phase2";
  fire spec Phase2_installed;
  (* The switch→controller channel is FIFO, so after the phase-2 barrier
     reply every phase-1 packet-in has been received: [!last_packet] is
     the true last packet forwarded toward the source. *)
  let* () =
    match spec.break_for_test with
    | Some Skip_order_wait ->
      (* Fixture: release the destination's buffer without waiting for
         the last source-bound packet — relayed stragglers then race the
         buffered phase-2 packets, the §5.1.2 inversion. *)
      Ok ()
    | Some Drop_buffered | None -> (
      match !last_packet with
      | None -> Ok ()
      | Some p ->
        if Hashtbl.mem dst_processed p.Packet.id then Ok ()
        else begin
          let ivar = Proc.Ivar.create engine in
          waiting := Some (p.Packet.id, ivar);
          wait_for_dst t spec ivar
        end)
  in
  Op_engine.mark frame "handoff";
  (* Release the packets buffered at the destination. *)
  Controller.disable_events t spec.dst spec.filter;
  (* Permanent route, then retire the phase rules. *)
  ctx.final_cookie <- Some (reroute_final t spec);
  Controller.remove_rule t ~cookie:cookie1;
  Controller.remove_rule t ~cookie:cookie2;
  Controller.barrier t;
  ctx.phase_cookies <- [];
  Controller.unsubscribe t dst_sub;
  Controller.unsubscribe t pin_sub;
  ctx.handoff_subs <- [];
  Ok ()

(* Undo a failed move so no flow is left blackholed: give every chunk
   the controller still holds to the surviving instance, redirect the
   buffered packets there, retire any half-installed phase rules, and
   point the base route at the survivor. *)
let rollback t spec ctx rs ~src_sub ~frame err =
  let rspan = Op_engine.rollback_span frame err in
  Option.iter (fun sub -> Controller.unsubscribe t sub) src_sub;
  List.iter (fun sub -> Controller.unsubscribe t sub) ctx.handoff_subs;
  ctx.handoff_subs <- [];
  let survivor =
    if Controller.nf_alive t spec.src then spec.src else spec.dst
  in
  (* Re-install captured state on the survivor; put replaces existing
     chunks, so this is idempotent even if some already landed there.
     If the survivor fails too there is nobody left to roll back to. *)
  (match !(ctx.multi_got) with
  | [] -> ()
  | chunks -> ignore (Controller.put t survivor ~scope:Scope.Multi chunks));
  (match !(ctx.per_got) with
  | [] -> ()
  | chunks ->
    ignore (Controller.put t survivor ~scope:Scope.Per (List.rev chunks)));
  rs.dst_port <- Controller.nf_name survivor;
  flush_all rs;
  List.iter
    (fun cookie -> Controller.remove_rule t ~cookie)
    ctx.phase_cookies;
  ctx.phase_cookies <- [];
  (* The final-route rule outranks the base route: if it was already
     installed toward the (dead) destination, retire it. *)
  Option.iter (fun cookie -> Controller.remove_rule t ~cookie) ctx.final_cookie;
  ctx.final_cookie <- None;
  Controller.set_route t spec.filter survivor;
  (* Stop any event generation the move turned on; the message to a dead
     instance is harmless. *)
  Controller.disable_events t spec.src spec.filter;
  Controller.disable_events t spec.dst spec.filter;
  Op_engine.rollback_done frame rspan;
  Error err

let run ?notify_release t spec =
  let engine = Controller.engine t in
  let frame = Op_engine.start ~kind:"move" t ~options:spec.options in
  Op_engine.finish frame
  @@
  let* () = validate spec in
  let per_tally = Op_engine.tally () and multi_tally = Op_engine.tally () in
  let lossfree = spec.guarantee <> No_guarantee in
  let rs =
    {
      ctrl = t;
      dst_port = Controller.nf_name spec.dst;
      mark_do_not_buffer = spec.guarantee = Order_preserving;
      buffering = true;
      global_q = Queue.create ();
      flow_q = Flow.Table.create 64;
      released = Flow.Table.create 64;
      seen = Hashtbl.create 256;
      relayed = 0;
    }
  in
  let ctx =
    {
      per_got = ref [];
      multi_got = ref [];
      phase_cookies = [];
      handoff_subs = [];
      final_cookie = None;
    }
  in
  let src_sub =
    if lossfree then
      Some
        (Controller.subscribe_events t ~nf:(Controller.nf_name spec.src)
           spec.filter (fun p disposition ->
             match disposition with
             | Protocol.Drop ->
               on_source_event rs
                 ~early_release:spec.options.Op_options.early_release p
             | Protocol.Buffer | Protocol.Process -> ()))
    else None
  in
  (* Clear any stale event filter a previous move of the same set of
     flows may have left at today's destination (it was that move's
     source); without this, moving flows back within the grace period
     would bounce packets between the instances forever. *)
  if lossfree then Controller.disable_events t spec.dst spec.filter;
  if lossfree && not spec.options.Op_options.early_release then
    Controller.enable_events t spec.src spec.filter Protocol.Drop;
  fire spec Transfer_started;
  let attempt =
    (* Multi-flow state moves with get + del + put (§5.1). *)
    let* () =
      if Scope.mem Scope.Multi spec.scope then
        Op_engine.transfer frame ~src:spec.src ~dst:spec.dst ~scope:Scope.Multi
          ~filter:spec.filter ~delete:true
          ~compress:spec.options.Op_options.compress ~record:ctx.multi_got
          multi_tally
      else Ok ()
    in
    (* All-flows state is get + put (no delAllflows, §4.2); the
       destination merges. Doing it inside the move — after events halt
       the source — is what gives NFs like the RE decoder a consistent
       fingerprint store at the destination. *)
    let* () =
      if Scope.mem Scope.All spec.scope then
        Op_engine.transfer frame ~src:spec.src ~dst:spec.dst ~scope:Scope.All
          ~filter:Filter.any multi_tally
      else Ok ()
    in
    let* () =
      if Scope.mem Scope.Per spec.scope then
        Op_engine.transfer frame ~src:spec.src ~dst:spec.dst ~scope:Scope.Per
          ~filter:spec.filter ~parallel:spec.options.Op_options.parallel
          ~delete:true ~late_lock:spec.options.Op_options.early_release
          ~compress:spec.options.Op_options.compress ~record:ctx.per_got
          ~on_captured:(fun () -> fire spec State_captured)
          ~on_deleted:(fun () -> fire spec State_deleted)
          ~on_installed:(fun () -> fire spec State_installed)
          ~on_put_ack:(fun flowid ->
            if spec.options.Op_options.early_release then begin
              release_flow rs flowid;
              Option.iter (fun f -> f flowid) notify_release
            end)
          per_tally
      else Ok ()
    in
    let* () =
      Op_engine.deadline_guard frame ~nf:(Controller.nf_name spec.dst)
    in
    (* Fixture: a buggy controller that loses one buffered packet on the
       flush — the canonical loss-freedom violation the monitor exists
       to catch. *)
    (match spec.break_for_test with
    | Some Drop_buffered when not (Queue.is_empty rs.global_q) ->
      ignore (Queue.pop rs.global_q)
    | Some _ | None -> ());
    if lossfree then begin
      flush_all rs;
      Op_engine.mark frame "flush"
    end;
    match spec.guarantee with
    | No_guarantee | Loss_free ->
      ctx.final_cookie <- Some (reroute_final t spec);
      Controller.barrier t;
      (* Disabling events on the source immediately would drop stragglers
         still in flight or queued there; the paper issues the disable
         "after several minutes" (§5.1.1). Here: after a grace period
         that comfortably exceeds link and queueing delays. *)
      if lossfree then
        Proc.spawn engine (fun () ->
            Proc.sleep spec.disable_grace;
            Controller.disable_events t spec.src spec.filter;
            Option.iter (fun sub -> Controller.unsubscribe t sub) src_sub);
      Ok ()
    | Order_preserving ->
      let* () = order_preserving_handoff t spec ctx ~frame in
      (* Safe here: the handoff waited for the destination to process
         the last packet the switch ever sent toward the source. *)
      Controller.disable_events t spec.src spec.filter;
      Option.iter (fun sub -> Controller.unsubscribe t sub) src_sub;
      Ok ()
  in
  (* With a resilience policy, confirm the destination outlived the
     protocol before declaring success: a crash after the last message
     of the handoff would otherwise leave the final route pointing at a
     dead instance. *)
  let attempt =
    match attempt with
    | Error _ as e -> e
    | Ok () -> (
      match Controller.resilience t with
      | None -> Ok ()
      | Some _ -> Proc.Ivar.read (Controller.probe_async t spec.dst))
  in
  match attempt with
  | Ok () ->
    Ok
      {
        rp_filter = spec.filter;
        rp_src = Controller.nf_name spec.src;
        rp_dst = Controller.nf_name spec.dst;
        rp_guarantee = spec.guarantee;
        started = frame.Op_engine.started;
        finished = Op_engine.now frame;
        per_chunks = per_tally.Op_engine.chunks;
        multi_chunks = multi_tally.Op_engine.chunks;
        state_bytes = per_tally.Op_engine.bytes + multi_tally.Op_engine.bytes;
        relayed = rs.relayed;
      }
  | Error err -> rollback t spec ctx rs ~src_sub ~frame err

let start t spec = Op_engine.background t (fun () -> run t spec)

(* A move writes state on both instances (del at the source, put at the
   destination) and rewrites the flows' forwarding state. *)
let footprint spec =
  Sched.Footprint.make ~filters:[ spec.filter ]
    ~writes:[ Controller.nf_name spec.src; Controller.nf_name spec.dst ]
    ~routes:true ()

(* Admission through the shard group: a move within one shard queues on
   that shard's scheduler, a cross-shard move takes the handshake. The
   source's home shard leads the move (its channels already reach the
   source NF; destination-side calls route to the destination's home via
   [Controller.nf_home]). Early release shrinks the held footprint flow
   by flow: once a flow's chunk is acked at the destination, an
   exact-flow waiter on it may be admitted even though this move is
   still running. *)
let submit group spec =
  let fp = footprint spec in
  let nfs = [ spec.src; spec.dst ] in
  let notify_release flowid =
    match Filter.exact_key flowid with
    | Some key -> Shard.release_flow group ~footprint:fp ~nfs key
    | None -> ()
  in
  let leader = Controller.nf_home spec.src in
  Shard.submit group ~footprint:fp ~nfs (fun () ->
      run ~notify_release leader spec)
