module Engine = Opennf_sim.Engine
module Proc = Opennf_sim.Proc
module Protocol = Opennf_sb.Protocol
open Opennf_net
open Opennf_state

type consistency = Strong | Strict

let strict_priority = 400

type group = {
  flowid : Filter.t;
  queue : (Controller.nf * Packet.t) Queue.t;
  mutable busy : bool;
}

type t = {
  ctrl : Controller.t;
  instances : Controller.nf list;
  filter : Filter.t;
  scope : Scope.t list;
  group_of : Packet.t -> Filter.t;
  consistency : consistency;
  groups : (Filter.t, group) Hashtbl.t;
  completion : (int, unit Proc.Ivar.t) Hashtbl.t;
  mutable subs : Controller.subscription list;
  strict_cookie : int option;
  release_hold : unit -> unit;
      (** Gives back the scheduler footprint held for the share's
          lifetime: the share owns its instances' state continuously, so
          conflicting operations must wait until {!stop}. A no-op when
          the share was started without a scheduler; with a shard group,
          releases on every shard the instances live on. *)
  mutable updates_synced : int;
  mutable packets_serialized : int;
}

type stats = { updates_synced : int; packets_serialized : int }

(* Synchronization tolerates dead instances: a failed get skips the
   round (the next packet of the group retries), and a failed put to one
   replica must not stop propagation to the others. *)
let sync_group t nf =
  let others =
    List.filter
      (fun i -> Controller.nf_name i <> Controller.nf_name nf)
      t.instances
  in
  let push scope flowid =
    match Controller.get t.ctrl nf ~scope flowid with
    | Error _ -> ()
    | Ok chunks -> Op_engine.broadcast_put t.ctrl ~scope ~others chunks
  in
  fun group_flowid ->
    if Scope.mem Scope.Per t.scope then push Scope.Per group_flowid;
    if Scope.mem Scope.Multi t.scope then push Scope.Multi group_flowid;
    if Scope.mem Scope.All t.scope then begin
      match Controller.get t.ctrl nf ~scope:Scope.All Filter.any with
      | Error _ -> ()
      | Ok chunks ->
        if chunks <> [] then
          List.iter
            (fun other ->
              ignore (Controller.put t.ctrl other ~scope:Scope.All chunks))
            others
    end;
    t.updates_synced <- t.updates_synced + 1

let rec drain t group =
  match Queue.take_opt group.queue with
  | None -> group.busy <- false
  | Some (nf, pkt) ->
    pkt.Packet.do_not_drop <- true;
    let done_ivar = Proc.Ivar.create (Controller.engine t.ctrl) in
    Hashtbl.replace t.completion pkt.Packet.id done_ivar;
    t.packets_serialized <- t.packets_serialized + 1;
    Controller.packet_out t.ctrl ~port:(Controller.nf_name nf) pkt;
    (* A dead instance never signals completion; with a resilience
       policy, bound the wait so the group is not wedged forever. *)
    let completed =
      match Controller.resilience t.ctrl with
      | None ->
        Proc.Ivar.read done_ivar;
        true
      | Some r -> (
        match
          Proc.Ivar.read_timeout done_ivar
            ~timeout:(Controller.call_budget r)
        with
        | Some () -> true
        | None -> false)
    in
    Hashtbl.remove t.completion pkt.Packet.id;
    (* State reads/updates at the instance are complete; propagate. *)
    if completed then sync_group t nf group.flowid;
    drain t group

let enqueue t nf pkt =
  let flowid = t.group_of pkt in
  let group =
    match Hashtbl.find_opt t.groups flowid with
    | Some g -> g
    | None ->
      let g = { flowid; queue = Queue.create (); busy = false } in
      Hashtbl.add t.groups flowid g;
      g
  in
  Queue.push (nf, pkt) group.queue;
  if not group.busy then begin
    group.busy <- true;
    Proc.spawn (Controller.engine t.ctrl) (fun () -> drain t group)
  end

let on_event t nf (pkt : Packet.t) disposition =
  match disposition with
  | Protocol.Process -> (
    match Hashtbl.find_opt t.completion pkt.Packet.id with
    (* fill_if_empty: a duplicated event message must not double-fill. *)
    | Some ivar -> ignore (Proc.Ivar.fill_if_empty ivar ())
    | None ->
      (* Strict mode: packets reach instances only through our replays,
         so an unknown Process event is a packet from before the share
         was set up; ignore it. In strong mode the same holds. *)
      ())
  | Protocol.Drop -> enqueue t nf pkt
  | Protocol.Buffer -> ()

let initial_sync t =
  match t.instances with
  | [] | [ _ ] -> ()
  | first :: _ -> sync_group t first t.filter

(* A share writes state on every instance it keeps consistent; strict
   mode additionally diverts the filter's traffic through the switch. *)
let footprint ~instances ~filter ~consistency =
  Sched.Footprint.make ~filters:[ filter ]
    ~writes:(List.map Controller.nf_name instances)
    ~routes:(consistency = Strict) ()

let start ctrl ?sched ~instances ~filter ?(scope = [ Scope.Multi ])
    ?group_of ?route ~consistency () =
  if instances = [] then Op_engine.bad_spec "Share.start: no instances"
  else begin
    let release_hold =
      match sched with
      | Some g ->
        let fp = footprint ~instances ~filter ~consistency in
        let h = Shard.acquire g ~footprint:fp ~nfs:instances in
        fun () -> Shard.release_hold h
      | None -> fun () -> ()
    in
    let group_of =
      match group_of with
      | Some f -> f
      | None ->
        fun (p : Packet.t) -> Filter.of_src_host p.Packet.key.Flow.src_ip
    in
    let strict_cookie =
      match consistency with
      | Strong -> None
      | Strict -> Some (Controller.fresh_cookie ctrl)
    in
    let t =
      {
        ctrl;
        instances;
        filter;
        scope;
        group_of;
        consistency;
        groups = Hashtbl.create 16;
        completion = Hashtbl.create 64;
        subs = [];
        strict_cookie;
        release_hold;
        updates_synced = 0;
        packets_serialized = 0;
      }
    in
    (* Subscribe to events from every instance. *)
    t.subs <-
      List.map
        (fun nf ->
          Controller.subscribe_events ctrl ~nf:(Controller.nf_name nf) filter
            (on_event t nf))
        instances;
    (match consistency with
    | Strong ->
      List.iter
        (fun nf -> Controller.enable_events ctrl nf filter Protocol.Drop)
        instances
    | Strict ->
      List.iter
        (fun nf -> Controller.enable_events ctrl nf filter Protocol.Process)
        instances;
      (* Divert matching traffic to the controller so it observes the true
         arrival order. *)
      let route =
        match route with Some r -> r | None -> fun _ -> List.hd instances
      in
      let sub =
        Controller.subscribe_packet_in ctrl filter (fun p ->
            enqueue t (route p) p)
      in
      t.subs <- sub :: t.subs;
      let filters =
        if Filter.is_symmetric filter then [ filter ]
        else [ filter; Filter.mirror filter ]
      in
      Controller.install_rule ctrl
        ~cookie:(Option.get strict_cookie)
        ~priority:strict_priority ~filters ~actions:[ Flowtable.To_controller ];
      Controller.barrier ctrl);
    initial_sync t;
    Ok t
  end

let stats (t : t) : stats =
  {
    updates_synced = t.updates_synced;
    packets_serialized = t.packets_serialized;
  }

let idle t =
  Hashtbl.fold
    (fun _ g acc -> acc && (not g.busy) && Queue.is_empty g.queue)
    t.groups true

let stop t =
  (* Stop the sources of new work first, then drain what is in flight. *)
  (match t.strict_cookie with
  | Some cookie ->
    Controller.remove_rule t.ctrl ~cookie;
    Controller.barrier t.ctrl
  | None -> ());
  List.iter
    (fun nf -> Controller.disable_events t.ctrl nf t.filter)
    t.instances;
  (* Allow in-flight events to arrive, then wait for the queues to empty. *)
  Proc.sleep 0.01;
  let rec wait () =
    if not (idle t) then begin
      Proc.sleep 0.001;
      wait ()
    end
  in
  wait ();
  List.iter (Controller.unsubscribe t.ctrl) t.subs;
  t.subs <- [];
  t.release_hold ()
