module Engine = Opennf_sim.Engine

type to_switch =
  | Install of {
      cookie : int;
      priority : int;
      filters : Filter.t list;
      actions : Flowtable.action list;
    }
  | Remove of { cookie : int }
  | Packet_out of { port : string; packet : Packet.t }
  | Barrier of { id : int }

type from_switch =
  | Packet_in of { packet : Packet.t; cookie : int }
  | Barrier_reply of { id : int }

type t = {
  engine : Engine.t;
  audit : Audit.t;
  name : string;
  flow_mod_delay : float;
  packet_out_rate : float;
  table : Flowtable.t;
  ports : (string, Packet.t Channel.t) Hashtbl.t;
  mutable controllers : from_switch Channel.t option array;
      (** Indexed by connection id; slot 0 is the legacy controller. *)
  mutable pick_conn : (Packet.t -> int) option;
      (** Routes packet-ins to a connection; [None] = everything to 0. *)
  mutable mods_applied_by : float array;
      (** Per connection: latest activation time among its flow-mods.
          Barriers are per-connection, as in OpenFlow: a barrier covers
          only the flow-mods that arrived on the same connection. *)
  mutable packet_out_free_at : float;
      (** Next instant the packet-out path is idle. *)
  mutable packet_out_backlog : int;
  mutable table_misses : int;
  (* Replica hooks (parallel shard execution). A sharded-parallel
     fabric runs one switch replica per shard; the three hooks stitch
     the replicas back into one logical switch: flow-mods received on
     one replica are re-applied on the others (tap), and traffic aimed
     at a connection or port homed on another replica is routed there
     (proxies). All [None] in the single-switch wiring. *)
  mutable mod_tap : (conn:int -> to_switch -> unit) option;
  mutable conn_proxy : (conn:int -> from_switch -> bool) option;
  mutable port_proxy : (port:string -> Packet.t -> bool) option;
}

let create engine audit ~name ?(flow_mod_delay = 0.010)
    ?(packet_out_rate = 1.0e9) () =
  {
    engine;
    audit;
    name;
    flow_mod_delay;
    packet_out_rate;
    table = Flowtable.create ~engine ();
    ports = Hashtbl.create 8;
    controllers = [||];
    pick_conn = None;
    mods_applied_by = [||];
    packet_out_free_at = 0.0;
    packet_out_backlog = 0;
    table_misses = 0;
    mod_tap = None;
    conn_proxy = None;
    port_proxy = None;
  }

let attach_port t ~name chan = Hashtbl.replace t.ports name chan

(* Connection state (the channel slot and the barrier clock) is grown on
   demand: a barrier can arrive on a connection before its reply channel
   is registered, and the reply — scheduled for later — must still find
   the channel if registration happens in between. *)
let ensure_conn t conn =
  let n = Array.length t.controllers in
  if conn >= n then begin
    let grown = Array.make (conn + 1) None in
    Array.blit t.controllers 0 grown 0 n;
    t.controllers <- grown;
    let clocks = Array.make (conn + 1) 0.0 in
    Array.blit t.mods_applied_by 0 clocks 0 n;
    t.mods_applied_by <- clocks
  end

let register_controller_at t ~conn chan =
  ensure_conn t conn;
  (match t.controllers.(conn) with
  | Some _ ->
    invalid_arg
      (Printf.sprintf "Switch %s: connection %d already bound" t.name conn)
  | None -> ());
  t.controllers.(conn) <- Some chan

let set_packet_in_router t f = t.pick_conn <- Some f
let set_mod_tap t f = t.mod_tap <- Some f
let set_conn_proxy t f = t.conn_proxy <- Some f
let set_port_proxy t f = t.port_proxy <- Some f

let connections t =
  Array.fold_left
    (fun acc c -> match c with Some _ -> acc + 1 | None -> acc)
    0 t.controllers

let send_on t ~conn msg =
  let local =
    if conn >= 0 && conn < Array.length t.controllers then t.controllers.(conn)
    else None
  in
  match local with
  | Some chan -> Channel.send chan ~size:128 msg
  | None -> (
    match t.conn_proxy with
    | Some proxy -> ignore (proxy ~conn msg)
    | None -> ())

let emit_to t ~conn msg = send_on t ~conn msg

let send_packet_in t packet cookie =
  let conn = match t.pick_conn with None -> 0 | Some f -> f packet in
  send_on t ~conn (Packet_in { packet; cookie })

let forward t (p : Packet.t) port =
  match Hashtbl.find_opt t.ports port with
  | None -> (
    match t.port_proxy with
    | Some proxy when proxy ~port p -> ()
    | _ -> invalid_arg (Printf.sprintf "Switch %s: no port %s" t.name port))
  | Some chan ->
    Audit.log_forward t.audit p ~dst:port;
    Channel.send chan ~size:p.Packet.wire_size p

let apply_actions t p cookie actions =
  List.iter
    (fun action ->
      match (action : Flowtable.action) with
      | Forward port -> forward t p port
      | To_controller -> send_packet_in t p cookie)
    actions

let inject t p =
  Audit.log_switch_arrival t.audit p;
  match Flowtable.lookup t.table p with
  | None -> t.table_misses <- t.table_misses + 1
  | Some rule -> apply_actions t p rule.Flowtable.cookie rule.Flowtable.actions

(* A flow-mod's table mutation, shared by the receiving replica and any
   peer replica it is mirrored to ([apply_mod] never re-fires the tap,
   so mirroring cannot loop). Both run it at the same virtual [now], so
   every replica's table and per-conn barrier clock evolve
   identically. *)
let apply_mod t ~conn msg =
  let now = Engine.now t.engine in
  ensure_conn t conn;
  match msg with
  | Install { cookie; priority; filters; actions } ->
    let apply_at = now +. t.flow_mod_delay in
    t.mods_applied_by.(conn) <- Float.max t.mods_applied_by.(conn) apply_at;
    Engine.schedule_at t.engine apply_at (fun () ->
        Flowtable.install t.table ~cookie ~priority ~filters ~actions)
  | Remove { cookie } ->
    let apply_at = now +. t.flow_mod_delay in
    t.mods_applied_by.(conn) <- Float.max t.mods_applied_by.(conn) apply_at;
    Engine.schedule_at t.engine apply_at (fun () ->
        Flowtable.remove t.table ~cookie)
  | Packet_out _ | Barrier _ -> invalid_arg "Switch.apply_mod: not a flow-mod"

let control_from t ~conn msg =
  let now = Engine.now t.engine in
  ensure_conn t conn;
  match msg with
  | Install _ | Remove _ ->
    apply_mod t ~conn msg;
    (match t.mod_tap with Some tap -> tap ~conn msg | None -> ())
  | Packet_out { port; packet } ->
    let start = Float.max now t.packet_out_free_at in
    t.packet_out_free_at <- start +. (1.0 /. t.packet_out_rate);
    t.packet_out_backlog <- t.packet_out_backlog + 1;
    Engine.schedule_at t.engine t.packet_out_free_at (fun () ->
        t.packet_out_backlog <- t.packet_out_backlog - 1;
        forward t packet port)
  | Barrier { id } ->
    (* Reply once every earlier flow-mod of this connection is active.
       Control-channel serialization (which makes a flow-mod queue
       behind a packet-out flush) is modeled on the controller->switch
       channel itself. *)
    let reply_at = Float.max now t.mods_applied_by.(conn) in
    Engine.schedule_at t.engine reply_at (fun () ->
        send_on t ~conn (Barrier_reply { id }))

let table t = t.table
let table_misses t = t.table_misses

let decision_cache_stats t = Flowtable.cache_stats t.table

let packet_out_backlog t = t.packet_out_backlog

let slice_rule_counts t ~shards = Flowtable.slice_counts t.table ~shards
