module Engine = Opennf_sim.Engine
module Proc = Opennf_sim.Proc
module Par = Opennf_sim.Par
module Faults = Opennf_sim.Faults
module Runtime = Opennf_sb.Runtime
open Opennf_net

type t = {
  engine : Engine.t;
  audit : Audit.t;
  switch : Switch.t;
  ctrl : Controller.t;
  sched : Shard.t;
  faults : Faults.t;
  link_latency : float;
  par : Par.t option;
  engines : Engine.t array;
  audits : Audit.t array;
  switches : Switch.t array;
  shard_faults : Faults.t array;
  ports : (string, int * Packet.t Channel.t) Hashtbl.t;
  monitors : Opennf_obs.Monitor.t array;
      (** Live §5.1 checkers, one per audit stream; [[||]] when the
          fabric was created without [~monitor:true]. *)
}

(* Stitch the per-shard switch replicas into one logical switch (see
   {!Switch}'s replica-stitching hooks): flow-mods received on one
   replica mirror to the others at the same virtual time; packet-ins
   for a connection bound elsewhere, and forwards out a port attached
   elsewhere, ride the cross-engine channels to the owning shard. *)
let stitch_switches p ~shards switches audits ports =
  Array.iteri
    (fun k sw ->
      Switch.set_packet_in_router sw (fun (pkt : Packet.t) ->
          Shard.of_key ~shards pkt.Packet.key);
      Switch.set_mod_tap sw (fun ~conn msg ->
          Array.iteri
            (fun j peer ->
              if j <> k then
                Par.post p ~dst:j (fun () -> Switch.apply_mod peer ~conn msg))
            switches);
      Switch.set_conn_proxy sw (fun ~conn msg ->
          if conn >= 0 && conn < shards then begin
            Par.post p ~dst:conn (fun () ->
                Switch.emit_to switches.(conn) ~conn msg);
            true
          end
          else false);
      Switch.set_port_proxy sw (fun ~port pkt ->
          match Hashtbl.find_opt ports port with
          | None -> false
          | Some (s, ch) ->
            Par.post p ~dst:s (fun () ->
                Audit.log_forward audits.(s) pkt ~dst:port;
                Channel.send ch ~size:pkt.Packet.wire_size pkt);
            true))
    switches

let create ?(seed = 1) ?obs ?shard_obs ?config ?flow_mod_delay ?packet_out_rate
    ?(link_latency = 0.0002) ?fault_seed ?resilience ?max_concurrent_ops
    ?(shards = 1) ?(par = false) ?(monitor = false) () =
  if shards < 1 then invalid_arg "Fabric.create: shards must be >= 1";
  let par = par && shards > 1 in
  (* Observability hubs cannot be shared across engines — each shard of
     a parallel fabric buffers its own trace, merged after the run
     ({!Audit.merged}, {!Opennf_obs.Export.canonical}). *)
  if par && Option.is_some obs then
    invalid_arg "Fabric.create: pass ~shard_obs (one hub per shard) with ~par";
  (* One engine (and one audit, faults handle and switch replica) per
     shard in a parallel fabric; in a serial one every slot aliases the
     single instance, so indexing by shard is the unchanged wiring. *)
  let per_shard make =
    if par then Array.init shards make else Array.make shards (make 0)
  in
  let engines =
    per_shard (fun k ->
        let obs = if par then Option.map (fun f -> f k) shard_obs else obs in
        Engine.create ~seed ?obs ())
  in
  let audits = per_shard (fun k -> Audit.create engines.(k)) in
  let shard_faults =
    per_shard (fun k -> Faults.create engines.(k) ?seed:fault_seed ())
  in
  let switches =
    per_shard (fun k ->
        Switch.create engines.(k) audits.(k) ~name:"sw" ?flow_mod_delay
          ?packet_out_rate ())
  in
  (* Controller k binds switch connection k, so routing a packet-in to
     its flow's owning shard is routing to conn index [Shard.of_key],
     and every replica agrees on the numbering. With one shard none of
     this machinery engages and the fabric is event-for-event the
     pre-shard one. *)
  let ctrls =
    Array.init shards (fun k ->
        Controller.create engines.(k) audits.(k) ~switch:switches.(k) ?config
          ~faults:shard_faults.(k) ?resilience ~shard:k ~shards ())
  in
  Controller.set_group ctrls;
  let scheds =
    Array.map (Sched.create ?max_concurrent:max_concurrent_ops) ctrls
  in
  let group = Shard.make ctrls scheds in
  let ports = Hashtbl.create 16 in
  let par =
    if par then begin
      let p = Par.create engines in
      Controller.set_par ctrls.(0) p;
      stitch_switches p ~shards switches audits ports;
      Some p
    end
    else begin
      if shards > 1 then
        Switch.set_packet_in_router switches.(0) (fun (p : Packet.t) ->
            Shard.of_key ~shards p.Packet.key);
      None
    end
  in
  (* One live checker per audit stream. The monitor taps the audit's
     tracer (the shared hub trace when tracing, the private ledger
     otherwise) and never schedules or records, so virtual-time results
     are unchanged. *)
  let monitors =
    if not monitor then [||]
    else
      Array.mapi
        (fun k audit ->
          let m = Opennf_obs.Monitor.create ~shard:k () in
          Opennf_obs.Monitor.attach m (Audit.trace audit);
          m)
        (match par with Some _ -> audits | None -> [| audits.(0) |])
  in
  {
    engine = engines.(0);
    audit = audits.(0);
    switch = switches.(0);
    ctrl = ctrls.(0);
    sched = group;
    faults = shard_faults.(0);
    link_latency;
    par;
    engines;
    audits;
    switches;
    shard_faults;
    ports;
    monitors;
  }

let shards t = Shard.count t.sched
let parallel t = Option.is_some t.par

let add_nf ?backend ?shard t ~name ~impl ~costs =
  let shard =
    match shard with
    | Some s ->
      if s < 0 || s >= shards t then invalid_arg "Fabric.add_nf: bad shard";
      s
    | None -> Shard.of_name ~shards:(shards t) name
  in
  (* In a serial fabric every array entry aliases the one engine/audit/
     switch, so indexing by home shard is the unchanged wiring. *)
  let runtime =
    Runtime.create t.engines.(shard) t.audits.(shard) ~name ~impl ~costs
      ~faults:t.shard_faults.(shard) ?backend ()
  in
  let port =
    Channel.create t.engines.(shard) ~latency:t.link_latency
      ~faults:t.shard_faults.(shard) ~name:("sw->" ^ name) ()
  in
  Channel.set_handler port (Runtime.receive runtime);
  Switch.attach_port t.switches.(shard) ~name port;
  Hashtbl.replace t.ports name (shard, port);
  let nf = Controller.attach (Shard.ctrl t.sched shard) runtime in
  (nf, runtime)

(* Packets enter at their flow's owning replica, so the packet-in (if
   the rule says To_controller) is a local delivery to the owning
   shard's controller connection. Serial: owner is replica 0, the one
   switch. *)
let owner t (p : Packet.t) =
  match t.par with
  | None -> 0
  | Some _ -> Shard.of_key ~shards:(shards t) p.Packet.key

let inject t p = Switch.inject t.switches.(owner t p) p

let inject_at t time p =
  let s = owner t p in
  Engine.schedule_at t.engines.(s) time (fun () ->
      Switch.inject t.switches.(s) p)

let run ?until ?workers t =
  match t.par with
  | None ->
    ignore (workers : int option);
    Engine.run ?until t.engine
  | Some p ->
    (match until with
    | Some _ ->
      invalid_arg "Fabric.run: ~until is not supported in parallel mode"
    | None -> ());
    Par.run ?workers p

let run_proc ?workers t body =
  Proc.spawn t.engine body;
  run ?workers t

let merged_audit t =
  match t.par with
  | None -> t.audit
  | Some _ -> Audit.merged t.engine (Array.to_list t.audits)

let monitored t = Array.length t.monitors > 0

(* The audit streams, shard-tagged, deduplicated: a serial fabric's
   [audits] array aliases the one ledger in every slot. *)
let audit_traces t =
  match t.par with
  | None -> [ (0, Audit.trace t.audit) ]
  | Some _ -> List.mapi (fun k a -> (k, Audit.trace a)) (Array.to_list t.audits)

let verdict ?history t =
  Opennf_obs.Monitor.merged_verdict ?history (audit_traces t)

let live_findings t =
  Array.to_list t.monitors
  |> List.concat_map Opennf_obs.Monitor.findings
