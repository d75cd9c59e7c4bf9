module Protocol = Opennf_sb.Protocol
open Opennf_net

type handle = {
  nf : Controller.nf;
  filter : Filter.t;
  sub : Controller.subscription;
}

let ( let* ) = Result.bind

let enable ?sched t nf filter callback =
  let act () =
    let* () = Op_engine.ensure_alive t nf in
    let sub =
      Controller.subscribe_events t ~nf:(Controller.nf_name nf) filter
        (fun packet disposition ->
          match disposition with
          | Protocol.Process -> callback packet
          | Protocol.Buffer | Protocol.Drop -> ())
    in
    Controller.enable_events t nf filter Protocol.Process;
    Ok { nf; filter; sub }
  in
  (* The enable itself is a short read of the instance: admit it on the
     instance's home shard so events are not armed in the middle of a
     conflicting write (e.g. a move of the same flows), but hold nothing
     afterwards — notifications coexist with later ops. *)
  match sched with
  | Some g ->
    let footprint =
      Sched.Footprint.make ~filters:[ filter ]
        ~reads:[ Controller.nf_name nf ] ()
    in
    Shard.run g ~footprint ~nfs:[ nf ] act
  | None -> act ()

let disable t handle =
  Controller.disable_events t handle.nf handle.filter;
  Controller.unsubscribe t handle.sub
