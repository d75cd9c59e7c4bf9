module Proc = Opennf_sim.Proc
module Scope = Opennf_state.Scope
open Opennf_net
open Opennf

type t = {
  ctrl : Controller.t;
  sched : Shard.t option;
  cloud : Controller.nf;
  mutable offloaded : Flow.key list;  (* Newest first. *)
  mutable in_flight : Flow.Set.t;
}

let on_alert t local_nf alert =
  match (alert : Opennf_nfs.Ids.alert) with
  | Outdated_browser { flow; _ } ->
    if not (Flow.Set.mem flow t.in_flight || List.mem flow t.offloaded) then begin
      t.in_flight <- Flow.Set.add flow t.in_flight;
      Proc.spawn (Controller.engine t.ctrl) (fun () ->
          (* move(locInst, cloudInst, flowid, perflow, lossfree) — §6. *)
          let spec =
            Move.spec ~src:local_nf ~dst:t.cloud ~filter:(Filter.of_key flow)
              ~scope:[ Scope.Per ] ~guarantee:Move.Loss_free ~parallel:true ()
          in
          ignore
            (Op_error.ok_exn
               (match t.sched with
               | None -> Move.run t.ctrl spec
               | Some s -> Proc.Ivar.read (Move.submit s spec)));
          t.in_flight <- Flow.Set.remove flow t.in_flight;
          t.offloaded <- flow :: t.offloaded)
    end
  | Port_scan _ | Malware _ | Weird _ -> ()

let start ctrl ?sched ~local ~cloud () =
  let t = { ctrl; sched; cloud; offloaded = []; in_flight = Flow.Set.empty } in
  List.iter
    (fun (nf, ids) -> Opennf_nfs.Ids.on_alert ids (on_alert t nf))
    local;
  t

let offloaded t = List.rev t.offloaded
let offload_count t = List.length t.offloaded
