module Proc = Opennf_sim.Proc
open Opennf_net

(* --- flowspace partition -------------------------------------------------- *)

(* FNV-1a over the canonical (direction-independent) 5-tuple: both
   directions of a connection land on the same shard, the mapping is a
   pure function of the key (stable under any table growth), and any
   string-stable change to [Flow.to_string] would be caught by the
   partition-stability property tests. *)
let of_key ~shards key =
  if shards <= 1 then 0
  else
    let h = Opennf_util.Hashing.fnv1a64 (Flow.to_string (Flow.canonical key)) in
    Int64.to_int (Int64.rem (Int64.logand h Int64.max_int) (Int64.of_int shards))

let of_name ~shards name =
  if shards <= 1 then 0
  else
    let h = Opennf_util.Hashing.fnv1a64 name in
    Int64.to_int (Int64.rem (Int64.logand h Int64.max_int) (Int64.of_int shards))

let of_filter ~shards filter =
  Option.map (fun key -> of_key ~shards key) (Filter.exact_key filter)

(* --- the shard group ------------------------------------------------------- *)

type t = {
  ctrls : Controller.t array;
  scheds : Sched.t array;
  m_cross : Opennf_obs.Metrics.counter option;
      (** Cross-shard admissions; only registered when [shards > 1] so
          single-shard metric snapshots carry no new names. *)
  mutable cross_ops : int;
}

let make ctrls scheds =
  let n = Array.length ctrls in
  if n = 0 then invalid_arg "Shard.make: empty group";
  if Array.length scheds <> n then
    invalid_arg "Shard.make: one scheduler per controller required";
  Array.iteri
    (fun k c ->
      if Controller.shard_id c <> k || Controller.shard_count c <> n then
        invalid_arg "Shard.make: controllers out of order or wrong count")
    ctrls;
  let m_cross =
    if n <= 1 then None
    else
      Some
        (Opennf_obs.Metrics.counter
           (Opennf_obs.Hub.metrics (Controller.obs ctrls.(0)))
           "shard.cross_ops")
  in
  { ctrls; scheds; m_cross; cross_ops = 0 }

let count g = Array.length g.ctrls
let ctrl g k = g.ctrls.(k)
let sched g k = g.scheds.(k)
let home _g nf = Controller.nf_shard nf
let shard_of_key g key = of_key ~shards:(count g) key
let cross_shard_ops g = g.cross_ops

let messages_handled g =
  Array.fold_left (fun acc c -> acc + Controller.messages_handled c) 0 g.ctrls

(* The distinct home shards of an operation's instances, ascending. The
   ascending order is the lock order of the cross-shard handshake:
   every multi-shard admission acquires in it, so two cross-shard
   operations can never deadlock on each other's scheduler queues. *)
let shard_ids g nfs =
  List.sort_uniq Int.compare (List.map (home g) nfs)

(* --- parallel bridging ----------------------------------------------------

   In a parallel fabric each shard's scheduler lives on its own engine;
   submissions, acquisitions and releases aimed at another shard ride
   the {!Opennf_sim.Par} channels (zero virtual latency), so admission
   times match the serial single-engine run. [par g] is [None] in a
   serial fabric, where every shard shares one engine and every bridge
   below reduces to the direct call. *)

let par g = Controller.par g.ctrls.(0)

(* [Some (par, src)] when called from inside shard [src]'s window of a
   parallel run and the target shard [s] is a different one. *)
let remote g s =
  match par g with
  | None -> None
  | Some p -> (
    match Opennf_sim.Par.self p with
    | Some src when src <> s -> Some (p, src)
    | _ -> None)

(* Run [f] on shard [s]'s engine: directly when the caller already runs
   there (always, in a serial fabric), else as a zero-latency message. *)
let on_shard g s f =
  match remote g s with
  | None -> f ()
  | Some (p, _) -> Opennf_sim.Par.post p ~dst:s f

(* The counter (and its metric, registered on shard 0's hub) is
   single-writer: shard 0's engine. *)
let note_cross g =
  on_shard g 0 (fun () ->
      g.cross_ops <- g.cross_ops + 1;
      match g.m_cross with
      | Some c -> Opennf_obs.Metrics.incr c
      | None -> ())

(* Blocking acquire on shard [s]'s scheduler from wherever the caller
   runs: direct when local, else a round trip that parks a proc on the
   owning engine and resumes the caller at the admission's virtual
   time. *)
let acquire_on g s ~footprint =
  match remote g s with
  | None -> Sched.acquire g.scheds.(s) ~footprint
  | Some (p, _) ->
    Opennf_sim.Par.call p ~dst:s (fun fill ->
        Opennf_sim.Proc.spawn
          (Controller.engine g.ctrls.(s))
          (fun () -> fill (Sched.acquire g.scheds.(s) ~footprint)))

let release_on g s h = on_shard g s (fun () -> Sched.release g.scheds.(s) h)

(* --- admission ------------------------------------------------------------- *)

(* Ship a single-home submission to the owning engine and bridge the
   result ivar back to the caller's. The body runs in a proc on the
   home engine — exactly where its southbound calls are local. *)
let submit_remote g p ~src s ~footprint body =
  let result = Proc.Ivar.create (Controller.engine g.ctrls.(src)) in
  Opennf_sim.Par.post p ~dst:s (fun () ->
      let iv = Sched.submit g.scheds.(s) ~footprint body in
      Proc.spawn
        (Controller.engine g.ctrls.(s))
        (fun () ->
          let v = Proc.Ivar.read iv in
          Opennf_sim.Par.post p ~dst:src (fun () ->
              ignore (Proc.Ivar.fill_if_empty result v))));
  result

(* The multi-shard handshake. A coordinator process acquires a hold for
   the same footprint on every involved scheduler in ascending shard-id
   order (deadlock-free), runs the body — which reuses the ordinary
   operation code; [Controller]'s home routing makes southbound calls
   land on the right shard — and releases in reverse order. Each
   shard's scheduler sees the footprint in its own queue, so per-shard
   operations conflict with the cross-shard one exactly as they would
   with a local one.

   The coordinator lives on the leader — the home of the operation's
   first instance, so the body (whose southbound calls route to that
   leader) runs on its own engine. In a parallel run the result is
   bridged back to the caller's engine; in a serial one every shard is
   the same engine and the bridges are direct calls. *)
let submit_cross g ~footprint ss nfs body =
  let lead = match nfs with [] -> List.hd ss | nf :: _ -> home g nf in
  let caller =
    match Option.bind (par g) Opennf_sim.Par.self with
    | Some s -> s
    | None -> lead
  in
  let ivar = Proc.Ivar.create (Controller.engine g.ctrls.(caller)) in
  on_shard g lead (fun () ->
      Proc.spawn
        (Controller.engine g.ctrls.(lead))
        (fun () ->
          let holds = List.map (fun s -> (s, acquire_on g s ~footprint)) ss in
          let result = body () in
          List.iter (fun (s, h) -> release_on g s h) (List.rev holds);
          on_shard g caller (fun () -> Proc.Ivar.fill ivar result)));
  ivar

(* Single home shard: exactly [Sched.submit] there — the unsharded path,
   taken by everything when [count g = 1]. Several: the handshake. *)
let submit g ~footprint ~nfs body =
  match shard_ids g nfs with
  | [] -> Sched.submit g.scheds.(0) ~footprint body
  | [ s ] -> (
    match remote g s with
    | None -> Sched.submit g.scheds.(s) ~footprint body
    | Some (p, src) -> submit_remote g p ~src s ~footprint body)
  | ss ->
    note_cross g;
    submit_cross g ~footprint ss nfs body

let run g ~footprint ~nfs body = Proc.Ivar.read (submit g ~footprint ~nfs body)

(* Early release must reach every scheduler holding the footprint: the
   released-key table lives in the footprint itself (shared across the
   holds), so it is shrunk once — on the calling (owning) shard — and
   every involved scheduler re-pumps its queue. A footprint must never
   be written from two engines. *)
let release_flow g ~footprint ~nfs key =
  Sched.Footprint.release footprint key;
  List.iter
    (fun s -> on_shard g s (fun () -> Sched.repump g.scheds.(s)))
    (shard_ids g nfs)

(* --- long-lived multi-shard holds (Share) ---------------------------------- *)

type hold = { hg : t; hss : (int * Sched.handle) list }

let acquire g ~footprint ~nfs =
  let ss = shard_ids g nfs in
  (match ss with _ :: _ :: _ -> note_cross g | _ -> ());
  { hg = g; hss = List.map (fun s -> (s, acquire_on g s ~footprint)) ss }

let release_hold { hg; hss } =
  List.iter (fun (s, h) -> release_on hg s h) (List.rev hss)
