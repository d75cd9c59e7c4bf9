(* Parallel execution gate for @bench-check.

   The serial single-engine fabric is the reference oracle; the
   parallel fabric (one engine per shard, one domain per shard, coupled
   by {!Opennf_sim.Par}) must compute exactly what it computes. At each
   shard count the gate compares

   - the semantic digest (move reports + final store contents), and
   - the canonical virtual-time trace content
     ({!Opennf_obs.Export.canonical} over per-shard trace hubs vs the
     serial fabric's single hub),

   then runs the parallel configuration a second time and demands both
   repeat byte-for-byte (determinism across runs, whatever the domain
   scheduling did). Each pair's destination lives one shard over from
   its source, so at 2 and 4 shards every move crosses engines through
   the admission handshake; a sharded run that admits no cross-shard
   operation fails the gate. Exits nonzero on any divergence.

   On a 1-domain host the parallel path degenerates (the coordinator
   still runs, on one worker); the digest checks hold there too, but
   the gate skips to keep @bench-check cheap where parallelism cannot
   actually be exercised. *)

module H = Harness
module Hub = Opennf_obs.Hub
module Export = Opennf_obs.Export

let ops = 6
let flows = 40

let serial_oracle ~shards =
  let obs = Hub.create ~trace:true () in
  let r = H.run_shard_workload ~cross:true ~obs ~ops ~flows ~shards () in
  (r, Export.canonical [ Hub.trace obs ])

(* At shards = 1 parallel mode is inert by contract ([Fabric.create]
   forces it off), so the "parallel" run is the serial path again —
   which is exactly the 1-shard claim: [~par:true] changes nothing. *)
let parallel_run ~shards =
  if shards = 1 then
    let obs = Hub.create ~trace:true () in
    let r =
      H.run_shard_workload ~cross:true ~obs ~par:true ~ops ~flows ~shards ()
    in
    (r, Export.canonical [ Hub.trace obs ])
  else begin
    let hubs = Array.init shards (fun _ -> Hub.create ~trace:true ()) in
    let r =
      H.run_shard_workload ~cross:true
        ~shard_obs:(fun k -> hubs.(k))
        ~par:true ~ops ~flows ~shards ()
    in
    (r, Export.canonical (Array.to_list (Array.map Hub.trace hubs)))
  end

let run_parcheck () =
  H.section "Parallel shard execution vs serial oracle (one engine per shard)";
  if Opennf_util.Domain_pool.default_domains () = 1 then
    H.note
      "1 usable domain: parallel stepping cannot be exercised; skipping \
       (the equivalence contract is still covered by `dune runtest`)"
  else
    List.iter
      (fun shards ->
        let serial, canon_serial = serial_oracle ~shards in
        let p1, c1 = parallel_run ~shards in
        let p2, c2 = parallel_run ~shards in
        let digest_ok = p1.H.s_digest = serial.H.s_digest in
        let trace_ok = c1 = canon_serial in
        let repeat_ok = p1 = p2 && c1 = c2 in
        H.note
          "shards=%d: digest %s, trace content %s, repeat run %s (domains=%d, \
           cross-shard ops %d)"
          shards
          (if digest_ok then "identical" else "DIVERGED")
          (if trace_ok then "identical" else "DIVERGED")
          (if repeat_ok then "identical" else "DIVERGED")
          p1.H.s_domains p1.H.s_cross;
        if not digest_ok then
          failwith "par check: parallel run diverged from the serial oracle";
        if not trace_ok then
          failwith
            "par check: parallel trace content diverged from the serial oracle";
        if not repeat_ok then
          failwith "par check: repeated parallel run was not deterministic";
        if shards > 1 && (serial.H.s_cross = 0 || p1.H.s_cross = 0) then
          failwith "par check: a sharded run admitted no cross-shard operation")
      [ 1; 2; 4 ]

let () =
  H.register ~id:"parcheck"
    ~descr:
      "parallel (one engine per shard) vs serial control plane: digest and \
       trace equivalence gate" run_parcheck
