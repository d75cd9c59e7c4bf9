open Opennf_net
open Opennf_state

type t = {
  chunk_bytes : int;
  flows : Store.Perflow_arena.t; (* rows only: the state is the key *)
  mutable imported : int;
}

let create ?(chunk_bytes = 202) () =
  { chunk_bytes; flows = Store.Perflow_arena.create ~payload:0 (); imported = 0 }

(* Canned state: a fixed structural template (as real serialized state
   shares field layout and label text across chunks) plus per-flow bytes
   that do not compress. The mix approximates the ~38% stream
   compressibility the paper measured on PRADS-derived state. *)
let template =
  "prads.conn{src_ip;dst_ip;proto:tcp;first_seen;last_seen;pkts;bytes;\
   os:linux;link:ethernet;svc:http};"

let chunk_for t key =
  let n = t.chunk_bytes in
  let rng = Opennf_util.Rng.create ~seed:(Flow.hash key) in
  let b = Bytes.create n in
  let m = min n (String.length template) in
  Bytes.blit_string template 0 b 0 m;
  for i = m to n - 1 do
    Bytes.unsafe_set b i (Char.unsafe_chr (Opennf_util.Rng.int rng 256))
  done;
  Bytes.unsafe_to_string b

let add t k = ignore (Store.Perflow_arena.insert t.flows k)
let seed_flows t keys = List.iter (add t) keys

let impl t =
  {
    Opennf_sb.Nf_api.kind = "dummy";
    process_packet =
      (fun p -> add t p.Packet.key);
    list_perflow =
      (fun filter ->
        List.map (fun (k, _) -> Filter.of_key k)
          (Store.Perflow_arena.matching t.flows filter));
    export_perflow =
      (fun flowid ->
        match Filter.exact_key flowid with
        | None -> None
        | Some key ->
          if Store.Perflow_arena.mem t.flows key then
            Some (Chunk.v ~kind:"dummy" (chunk_for t key))
          else None);
    import_perflow =
      (fun flowid _chunk ->
        t.imported <- t.imported + 1;
        match Filter.exact_key flowid with
        | None -> ()
        | Some key -> add t key);
    delete_perflow =
      (fun flowid ->
        match Filter.exact_key flowid with
        | None -> ()
        | Some key -> ignore (Store.Perflow_arena.remove t.flows key));
    list_multiflow = (fun _ -> []);
    export_multiflow = (fun _ -> None);
    import_multiflow = (fun _ _ -> ());
    delete_multiflow = (fun _ -> ());
    export_allflows = (fun () -> []);
    import_allflows = (fun _ -> ());
  }

let flow_count t = Store.Perflow_arena.size t.flows
let imported_count t = t.imported
