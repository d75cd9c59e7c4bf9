(* Randomized equivalence of the indexed data path against linear-scan
   references: under install/remove/query churn, [Flowtable.lookup]
   (exact hash + priority buckets + decision cache) must always agree
   with [Opennf_oracle.lookup], and
   [Store.Perflow.matching] (exact fast path + per-host index) with
   [Opennf_oracle.perflow_matching], and the runtime's
   [Event_filters] (exact-flow tables + wildcard lists) with
   [Opennf_oracle.Event_filters]. *)

module Rng = Opennf_util.Rng
open Opennf_net
open Opennf_state

(* A deliberately small universe so installs, removes and queries
   collide often. *)
let host rng = Ipaddr.v 10 0 (Rng.int rng 4) (Rng.int rng 8)
let port rng = 1000 + Rng.int rng 4
let protos = [| Flow.Tcp; Flow.Udp |]

let key rng =
  Flow.make ~src:(host rng) ~dst:(host rng)
    ~proto:(Rng.pick rng protos) ~sport:(port rng) ~dport:(port rng) ()

let packet rng ~id =
  let flags = if Rng.int rng 4 = 0 then [ Packet.Syn ] else [] in
  Packet.create ~id ~key:(key rng) ~flags ~sent_at:0.0 ()

let cookie_of = Option.map (fun r -> r.Flowtable.cookie)

let check_lookup table p =
  Alcotest.(check (option int))
    "indexed lookup agrees with linear reference"
    (cookie_of (Opennf_oracle.lookup table p))
    (cookie_of (Flowtable.lookup table p))

let random_filter rng =
  match Rng.int rng 8 with
  | 0 -> Filter.any
  | 1 -> Filter.of_src_host (host rng)
  | 2 -> Filter.of_dst_host (host rng)
  | 3 -> Filter.of_src_prefix (Ipaddr.Prefix.make (host rng) 24)
  | 4 -> Filter.of_src_prefix (Ipaddr.Prefix.make (host rng) 16)
  | 5 -> Filter.make ~src:(Ipaddr.Prefix.host (host rng)) ~dst_port:(port rng) ()
  | 6 -> Filter.make ~proto:(Rng.pick rng protos) ()  (* no address: fallback *)
  | _ -> Filter.of_key (key rng)

let test_flowtable_churn () =
  let rng = Rng.create ~seed:42 in
  let table = Flowtable.create () in
  for i = 1 to 4000 do
    (match Rng.int rng 10 with
    | 0 | 1 | 2 | 3 ->
      (* Exact-match rule on a full 5-tuple (the common shape). *)
      let f = Filter.of_key (key rng) in
      Flowtable.install table ~cookie:(Rng.int rng 150)
        ~priority:(100 + (50 * Rng.int rng 4))
        ~filters:[ f; Filter.mirror f ]
        ~actions:[ Flowtable.Forward "nf" ]
    | 4 ->
      (* Wildcard rule: prefix or catch-all. *)
      let f =
        if Rng.bool rng then
          Filter.of_src_prefix (Ipaddr.Prefix.make (host rng) (8 * Rng.int rng 4))
        else Filter.any
      in
      Flowtable.install table ~cookie:(Rng.int rng 150)
        ~priority:(100 + (50 * Rng.int rng 4))
        ~filters:[ f ]
        ~actions:[ Flowtable.Forward "wild" ]
    | 5 ->
      (* Flag-constrained rule: disables the decision cache while any
         such rule is installed. *)
      let f = Filter.make ~src:(Ipaddr.Prefix.host (host rng)) ~tcp_flag:Syn () in
      Flowtable.install table ~cookie:(Rng.int rng 150)
        ~priority:(100 + (50 * Rng.int rng 4))
        ~filters:[ f ]
        ~actions:[ Flowtable.To_controller ]
    | 6 -> Flowtable.remove table ~cookie:(Rng.int rng 150)
    | _ ->
      let p = packet rng ~id:i in
      check_lookup table p;
      (* Immediate repeat: hits the decision cache when it is active. *)
      check_lookup table p);
    ()
  done;
  let hits, misses = Flowtable.cache_stats table in
  Alcotest.(check bool) "decision cache served hits" true (hits > 0);
  Alcotest.(check bool) "decision cache saw misses" true (misses > 0)

let test_flowtable_cache_invalidation () =
  let rng = Rng.create ~seed:7 in
  let table = Flowtable.create () in
  let k = key rng in
  let p = Packet.create ~id:1 ~key:k ~sent_at:0.0 () in
  let f = Filter.of_key k in
  Flowtable.install table ~cookie:1 ~priority:100
    ~filters:[ f; Filter.mirror f ]
    ~actions:[ Flowtable.Forward "a" ];
  check_lookup table p;
  check_lookup table p;
  (* A higher-priority install must supersede the memoized decision. *)
  Flowtable.install table ~cookie:2 ~priority:200
    ~filters:[ f; Filter.mirror f ]
    ~actions:[ Flowtable.Forward "b" ];
  Alcotest.(check (option int)) "new rule wins after invalidation" (Some 2)
    (cookie_of (Flowtable.lookup table p));
  Flowtable.remove table ~cookie:2;
  Alcotest.(check (option int)) "removal restores old rule" (Some 1)
    (cookie_of (Flowtable.lookup table p));
  Flowtable.remove table ~cookie:1;
  Alcotest.(check (option int)) "empty table misses" None
    (cookie_of (Flowtable.lookup table p))

let pairs = Alcotest.(list (pair (testable Flow.pp Flow.equal) int))

let test_perflow_churn () =
  let rng = Rng.create ~seed:1337 in
  let store = Store.Perflow.create () in
  for i = 1 to 4000 do
    match Rng.int rng 5 with
    | 0 | 1 -> Store.Perflow.set store (key rng) i
    | 2 -> Store.Perflow.remove store (key rng)
    | _ ->
      let f = random_filter rng in
      Alcotest.check pairs
        ("indexed matching agrees with reference for " ^ Filter.to_string f)
        (Opennf_oracle.perflow_matching store f)
        (Store.Perflow.matching store f)
  done

module Ef = Opennf_sb.Event_filters
module Ef_ref = Opennf_oracle.Event_filters
module Protocol = Opennf_sb.Protocol

let actions = [| Protocol.Drop; Protocol.Buffer; Protocol.Process |]

(* Either direction of one of a few flows, so filters stack on a flow
   and packets hit them often; tables must be direction-free. *)
let flow_pool =
  let rng = Rng.create ~seed:7 in
  Array.init 24 (fun _ -> key rng)

let some_key rng =
  let k = Rng.pick rng flow_pool in
  if Rng.bool rng then Flow.reverse k else k

let event_filter rng =
  match Rng.int rng 6 with
  | 0 | 1 -> Filter.of_key (some_key rng)
  | 2 -> { (Filter.of_key (some_key rng)) with tcp_flag = Some Packet.Syn }
  | 3 -> { (random_filter rng) with tcp_flag = Some Packet.Syn }
  | _ -> random_filter rng

let flowid rng =
  match Rng.int rng 6 with
  | 0 | 1 | 2 -> Filter.of_key (some_key rng)
  | 3 -> Filter.of_src_host (host rng)
  | 4 -> { (Filter.of_key (some_key rng)) with app = Some "u" }
  | _ -> Filter.of_app (if Rng.bool rng then "u" else "v")

let seq_of = Option.map (fun (e : Ef.entry) -> e.seq)

let released entries =
  List.map
    (fun (e : Ef.entry) ->
      let ids = Seq.map (fun (p : Packet.t) -> p.id) (Queue.to_seq e.buffer) in
      (e.seq, List.of_seq ids))
    entries

(* One seeded sequence of installs (plain and late-lock children under a
   parent), packets, disables, tombstones and the puts that clear them,
   applied to both; every packet must get the same filter (or the same
   tombstone verdict), every disable must release the same buffers in
   the same order, and the buffered counts must agree throughout. *)
let test_event_filters_churn () =
  let rng = Rng.create ~seed:2024 in
  let ef = Ef.create () and rf = Ef_ref.create () in
  let tb = Ef.Tombstones.create () and rt = Ef_ref.Tombstones.create () in
  let installed = ref [ Filter.any ] in
  let released_t = Alcotest.(list (pair int (list int))) in
  (* Exact-table hits, wildcard hits, tombstone drops, releases of
     non-empty buffers: the run must exercise each. *)
  let hits = Array.make 4 0 in
  for id = 1 to 6000 do
    match Rng.int rng 12 with
    | 0 | 1 ->
      let f = event_filter rng and a = Rng.pick rng actions in
      installed := f :: !installed;
      Ef.add ef f a;
      Ef_ref.add rf f a
    | 2 ->
      (* Late locking: per-flow Drop children of one parent. *)
      let parent = List.nth !installed (Rng.int rng (List.length !installed)) in
      for _ = 1 to 1 + Rng.int rng 8 do
        let child = Filter.of_key (some_key rng) in
        Ef.add ef ~parent child Protocol.Drop;
        Ef_ref.add rf ~parent child Protocol.Drop
      done
    | 3 ->
      let f =
        if Rng.int rng 4 = 0 then event_filter rng
        else List.nth !installed (Rng.int rng (List.length !installed))
      in
      let out = released (Ef.disable ef f) in
      if List.exists (fun (_, ids) -> ids <> []) out then hits.(3) <- hits.(3) + 1;
      Alcotest.check released_t
        ("disable releases alike: " ^ Filter.to_string f)
        (released (Ef_ref.disable rf f))
        out
    | 4 ->
      let f = flowid rng in
      Ef.Tombstones.add tb f;
      Ef_ref.Tombstones.add rt f
    | 5 ->
      let f = flowid rng in
      Ef.Tombstones.clear_for tb f;
      Ef_ref.Tombstones.clear_for rt f
    | _ ->
      let p =
        if Rng.int rng 4 = 0 then packet rng ~id
        else
          let flags = if Rng.int rng 4 = 0 then [ Packet.Syn ] else [] in
          Packet.create ~id ~key:(some_key rng) ~flags ~sent_at:0.0 ()
      in
      let hit = Ef.find ef p and ref_hit = Ef_ref.find rf p in
      Alcotest.(check (option int)) "same filter" (seq_of ref_hit) (seq_of hit);
      (match (hit, ref_hit) with
      | Some e, Some r ->
        let kind = if Option.is_some (Filter.conn_hash e.filter) then 0 else 1 in
        hits.(kind) <- hits.(kind) + 1;
        if e.action = Protocol.Buffer then begin
          Queue.push p e.buffer;
          Queue.push p r.buffer
        end
      | _ -> ());
      let dead = Ef.Tombstones.matches tb p.key in
      if dead then hits.(2) <- hits.(2) + 1;
      Alcotest.(check bool) "same tombstone verdict"
        (Ef_ref.Tombstones.matches rt p.key)
        dead;
      Alcotest.(check int) "same buffered count" (Ef_ref.buffered rf)
        (Ef.buffered ef)
  done;
  Array.iteri
    (fun i n ->
      Alcotest.(check bool) (Printf.sprintf "coverage %d (%d)" i n) true (n > 50))
    hits

let suite =
  [
    Alcotest.test_case "event filters + tombstones: randomized equivalence"
      `Quick test_event_filters_churn;
    Alcotest.test_case "flowtable: randomized churn equivalence" `Quick
      test_flowtable_churn;
    Alcotest.test_case "flowtable: cache invalidation on install/remove" `Quick
      test_flowtable_cache_invalidation;
    Alcotest.test_case "perflow store: randomized churn equivalence" `Quick
      test_perflow_churn;
  ]
