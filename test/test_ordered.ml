(* Ordered-store equivalence: each store's cached key order (sorted on
   the first ordered read after a write added or removed a key) must be
   observationally identical — same keys, same order, same values — to
   the fold-and-sort references in [Opennf_oracle] under arbitrary
   insert/remove/get interleavings, and to independent [Map] models
   checked after every single write, which catch an order left stale.
   Plus allocation-budget regressions for the getPerflow fast path: an
   exact-key get neither walks nor churns the minor heap, and a budget
   test keeps that true. *)

module Omap = Opennf_util.Omap
module IntMap = Map.Make (Int)
open Opennf_net
open Opennf_state

(* --- generators: a small universe so churn collides often ------------- *)

let ip a b = Ipaddr.v 10 0 (a land 3) (b land 7)

let key a b =
  Flow.make ~src:(ip a b) ~dst:(ip b a)
    ~proto:(if a land 1 = 0 then Flow.Tcp else Flow.Udp)
    ~sport:(1000 + (a land 3))
    ~dport:(1000 + (b land 3))
    ()

let filter_of c a b =
  match c mod 8 with
  | 0 -> Filter.any
  | 1 -> Filter.of_src_host (ip a b)
  | 2 -> Filter.of_dst_host (ip a b)
  | 3 -> Filter.of_src_prefix (Ipaddr.Prefix.make (ip a b) 24)
  | 4 -> Filter.make ~src:(Ipaddr.Prefix.host (ip a b)) ~dst:(Ipaddr.Prefix.host (ip b a)) ()
  | 5 -> Filter.make ~src:(Ipaddr.Prefix.host (ip a b)) ~dst_port:(1000 + (b land 3)) ()
  | 6 -> Filter.make ~proto:(if a land 1 = 0 then Flow.Tcp else Flow.Udp) ()
  | _ -> Filter.of_key (key a b)

let ops_arb =
  QCheck.(list_of_size (Gen.int_range 1 120) (triple small_nat small_nat small_nat))

let show_pairs pp l =
  String.concat ";" (List.map (fun (k, v) -> Format.asprintf "%a=%d" pp k v) l)

(* --- store equivalence under churn ------------------------------------ *)

let perflow_equiv =
  QCheck.Test.make ~name:"perflow: ordered matching == sorted reference (random)"
    ~count:60 ops_arb (fun ops ->
      let store = Store.Perflow.create () in
      List.for_all
        (fun (c, a, b) ->
          match c mod 5 with
          | 0 | 1 ->
            Store.Perflow.set store (key a b) c;
            true
          | 2 ->
            Store.Perflow.remove store (key a b);
            true
          | _ ->
            let f = filter_of c a b in
            let got = Store.Perflow.matching store f in
            let want = Opennf_oracle.perflow_matching store f in
            if got <> want then
              QCheck.Test.fail_reportf "filter %s: got [%s] want [%s]"
                (Filter.to_string f) (show_pairs Flow.pp got)
                (show_pairs Flow.pp want)
            else true)
        ops)

(* The value column under volume: thousands of live rows cross several
   arena slabs and column doublings, and remove/reinsert batches (half
   of them through the reversed direction) reuse freed rows LIFO. After
   every batch each probe, the fold and the unscoped walk must agree
   with a [Flow.Map] model, values included. *)
let wide_key i =
  Flow.make
    ~src:(Ipaddr.of_int (0x0A000000 lor (i lsr 4)))
    ~dst:(Ipaddr.of_int 0xC0A80001)
    ~sport:(1024 + (i land 15))
    ~dport:80 ()

let wide_universe = 4_800

let column_batches_arb =
  QCheck.(
    list_of_size (Gen.int_range 1 10)
      (quad (int_bound 3) (int_bound (wide_universe - 1)) (int_range 1 900)
         (int_range 1 5)))

let perflow_column =
  QCheck.Test.make
    ~name:"perflow: value column == Flow.Map model across slabs and reuse"
    ~count:20 column_batches_arb (fun batches ->
      let store = Store.Perflow.create () in
      let model = ref Flow.Map.empty in
      let fresh = ref 0 in
      let set k =
        incr fresh;
        Store.Perflow.set store k !fresh;
        model := Flow.Map.add (Flow.canonical k) !fresh !model
      in
      let remove k =
        Store.Perflow.remove store k;
        model := Flow.Map.remove (Flow.canonical k) !model
      in
      let agrees () =
        let want = Flow.Map.bindings !model in
        Store.Perflow.size store = Flow.Map.cardinal !model
        && List.rev (Store.Perflow.fold store ~init:[] ~f:(fun k v acc -> (k, v) :: acc))
           = want
        && Store.Perflow.matching store Filter.any = want
        && List.for_all
             (fun i ->
               let k = wide_key i in
               let v = Flow.Map.find_opt k !model in
               Store.Perflow.find store k = v
               && Store.Perflow.find store (Flow.reverse k) = v
               && Store.Perflow.mem store k = Option.is_some v)
             (List.init wide_universe Fun.id)
      in
      for i = 0 to 3_199 do
        set (wide_key i)
      done;
      agrees ()
      && List.for_all
           (fun (kind, start, len, step) ->
             let i = ref start in
             while !i < min wide_universe (start + len) do
               let k = wide_key !i in
               (match kind with
               | 0 -> remove k
               | 1 -> set (Flow.reverse k)
               | 2 -> set k
               | _ ->
                 remove k;
                 set (Flow.reverse k));
               i := !i + step
             done;
             agrees ())
           batches)

let per_host_equiv =
  QCheck.Test.make ~name:"per-host: ordered matching == sorted reference (random)"
    ~count:60 ops_arb (fun ops ->
      let store = Store.Per_host.create () in
      List.for_all
        (fun (c, a, b) ->
          match c mod 5 with
          | 0 | 1 ->
            Store.Per_host.set store (ip a b) c;
            true
          | 2 ->
            Store.Per_host.remove store (ip a b);
            true
          | 3 ->
            Store.Per_host.update store (ip a b)
              ~default:(fun () -> 0)
              ~f:(fun v -> v + 1);
            true
          | _ ->
            let f = filter_of c a b in
            let got = Store.Per_host.matching store f in
            let want = Opennf_oracle.per_host_matching store f in
            if got <> want then
              QCheck.Test.fail_reportf "filter %s: got [%s] want [%s]"
                (Filter.to_string f) (show_pairs Ipaddr.pp got)
                (show_pairs Ipaddr.pp want)
            else true)
        ops)

let keyed_equiv =
  QCheck.Test.make ~name:"keyed: ordered matching == sorted reference (random)"
    ~count:60 ops_arb (fun ops ->
      let relevant (f : Filter.t) k _v =
        match f.Filter.src_port with
        | Some p -> k mod 3 = p mod 3
        | None -> true
      in
      let store = Store.Keyed.create ~relevant () in
      List.for_all
        (fun (c, a, b) ->
          match c mod 4 with
          | 0 | 1 ->
            Store.Keyed.set store (a land 15) (b + c);
            true
          | 2 ->
            Store.Keyed.remove store (a land 15);
            true
          | _ ->
            let f =
              if c land 1 = 0 then Filter.any
              else Filter.make ~src_port:(1000 + (a land 3)) ()
            in
            Store.Keyed.matching store f
            = Opennf_oracle.keyed_matching ~relevant store f)
        ops)

(* The ordered-map helper itself against the stdlib Map oracle. *)
let omap_oracle =
  QCheck.Test.make ~name:"omap: set/remove/find/walk == stdlib Map (random)"
    ~count:120
    QCheck.(list (pair small_nat small_nat))
    (fun ops ->
      let om = Omap.create ~cmp:Int.compare in
      let oracle = ref IntMap.empty in
      List.iter
        (fun (c, k) ->
          if c mod 3 = 2 then begin
            Omap.remove om k;
            oracle := IntMap.remove k !oracle
          end
          else begin
            Omap.set om k c;
            oracle := IntMap.add k c !oracle
          end)
        ops;
      Omap.to_alist om = IntMap.bindings !oracle
      && Omap.cardinal om = IntMap.cardinal !oracle
      && List.for_all
           (fun (_, k) -> Omap.find_opt om k = IntMap.find_opt k !oracle)
           ops
      && Omap.fold_asc (fun k v acc -> (k, v) :: acc) om []
         = List.rev (IntMap.bindings !oracle))

(* --- stale order: a model check after every op ------------------------ *)

(* Writes only mark a store's ordered array stale; the next ordered read
   re-sorts. The equivalence properties above compare against oracles
   built from each store's own [fold], which for [Perflow] walks the
   same array, so they cannot see a stale one. These compare [matching]
   (exact, host, prefix and unconstrained filters) and [fold] against an
   independent [Map] after every set, overwrite and remove. *)
module IpMap = Map.Make (Ipaddr)

let churn_arb =
  QCheck.(list_of_size (Gen.int_range 1 200) (triple small_nat small_nat small_nat))

(* The [n]th binding of a non-empty model, to overwrite a present key. *)
let nth_key bindings n = fst (List.nth bindings (n mod List.length bindings))

let agree_after name got want =
  got = want || QCheck.Test.fail_reportf "%s diverged from the model" name

let per_host_stale =
  QCheck.Test.make ~name:"per-host: matching and fold == Map model after every op"
    ~count:60 churn_arb (fun ops ->
      let store = Store.Per_host.create () in
      let model = ref IpMap.empty in
      List.for_all
        (fun (c, a, b) ->
          let k =
            match (c mod 4, IpMap.bindings !model) with
            | 1, (_ :: _ as l) -> nth_key l a (* overwrite a present host *)
            | _ -> ip a b
          in
          if c mod 4 = 2 then begin
            Store.Per_host.remove store k;
            model := IpMap.remove k !model
          end
          else begin
            Store.Per_host.set store k c;
            model := IpMap.add k c !model
          end;
          List.for_all
            (fun f ->
              agree_after (Filter.to_string f)
                (Store.Per_host.matching store f)
                (List.filter (fun (h, _) -> Filter.matches_host f h) (IpMap.bindings !model)))
            [ Filter.any; filter_of c a b; filter_of (c + 3) b a ]
          && agree_after "fold"
               (List.sort compare
                  (Store.Per_host.fold store ~init:[] ~f:(fun h v acc -> (h, v) :: acc)))
               (IpMap.bindings !model))
        ops)

let keyed_stale =
  QCheck.Test.make ~name:"keyed: matching and fold == Map model after every op"
    ~count:60 churn_arb (fun ops ->
      let relevant (f : Filter.t) k _v =
        match f.Filter.src_port with Some p -> k mod 3 = p mod 3 | None -> true
      in
      let store = Store.Keyed.create ~relevant () in
      let model = ref IntMap.empty in
      List.for_all
        (fun (c, a, b) ->
          let k =
            match (c mod 4, IntMap.bindings !model) with
            | 1, (_ :: _ as l) -> nth_key l a
            | _ -> a land 31
          in
          if c mod 4 = 2 then begin
            Store.Keyed.remove store k;
            model := IntMap.remove k !model
          end
          else begin
            Store.Keyed.set store k (b + c);
            model := IntMap.add k (b + c) !model
          end;
          List.for_all
            (fun f ->
              agree_after (Filter.to_string f) (Store.Keyed.matching store f)
                (List.filter (fun (k, v) -> relevant f k v) (IntMap.bindings !model)))
            [ Filter.any; Filter.make ~src_port:(1000 + (b land 3)) () ]
          && agree_after "fold"
               (List.sort compare
                  (Store.Keyed.fold store ~init:[] ~f:(fun k v acc -> (k, v) :: acc)))
               (IntMap.bindings !model))
        ops)

let perflow_stale =
  QCheck.Test.make ~name:"perflow: matching and fold == Flow.Map model after every op"
    ~count:60 churn_arb (fun ops ->
      let store = Store.Perflow.create () in
      let model = ref Flow.Map.empty in
      List.for_all
        (fun (c, a, b) ->
          let k =
            match (c mod 4, Flow.Map.bindings !model) with
            | 1, (_ :: _ as l) -> Flow.reverse (nth_key l a)
            | _ -> key a b
          in
          if c mod 4 = 2 then begin
            Store.Perflow.remove store k;
            model := Flow.Map.remove (Flow.canonical k) !model
          end
          else begin
            Store.Perflow.set store k c;
            model := Flow.Map.add (Flow.canonical k) c !model
          end;
          List.for_all
            (fun f ->
              agree_after (Filter.to_string f) (Store.Perflow.matching store f)
                (List.filter
                   (fun (k, _) -> Filter.matches_flow f k)
                   (Flow.Map.bindings !model)))
            [ Filter.any; filter_of c a b; filter_of (c + 3) b a ]
          && agree_after "fold"
               (List.rev
                  (Store.Perflow.fold store ~init:[] ~f:(fun k v acc -> (k, v) :: acc)))
               (Flow.Map.bindings !model))
        ops)

(* --- allocation budgets ------------------------------------------------ *)

let minor_words_per ~iters f =
  f ();
  (* warm caches and one-time setup *)
  let before = Gc.minor_words () in
  for _ = 1 to iters do
    f ()
  done;
  (Gc.minor_words () -. before) /. float_of_int iters

let populate_prads n =
  let prads = Opennf_nfs.Prads.create () in
  let impl = Opennf_nfs.Prads.impl prads in
  for i = 0 to n - 1 do
    let k =
      Flow.make
        ~src:(Ipaddr.of_int (0x0A000000 lor (i lsr 6)))
        ~dst:(Ipaddr.of_int 0xC0A80101)
        ~sport:(1024 + (i land 63))
        ~dport:80 ()
    in
    impl.Opennf_sb.Nf_api.process_packet (Packet.create ~id:i ~key:k ~sent_at:0.0 ())
  done;
  impl

(* The raw scoped probe must stay O(1) allocations — a handful of words
   for the canonical key and the result cell, nothing proportional to
   the store. *)
let test_matching_alloc_budget () =
  let store = Store.Perflow.create () in
  for i = 0 to 9_999 do
    Store.Perflow.set store (key (i land 255) (i lsr 8)) i
  done;
  let f = Filter.of_key (key 7 42) in
  let per_op =
    minor_words_per ~iters:1000 (fun () ->
        ignore (Store.Perflow.matching store f))
  in
  Alcotest.(check bool)
    (Printf.sprintf "exact matching stays under 128 minor words/op (got %.1f)"
       per_op)
    true (per_op < 128.0)

(* NF-level getPerflow (list + chunk export) on a 10k-flow PRADS: scoped
   enumeration plus one scratch-buffer encode. The budget has ~3x
   headroom over the measured cost but is far below what a single sort
   of the store (~10k list cells) would spend. *)
let test_get_perflow_alloc_budget () =
  let impl = populate_prads 10_000 in
  let f =
    Filter.of_key
      (Flow.make
         ~src:(Ipaddr.of_int (0x0A000000 lor (5_000 lsr 6)))
         ~dst:(Ipaddr.of_int 0xC0A80101)
         ~sport:(1024 + (5_000 land 63))
         ~dport:80 ())
  in
  let per_op =
    minor_words_per ~iters:500 (fun () ->
        List.iter
          (fun flowid -> ignore (impl.Opennf_sb.Nf_api.export_perflow flowid))
          (impl.Opennf_sb.Nf_api.list_perflow f))
  in
  Alcotest.(check bool)
    (Printf.sprintf "getPerflow stays under 2048 minor words/op (got %.1f)"
       per_op)
    true (per_op < 2048.0)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [ perflow_equiv; perflow_column; per_host_equiv; keyed_equiv; omap_oracle ]
  @ [
      Alcotest.test_case "alloc budget: exact store matching" `Quick
        test_matching_alloc_budget;
      Alcotest.test_case "alloc budget: NF getPerflow path" `Quick
        test_get_perflow_alloc_budget;
    ]
  @ List.map QCheck_alcotest.to_alcotest [ per_host_stale; keyed_stale; perflow_stale ]
