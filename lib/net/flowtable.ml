type action = Forward of string | To_controller

type rule = {
  cookie : int;
  priority : int;
  filters : Filter.t list;
  actions : action list;
  mutable matched : int;
}

type entry = { rule : rule; installed_seq : int }

(* Entries are indexed two ways (plus a cookie map for management):

   - [exact]: rules whose every filter pins a full 5-tuple live in flat
     memory — one {!Opennf_util.Arena} row per (rule, key), chained per
     directed 5-tuple through an open-addressing int table. A packet
     probes with its own key, so a lookup inspects only the handful of
     rows installed for exactly that flow, however many flows the table
     holds — and at a million installed flows the rows cost the GC
     nothing, unlike the former per-key entry lists. Filters may still
     carry a TCP-flag constraint — rows marked with it are re-checked
     against the full rule via the cookie map.
   - [wild]: everything else, bucketed by priority. Buckets are kept in
     a list sorted by descending priority; within a bucket, entries are
     newest (highest [installed_seq]) first, so the first match found is
     the bucket's winner and scanning stops at the first bucket that
     yields one (or as soon as the exact-match candidate outranks the
     remaining buckets).

   A per-table decision cache memoizes the winning rule per directed
   flow key (one slot per direction; flow-table matching is directional,
   so the two directions of a connection can legitimately hit different
   rules). It is a bounded direct-mapped cache — like a switch's flow
   cache, its working set tracks the traffic, not the table, which is
   what keeps hit cost flat as installed rules grow. Conflicting flows
   simply evict each other and recompute through the indexes. The cache
   is only consulted while no installed rule constrains TCP flags
   ([flag_rules] = 0) — otherwise two packets of the same flow can
   legitimately match different rules — and slots are validated against
   [generation], which every install/remove bumps. *)

type bucket = { prio : int; mutable entries : entry list }

(* Slots are flat — the winning rule is stored directly (with a dummy
   standing in for "no rule matched") so a cache hit dereferences one
   record beyond the slot itself. *)
type slot = {
  mutable d_key : Flow.key;
  mutable d_gen : int;  (* -1 = never filled. *)
  mutable d_rule : rule;
  mutable d_hit : bool;  (* False: the memoized decision is "no match". *)
}

module Omap = Opennf_util.Omap
module Arena = Opennf_util.Arena

(* Exact-index row layout: directed 5-tuple at the head, then the three
   ints [decide] compares (priority, install seq, cookie) and the chain
   link — everything a lookup needs without touching a rule record
   until the winner is known. *)
let eo_flag = 13 (* u8: rule carries a TCP-flag filter; re-check it *)
let eo_prio = 16 (* int *)
let eo_seq = 24 (* int *)
let eo_cookie = 32 (* int *)
let eo_next = 40 (* handle of the next row for the same key; null ends *)
let e_stride = 48

type t = {
  by_cookie : (int, entry) Hashtbl.t;
  by_seq : (int, entry) Omap.t;  (* Ordered by install sequence. *)
  exact : Arena.t;
  (* eidx: directed-key probe table; slots hold the chain-head handle
     (0 = empty, -1 = tombstone). *)
  mutable eidx : int array;
  mutable emask : int;
  mutable ecount : int; (* distinct exact keys (chains) *)
  mutable etombs : int;
  mutable wild : bucket list;  (* Sorted by descending priority. *)
  mutable flag_rules : int;
  mutable generation : int;
  mutable cache : slot array;  (* Direct-mapped; length is a power of 2. *)
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable next_seq : int;
  m_lookups : Opennf_obs.Metrics.counter;
  m_hits : Opennf_obs.Metrics.counter;
  m_misses : Opennf_obs.Metrics.counter;
}

let dummy_key =
  Flow.make ~src:(Ipaddr.of_int 0) ~dst:(Ipaddr.of_int 0) ~sport:0 ~dport:0 ()

let dummy_rule =
  { cookie = min_int; priority = 0; filters = []; actions = []; matched = 0 }

let cache_slots len =
  Array.init len (fun _ ->
      { d_key = dummy_key; d_gen = -1; d_rule = dummy_rule; d_hit = false })

(* The cache starts small and doubles as rules are installed, up to a
   fixed ceiling: small simulated switches stay cheap, large tables get
   enough slots that concurrent flows rarely collide. *)
let cache_initial = 256
let cache_max = 1 lsl 17

let create ?engine () =
  let obs =
    match engine with
    | Some e -> Opennf_sim.Engine.obs e
    | None -> Opennf_obs.Hub.disabled
  in
  let metrics = Opennf_obs.Hub.metrics obs in
  {
    by_cookie = Hashtbl.create 64;
    by_seq = Omap.create ~cmp:Int.compare;
    exact = Arena.create ~stride:e_stride ();
    eidx = Array.make 256 0;
    emask = 255;
    ecount = 0;
    etombs = 0;
    wild = [];
    flag_rules = 0;
    generation = 0;
    cache = cache_slots cache_initial;
    cache_hits = 0;
    cache_misses = 0;
    next_seq = 0;
    m_lookups = Opennf_obs.Metrics.counter metrics "ft.lookups";
    m_hits = Opennf_obs.Metrics.counter metrics "ft.cache_hits";
    m_misses = Opennf_obs.Metrics.counter metrics "ft.cache_misses";
  }

let has_flag_filter rule =
  List.exists (fun f -> Option.is_some f.Filter.tcp_flag) rule.filters

(* --- exact index ---------------------------------------------------------
   Open addressing over int slots, same discipline as the arena-backed
   per-flow stores: probes compare the packet's key fields against the
   chain head's row bytes, so the hot path allocates nothing. *)

let[@inline] emix h v = (h lxor v) * 0x2545F4914F6CDD1D

let[@inline] ehash src dst pr sp dp =
  let h = emix (emix (emix (emix (emix 0x9E3779B9 src) dst) pr) sp) dp in
  (h lxor (h lsr 29)) land max_int

let proto_rank = function Flow.Tcp -> 0 | Flow.Udp -> 1 | Flow.Icmp -> 2

let[@inline] erow_matches t h src dst pr sp dp =
  Arena.get_u32 t.exact h 0 = src
  && Arena.get_u32 t.exact h 4 = dst
  && Arena.get_u8 t.exact h 8 = pr
  && Arena.get_u16 t.exact h 9 = sp
  && Arena.get_u16 t.exact h 11 = dp

(* Slot holding the chain for the directed key, or -1. *)
let eprobe_find t src dst pr sp dp =
  let i = ref (ehash src dst pr sp dp land t.emask) in
  let slot = ref (-1) in
  let continue = ref true in
  while !continue do
    let v = t.eidx.(!i) in
    if v = 0 then continue := false
    else if v <> -1 && erow_matches t v src dst pr sp dp then begin
      slot := !i;
      continue := false
    end
    else i := (!i + 1) land t.emask
  done;
  !slot

let erehash t slots =
  let idx = Array.make slots 0 in
  let mask = slots - 1 in
  Array.iter
    (fun v ->
      if v <> 0 && v <> -1 then begin
        let h =
          ehash (Arena.get_u32 t.exact v 0) (Arena.get_u32 t.exact v 4)
            (Arena.get_u8 t.exact v 8)
            (Arena.get_u16 t.exact v 9)
            (Arena.get_u16 t.exact v 11)
        in
        let i = ref (h land mask) in
        while idx.(!i) <> 0 do
          i := (!i + 1) land mask
        done;
        idx.(!i) <- v
      end)
    t.eidx;
  t.eidx <- idx;
  t.emask <- mask;
  t.etombs <- 0

(* Prepend a row for [e] onto [k]'s chain (newest-first, like the entry
   lists this replaces), creating the chain if the key is new. *)
let eindex_add t e (k : Flow.key) =
  let src = Ipaddr.to_int k.Flow.src_ip
  and dst = Ipaddr.to_int k.Flow.dst_ip
  and pr = proto_rank k.Flow.proto
  and sp = k.Flow.src_port
  and dp = k.Flow.dst_port in
  let i = ref (ehash src dst pr sp dp land t.emask) in
  let free = ref (-1) in
  let found = ref (-1) in
  let continue = ref true in
  while !continue do
    let v = t.eidx.(!i) in
    if v = 0 then begin
      if !free = -1 then free := !i;
      continue := false
    end
    else if v = -1 then begin
      if !free = -1 then free := !i;
      i := (!i + 1) land t.emask
    end
    else if erow_matches t v src dst pr sp dp then begin
      found := !i;
      continue := false
    end
    else i := (!i + 1) land t.emask
  done;
  let h = Arena.alloc t.exact in
  Arena.set_u32 t.exact h 0 src;
  Arena.set_u32 t.exact h 4 dst;
  Arena.set_u8 t.exact h 8 pr;
  Arena.set_u16 t.exact h 9 sp;
  Arena.set_u16 t.exact h 11 dp;
  Arena.set_u8 t.exact h eo_flag (if has_flag_filter e.rule then 1 else 0);
  Arena.set_int t.exact h eo_prio e.rule.priority;
  Arena.set_int t.exact h eo_seq e.installed_seq;
  Arena.set_int t.exact h eo_cookie e.rule.cookie;
  if !found <> -1 then begin
    Arena.set_int t.exact h eo_next t.eidx.(!found);
    t.eidx.(!found) <- h
  end
  else begin
    Arena.set_int t.exact h eo_next Arena.null;
    if t.eidx.(!free) = -1 then t.etombs <- t.etombs - 1;
    t.eidx.(!free) <- h;
    t.ecount <- t.ecount + 1;
    if 2 * (t.ecount + t.etombs) > t.emask + 1 then begin
      let slots = ref (t.emask + 1) in
      while 2 * (t.ecount + 1) > !slots do
        slots := !slots * 2
      done;
      erehash t !slots
    end
  end

(* Drop [e]'s row from [k]'s chain, tombstoning the slot if the chain
   empties. Cookie identifies the row: install replaces (unlinks) any
   previous entry with the same cookie before linking the new one. *)
let eindex_remove t e (k : Flow.key) =
  let s =
    eprobe_find t
      (Ipaddr.to_int k.Flow.src_ip)
      (Ipaddr.to_int k.Flow.dst_ip)
      (proto_rank k.Flow.proto) k.Flow.src_port k.Flow.dst_port
  in
  if s <> -1 then begin
    let cookie = e.rule.cookie in
    let rec filter h =
      if h = Arena.null then Arena.null
      else begin
        let next = Arena.get_int t.exact h eo_next in
        if Arena.get_int t.exact h eo_cookie = cookie then begin
          Arena.free t.exact h;
          filter next
        end
        else begin
          Arena.set_int t.exact h eo_next (filter next);
          h
        end
      end
    in
    match filter t.eidx.(s) with
    | 0 ->
      t.eidx.(s) <- -1;
      t.ecount <- t.ecount - 1;
      t.etombs <- t.etombs + 1
    | head -> t.eidx.(s) <- head
  end

let exact_keys rule =
  let keys = List.map Filter.exact_key rule.filters in
  if List.for_all Option.is_some keys then
    (* Dedup + order through the same ordered-enumeration helper the
       state stores use. *)
    Some (Omap.sort_uniq ~cmp:Flow.compare (List.filter_map Fun.id keys))
  else None

let unlink t e =
  Hashtbl.remove t.by_cookie e.rule.cookie;
  Omap.remove t.by_seq e.installed_seq;
  if has_flag_filter e.rule then t.flag_rules <- t.flag_rules - 1;
  match exact_keys e.rule with
  | Some keys -> List.iter (eindex_remove t e) keys
  | None ->
    List.iter
      (fun b -> b.entries <- List.filter (fun e' -> e' != e) b.entries)
      t.wild;
    t.wild <- List.filter (fun b -> b.entries <> []) t.wild

let link t e =
  Hashtbl.replace t.by_cookie e.rule.cookie e;
  Omap.set t.by_seq e.installed_seq e;
  if has_flag_filter e.rule then t.flag_rules <- t.flag_rules + 1;
  match exact_keys e.rule with
  | Some keys -> List.iter (eindex_add t e) keys
  | None -> (
    (* New entries always carry the largest seq, so prepending keeps the
       bucket newest-first. *)
    match List.find_opt (fun b -> b.prio = e.rule.priority) t.wild with
    | Some b -> b.entries <- e :: b.entries
    | None ->
      (* Sorted insert (descending priority): the bucket list stays
         ordered without re-sorting it on every new priority. *)
      let b = { prio = e.rule.priority; entries = [ e ] } in
      let rec insert = function
        | [] -> [ b ]
        | b' :: _ as rest when b.prio > b'.prio -> b :: rest
        | b' :: rest -> b' :: insert rest
      in
      t.wild <- insert t.wild)

let invalidate t = t.generation <- t.generation + 1

let maybe_grow_cache t =
  let len = Array.length t.cache in
  if len < cache_max && 2 * Hashtbl.length t.by_cookie >= len then
    t.cache <- cache_slots (min cache_max (4 * len))

let install t ~cookie ~priority ~filters ~actions =
  let rule = { cookie; priority; filters; actions; matched = 0 } in
  let entry = { rule; installed_seq = t.next_seq } in
  t.next_seq <- t.next_seq + 1;
  (match Hashtbl.find_opt t.by_cookie cookie with
  | Some old -> unlink t old
  | None -> ());
  link t entry;
  maybe_grow_cache t;
  invalidate t

let remove t ~cookie =
  match Hashtbl.find_opt t.by_cookie cookie with
  | None -> ()
  | Some e ->
    unlink t e;
    invalidate t

let rule_matches r p = List.exists (fun f -> Filter.matches_packet f p) r.filters

(* Higher priority wins; the most recent install breaks ties. *)
let beats a b =
  a.rule.priority > b.rule.priority
  || (a.rule.priority = b.rule.priority && a.installed_seq > b.installed_seq)

(* Walk the packet key's chain comparing raw (priority, seq) ints; only
   the winning row's entry is fetched (via the cookie map), and only
   flag-marked rows pay a full [rule_matches] re-check. Unmarked rows
   match by construction: their filters pin exactly this 5-tuple and
   packet matching ignores the app field. *)
let exact_best t p =
  let k = p.Packet.key in
  let s =
    eprobe_find t
      (Ipaddr.to_int k.Flow.src_ip)
      (Ipaddr.to_int k.Flow.dst_ip)
      (proto_rank k.Flow.proto) k.Flow.src_port k.Flow.dst_port
  in
  if s = -1 then None
  else begin
    let a = t.exact in
    let best = ref Arena.null in
    let bp = ref min_int and bs = ref min_int in
    let h = ref t.eidx.(s) in
    while !h <> Arena.null do
      let prio = Arena.get_int a !h eo_prio in
      let seq = Arena.get_int a !h eo_seq in
      if prio > !bp || (prio = !bp && seq > !bs) then begin
        let ok =
          Arena.get_u8 a !h eo_flag = 0
          ||
          match Hashtbl.find_opt t.by_cookie (Arena.get_int a !h eo_cookie) with
          | Some e -> rule_matches e.rule p
          | None -> false
        in
        if ok then begin
          best := !h;
          bp := prio;
          bs := seq
        end
      end;
      h := Arena.get_int a !h eo_next
    done;
    if !best = Arena.null then None
    else Hashtbl.find_opt t.by_cookie (Arena.get_int a !best eo_cookie)
  end

let wild_best t p ~stop_at =
  let rec bucket_scan = function
    | [] -> None
    | b :: rest -> (
      match stop_at with
      | Some limit when limit.rule.priority > b.prio -> None
      | _ -> (
        match List.find_opt (fun e -> rule_matches e.rule p) b.entries with
        | Some e -> Some e
        | None -> bucket_scan rest))
  in
  bucket_scan t.wild

let decide t p =
  let exact = exact_best t p in
  let winner =
    match (exact, wild_best t p ~stop_at:exact) with
    | best, None | None, best -> best
    | Some a, Some b -> if beats a b then Some a else Some b
  in
  winner

let record_match = function
  | None -> None
  | Some e ->
    e.rule.matched <- e.rule.matched + 1;
    Some e.rule

let lookup t p =
  Opennf_obs.Metrics.incr t.m_lookups;
  if t.flag_rules > 0 then record_match (decide t p)
  else begin
    let key = p.Packet.key in
    let slot = t.cache.(Flow.hash key land (Array.length t.cache - 1)) in
    if slot.d_gen = t.generation && Flow.equal slot.d_key key then begin
      t.cache_hits <- t.cache_hits + 1;
      Opennf_obs.Metrics.incr t.m_hits;
      if slot.d_hit then begin
        let r = slot.d_rule in
        r.matched <- r.matched + 1;
        Some r
      end
      else None
    end
    else begin
      t.cache_misses <- t.cache_misses + 1;
      Opennf_obs.Metrics.incr t.m_misses;
      let winner = decide t p in
      slot.d_key <- key;
      slot.d_gen <- t.generation;
      (match winner with
      | Some e ->
        slot.d_rule <- e.rule;
        slot.d_hit <- true
      | None ->
        slot.d_rule <- dummy_rule;
        slot.d_hit <- false);
      record_match winner
    end
  end

(* Reference implementation: a linear scan over every installed rule,
   shaped like the original unindexed table. Retained as the oracle for
   the randomized equivalence tests (and the bench baseline); does not
   touch the [matched] counters or the cache. *)
let lookup_reference t p =
  Hashtbl.fold
    (fun _ e best ->
      if rule_matches e.rule p then
        match best with Some b when beats b e -> best | _ -> Some e
      else best)
    t.by_cookie None
  |> Option.map (fun e -> e.rule)

let find t ~cookie =
  Option.map (fun e -> e.rule) (Hashtbl.find_opt t.by_cookie cookie)

(* Newest-first dump via the seq-ordered mirror: an ascending fold with
   prepend yields descending install order — no per-call sort. *)
let rules t = Omap.fold_asc (fun _ e acc -> e.rule :: acc) t.by_seq []

let size t = Hashtbl.length t.by_cookie
let cache_stats t = (t.cache_hits, t.cache_misses)

(* Cookies are allocated strided by controller shard (see
   {!Opennf.Controller.fresh_cookie}): cookie mod shards names the
   owning shard, so the cookie partition is the table slice. *)
let slice_counts t ~shards =
  if shards < 1 then invalid_arg "Flowtable.slice_counts: shards must be >= 1";
  let counts = Array.make shards 0 in
  Hashtbl.iter
    (fun cookie _ ->
      let s = ((cookie mod shards) + shards) mod shards in
      counts.(s) <- counts.(s) + 1)
    t.by_cookie;
  counts
