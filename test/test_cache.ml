(* The lib/cache layer: canonical keys, the sharded LRU, the answer
   cache's token/generation validity rules, SLD subgoal memoization, and
   the conformance guarantee that cached traffic leaves the learner's
   trajectory unchanged. *)

open Helpers
module D = Datalog

let atom = D.Parser.parse_atom

(* ---------- Key ---------- *)

let key_canonical_basics () =
  let k1, v1 = Cache.Key.of_atom (atom "anc(X, Y)") in
  let k2, v2 = Cache.Key.of_atom (atom "anc(A, B)") in
  check_bool "alpha-equivalent atoms share a key" true (D.Atom.equal k1 k2);
  check_int "two vars" 2 (Array.length v1);
  check_bool "original vars preserved, in order" true
    (v1.(0).D.Term.name = "X" && v1.(1).D.Term.name = "Y"
    && v2.(0).D.Term.name = "A" && v2.(1).D.Term.name = "B");
  (* A repeated variable is a different query than two distinct ones. *)
  let k3, v3 = Cache.Key.of_atom (atom "anc(X, X)") in
  check_bool "anc(X,X) distinct from anc(X,Y)" false (D.Atom.equal k1 k3);
  check_int "one var" 1 (Array.length v3);
  (* Ground atoms are their own key. *)
  let g = atom "anc(a, b)" in
  let kg, vg = Cache.Key.of_atom g in
  check_bool "ground key is the atom" true (D.Atom.equal g kg);
  check_int "no vars" 0 (Array.length vg);
  (* First-occurrence order with interleaved constants and repeats. *)
  let k4, v4 = Cache.Key.of_atom (atom "p(a, X, b, X, Y)") in
  check_int "two distinct vars" 2 (Array.length v4);
  check_bool "canonical shape" true
    (D.Atom.equal k4
       (D.Atom.make "p"
          [
            D.Term.const "a";
            D.Term.Var (Cache.Key.canonical_var 0);
            D.Term.const "b";
            D.Term.Var (Cache.Key.canonical_var 0);
            D.Term.Var (Cache.Key.canonical_var 1);
          ]));
  check_bool "index_of_canonical inverts canonical_var" true
    (Cache.Key.index_of_canonical (Cache.Key.canonical_var 3) = Some 3);
  check_bool "source vars are not canonical" true
    (Cache.Key.index_of_canonical { D.Term.name = "X"; gen = 0 } = None)

let gen_args =
  let open QCheck2.Gen in
  let term =
    oneof
      [
        map (fun i -> D.Term.const (Printf.sprintf "c%d" (i mod 3))) small_nat;
        map (fun i -> D.Term.var (Printf.sprintf "V%d" (i mod 4))) small_nat;
      ]
  in
  list_size (int_range 1 5) term

let key_alpha_equivalence =
  qcheck "renaming variables never changes the key" ~count:300 gen_args
    (fun args ->
      let renamed =
        List.map
          (function
            | D.Term.Var v -> D.Term.var ("r_" ^ v.D.Term.name)
            | t -> t)
          args
      in
      let k, vars = Cache.Key.of_atom (D.Atom.make "p" args) in
      let k', vars' = Cache.Key.of_atom (D.Atom.make "p" renamed) in
      D.Atom.equal k k' && Array.length vars = Array.length vars')

let key_canonical_fixpoint =
  qcheck "canonicalization is idempotent" ~count:300 gen_args (fun args ->
      let k, _ = Cache.Key.of_atom (D.Atom.make "p" args) in
      D.Atom.equal k (fst (Cache.Key.of_atom k)))

(* ---------- Lru ---------- *)

module Int_lru = Cache.Lru.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
end)

let lru_eviction_order () =
  let t = Int_lru.create ~shards:1 ~capacity_bytes:300 () in
  Int_lru.add t 1 "a" ~bytes:100;
  Int_lru.add t 2 "b" ~bytes:100;
  Int_lru.add t 3 "c" ~bytes:100;
  check_int "full" 3 (Int_lru.length t);
  check_int "accounted" 300 (Int_lru.bytes t);
  (* Touching 1 makes 2 the least recently used. *)
  check_bool "find promotes" true (Int_lru.find t 1 = Some "a");
  Int_lru.add t 4 "d" ~bytes:100;
  check_bool "LRU entry evicted" true (Int_lru.find t 2 = None);
  check_bool "touched entry kept" true (Int_lru.find t 1 = Some "a");
  check_bool "3 kept" true (Int_lru.find t 3 = Some "c");
  check_bool "4 kept" true (Int_lru.find t 4 = Some "d");
  check_int "one eviction" 1 (Int_lru.evictions t);
  (* Replacing re-accounts the byte size. *)
  Int_lru.add t 4 "D" ~bytes:50;
  check_bool "replaced" true (Int_lru.find t 4 = Some "D");
  check_int "bytes after replace" 250 (Int_lru.bytes t);
  (* An oversized entry is admitted alone (never evicts itself). *)
  Int_lru.add t 9 "huge" ~bytes:1000;
  check_bool "oversized admitted" true (Int_lru.find t 9 = Some "huge");
  check_int "alone" 1 (Int_lru.length t);
  check_int "three more evictions" 4 (Int_lru.evictions t);
  check_bool "remove present" true (Int_lru.remove t 9);
  check_bool "remove absent" false (Int_lru.remove t 9);
  check_int "empty" 0 (Int_lru.length t);
  check_int "no bytes" 0 (Int_lru.bytes t)

(* The answer cache keys on atoms whose hash is built from sequential
   symbol ids. A shard picked from the same low hash bits its table
   buckets on would leave most of each shard's buckets empty (chains of
   8-16); the mixed shard choice keeps every chain short. *)
module Atom_lru = Cache.Lru.Make (struct
  type t = D.Atom.t

  let equal = D.Atom.equal
  let hash = D.Atom.hash
end)

let lru_shards_spread_sequential_keys () =
  let t = Atom_lru.create ~capacity_bytes:(1 lsl 30) () in
  for i = 1 to 10_000 do
    Atom_lru.add t
      (D.Atom.make "lru_seq" [ D.Term.const (Printf.sprintf "lru_seq_%d" i) ])
      i ~bytes:1
  done;
  check_int "every key kept" 10_000 (Atom_lru.length t);
  let chain = Atom_lru.longest_chain t in
  (* About 1250 keys per shard over 1024 buckets: a well-spread shard's
     longest chain is 5-7; the unmixed choice gave 10. *)
  if chain > 8 then Alcotest.failf "longest bucket chain %d > 8" chain

(* ---------- Answers ---------- *)

let answers_roundtrip () =
  let db = D.Database.of_list [ atom "par(a, b)" ] in
  let c = Cache.Answers.create ~capacity_bytes:(1 lsl 16) () in
  let q = atom "anc(X, Y)" in
  check_bool "cold miss" true (Cache.Answers.find c ~db q = None);
  let result =
    D.Subst.empty
    |> D.Subst.bind { D.Term.name = "X"; gen = 0 } (D.Term.const "a")
    |> D.Subst.bind { D.Term.name = "Y"; gen = 0 } (D.Term.const "b")
  in
  Cache.Answers.store c ~db q ~result:(Some result) ~reductions:3
    ~retrievals:2 ~cost:5.0;
  (* Look up through an alpha-variant: the hit rebases onto ITS vars. *)
  (match Cache.Answers.find c ~db (atom "anc(P, Q)") with
  | None -> Alcotest.fail "expected a hit"
  | Some h ->
    check_int "fill reductions" 3 h.Cache.Answers.reductions;
    check_int "fill retrievals" 2 h.Cache.Answers.retrievals;
    check_float "fill cost" 5.0 h.Cache.Answers.cost;
    (match h.Cache.Answers.result with
    | None -> Alcotest.fail "expected an answer substitution"
    | Some s ->
      check_bool "P = a" true
        (D.Term.equal (D.Subst.apply s (D.Term.var "P")) (D.Term.const "a"));
      check_bool "Q = b" true
        (D.Term.equal (D.Subst.apply s (D.Term.var "Q")) (D.Term.const "b"))));
  (* Only alpha-variants share an entry: a more specific query misses
     even though the cached answer covers it. *)
  check_bool "specialization misses" true
    (Cache.Answers.find c ~db (atom "anc(a, Q)") = None);
  (* "No" answers are cached too (they were not truncated). *)
  let qn = atom "anc(z, z)" in
  Cache.Answers.store c ~db qn ~result:None ~reductions:7 ~retrievals:4
    ~cost:11.0;
  (match Cache.Answers.find c ~db qn with
  | Some { Cache.Answers.result = None; _ } -> ()
  | _ -> Alcotest.fail "expected a cached 'no'");
  let cs = Cache.Answers.counters c in
  check_int "hits" 2 cs.Cache.Answers.hits;
  check_int "misses" 2 cs.Cache.Answers.misses;
  check_int "entries" 2 cs.Cache.Answers.entries

let answers_invalidation () =
  let db = D.Database.of_list [ atom "par(a, b)" ] in
  let c = Cache.Answers.create ~capacity_bytes:(1 lsl 16) () in
  let q = atom "anc(X, Y)" in
  Cache.Answers.store c ~db q ~result:None ~reductions:1 ~retrievals:1
    ~cost:2.0;
  check_bool "warm" true (Cache.Answers.find c ~db q <> None);
  (* Mutation bumps the generation; the stale entry drops on lookup. *)
  check_bool "fact added" true (D.Database.add db (atom "par(b, c)"));
  check_bool "stale entry dropped" true (Cache.Answers.find c ~db q = None);
  let cs = Cache.Answers.counters c in
  check_int "invalidations" 1 cs.Cache.Answers.invalidations;
  check_int "entries" 0 cs.Cache.Answers.entries;
  (* A different database instance never matches, whatever its state. *)
  Cache.Answers.store c ~db q ~result:None ~reductions:1 ~retrievals:1
    ~cost:2.0;
  let db2 = D.Database.of_list (D.Database.to_list db) in
  check_bool "other instance misses" true
    (Cache.Answers.find c ~db:db2 q = None)

(* ---------- Sld.Memo ---------- *)

let memo_seeded_verdicts () =
  let m = D.Sld.Memo.create () in
  let a = atom "p(a, b)" in
  D.Sld.Memo.add m ~token:1 ~gen:1 a true;
  check_bool "seeded verdict found" true
    (D.Sld.Memo.find m ~token:1 ~gen:1 a = Some true);
  check_bool "different generation misses" true
    (D.Sld.Memo.find m ~token:1 ~gen:2 a = None);
  check_bool "different token misses" true
    (D.Sld.Memo.find m ~token:2 ~gen:1 a = None)

let memo_kb () =
  let rules, facts, _ =
    D.Parser.parse_kb
      "anc(X, Y) :- par(X, Y).\n\
       anc(X, Y) :- par(X, Z), anc(Z, Y).\n\
       par(a, b). par(b, c). par(c, d).\n"
  in
  (D.Rulebase.of_list rules, D.Database.of_list facts)

let memo_same_answers () =
  let rulebase, db = memo_kb () in
  let plain = D.Sld.config ~rulebase ~db () in
  let memo = D.Sld.Memo.create () in
  let memoized = D.Sld.config ~memo ~rulebase ~db () in
  List.iter
    (fun q ->
      let goal = D.Parser.parse_query q in
      check_bool q (D.Sld.provable plain goal) (D.Sld.provable memoized goal))
    [ "anc(a, d)"; "anc(b, d)"; "anc(d, a)"; "anc(a, a)"; "par(a, b)" ];
  (* The repeat of a memoized ground query is pure table lookup. *)
  let _, stats = D.Sld.solve_first memoized (D.Parser.parse_query "anc(a, d)") in
  check_int "repeat costs no reductions" 0 stats.D.Sld.reductions;
  check_int "repeat costs no retrievals" 0 stats.D.Sld.retrievals;
  let cs = D.Sld.Memo.counters memo in
  check_bool "hits recorded" true (cs.D.Sld.Memo.hits > 0);
  check_bool "entries recorded" true (cs.D.Sld.Memo.entries > 0)

let memo_invalidation () =
  let rulebase, db = memo_kb () in
  let memo = D.Sld.Memo.create () in
  let cfg = D.Sld.config ~memo ~rulebase ~db () in
  let q = D.Parser.parse_query "anc(a, e)" in
  check_bool "not derivable yet" false (D.Sld.provable cfg q);
  check_bool "fact added" true (D.Database.add db (atom "par(d, e)"));
  (* Without generation checking this would serve the stale 'no'. *)
  check_bool "derivable after mutation" true (D.Sld.provable cfg q);
  check_bool "stable on repeat" true (D.Sld.provable cfg q);
  let cs = D.Sld.Memo.counters memo in
  check_bool "stale verdicts invalidated" true
    (cs.D.Sld.Memo.invalidations > 0)

let memo_never_caches_truncated () =
  let rulebase, db = memo_kb () in
  let memo = D.Sld.Memo.create () in
  let shallow = D.Sld.config ~memo ~depth_limit:2 ~rulebase ~db () in
  let q = D.Parser.parse_query "anc(a, d)" in
  let r, stats = D.Sld.solve_first shallow q in
  check_bool "cut by the depth limit" true
    (r = None && stats.D.Sld.truncated);
  (* The truncated 'no' is "unknown": it must not poison a deep search
     sharing the same table. *)
  let deep = D.Sld.config ~memo ~rulebase ~db () in
  check_bool "deep search still proves it" true (D.Sld.provable deep q)

(* ---------- Learner conformance ---------- *)

(* The acceptance criterion of the caching layer: an identical query
   stream answered with the cache + memo on must leave the learner in an
   identical state — same per-query paper cost (what the statistics are
   built from), same climb points, same final strategy. *)
let learner_trajectory_unchanged () =
  let kb_text =
    "instructor(X) :- prof(X).\n\
     instructor(X) :- grad(X).\n\
     prof(russ).\n\
     grad(manolis).\n"
  in
  let mk () =
    let rules, facts, _ = D.Parser.parse_kb kb_text in
    (D.Rulebase.of_list rules, D.Database.of_list facts)
  in
  let rulebase, db = mk () in
  let rulebase', db' = mk () in
  let plain = Serve.Registry.create ~rulebase (Serve.Metrics.create ()) in
  let caching =
    Serve.Registry.create ~rulebase:rulebase' (Serve.Metrics.create ())
  in
  let cache = Cache.Answers.create ~capacity_bytes:(1 lsl 20) () in
  let memo = D.Sld.Memo.create () in
  (* A grad-heavy stream mixing hits, misses and a 'no' answer. *)
  let queries =
    List.init 300 (fun i ->
        if i mod 7 = 3 then "instructor(russ)"
        else if i mod 11 = 5 then "instructor(fred)"
        else "instructor(manolis)")
  in
  List.iteri
    (fun i text ->
      let q = atom text in
      let a = Serve.Registry.answer plain ~db q in
      let b = Serve.Registry.answer caching ~cache ~memo ~db:db' q in
      let tag = Printf.sprintf "query %d (%s)" i text in
      check_bool (tag ^ ": answered alike") true
        (Option.is_some a.Core.Live.result
        = Option.is_some b.Core.Live.result);
      check_float (tag ^ ": same paper cost") a.Core.Live.cost
        b.Core.Live.cost;
      check_bool (tag ^ ": same switch decision") true
        (a.Core.Live.switched = b.Core.Live.switched))
    queries;
  let e1 = Serve.Registry.find_or_create plain (atom "instructor(manolis)") in
  let e2 =
    Serve.Registry.find_or_create caching (atom "instructor(manolis)")
  in
  check_string "same final strategy" (Serve.Registry.strategy_string e1)
    (Serve.Registry.strategy_string e2);
  let serialized e =
    Serve.Registry.with_live e (fun live ->
        Core.Learner.serialize (Core.Live.learner live))
  in
  check_string "same serialized learner" (serialized e1) (serialized e2);
  let climbs e = Serve.Registry.with_live e Core.Live.climbs in
  check_int "same climb count" (climbs e1) (climbs e2);
  (* ... and the cache really did serve the bulk of the traffic. *)
  let cs = Cache.Answers.counters cache in
  check_bool "cache served most queries" true (cs.Cache.Answers.hits > 250);
  check_int "three distinct fills" 3 cs.Cache.Answers.entries

(* The same guarantee on a stream that also carries the free query: the
   learners of both forms, bound and free, must end where the uncached
   registry leaves them. *)
let learner_invariant_with_free_query () =
  let kb_text =
    "instructor(X) :- prof(X).\n\
     instructor(X) :- grad(X).\n\
     prof(russ).\n\
     grad(manolis).\n"
  in
  let mk () =
    let rules, facts, _ = D.Parser.parse_kb kb_text in
    (D.Rulebase.of_list rules, D.Database.of_list facts)
  in
  let rulebase, db = mk () in
  let rulebase', db' = mk () in
  let plain = Serve.Registry.create ~rulebase (Serve.Metrics.create ()) in
  let caching =
    Serve.Registry.create ~rulebase:rulebase' (Serve.Metrics.create ())
  in
  let cache = Cache.Answers.create ~capacity_bytes:(1 lsl 20) () in
  let memo = D.Sld.Memo.create () in
  (* A grad-heavy stream mixing hits, misses, a 'no' answer and a free
     query whose answer covers the bound ones (which still miss: only
     alpha-variants hit). *)
  let queries =
    List.init 300 (fun i ->
        if i mod 13 = 0 then "instructor(X)"
        else if i mod 7 = 3 then "instructor(russ)"
        else if i mod 11 = 5 then "instructor(fred)"
        else "instructor(manolis)")
  in
  List.iteri
    (fun i text ->
      let q = atom text in
      let a = Serve.Registry.answer plain ~db q in
      let b = Serve.Registry.answer caching ~cache ~memo ~db:db' q in
      let tag = Printf.sprintf "query %d (%s)" i text in
      check_bool (tag ^ ": answered alike") true
        (Option.is_some a.Core.Live.result
        = Option.is_some b.Core.Live.result);
      check_float (tag ^ ": same paper cost") a.Core.Live.cost
        b.Core.Live.cost;
      check_bool (tag ^ ": same switch decision") true
        (a.Core.Live.switched = b.Core.Live.switched))
    queries;
  (* Both forms' learners must agree across the two arms. *)
  List.iter
    (fun form ->
      let e1 = Serve.Registry.find_or_create plain (atom form) in
      let e2 = Serve.Registry.find_or_create caching (atom form) in
      check_string (form ^ ": same final strategy")
        (Serve.Registry.strategy_string e1)
        (Serve.Registry.strategy_string e2);
      let serialized e =
        Serve.Registry.with_live e (fun live ->
            Core.Learner.serialize (Core.Live.learner live))
      in
      check_string (form ^ ": same serialized learner") (serialized e1)
        (serialized e2);
      let climbs e = Serve.Registry.with_live e Core.Live.climbs in
      check_int (form ^ ": same climb count") (climbs e1) (climbs e2))
    [ "instructor(manolis)"; "instructor(X)" ];
  (* ... and the cache really did serve the bulk of the traffic. *)
  let cs = Cache.Answers.counters cache in
  check_bool "cache served most queries" true (cs.Cache.Answers.hits > 250);
  check_int "four distinct fills" 4 cs.Cache.Answers.entries

(* The acceptance criterion of the domain pool: serving a stream from
   four worker domains must leave every form's learner exactly where
   one domain would have left it. Each form's queries are textually
   identical, so its observation sequence is order-insensitive — any
   divergence means a race (lost update, torn strategy, double climb),
   not an interleaving artifact. *)
let learner_conformance_across_domains () =
  let kb_text =
    "instructor(X) :- prof(X).\n\
     instructor(X) :- grad(X).\n\
     prof(russ).\n\
     grad(manolis).\n"
  in
  let mk () =
    let rules, facts, _ = D.Parser.parse_kb kb_text in
    (D.Rulebase.of_list rules, D.Database.of_list facts)
  in
  (* 300 queries over two forms: bound (instructor_1_b) and free
     (instructor_1_f), interleaved 2:1. *)
  let queries =
    Array.init 300 (fun i ->
        atom (if i mod 3 = 2 then "instructor(X)" else "instructor(manolis)"))
  in
  let rulebase, db = mk () in
  let seq = Serve.Registry.create ~rulebase (Serve.Metrics.create ()) in
  Array.iter (fun q -> ignore (Serve.Registry.answer seq ~db q)) queries;
  let rulebase', db' = mk () in
  let par = Serve.Registry.create ~rulebase:rulebase' (Serve.Metrics.create ()) in
  let next = Atomic.make 0 in
  let worker () =
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < Array.length queries then begin
        ignore (Serve.Registry.answer par ~db:db' queries.(i));
        loop ()
      end
    in
    loop ()
  in
  let domains = List.init 4 (fun _ -> Domain.spawn worker) in
  List.iter Domain.join domains;
  let summarize reg =
    List.map
      (fun e ->
        ( Serve.Registry.key e,
          Serve.Registry.strategy_string e,
          Serve.Registry.with_live e Core.Live.climbs,
          Serve.Registry.with_live e Core.Live.queries,
          Serve.Registry.with_live e (fun live ->
              Core.Learner.serialize (Core.Live.learner live)) ))
      (Serve.Registry.entries reg)
  in
  let a = summarize seq and b = summarize par in
  check_int "same number of forms" (List.length a) (List.length b);
  List.iter2
    (fun (ka, sa, ca, qa, la) (kb, sb, cb, qb, lb) ->
      check_string "same form key" ka kb;
      check_string (ka ^ ": same final strategy") sa sb;
      check_int (ka ^ ": same climb count") ca cb;
      check_int (ka ^ ": same query count") qa qb;
      check_string (ka ^ ": same serialized learner") la lb)
    a b

let suite =
  [
    ( "cache.key",
      [
        case "canonicalization" key_canonical_basics;
        key_alpha_equivalence;
        key_canonical_fixpoint;
      ] );
    ( "cache.lru",
      [
        case "eviction order and accounting" lru_eviction_order;
        case "shards spread sequential keys" lru_shards_spread_sequential_keys;
      ] );
    ( "cache.answers",
      [
        case "store/find through alpha-variants" answers_roundtrip;
        case "generation invalidation" answers_invalidation;
      ] );
    ( "cache.memo",
      [
        case "same answers with and without" memo_same_answers;
        case "invalidation after mutation" memo_invalidation;
        case "truncated results never recorded" memo_never_caches_truncated;
        case "seeded verdicts are token/generation scoped" memo_seeded_verdicts;
      ] );
    ( "cache.conformance",
      [
        slow_case "learner trajectory unchanged" learner_trajectory_unchanged;
        slow_case "learner invariant with a free query in the stream"
          learner_invariant_with_free_query;
        slow_case "learning identical across worker domains"
          learner_conformance_across_domains;
      ] );
  ]
