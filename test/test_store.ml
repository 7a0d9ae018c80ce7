(* The paged persistent fact store: page layout, buffer pool, WAL
   framing and replay, the store engine's durability story (checkpoint +
   idempotent WAL replay, crash-truncated at every byte), and the
   Database backend seam (paged/mem conformance, COW copies). *)

open Helpers
module D = Datalog

let atom = D.Parser.parse_atom

(* ---------- scratch directories ---------- *)

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Unix.rmdir dir
  end

let temp_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "strategem-store-%d-%d" (Unix.getpid ()) !n)
    in
    rm_rf dir;
    dir

let with_dir f =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path content =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc content)

(* ---------- Page ---------- *)

let page_roundtrip () =
  let b = Bytes.create 256 in
  Store.Page.init b ~pred:42;
  check_int "pred" 42 (Store.Page.pred b);
  check_int "count" 0 (Store.Page.count b);
  let o1 = Store.Page.append b [| 1; 2; 3 |] in
  let o2 = Store.Page.append b [| 4 |] in
  let o3 = Store.Page.append b [||] in
  check_int "count after appends" 3 (Store.Page.count b);
  check_bool "args 1" true (Store.Page.args_at b o1 = [| 1; 2; 3 |]);
  check_bool "args 2" true (Store.Page.args_at b o2 = [| 4 |]);
  check_bool "args 3" true (Store.Page.args_at b o3 = [||]);
  check_bool "matches" true (Store.Page.matches_at b o1 [| 1; 2; 3 |]);
  check_bool "no match, different args" false
    (Store.Page.matches_at b o1 [| 1; 2; 4 |]);
  check_bool "no match, different arity" false
    (Store.Page.matches_at b o1 [| 1; 2 |]);
  (* Fill the page to its boundary. *)
  let rec fill n =
    if Store.Page.has_room b ~nargs:2 then begin
      ignore (Store.Page.append b [| n; n |]);
      fill (n + 1)
    end
  in
  fill 10;
  check_bool "free_off never exceeds the page" true
    (Store.Page.free_off b <= Bytes.length b)

let page_tombstones () =
  let b = Bytes.create 256 in
  Store.Page.init b ~pred:7;
  let o1 = Store.Page.append b [| 1 |] in
  let o2 = Store.Page.append b [| 2 |] in
  let o3 = Store.Page.append b [| 3 |] in
  Store.Page.kill b o2;
  check_bool "killed is dead" false (Store.Page.live b o2);
  check_bool "killed never matches" false (Store.Page.matches_at b o2 [| 2 |]);
  let seen = ref [] in
  Store.Page.iter b (fun off args -> seen := (off, args.(0)) :: !seen);
  check_bool "iter skips tombstones" true
    (List.rev !seen = [ (o1, 1); (o3, 3) ])

(* ---------- Pool ---------- *)

let pool_spill_and_reload () =
  with_dir (fun dir ->
      Unix.mkdir dir 0o755;
      let pool =
        Store.Pool.create ~page_size:128 ~frames:2
          ~spill_path:(Filename.concat dir "spill")
      in
      Store.Pool.set_base pool None ~base_pages:0;
      (* Five distinct dirty pages through two frames: three must be
         evicted (spilled) and later reloaded intact. *)
      for p = 0 to 4 do
        Store.Pool.with_dirty ~fresh:true pool p (fun b ->
            Store.Page.init b ~pred:p;
            ignore (Store.Page.append b [| p * 10 |]))
      done;
      for p = 0 to 4 do
        Store.Pool.with_page pool p (fun b ->
            check_int (Printf.sprintf "page %d pred" p) p (Store.Page.pred b);
            check_int
              (Printf.sprintf "page %d payload" p)
              (p * 10)
              (Store.Page.args_at b Store.Page.header_bytes).(0))
      done;
      let s = Store.Pool.stats pool in
      check_bool "evictions happened" true (s.Store.Pool.evictions > 0);
      check_bool "dirty pages were spilled" true (s.Store.Pool.page_writes > 0);
      check_bool "spilled pages were reread" true (s.Store.Pool.page_reads > 0);
      Store.Pool.close pool;
      check_bool "spill removed on close" false
        (Sys.file_exists (Filename.concat dir "spill")))

(* ---------- WAL ---------- *)

let wal_ops =
  [
    Store.Wal.Sym { sid = 0; name = "prof" };
    Store.Wal.Sym { sid = 1; name = "russ" };
    Store.Wal.Add { gen = 1; pred = 0; args = [| 1 |] };
    Store.Wal.Add { gen = 2; pred = 0; args = [| 1; 1; 1 |] };
    Store.Wal.Del { gen = 3; pred = 0; args = [| 1 |] };
    Store.Wal.Add { gen = 4; pred = 1; args = [||] };
  ]

let wal_roundtrip () =
  with_dir (fun dir ->
      Unix.mkdir dir 0o755;
      let path = Filename.concat dir "wal" in
      let w = Store.Wal.open_append path ~valid:0 ~sync:Store.Wal.Always in
      List.iter (Store.Wal.append w) wal_ops;
      Store.Wal.close w;
      let got = ref [] in
      let valid = Store.Wal.replay path (fun op -> got := op :: !got) in
      check_bool "all ops replay in order" true (List.rev !got = wal_ops);
      check_int "valid covers the whole file" valid
        (String.length (read_file path));
      (* Corrupt one byte in the middle: replay stops at the damaged
         frame and keeps the prefix. *)
      let raw = read_file path in
      let cut = String.length raw / 2 in
      let corrupted = Bytes.of_string raw in
      Bytes.set corrupted cut
        (Char.chr (Char.code raw.[cut] lxor 0xFF));
      write_file path (Bytes.to_string corrupted);
      let got2 = ref [] in
      let valid2 = Store.Wal.replay path (fun op -> got2 := op :: !got2) in
      check_bool "corruption truncates the tail" true (valid2 <= cut);
      let n = List.length !got2 in
      check_bool "surviving records are an exact prefix" true
        (List.rev !got2 = List.filteri (fun i _ -> i < n) wal_ops))

(* ---------- Store engine ---------- *)

(* Enumerate a store's facts by symbol names (collect sids under the
   engine lock, map outside it). *)
let dump st =
  let raw = ref [] in
  Store.iter_all st (fun ~pred args -> raw := (pred, Array.copy args) :: !raw);
  List.map
    (fun (p, a) ->
      (Store.sid_name st p, Array.to_list (Array.map (Store.sid_name st) a)))
    !raw
  |> List.sort compare

let store_basics () =
  with_dir (fun dir ->
      let st = Store.open_ ~dir ~sync:Store.Never () in
      let prof = Store.sid_intern st "prof" in
      let grad = Store.sid_intern st "grad" in
      let russ = Store.sid_intern st "russ" in
      let kim = Store.sid_intern st "kim" in
      check_int "intern is idempotent" prof (Store.sid_intern st "prof");
      check_bool "fresh insert" true (Store.insert st ~pred:prof [| russ |]);
      check_bool "duplicate insert" false (Store.insert st ~pred:prof [| russ |]);
      check_bool "second fact" true (Store.insert st ~pred:prof [| kim |]);
      check_bool "other pred" true (Store.insert st ~pred:grad [| kim |]);
      check_bool "nullary" true (Store.insert st ~pred:grad [||]);
      check_int "fact_count" 4 (Store.fact_count st);
      check_int "generation counts mutations" 4 (Store.generation st);
      check_bool "mem hit" true (Store.mem st ~pred:prof [| russ |]);
      check_bool "mem miss" false (Store.mem st ~pred:prof [| grad |]);
      check_int "count_pred" 2 (Store.count_pred st ~pred:prof);
      check_int "count_bucket" 1 (Store.count_bucket st ~pred:prof ~first:russ);
      check_int "nullary bucket" 1 (Store.count_bucket st ~pred:grad ~first:(-1));
      check_bool "delete present" true (Store.delete st ~pred:prof [| russ |]);
      check_bool "delete absent" false (Store.delete st ~pred:prof [| russ |]);
      check_int "count after delete" 1 (Store.count_pred st ~pred:prof);
      check_int "generation after delete" 5 (Store.generation st);
      check_bool "token is negative" true (Store.token st < 0);
      check_bool "contents" true
        (dump st = [ ("grad", []); ("grad", [ "kim" ]); ("prof", [ "kim" ]) ]);
      Store.close st)

let store_reopen_from_wal () =
  with_dir (fun dir ->
      let st = Store.open_ ~dir ~sync:Store.Always () in
      let p = Store.sid_intern st "p" in
      let a = Store.sid_intern st "a" in
      let b = Store.sid_intern st "b" in
      ignore (Store.insert st ~pred:p [| a; b |]);
      ignore (Store.insert st ~pred:p [| b; a |]);
      ignore (Store.delete st ~pred:p [| a; b |]);
      let tok = Store.token st in
      let gen = Store.generation st in
      Store.close st;
      (* No checkpoint was taken: everything must come back from the
         header + WAL replay alone. *)
      let st2 = Store.open_ ~dir () in
      check_bool "facts recovered" true (dump st2 = [ ("p", [ "b"; "a" ]) ]);
      check_int "generation recovered" gen (Store.generation st2);
      check_int "token persists" tok (Store.token st2);
      check_int "symbols persist" 3 (Store.n_syms st2);
      Store.close st2)

let store_checkpoint_and_reopen () =
  with_dir (fun dir ->
      let st = Store.open_ ~dir ~sync:Store.Never () in
      let p = Store.sid_intern st "p" in
      let syms = Array.init 20 (fun i -> Store.sid_intern st (string_of_int i)) in
      Array.iter (fun s -> ignore (Store.insert st ~pred:p [| s |])) syms;
      for i = 0 to 9 do
        ignore (Store.delete st ~pred:p [| syms.(i) |])
      done;
      let before = dump st in
      let gen = Store.generation st in
      Store.checkpoint st;
      check_int "WAL reset by checkpoint" 0 (Store.stats st).Store.wal_bytes;
      check_bool "contents unchanged by checkpoint" true (dump st = before);
      (* Mutations after the checkpoint land in the fresh WAL. *)
      ignore (Store.delete st ~pred:p [| syms.(10) |]);
      let after = dump st in
      Store.close st;
      let st2 = Store.open_ ~dir () in
      check_bool "checkpoint + WAL tail recovered" true (dump st2 = after);
      check_int "generation across checkpoint" (gen + 1) (Store.generation st2);
      Store.close st2)

let store_larger_than_pool () =
  with_dir (fun dir ->
      (* 2 frames of 256 bytes against a few thousand facts: every
         access path has to page. *)
      let st = Store.open_ ~dir ~page_size:256 ~pool_pages:2 ~sync:Store.Never () in
      let preds = Array.init 5 (fun i -> Store.sid_intern st (Printf.sprintf "p%d" i)) in
      let consts = Array.init 400 (fun i -> Store.sid_intern st (string_of_int i)) in
      let n = ref 0 in
      for i = 0 to 1999 do
        let pred = preds.(i mod 5) in
        if Store.insert st ~pred [| consts.(i mod 400); consts.(i mod 7) |] then
          incr n
      done;
      check_int "all distinct facts landed" 2000 !n;
      check_int "fact_count" 2000 (Store.fact_count st);
      for i = 0 to 1999 do
        if
          not
            (Store.mem st ~pred:(preds.(i mod 5))
               [| consts.(i mod 400); consts.(i mod 7) |])
        then Alcotest.failf "fact %d lost" i
      done;
      let s = Store.stats st in
      check_bool "pool evicted" true (s.Store.pool_evictions > 0);
      check_bool "pages reread" true (s.Store.page_reads > 0);
      check_bool "many pages" true (s.Store.pages > 2);
      (* Checkpoint compacts through the same tiny pool, then everything
         is still there. *)
      Store.checkpoint st;
      check_int "fact_count after checkpoint" 2000 (Store.fact_count st);
      check_bool "membership after checkpoint" true
        (Store.mem st ~pred:(preds.(3)) [| consts.(3); consts.(3) |]);
      Store.close st)

(* The satellite crash property: truncate the WAL at EVERY byte boundary;
   each cut must recover exactly the state after some prefix of the
   operation sequence — no torn facts, generation monotone and exact. *)
let store_crash_at_every_byte () =
  with_dir (fun dir ->
      let st = Store.open_ ~dir ~sync:Store.Never () in
      (* Scripted mutations: inserts and deletes over a small universe,
         recording (wal_bytes, facts, generation) after each. *)
      let states = ref [ (0, dump st, Store.generation st) ] in
      let record () =
        states :=
          ((Store.stats st).Store.wal_bytes, dump st, Store.generation st)
          :: !states
      in
      let p i = Store.sid_intern st (Printf.sprintf "p%d" (i mod 3)) in
      let c i = Store.sid_intern st (Printf.sprintf "c%d" (i mod 7)) in
      for i = 0 to 24 do
        ignore (Store.insert st ~pred:(p i) [| c i; c (i * 3) |]);
        record ();
        if i mod 4 = 3 then begin
          ignore (Store.delete st ~pred:(p (i - 2)) [| c (i - 2); c ((i - 2) * 3) |]);
          record ()
        end
      done;
      Store.sync st;
      Store.close st;
      let states = List.rev !states in
      let wal = read_file (Filename.concat dir "wal") in
      let header = read_file (Filename.concat dir "header") in
      let total = String.length wal in
      check_bool "the script produced a non-trivial WAL" true (total > 500);
      let dir2 = temp_dir () in
      for cut = 0 to total do
        rm_rf dir2;
        Unix.mkdir dir2 0o755;
        write_file (Filename.concat dir2 "header") header;
        write_file (Filename.concat dir2 "wal") (String.sub wal 0 cut);
        let st2 = Store.open_ ~dir:dir2 () in
        (* The expected state: the last recorded one whose WAL length
           fits inside the cut. *)
        let _, want_facts, want_gen =
          List.fold_left
            (fun acc (bytes, _, _ as s) ->
              if bytes <= cut then s else acc)
            (List.hd states) states
        in
        if dump st2 <> want_facts then
          Alcotest.failf "cut %d/%d: recovered facts are not a prefix state"
            cut total;
        if Store.generation st2 <> want_gen then
          Alcotest.failf "cut %d/%d: generation %d, want %d" cut total
            (Store.generation st2) want_gen;
        Store.close st2
      done;
      rm_rf dir2)

(* ---------- Database: paged backend ---------- *)

let db_facts =
  [
    "prof(russ)"; "prof(kim)"; "grad(manolis)"; "grad(kim)";
    "dept(cs, stanford)"; "dept(ee, stanford)"; "tenured";
  ]

let db_paged_matches_mem () =
  with_dir (fun dir ->
      let mem_db = D.Database.of_list (List.map atom db_facts) in
      let paged = D.Database.open_paged ~dir ~wal_sync:Store.Never () in
      List.iter (fun f -> ignore (D.Database.add paged (atom f))) db_facts;
      check_string "backend" "paged" (D.Database.backend_name paged);
      check_int "sizes agree" (D.Database.size mem_db) (D.Database.size paged);
      let patterns =
        [
          "prof(X)"; "prof(russ)"; "prof(fred)"; "grad(kim)"; "grad(Y)";
          "dept(cs, W)"; "dept(X, stanford)"; "dept(X, Y)"; "tenured";
          "missing(X)";
        ]
      in
      List.iter
        (fun pat ->
          let facts db =
            D.Database.matching db (atom pat)
            |> List.map fst
            |> List.sort D.Atom.compare
          in
          if facts mem_db <> facts paged then
            Alcotest.failf "matching %s differs between backends" pat;
          let fm_m = D.Database.first_match mem_db (atom pat) in
          let fm_p = D.Database.first_match paged (atom pat) in
          check_bool
            (Printf.sprintf "first_match %s presence agrees" pat)
            (fm_m <> None) (fm_p <> None))
        patterns;
      List.iter
        (fun name ->
          check_int
            (Printf.sprintf "count_pred %s" name)
            (D.Database.count_pred mem_db name)
            (D.Database.count_pred paged name))
        [ "prof"; "grad"; "dept"; "tenured"; "missing" ];
      check_bool "predicates agree" true
        (D.Database.predicates mem_db = D.Database.predicates paged);
      (* Removal flows through both backends identically. *)
      check_bool "remove present" true (D.Database.remove paged (atom "prof(kim)"));
      check_bool "remove absent" false (D.Database.remove paged (atom "prof(kim)"));
      ignore (D.Database.remove mem_db (atom "prof(kim)"));
      check_int "sizes agree after remove" (D.Database.size mem_db)
        (D.Database.size paged);
      D.Database.close paged)

let db_paged_sld () =
  with_dir (fun dir ->
      let rb =
        D.Rulebase.of_list
          [
            D.Parser.parse_clause "instructor(X) :- prof(X).";
            D.Parser.parse_clause "instructor(X) :- grad(X).";
          ]
      in
      let db = D.Database.open_paged ~dir ~wal_sync:Store.Never () in
      ignore (D.Database.add db (atom "prof(russ)"));
      ignore (D.Database.add db (atom "grad(manolis)"));
      let cfg = D.Sld.config ~rulebase:rb ~db () in
      check_bool "russ provable" true
        (D.Sld.provable cfg (D.Parser.parse_query "instructor(russ)"));
      check_bool "manolis provable" true
        (D.Sld.provable cfg (D.Parser.parse_query "instructor(manolis)"));
      check_bool "fred not provable" false
        (D.Sld.provable cfg (D.Parser.parse_query "instructor(fred)"));
      let answers, _ =
        D.Sld.solve_all cfg (D.Parser.parse_query "instructor(X)")
      in
      check_int "two instructors through the paged store" 2
        (List.length answers);
      D.Database.close db)

(* A copy of a paged database is an in-memory copy — mutating the copy
   must never perturb the original's generation or query results. *)
let db_paged_copy_cow () =
  with_dir (fun dir ->
      let db = D.Database.open_paged ~dir ~wal_sync:Store.Never () in
      List.iter (fun f -> ignore (D.Database.add db (atom f))) db_facts;
      let gen0 = D.Database.generation db in
      let size0 = D.Database.size db in
      let answers0 =
        D.Database.matching db (atom "prof(X)")
        |> List.map fst |> List.sort D.Atom.compare
      in
      let copy = D.Database.copy db in
      check_string "copy backend" "mem" (D.Database.backend_name copy);
      check_bool "copy has its own token" true
        (D.Database.token copy <> D.Database.token db);
      (* Mutate the copy heavily. *)
      ignore (D.Database.add copy (atom "prof(newcomer)"));
      ignore (D.Database.remove copy (atom "prof(russ)"));
      ignore (D.Database.add copy (atom "grad(extra)"));
      ignore (D.Database.remove copy (atom "tenured"));
      (* The original is untouched. *)
      check_int "original generation unperturbed" gen0 (D.Database.generation db);
      check_int "original size unperturbed" size0 (D.Database.size db);
      check_bool "original query results unperturbed" true
        (D.Database.matching db (atom "prof(X)")
         |> List.map fst |> List.sort D.Atom.compare = answers0);
      check_bool "original still holds prof(russ)" true
        (D.Database.mem db (atom "prof(russ)"));
      check_bool "original never sees the copy's insert" false
        (D.Database.mem db (atom "prof(newcomer)"));
      (* The copy sees its own view. *)
      check_bool "copy sees its insert" true
        (D.Database.mem copy (atom "prof(newcomer)"));
      check_bool "copy no longer holds prof(russ)" false
        (D.Database.mem copy (atom "prof(russ)"));
      check_int "copy size tracks deltas" size0 (D.Database.size copy);
      check_bool "copy generation advanced" true
        (D.Database.generation copy > gen0);
      check_bool "copy matching sees its own view" true
        (D.Database.matching copy (atom "prof(X)")
         |> List.map fst |> List.sort D.Atom.compare
        = List.sort D.Atom.compare [ atom "prof(kim)"; atom "prof(newcomer)" ]);
      check_int "copy count_pred sees its own view" 2
        (D.Database.count_pred copy "prof");
      D.Database.close db)

(* [count_pred_id] is kept incrementally by the Mem backend and read from
   the store's per-predicate counts by the Paged one; after any
   interleaving of adds and removes it must equal counting the facts. *)
let db_count_matches_fold () =
  with_dir (fun dir ->
      let paged = D.Database.open_paged ~dir ~wal_sync:Store.Never () in
      let r = rng 17 in
      let preds = [| "p"; "q"; "r" |] in
      let random_fact () =
        atom
          (Printf.sprintf "%s(c%d, d%d)"
             preds.(Stats.Rng.int r 3)
             (Stats.Rng.int r 6) (Stats.Rng.int r 3))
      in
      for _ = 1 to 60 do
        ignore (D.Database.add paged (random_fact ()))
      done;
      let mem = D.Database.of_list (D.Database.to_list paged) in
      let fold_count db name =
        D.Database.fold
          (fun f n ->
            if D.Symbol.to_string f.D.Atom.pred = name then n + 1 else n)
          db 0
      in
      for step = 1 to 400 do
        let fact = random_fact () in
        let add = Stats.Rng.bernoulli r 0.5 in
        List.iter
          (fun db ->
            ignore
              ((if add then D.Database.add else D.Database.remove) db fact);
            Array.iter
              (fun p ->
                check_int
                  (Printf.sprintf "%s %s after step %d"
                     (D.Database.backend_name db) p step)
                  (fold_count db p)
                  (D.Database.count_pred db p))
              preds)
          [ mem; paged ]
      done;
      D.Database.close paged)

let db_paged_persistence () =
  with_dir (fun dir ->
      let db = D.Database.open_paged ~dir ~wal_sync:Store.Always () in
      List.iter (fun f -> ignore (D.Database.add db (atom f))) db_facts;
      let tok = D.Database.token db in
      let gen = D.Database.generation db in
      D.Database.checkpoint db;
      D.Database.close db;
      let db2 = D.Database.open_paged ~dir () in
      check_int "token survives restart" tok (D.Database.token db2);
      check_int "generation survives restart" gen (D.Database.generation db2);
      check_int "facts survive restart" (List.length db_facts)
        (D.Database.size db2);
      check_bool "query answers after restart" true
        (D.Database.mem db2 (atom "dept(cs, stanford)"));
      check_bool "store stats exposed" true
        (D.Database.store_stats db2 <> None);
      D.Database.close db2)

(* ---------- Database: the cold-start bulk image ---------- *)

(* Every fact a reopened store serves, with its predicate, in
   [iter_all] order (not sorted: the order is part of what must match). *)
let iter_all_raw dir =
  let st = Store.open_ ~dir () in
  let raw = ref [] in
  Store.iter_all st (fun ~pred args -> raw := (pred, Array.to_list args) :: !raw);
  let r = (List.rev !raw, Store.generation st, Store.fact_count st, Store.n_syms st) in
  Store.close st;
  r

let image_files dir =
  (read_file (Filename.concat dir "pages"), read_file (Filename.concat dir "symtab"))

let sorted_facts db =
  List.sort compare (List.map D.Atom.to_string (D.Database.to_list db))

let genealogy_db n_people =
  Workload.Genealogy.db (Workload.Genealogy.populate (rng 17) ~n_people)

(* The bulk path packs the image the per-fact path reaches after its
   checkpoint: same bytes, same generation, same iteration order. *)
let db_bulk_image_matches_per_fact () =
  let facts = D.Database.to_list (genealogy_db 2000) in
  let src = D.Database.of_list facts in
  check_bool "a non-trivial population" true (D.Database.size src > 500);
  with_dir (fun per_fact ->
      with_dir (fun bulk ->
          let a = D.Database.open_paged ~dir:per_fact ~wal_sync:Store.Never () in
          D.Database.iter (fun f -> ignore (D.Database.add a f)) src;
          D.Database.checkpoint a;
          let gen_a = D.Database.generation a in
          D.Database.close a;
          let b = D.Database.open_paged ~dir:bulk () in
          D.Database.bulk_load b facts;
          check_int "generation" gen_a (D.Database.generation b);
          check_int "size" (D.Database.size src) (D.Database.size b);
          let st = D.Database.store_stats b |> Option.get in
          check_int "one checkpoint" 1 st.Store.checkpoints;
          check_int "no WAL written" 0 st.Store.wal_bytes;
          check_bool "answers from the image" true
            (sorted_facts b = sorted_facts src);
          D.Database.close b;
          let pages_a, symtab_a = image_files per_fact in
          let pages_b, symtab_b = image_files bulk in
          check_bool "pages byte-identical" true (String.equal pages_a pages_b);
          check_bool "symtab byte-identical" true (String.equal symtab_a symtab_b);
          let iter_a, gen_a', facts_a, syms_a = iter_all_raw per_fact in
          let iter_b, gen_b, facts_b, syms_b = iter_all_raw bulk in
          check_int "generation after reopen" gen_a' gen_b;
          check_int "fact_count after reopen" facts_a facts_b;
          check_int "n_syms after reopen" syms_a syms_b;
          check_bool "iter_all after reopen" true (iter_a = iter_b)))

(* Cut the bulk commit after each of its steps (symtab, pages, header):
   every cut reopens to no facts, which a start loads again into the
   same image, or to all of them; never to part. *)
let db_bulk_commit_cuts () =
  let facts = D.Database.to_list (genealogy_db 400) in
  let src = D.Database.of_list facts in
  let full = sorted_facts src in
  with_dir (fun dir ->
      let db = D.Database.open_paged ~dir () in
      let newborn = read_file (Filename.concat dir "header") in
      D.Database.bulk_load db facts;
      D.Database.close db;
      let file f = read_file (Filename.concat dir f) in
      let pages, symtab = image_files dir and header = file "header" in
      check_string "the load wrote no WAL" "" (file "wal");
      let cuts =
        [
          ("nothing", newborn, [], false);
          ("symtab", newborn, [ ("symtab", symtab) ], false);
          ("symtab+pages", newborn, [ ("symtab", symtab); ("pages", pages) ], true);
          ("all", header, [ ("symtab", symtab); ("pages", pages) ], true);
        ]
      in
      List.iter
        (fun (name, hdr, files, want_full) ->
          with_dir (fun cut ->
              Unix.mkdir cut 0o755;
              write_file (Filename.concat cut "header") hdr;
              write_file (Filename.concat cut "wal") "";
              List.iter (fun (f, c) -> write_file (Filename.concat cut f) c) files;
              let db = D.Database.open_paged ~dir:cut () in
              let got = sorted_facts db in
              if want_full then
                check_bool (name ^ ": every fact") true (got = full)
              else begin
                check_int (name ^ ": no facts") 0 (List.length got);
                D.Database.bulk_load db facts;
                check_bool (name ^ ": reloaded") true (sorted_facts db = full)
              end;
              D.Database.close db;
              let pages', symtab' = image_files cut in
              check_bool (name ^ ": pages") true (String.equal pages pages');
              check_bool (name ^ ": symtab") true (String.equal symtab symtab')))
        cuts)

let db_bulk_load_rejects () =
  let facts = List.map atom db_facts in
  let src = D.Database.of_list facts in
  let raises f =
    match f () with () -> false | exception Invalid_argument _ -> true
  in
  check_bool "into memory" true
    (raises (fun () -> D.Database.bulk_load (D.Database.create ()) facts));
  with_dir (fun dir ->
      let db = D.Database.open_paged ~dir ~wal_sync:Store.Never () in
      ignore (D.Database.add db (atom "prof(russ)"));
      check_bool "into a store with facts" true
        (raises (fun () -> D.Database.bulk_load db facts));
      (* A store emptied by logged deletes loads too. Its WAL's history
         is folded into a checkpoint of its own first: replayed over the
         loaded image after a crash before the WAL reset, the logged
         delete would take prof(russ) out of it. *)
      ignore (D.Database.remove db (atom "prof(russ)"));
      D.Database.bulk_load db facts;
      let st = D.Database.store_stats db |> Option.get in
      check_int "history folded, then the load" 2 st.Store.checkpoints;
      check_int "WAL empty" 0 st.Store.wal_bytes;
      let gen = D.Database.generation db in
      check_int "generation counts the load" (2 + List.length db_facts) gen;
      D.Database.close db;
      let db = D.Database.open_paged ~dir () in
      check_bool "every fact after reopen" true (sorted_facts db = sorted_facts src);
      check_int "generation after reopen" gen (D.Database.generation db);
      D.Database.close db);
  (* A non-ground fact is rejected before the store changes: no fact,
     no symbol, and the same store then loads a ground list. *)
  with_dir (fun dir ->
      let db = D.Database.open_paged ~dir () in
      check_bool "a non-ground fact" true
        (raises (fun () -> D.Database.bulk_load db (facts @ [ atom "r(X)" ])));
      let st = D.Database.store_stats db |> Option.get in
      check_int "no fact loaded" 0 st.Store.facts;
      check_int "no symbol taken" 0 st.Store.symbols;
      D.Database.bulk_load db facts;
      check_bool "then loads" true (sorted_facts db = sorted_facts src);
      D.Database.close db)

(* The image-order contract on random programs: [bulk_load facts]
   writes the image that adding [iter (of_list facts)]'s facts one by
   one and checkpointing writes. The lists draw 1-200 predicate names,
   so the grouping table's buckets collide and it resizes past 128
   keys; nullary and mixed-arity predicates; and repeated facts. *)
let gen_fact_list =
  let open QCheck2.Gen in
  let* n_preds = int_range 1 200 in
  let fact =
    let* p = int_bound (n_preds - 1) in
    let* arity = int_bound 3 in
    let+ args = list_repeat arity (int_bound 12) in
    D.Atom.make (Printf.sprintf "q%d" p)
      (List.map (fun c -> D.Term.const (Printf.sprintf "c%d" c)) args)
  in
  list_size (int_bound 400) fact

let db_bulk_image_order =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:200
       ~name:"database: bulk image of a fact list = per-fact adds in iter order"
       ~print:(fun facts -> String.concat " " (List.map D.Atom.to_string facts))
       gen_fact_list
       (fun facts ->
         with_dir (fun per_fact ->
             with_dir (fun bulk ->
                 let a =
                   D.Database.open_paged ~dir:per_fact ~wal_sync:Store.Never ()
                 in
                 D.Database.iter
                   (fun f -> ignore (D.Database.add a f))
                   (D.Database.of_list facts);
                 D.Database.checkpoint a;
                 let gen_a = D.Database.generation a in
                 D.Database.close a;
                 let b =
                   D.Database.open_paged ~dir:bulk ~wal_sync:Store.Never ()
                 in
                 D.Database.bulk_load b facts;
                 let gen_b = D.Database.generation b in
                 D.Database.close b;
                 gen_a = gen_b && image_files per_fact = image_files bulk))))

let suite =
  [
    ( "store",
      [
        case "page: append/read/match roundtrip" page_roundtrip;
        case "page: tombstones are skipped" page_tombstones;
        case "pool: spill and reload through 2 frames" pool_spill_and_reload;
        case "wal: roundtrip, torn tail, corrupt frame" wal_roundtrip;
        case "engine: insert/delete/mem/counts" store_basics;
        case "engine: reopen recovers from WAL alone" store_reopen_from_wal;
        case "engine: checkpoint compacts and resets WAL"
          store_checkpoint_and_reopen;
        case "engine: database larger than the pool" store_larger_than_pool;
        slow_case "engine: crash-truncated WAL at every byte"
          store_crash_at_every_byte;
        case "database: paged backend matches mem" db_paged_matches_mem;
        case "database: SLD over the paged backend" db_paged_sld;
        case "database: COW copy never perturbs the base" db_paged_copy_cow;
        case "database: token/generation survive restart" db_paged_persistence;
        case "database: per-predicate counts match a fold (mem, paged)"
          db_count_matches_fold;
        case "database: bulk image byte-identical to per-fact + checkpoint"
          db_bulk_image_matches_per_fact;
        case "database: a cut bulk commit reopens empty or complete"
          db_bulk_commit_cuts;
        case "database: bulk load rejects memory and non-empty stores"
          db_bulk_load_rejects;
        db_bulk_image_order;
      ] );
  ]
