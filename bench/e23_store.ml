(* E23 — paged fact store vs the in-memory database.

   The same first-arg-indexed retrieval workload run against both
   Database backends while the database size sweeps past the buffer
   pool: facts r(g<i>, m<j>) in first-arg buckets of ~10, queried with
   bound-first patterns r(g<k>, X) drawn Zipf-skewed (the Zipf-1.1
   skew of the serve-path pools in Serve_load), so the pool has the
   locality real query traffic has. The paged rows reopen the store
   with a pool holding ~25% of its pages, so the cold tail of the
   distribution pages from disk through clock eviction. The claim is graceful
   degradation, not parity: locator directory and per-predicate hash
   buckets stay resident, so a lookup costs at most one page fetch and
   the paged backend should hold within a small constant factor of
   memory even 4x past the pool.

   Knobs (environment): E23_SIZES (comma list of fact counts, default
   "2000,10000,40000"), E23_QUERIES (per row, default 20000),
   E23_PATTERNS (distinct bound-first patterns, default 512), E23_JSON
   (path — when set, machine-readable results are written there),
   E23_REQUIRE_RATIO (when set non-empty, exit 1 unless the largest
   row's in-memory q/s is at most E23_RATIO_MAX (default 3.0) times the
   paged q/s — the CI smoke gate). *)

module D = Datalog
open Serve_load

let total_queries () = env_int "E23_QUERIES" 20_000
let n_patterns () = env_int "E23_PATTERNS" 512
let bucket = 10
let sizes () = env_ints "E23_SIZES" ~min:bucket [ 2000; 10000; 40000 ]

let facts n =
  List.init n (fun i ->
      D.Parser.parse_atom (Printf.sprintf "r(g%d, m%d)" (i / bucket) i))

let patterns n =
  let groups = n / bucket in
  let rng = Stats.Rng.create 23L in
  Array.init (n_patterns ()) (fun _ ->
      D.Parser.parse_atom
        (Printf.sprintf "r(g%d, X)" (Stats.Rng.int rng groups)))

(* A fixed Zipf-drawn query schedule (indices into the pattern pool),
   generated outside the timed loop and replayed identically against
   both backends. *)
let schedule q =
  let weights = zipf_weights (n_patterns ()) in
  let rng = Stats.Rng.create 42L in
  Array.init q (fun _ -> Stats.Rng.categorical rng weights)

(* Retrieval throughput: bound-first [matching] over the schedule, best
   of two timed passes after an untimed warm-up (stabilizes both the
   buffer pool and the allocator). Returns (q/s, facts matched) — the
   match count doubles as a cross-backend correctness check. *)
let bench db pats sched =
  let pass () =
    let hits = ref 0 in
    let t0 = Unix.gettimeofday () in
    Array.iter
      (fun i -> hits := !hits + List.length (D.Database.matching db pats.(i)))
      sched;
    let wall = Unix.gettimeofday () -. t0 in
    (float_of_int (Array.length sched) /. wall, !hits)
  in
  ignore (pass ());
  let q1, h1 = pass () in
  let q2, h2 = pass () in
  assert (h1 = h2);
  (Float.max q1 q2, h1)

let store_dir =
  let base =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "strategem-e23-%d" (Unix.getpid ()))
  in
  fun () ->
    if Sys.file_exists base then
      Array.iter
        (fun f -> Sys.remove (Filename.concat base f))
        (Sys.readdir base)
    else Unix.mkdir base 0o755;
    base

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Unix.rmdir dir
  end

type row = {
  size : int;
  store_pages : int;
  pool_pages : int;
  mem_qps : float;
  paged_qps : float;
  ratio : float;  (* mem/paged; > 1 means memory is faster *)
}

let run_row n =
  let fs = facts n in
  let pats = patterns n in
  let sched = schedule (total_queries ()) in
  let mem_db = D.Database.of_list fs in
  let mem_qps, mem_hits = bench mem_db pats sched in
  (* Load the store full-pool, checkpoint to a compact image, then
     reopen with a pool sized at ~25% of its pages. *)
  let dir = store_dir () in
  let loader = D.Database.open_paged ~dir ~wal_sync:Store.Never () in
  List.iter (fun f -> ignore (D.Database.add loader f)) fs;
  D.Database.checkpoint loader;
  let store_pages =
    match D.Database.store_stats loader with
    | Some s -> s.Store.pages
    | None -> 0
  in
  D.Database.close loader;
  let pool_pages = Int.max 2 (store_pages / 4) in
  let paged = D.Database.open_paged ~dir ~buffer_pages:pool_pages () in
  let paged_qps, paged_hits = bench paged pats sched in
  D.Database.close paged;
  rm_rf dir;
  if paged_hits <> mem_hits then begin
    Printf.eprintf "E23: backend mismatch at %d facts: mem=%d paged=%d\n" n
      mem_hits paged_hits;
    exit 1
  end;
  {
    size = n;
    store_pages;
    pool_pages;
    mem_qps;
    paged_qps;
    ratio = (if paged_qps > 0.0 then mem_qps /. paged_qps else Float.infinity);
  }

let json_of_row r =
  Printf.sprintf
    "{\"facts\":%d,\"store_pages\":%d,\"pool_pages\":%d,\"mem_qps\":%.1f,\
     \"paged_qps\":%.1f,\"ratio\":%.2f}"
    r.size r.store_pages r.pool_pages r.mem_qps r.paged_qps r.ratio

let run () =
  let rows = List.map run_row (sizes ()) in
  Table.print
    ~title:
      (Printf.sprintf
         "E23: paged store (pool = 25%% of pages) vs in-memory retrieval \
          (%d Zipf-%g bound-first queries/row, %d-fact buckets)"
         (total_queries ()) zipf_s bucket)
    ~header:
      [ "facts"; "pages"; "pool"; "mem q/s"; "paged q/s"; "mem/paged" ]
    (List.map
       (fun r ->
         [
           Table.i r.size;
           Table.i r.store_pages;
           Table.i r.pool_pages;
           Table.f1 r.mem_qps;
           Table.f1 r.paged_qps;
           Table.f2 r.ratio;
         ])
       rows);
  write_json "E23_JSON"
    (Printf.sprintf
       "{\"experiment\":\"e23\",\"queries\":%d,\"patterns\":%d,\
        \"bucket\":%d,\"rows\":[%s]}"
       (total_queries ()) (n_patterns ()) bucket
       (String.concat "," (List.map json_of_row rows)));
  match List.rev rows with
  | worst :: _ when env_set "E23_REQUIRE_RATIO" ->
    let ratio_max = env_float "E23_RATIO_MAX" 3.0 in
    if worst.ratio > ratio_max then begin
      Printf.eprintf
        "E23: paged throughput %.1f q/s is %.2fx slower than memory's %.1f \
         q/s at %d facts (gate %.2fx)\n"
        worst.paged_qps worst.ratio worst.mem_qps worst.size ratio_max;
      exit 1
    end
    else Table.note "ratio gate passed (%.2fx <= %.2fx)\n" worst.ratio ratio_max
  | _ -> ()
