type sync_mode = Wal.sync_mode = Always | Interval of float | Never

(* ---------- directory: the in-memory access methods ---------- *)

(* A growable locator array; a locator packs (page_no, offset) as
   page_no * page_size + offset. Deletion swap-removes, so buckets hold
   live records only and [n] is the live count. *)
type bucket = { mutable locs : int array; mutable n : int }

let bucket_create () = { locs = [||]; n = 0 }

let bucket_add b loc =
  if b.n = Array.length b.locs then begin
    let cap = Int.max 4 (2 * Array.length b.locs) in
    let a = Array.make cap 0 in
    Array.blit b.locs 0 a 0 b.n;
    b.locs <- a
  end;
  b.locs.(b.n) <- loc;
  b.n <- b.n + 1

let bucket_remove b i =
  b.n <- b.n - 1;
  b.locs.(i) <- b.locs.(b.n)

type pred_info = {
  mutable count : int;
  buckets : (int, bucket) Hashtbl.t; (* first sid (-1 nullary) -> bucket *)
  mutable fill_page : int;           (* page with free space, -1 none *)
  mutable pages : int list;          (* this predicate's pages, newest first *)
}

let pred_info_create () =
  { count = 0; buckets = Hashtbl.create 8; fill_page = -1; pages = [] }

type t = {
  dir : string;
  page_size : int;
  pool : Pool.t;
  mutable wal : Wal.t;
  lock : Mutex.t;
  (* symbol catalog: sid -> name and back *)
  mutable names : string array;
  mutable n_syms : int;
  sym_ids : (string, int) Hashtbl.t;
  mutable preds : (int, pred_info) Hashtbl.t;
  mutable npages : int;
  generation : int Atomic.t;
  facts : int Atomic.t;
  token : int;
  mutable checkpoints : int;
  mutable checkpoint_unix : float;
  mutable closed : bool;
}

let header_path t = Filename.concat t.dir "header"
let symtab_path t = Filename.concat t.dir "symtab"
let pages_path t = Filename.concat t.dir "pages"
let wal_path dir = Filename.concat dir "wal"

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let check_open t = if t.closed then invalid_arg "Store: closed"

(* ---------- symbols ---------- *)

let add_name t name =
  if t.n_syms = Array.length t.names then begin
    let cap = Int.max 64 (2 * Array.length t.names) in
    let a = Array.make cap "" in
    Array.blit t.names 0 a 0 t.n_syms;
    t.names <- a
  end;
  let sid = t.n_syms in
  t.names.(sid) <- name;
  t.n_syms <- sid + 1;
  Hashtbl.add t.sym_ids name sid;
  sid

let sid_intern t name =
  with_lock t (fun () ->
      check_open t;
      match Hashtbl.find_opt t.sym_ids name with
      | Some sid -> sid
      | None ->
        let sid = add_name t name in
        Wal.append t.wal (Wal.Sym { sid; name });
        sid)

let sid_lookup t name = with_lock t (fun () -> Hashtbl.find_opt t.sym_ids name)

let sid_name t sid =
  with_lock t (fun () ->
      if sid < 0 || sid >= t.n_syms then invalid_arg "Store.sid_name";
      t.names.(sid))

let n_syms t = with_lock t (fun () -> t.n_syms)

(* ---------- fact plumbing (caller holds the lock) ---------- *)

let first_of args = if Array.length args > 0 then args.(0) else -1

let find_pred t pred =
  match Hashtbl.find_opt t.preds pred with
  | Some pi -> pi
  | None ->
    let pi = pred_info_create () in
    Hashtbl.add t.preds pred pi;
    pi

let find_bucket pi first =
  match Hashtbl.find_opt pi.buckets first with
  | Some b -> b
  | None ->
    let b = bucket_create () in
    Hashtbl.add pi.buckets first b;
    b

(* Index of the bucket slot whose record equals [args], or -1. *)
let bucket_find t b args =
  let ps = t.page_size in
  let rec go i =
    if i >= b.n then -1
    else
      let loc = b.locs.(i) in
      if
        Pool.with_page t.pool (loc / ps) (fun page ->
            Page.matches_at page (loc mod ps) args)
      then i
      else go (i + 1)
  in
  go 0

(* Append [args] into [pred]'s fill page (allocating a page when
   needed); returns the record locator. *)
let place t pi pred args =
  let nargs = Array.length args in
  let alloc () =
    let page_no = t.npages in
    t.npages <- t.npages + 1;
    let off =
      Pool.with_dirty ~fresh:true t.pool page_no (fun page ->
          Page.init page ~pred;
          Page.append page args)
    in
    pi.pages <- page_no :: pi.pages;
    pi.fill_page <- page_no;
    (page_no * t.page_size) + off
  in
  if pi.fill_page < 0 then alloc ()
  else
    let placed =
      Pool.with_dirty t.pool pi.fill_page (fun page ->
          if Page.has_room page ~nargs then Some (Page.append page args)
          else None)
    in
    match placed with
    | Some off -> (pi.fill_page * t.page_size) + off
    | None -> alloc ()

(* Idempotent core mutations, shared by the logged API and WAL replay. *)
let add_core t pred args =
  let pi = find_pred t pred in
  let b = find_bucket pi (first_of args) in
  if bucket_find t b args >= 0 then false
  else begin
    let loc = place t pi pred args in
    bucket_add b loc;
    pi.count <- pi.count + 1;
    Atomic.incr t.facts;
    true
  end

let del_core t pred args =
  match Hashtbl.find_opt t.preds pred with
  | None -> false
  | Some pi -> (
    match Hashtbl.find_opt pi.buckets (first_of args) with
    | None -> false
    | Some b ->
      let i = bucket_find t b args in
      if i < 0 then false
      else begin
        let loc = b.locs.(i) in
        let ps = t.page_size in
        Pool.with_dirty t.pool (loc / ps) (fun page ->
            Page.kill page (loc mod ps));
        bucket_remove b i;
        pi.count <- pi.count - 1;
        Atomic.decr t.facts;
        true
      end)

(* ---------- public mutations (WAL first, then the page) ---------- *)

let insert t ~pred args =
  with_lock t (fun () ->
      check_open t;
      let pi = find_pred t pred in
      let b = find_bucket pi (first_of args) in
      if bucket_find t b args >= 0 then false
      else begin
        let gen = Atomic.get t.generation + 1 in
        Wal.append t.wal (Wal.Add { gen; pred; args });
        let loc = place t pi pred args in
        bucket_add b loc;
        pi.count <- pi.count + 1;
        Atomic.incr t.facts;
        Atomic.set t.generation gen;
        true
      end)

let delete t ~pred args =
  with_lock t (fun () ->
      check_open t;
      (* Probe first so an absent fact neither logs nor bumps. *)
      let present =
        match Hashtbl.find_opt t.preds pred with
        | None -> false
        | Some pi -> (
          match Hashtbl.find_opt pi.buckets (first_of args) with
          | None -> false
          | Some b -> bucket_find t b args >= 0)
      in
      if not present then false
      else begin
        let gen = Atomic.get t.generation + 1 in
        Wal.append t.wal (Wal.Del { gen; pred; args });
        ignore (del_core t pred args);
        Atomic.set t.generation gen;
        true
      end)

let mem t ~pred args =
  with_lock t (fun () ->
      check_open t;
      match Hashtbl.find_opt t.preds pred with
      | None -> false
      | Some pi -> (
        match Hashtbl.find_opt pi.buckets (first_of args) with
        | None -> false
        | Some b -> bucket_find t b args >= 0))

(* ---------- retrieval ---------- *)

let iter_bucket t ~pred ~first f =
  with_lock t (fun () ->
      check_open t;
      match Hashtbl.find_opt t.preds pred with
      | None -> ()
      | Some pi -> (
        match Hashtbl.find_opt pi.buckets first with
        | None -> ()
        | Some b ->
          (* Bucket locators cluster on pages (checkpoint packs each
             predicate contiguously), so fetch each page once per run of
             same-page locators instead of once per record. *)
          let ps = t.page_size in
          let i = ref 0 in
          while !i < b.n do
            let page_no = b.locs.(!i) / ps in
            Pool.with_page t.pool page_no (fun page ->
                while !i < b.n && b.locs.(!i) / ps = page_no do
                  f (Page.args_at page (b.locs.(!i) mod ps));
                  incr i
                done)
          done))

let iter_pred t ~pred f =
  with_lock t (fun () ->
      check_open t;
      match Hashtbl.find_opt t.preds pred with
      | None -> ()
      | Some pi ->
        List.iter
          (fun page_no ->
            Pool.with_page t.pool page_no (fun page ->
                Page.iter page (fun _off args -> f args)))
          pi.pages)

let iter_all t f =
  with_lock t (fun () ->
      check_open t;
      Hashtbl.iter
        (fun pred pi ->
          List.iter
            (fun page_no ->
              Pool.with_page t.pool page_no (fun page ->
                  Page.iter page (fun _off args -> f ~pred args)))
            pi.pages)
        t.preds)

let count_pred t ~pred =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.preds pred with
      | None -> 0
      | Some pi -> pi.count)

let count_bucket t ~pred ~first =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.preds pred with
      | None -> 0
      | Some pi -> (
        match Hashtbl.find_opt pi.buckets first with
        | None -> 0
        | Some b -> b.n))

let pred_counts t =
  with_lock t (fun () ->
      Hashtbl.fold
        (fun pred pi acc -> if pi.count > 0 then (pred, pi.count) :: acc else acc)
        t.preds [])

let fact_count t = Atomic.get t.facts
let generation t = Atomic.get t.generation
let token t = t.token

(* ---------- header ---------- *)

let magic = "strategem-store"
let version = 1

let render_header t ~gen ~facts ~pages =
  Printf.sprintf
    "magic %s\nversion %d\npage_size %d\ntoken %d\ngeneration %d\n\
     syms %d\nfacts %d\npages %d\n"
    magic version t.page_size t.token gen t.n_syms facts pages

type header = {
  h_page_size : int;
  h_token : int;
  h_generation : int;
}

let parse_header text =
  let kv =
    String.split_on_char '\n' text
    |> List.filter_map (fun line ->
           match String.index_opt line ' ' with
           | None -> None
           | Some i ->
             Some
               ( String.sub line 0 i,
                 String.sub line (i + 1) (String.length line - i - 1) ))
  in
  let get k = List.assoc_opt k kv in
  let geti k d =
    match get k with
    | Some v -> ( try int_of_string v with _ -> d)
    | None -> d
  in
  (match get "magic" with
  | Some m when m = magic -> ()
  | _ -> failwith "Store: bad magic in header");
  if geti "version" 0 <> version then failwith "Store: unsupported version";
  {
    h_page_size = geti "page_size" 4096;
    h_token = geti "token" (-1);
    h_generation = geti "generation" 0;
  }

(* ---------- symtab file: u32 count, then (u32 len, bytes) per name *)

let render_symtab t =
  let buf = Buffer.create (64 * t.n_syms) in
  let u32 v =
    Buffer.add_char buf (Char.chr (v land 0xFF));
    Buffer.add_char buf (Char.chr ((v lsr 8) land 0xFF));
    Buffer.add_char buf (Char.chr ((v lsr 16) land 0xFF));
    Buffer.add_char buf (Char.chr ((v lsr 24) land 0xFF))
  in
  u32 t.n_syms;
  for sid = 0 to t.n_syms - 1 do
    u32 (String.length t.names.(sid));
    Buffer.add_string buf t.names.(sid)
  done;
  Buffer.contents buf

let load_symtab t path =
  if Sys.file_exists path then begin
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let text = really_input_string ic (in_channel_length ic) in
        let u32 off =
          Char.code text.[off]
          lor (Char.code text.[off + 1] lsl 8)
          lor (Char.code text.[off + 2] lsl 16)
          lor (Char.code text.[off + 3] lsl 24)
        in
        let count = u32 0 in
        let off = ref 4 in
        for _ = 1 to count do
          let len = u32 !off in
          let name = String.sub text (!off + 4) len in
          off := !off + 4 + len;
          ignore (add_name t name)
        done)
  end

(* ---------- open / recovery ---------- *)

let scan_pages t =
  for page_no = 0 to t.npages - 1 do
    Pool.with_page t.pool page_no (fun page ->
        let pred = Page.pred page in
        let pi = find_pred t pred in
        pi.pages <- page_no :: pi.pages;
        Page.iter page (fun off args ->
            let b = find_bucket pi (first_of args) in
            bucket_add b ((page_no * t.page_size) + off);
            pi.count <- pi.count + 1;
            Atomic.incr t.facts);
        (* The image is compacted per predicate, so at most the last
           page of a predicate has room; any page with room can serve
           as the fill page. *)
        if Page.has_room page ~nargs:255 then pi.fill_page <- page_no)
  done

let replay_op t op =
  match op with
  | Wal.Sym { sid; name } ->
    (* sids below [n_syms] were already absorbed by a checkpoint's
       symtab (replay after a crash mid-checkpoint); in order beyond
       that, the record is the intern we logged. *)
    if sid = t.n_syms then ignore (add_name t name)
  | Wal.Add { gen; pred; args } ->
    ignore (add_core t pred args);
    if gen > Atomic.get t.generation then Atomic.set t.generation gen
  | Wal.Del { gen; pred; args } ->
    ignore (del_core t pred args);
    if gen > Atomic.get t.generation then Atomic.set t.generation gen

let open_ ~dir ?(page_size = 4096) ?(pool_pages = 256) ?(sync = Interval 0.02)
    () =
  Fsync.ensure_dir dir;
  let header_file = Filename.concat dir "header" in
  let existing =
    if Sys.file_exists header_file then begin
      let ic = open_in_bin header_file in
      let text =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      Some (parse_header text)
    end
    else None
  in
  let page_size =
    match existing with Some h -> h.h_page_size | None -> page_size
  in
  if page_size < 64 then invalid_arg "Store.open_: page_size < 64";
  let token =
    match existing with
    | Some h when h.h_token < 0 -> h.h_token
    | Some _ | None ->
      (* Negative, so a persistent token can never collide with the
         in-memory databases' nonnegative instance counter. *)
      let rng = Random.State.make_self_init () in
      -(1 + Random.State.int rng 0x3FFFFFFF)
  in
  let pool =
    Pool.create ~page_size
      ~frames:(Int.max 2 pool_pages)
      ~spill_path:(Filename.concat dir "spill")
  in
  let t =
    {
      dir;
      page_size;
      pool;
      wal = Obj.magic ();
      (* replaced below, before any use *)
      lock = Mutex.create ();
      names = [||];
      n_syms = 0;
      sym_ids = Hashtbl.create 256;
      preds = Hashtbl.create 32;
      npages = 0;
      generation = Atomic.make 0;
      facts = Atomic.make 0;
      token;
      checkpoints = 0;
      checkpoint_unix = Unix.gettimeofday ();
      closed = false;
    }
  in
  load_symtab t (symtab_path t);
  (match existing with
  | Some h -> Atomic.set t.generation h.h_generation
  | None -> ());
  (* The checkpoint image: trust the file's actual size (the header is
     renamed after the pages file; a crash between the two leaves a
     header that undercounts). *)
  (if Sys.file_exists (pages_path t) then begin
     let fd =
       Unix.openfile (pages_path t) [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0
     in
     let size = (Unix.fstat fd).Unix.st_size in
     t.npages <- size / page_size;
     Pool.set_base t.pool (Some fd) ~base_pages:t.npages
   end
   else Pool.set_base t.pool None ~base_pages:0);
  scan_pages t;
  (* Replay the WAL's valid prefix, then open it for appending,
     discarding any torn tail so new records extend the valid data. *)
  let valid = Wal.replay (wal_path dir) (replay_op t) in
  t.wal <- Wal.open_append (wal_path dir) ~valid ~sync;
  (match existing with
  | None ->
    (* Commit the newborn store (its token above all) durably. *)
    Fsync.write_file (header_path t)
      (render_header t ~gen:0 ~facts:(Atomic.get t.facts) ~pages:t.npages)
  | Some _ -> ());
  Fsync.fsync_dir dir;
  t

(* ---------- checkpoint images ---------- *)

(* The image packer, shared by [checkpoint] and [bulk_load]. [preds]
   lists [(pred, rows)] in ascending pred order; [rows f] calls [f] on
   each of the predicate's argument tuples in stored order. Packs them
   into fresh per-predicate-compacted pages, building the directory as
   records land; returns the image bytes, its page count and the
   directory. *)
let pack_image ~page_size preds =
  let buf = Buffer.create (1 lsl 20) in
  let cur = Bytes.create page_size in
  let flushed = ref 0 in
  let dir = Hashtbl.create (List.length preds) in
  List.iter
    (fun (pred, rows) ->
      let npi = pred_info_create () in
      let flush_cur () =
        Buffer.add_bytes buf cur;
        npi.pages <- !flushed :: npi.pages;
        incr flushed
      in
      Page.init cur ~pred;
      rows (fun args ->
          if not (Page.has_room cur ~nargs:(Array.length args)) then begin
            flush_cur ();
            Page.init cur ~pred
          end;
          let off = Page.append cur args in
          bucket_add
            (find_bucket npi (first_of args))
            ((!flushed * page_size) + off);
          npi.count <- npi.count + 1);
      if npi.count > 0 then begin
        Hashtbl.add dir pred npi;
        if Page.has_room cur ~nargs:255 then npi.fill_page <- !flushed;
        flush_cur ()
      end)
    preds;
  (Buffer.contents buf, !flushed, dir)

(* Commit a packed image holding [facts] facts at generation [gen], then
   switch the runtime to it; the caller holds the lock. Durable commit
   order: symtab, pages, header — each an atomic replace — then the WAL
   reset. A crash at any point leaves a state that recovery
   reconstructs: until the header lands the old generation rules, and
   WAL replay is idempotent on top of either image. *)
let commit_image t ~gen ~facts (pages, npages, dir) =
  Fsync.write_file (symtab_path t) (render_symtab t);
  Fsync.write_file (pages_path t) pages;
  Fsync.write_file (header_path t) (render_header t ~gen ~facts ~pages:npages);
  Wal.reset t.wal;
  let fd = Unix.openfile (pages_path t) [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  t.npages <- npages;
  Pool.set_base t.pool (Some fd) ~base_pages:npages;
  t.preds <- dir;
  Atomic.set t.facts facts;
  Atomic.set t.generation gen;
  t.checkpoints <- t.checkpoints + 1;
  t.checkpoint_unix <- Unix.gettimeofday ()

let checkpoint_locked t =
  let live =
    Hashtbl.fold
      (fun pred pi acc -> if pi.count > 0 then (pred, pi) :: acc else acc)
      t.preds []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  in
  let rows pi f =
    List.iter
      (fun page_no ->
        Pool.with_page t.pool page_no (fun page ->
            Page.iter page (fun _off args -> f args)))
      (List.rev pi.pages)
  in
  commit_image t ~gen:(Atomic.get t.generation) ~facts:(Atomic.get t.facts)
    (pack_image ~page_size:t.page_size
       (List.map (fun (pred, pi) -> (pred, rows pi)) live))

let checkpoint t =
  with_lock t (fun () ->
      check_open t;
      checkpoint_locked t)

let bulk_load t ~names preds =
  with_lock t (fun () ->
      check_open t;
      if Atomic.get t.facts > 0 then
        invalid_arg "Store.bulk_load: the store holds facts";
      List.iter
        (fun name ->
          if Hashtbl.mem t.sym_ids name then
            invalid_arg "Store.bulk_load: name already in the catalog")
        names;
      (* Replaying the WAL's history over the new image could undo some
         of it (a logged add-then-delete deletes a loaded fact), so
         first fold that history into an image of its own. *)
      if Wal.size t.wal > 0 then checkpoint_locked t;
      List.iter (fun name -> ignore (add_name t name)) names;
      let ((_, _, dir) as image) =
        pack_image ~page_size:t.page_size
          (List.sort (fun (a, _) (b, _) -> Int.compare a b) preds)
      in
      let facts = Hashtbl.fold (fun _ pi n -> n + pi.count) dir 0 in
      commit_image t ~gen:(Atomic.get t.generation + facts) ~facts image)

let sync t = with_lock t (fun () -> check_open t; Wal.sync t.wal)

let close t =
  with_lock t (fun () ->
      if not t.closed then begin
        t.closed <- true;
        Wal.close t.wal;
        Pool.close t.pool
      end)

type stats = {
  page_size : int;
  pages : int;
  pool_pages : int;
  pool_hits : int;
  pool_misses : int;
  pool_evictions : int;
  page_reads : int;
  page_writes : int;
  wal_bytes : int;
  wal_appends : int;
  wal_syncs : int;
  checkpoints : int;
  checkpoint_unix : float;
  facts : int;
  symbols : int;
  generation : int;
}

let stats t =
  with_lock t (fun () ->
      let p = Pool.stats t.pool in
      let w = Wal.stats t.wal in
      {
        page_size = t.page_size;
        pages = t.npages;
        pool_pages = Pool.frames t.pool;
        pool_hits = p.Pool.hits;
        pool_misses = p.Pool.misses;
        pool_evictions = p.Pool.evictions;
        page_reads = p.Pool.page_reads;
        page_writes = p.Pool.page_writes;
        wal_bytes = w.Wal.bytes;
        wal_appends = w.Wal.appends;
        wal_syncs = w.Wal.syncs;
        checkpoints = t.checkpoints;
        checkpoint_unix = t.checkpoint_unix;
        facts = Atomic.get t.facts;
        symbols = t.n_syms;
        generation = Atomic.get t.generation;
      })
