open Infgraph
open Strategy

let log_src = Logs.Src.create "strategem.pib" ~doc:"PIB hill-climbing learner"

module Log = (val Logs.src_log log_src : Logs.LOG)

type config = {
  delta : float;
  moves : Moves.family;
  check_every : int;
  answers_required : int;
}

let default_config =
  { delta = 0.05; moves = Moves.All_swaps; check_every = 1; answers_required = 1 }

type climb = {
  step : int;
  samples : int;
  tests_charged : int;
  move : Moves.t;
  from_strategy : Spec.dfs;
  to_strategy : Spec.dfs;
  delta_sum : float;
  threshold : float;
}

type candidate = {
  mv : Moves.t;
  spec' : Spec.dfs;
  paths' : Spec.t;  (* [spec'] compiled, for computing Δ̃ rows *)
  lambda : float;
  mutable sum : float;  (* running Δ̃[Θ_j, Θ', S] *)
}

(* What Δ̃ reads of an outcome: its cost and its observation sequence. *)
type trace = float * Exec.observation list

type t = {
  cfg : config;
  mutable theta : Spec.dfs;
  mutable paths : Spec.t;     (* [theta] compiled, for [step] *)
  mutable cands : candidate list;
  rows : (trace, float array) Hashtbl.t;
      (* the epoch's Δ̃ memo: trace -> Δ̃ against every candidate, in
         [cands] order. Θ_j, 𝒯(Θ_j) and k are fixed within an epoch, so a
         row is a pure function of its trace; on a simple disjunctive
         graph with k = 1 the first unblocked retrieval fixes the trace,
         so there are at most R + 1 rows. *)
  mutable n : int;           (* |S| for the current strategy *)
  mutable total : int;
  mutable since_check : int;
  seq : Stats.Sequential.t;
  mutable history : climb list; (* newest first *)
}

let make_candidates cfg theta =
  Moves.neighbors cfg.moves theta
  |> List.map (fun (mv, spec') ->
         {
           mv;
           spec';
           paths' = Spec.compile spec';
           lambda = Moves.lambda theta mv;
           sum = 0.;
         })

let create ?(config = default_config) theta =
  if not (config.delta > 0. && config.delta < 1.) then
    invalid_arg "Pib.create: delta must lie in (0,1)";
  if config.check_every < 1 then
    invalid_arg "Pib.create: check_every must be at least 1";
  if config.answers_required < 1 then
    invalid_arg "Pib.create: answers_required must be at least 1";
  if not (Graph.simple_disjunctive theta.Spec.graph) then
    invalid_arg "Pib.create: requires a simple disjunctive graph";
  {
    cfg = config;
    theta;
    paths = Spec.compile theta;
    cands = make_candidates config theta;
    rows = Hashtbl.create 16;
    n = 0;
    total = 0;
    since_check = 0;
    seq = Stats.Sequential.create ~delta:config.delta;
    history = [];
  }

let current t = t.theta
let config t = t.cfg
let climbs t = List.rev t.history
let samples_current t = t.n
let samples_total t = t.total
let tests_used t = Stats.Sequential.tests_used t.seq

let candidates t = List.map (fun c -> (c.mv, c.sum, c.lambda)) t.cands

let try_climb t =
  if t.cands = [] then None
  else begin
    let i =
      Stats.Sequential.advance t.seq ~count:(List.length t.cands)
    in
    let passing =
      List.filter_map
        (fun c ->
          let threshold =
            Stats.Chernoff.switch_threshold_seq ~n:t.n ~delta:t.cfg.delta
              ~test_index:i ~range:c.lambda
          in
          if c.sum >= threshold && c.sum > 0. then Some (c, threshold)
          else None)
        t.cands
    in
    match passing with
    | [] -> None
    | _ ->
      (* Climb to the candidate with the largest margin over its threshold. *)
      let best, threshold =
        List.fold_left
          (fun (bc, bt) (c, th) ->
            if c.sum -. th > bc.sum -. bt then (c, th) else (bc, bt))
          (List.hd passing) (List.tl passing)
      in
      let climb =
        {
          step = List.length t.history + 1;
          samples = t.n;
          tests_charged = i;
          move = best.mv;
          from_strategy = t.theta;
          to_strategy = best.spec';
          delta_sum = best.sum;
          threshold;
        }
      in
      t.theta <- best.spec';
      t.paths <- Spec.compile t.theta;
      t.cands <- make_candidates t.cfg t.theta;
      t.n <- 0;
      (* The memo's rows are Δ̃ against the old neighbourhood. *)
      Hashtbl.reset t.rows;
      t.history <- climb :: t.history;
      Log.info (fun m ->
          m "climb %d after %d samples (test %d): delta-sum %.3f >= %.3f"
            climb.step climb.samples climb.tests_charged climb.delta_sum
            climb.threshold);
      Some climb
  end

let theta's t = Array.of_list (List.map (fun c -> c.paths') t.cands)

(* The epoch's Δ̃ row for this outcome's trace, computed on first sight. *)
let row t (outcome : Exec.outcome) =
  let trace = (outcome.Exec.cost, outcome.Exec.observations) in
  match Hashtbl.find_opt t.rows trace with
  | Some row -> row
  | None ->
    let row =
      Delta.underestimates ~k:t.cfg.answers_required ~theta:t.paths
        ~theta's:(theta's t) outcome
    in
    Hashtbl.add t.rows trace row;
    row

let observe t outcome =
  let row = row t outcome in
  List.iteri (fun i c -> c.sum <- c.sum +. row.(i)) t.cands;
  t.n <- t.n + 1;
  t.total <- t.total + 1;
  t.since_check <- t.since_check + 1;
  if t.since_check >= t.cfg.check_every then begin
    t.since_check <- 0;
    try_climb t
  end
  else None

let step t ctx =
  let outcome = Exec.first_k t.cfg.answers_required t.paths ctx in
  let climb = observe t outcome in
  (outcome, climb)

let check t =
  let fail fmt = Printf.ksprintf failwith ("Pib.check: " ^^ fmt) in
  let g = t.theta.Spec.graph in
  let n_cands = List.length t.cands in
  if not (Spec.equal t.paths (Spec.Dfs t.theta)) then
    fail "compiled paths are not the current strategy's";
  List.iteri
    (fun i c ->
      if not (Spec.equal c.paths' (Spec.Dfs c.spec')) then
        fail "candidate %d's compiled paths are stale" i)
    t.cands;
  let rows = Hashtbl.length t.rows in
  if rows > t.n then fail "%d memo rows after %d samples" rows t.n;
  let bound = List.length (Graph.retrievals g) + 1 in
  if t.cfg.answers_required = 1 && rows > bound then
    fail "%d memo rows exceed R + 1 = %d" rows bound;
  Hashtbl.iter
    (fun (cost, observations) row ->
      if Array.length row <> n_cands then
        fail "a memo row has %d entries for %d candidates" (Array.length row)
          n_cands;
      let outcome =
        {
          Exec.cost;
          succeeded = false;
          success_arc = None;
          observations;
          attempted = [];
        }
      in
      let fresh =
        Delta.underestimates ~k:t.cfg.answers_required ~theta:t.paths
          ~theta's:(theta's t) outcome
      in
      if not (Array.for_all2 Float.equal row fresh) then
        fail "a memo row differs from its recomputed Δ̃")
    t.rows

let run t oracle ~n =
  if Oracle.graph oracle != t.theta.Spec.graph then
    invalid_arg "Pib.run: oracle is for a different graph";
  let acc = ref [] in
  for _ = 1 to n do
    match step t (Oracle.next oracle) with
    | _, Some climb -> acc := climb :: !acc
    | _, None -> ()
  done;
  List.rev !acc
