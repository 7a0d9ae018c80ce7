open Infgraph
open Strategy

(* Convergence telemetry: a point-in-time reading of how far the
   learner's statistical machinery has progressed. [epsilon] is the
   learner's own notion of its current accuracy bound — per-sample
   Equation 6 threshold for PIB, Equation 3 threshold over m for PIB₁,
   the scaled-target shortfall for PAO, the configured target for PALO;
   see docs/OBSERVABILITY.md for the exact definitions. *)
type progress = {
  samples : int;  (* current sample set |S| where the learner keeps one *)
  samples_total : int;
  climbs : int;
  epsilon : float;  (* +inf before any evidence; shrinks as samples grow *)
  delta : float;  (* the confidence budget *)
  finished : bool;
}

module type S = sig
  type t

  val name : string
  val observe : t -> Context.t -> Exec.outcome -> unit
  val current : t -> Spec.dfs
  val conjecture : t -> Spec.dfs option
  val finished : t -> bool
  val serialize : t -> string
  val progress : t -> progress
end

module Pib_learner = struct
  type t = { pib : Pib.t; mutable pending : Spec.dfs option }

  let name = "pib"
  let create ?config start = { pib = Pib.create ?config start; pending = None }

  let observe t _ctx outcome =
    match Pib.observe t.pib outcome with
    | Some climb -> t.pending <- Some climb.Pib.to_strategy
    | None -> ()

  let current t = Pib.current t.pib

  let conjecture t =
    let p = t.pending in
    t.pending <- None;
    p

  let finished _ = false
  let serialize t = Persist.dfs_to_string (current t)
  let pib t = t.pib

  (* ε = Equation 6's per-sample threshold at the current test index:
     the climb fires when the mean per-sample advantage reaches it, so
     it is the resolution below which PIB cannot yet distinguish
     neighbours. Range Λ is the widest candidate's. *)
  let progress t =
    let n = Pib.samples_current t.pib in
    let i = Pib.tests_used t.pib in
    let cfg = Pib.config t.pib in
    let range =
      List.fold_left
        (fun acc (_, _, lambda) -> Float.max acc lambda)
        0.0 (Pib.candidates t.pib)
    in
    let epsilon =
      if range = 0.0 then 0.0
      else if n = 0 || i = 0 then Float.infinity
      else
        Stats.Chernoff.switch_threshold_seq ~n ~delta:cfg.Pib.delta
          ~test_index:i ~range
        /. float_of_int n
    in
    {
      samples = n;
      samples_total = Pib.samples_total t.pib;
      climbs = List.length (Pib.climbs t.pib);
      epsilon;
      delta = cfg.Pib.delta;
      finished = false;
    }
end

module Pib1_learner = struct
  type t = {
    mutable filter : Pib1.t option;  (* None: nothing left to contemplate *)
    mutable cur : Spec.dfs;
    mutable pending : Spec.dfs option;
    delta : float;
    mutable switched : bool;
    mutable seen : int;  (* m, surviving the filter's retirement *)
  }

  let name = "pib1"

  let create ?(delta = 0.05) start =
    (* Guard the first adjacent sibling swap the strategy offers; a
       strategy with no sibling pair has an empty 𝒯 and the filter is
       born finished. *)
    let filter =
      match Transform.all ~adjacent_only:true start with
      | [] -> None
      | transform :: _ -> Some (Pib1.create start ~transform ~delta)
    in
    { filter; cur = start; pending = None; delta; switched = false; seen = 0 }

  let observe t ctx outcome =
    ignore ctx;
    match t.filter with
    | None -> ()
    | Some f -> (
      Pib1.observe f outcome;
      let m, _, _ = Pib1.counts f in
      t.seen <- m;
      match Pib1.decision f with
      | `Switch ->
        t.cur <- Pib1.theta' f;
        t.pending <- Some t.cur;
        t.switched <- true;
        t.filter <- None
      | `Keep -> ())

  let current t = t.cur

  let conjecture t =
    let p = t.pending in
    t.pending <- None;
    p

  let finished t = t.filter = None
  let serialize t = Persist.dfs_to_string t.cur

  (* ε = Equation 3's threshold spread over the m samples; 0 once the
     filter has decided (the bound is then certified). *)
  let progress t =
    let epsilon =
      match t.filter with
      | None -> 0.0
      | Some f ->
        let m, _, _ = Pib1.counts f in
        if m = 0 then Float.infinity
        else Pib1.threshold f /. float_of_int m
    in
    {
      samples = t.seen;
      samples_total = t.seen;
      climbs = (if t.switched then 1 else 0);
      epsilon;
      delta = t.delta;
      finished = t.filter = None;
    }
end

(* Shared skeleton of the two PAO observers: per-arc counters against
   (scaled) sample targets; once every positive target is met — or the
   context cap passes — hand the frequency estimates to Υ_AOT and stop. *)
module Pao_common = struct
  type t = {
    graph : Graph.t;
    targets : int array;
    progress : int array;  (* the counter measured against [targets] *)
    successes : int array;
    attempts : int array;  (* denominators for p̂ *)
    max_contexts : int;
    epsilon : float;  (* the configured PAC target, for telemetry *)
    delta : float;
    mutable contexts : int;
    mutable cur : Spec.dfs;
    mutable pending : Spec.dfs option;
    mutable done_ : bool;
  }

  let scale_targets ~scale raw =
    Array.map
      (fun m ->
        if m = 0 then 0 else max 1 (int_of_float (ceil (float_of_int m *. scale))))
      raw

  let create ~raw_targets ~scale ~max_contexts ~epsilon ~delta start =
    let g = start.Spec.graph in
    let n = Graph.n_arcs g in
    {
      graph = g;
      targets = scale_targets ~scale raw_targets;
      progress = Array.make n 0;
      successes = Array.make n 0;
      attempts = Array.make n 0;
      max_contexts;
      epsilon;
      delta;
      contexts = 0;
      cur = start;
      pending = None;
      done_ = false;
    }

  let complete t =
    let ok = ref true in
    Array.iteri
      (fun i m -> if m > 0 && t.progress.(i) < m then ok := false)
      t.targets;
    !ok

  let conclude t =
    let n = Graph.n_arcs t.graph in
    let p =
      Array.init n (fun i ->
          if t.attempts.(i) > 0 then
            float_of_int t.successes.(i) /. float_of_int t.attempts.(i)
          else if (Graph.arc t.graph i).Graph.blockable then 0.5
          else 1.0)
    in
    let theta, _cost = Upsilon.aot (Bernoulli_model.make t.graph ~p) in
    t.cur <- theta;
    t.pending <- Some theta;
    t.done_ <- true

  let after_observation t =
    t.contexts <- t.contexts + 1;
    if complete t || t.contexts >= t.max_contexts then conclude t

  let conjecture t =
    let p = t.pending in
    t.pending <- None;
    p

  (* Achieved-so-far accuracy estimate: Hoeffding radii shrink as
     1/sqrt(samples), so an arc that has met fraction [n/m] of its
     (scaled) target supports roughly ε·sqrt(m/n); the worst arc
     dominates. +inf while any targeted arc is unsampled; never below
     the configured ε. *)
  let telemetry t =
    let worst = ref 1.0 and starved = ref false and any = ref false in
    Array.iteri
      (fun i m ->
        if m > 0 then begin
          any := true;
          if t.progress.(i) = 0 then starved := true
          else
            worst :=
              Float.max !worst (float_of_int m /. float_of_int t.progress.(i))
        end)
      t.targets;
    let epsilon =
      if not !any then t.epsilon
      else if !starved then Float.infinity
      else t.epsilon *. sqrt !worst
    in
    {
      samples = t.contexts;
      samples_total = t.contexts;
      climbs = (if t.done_ then 1 else 0);
      epsilon;
      delta = t.delta;
      finished = t.done_;
    }
end

module Pao_learner = struct
  type t = Pao_common.t

  let name = "pao"

  let create ?(epsilon = 0.25) ?(delta = 0.05) ?(scale = 0.01)
      ?(max_contexts = 10_000) start =
    let raw_targets = Pao.sample_targets start.Spec.graph ~epsilon ~delta in
    Pao_common.create ~raw_targets ~scale ~max_contexts ~epsilon ~delta start

  let observe (t : t) _ctx outcome =
    if not t.Pao_common.done_ then begin
      List.iter
        (fun { Exec.arc_id; unblocked } ->
          t.Pao_common.progress.(arc_id) <- t.Pao_common.progress.(arc_id) + 1;
          t.Pao_common.attempts.(arc_id) <- t.Pao_common.attempts.(arc_id) + 1;
          if unblocked then
            t.Pao_common.successes.(arc_id) <-
              t.Pao_common.successes.(arc_id) + 1)
        outcome.Exec.observations;
      Pao_common.after_observation t
    end

  let current (t : t) = t.Pao_common.cur
  let conjecture = Pao_common.conjecture
  let finished (t : t) = t.Pao_common.done_
  let serialize (t : t) = Persist.dfs_to_string t.Pao_common.cur
  let progress = Pao_common.telemetry
end

module Pao_adaptive_learner = struct
  type t = Pao_common.t

  let name = "pao-adaptive"

  let create ?(epsilon = 0.25) ?(delta = 0.05) ?(scale = 0.01)
      ?(max_contexts = 10_000) start =
    let raw_targets =
      Pao_adaptive.aim_targets start.Spec.graph ~epsilon ~delta
    in
    Pao_common.create ~raw_targets ~scale ~max_contexts ~epsilon ~delta start

  let observe (t : t) _ctx outcome =
    if not t.Pao_common.done_ then begin
      (* Theorem 3 counts aims, not samples: paying for an arc means its
         source was reached, i.e. the processor aimed at (and reached)
         the experiment. *)
      List.iter
        (fun arc_id ->
          t.Pao_common.progress.(arc_id) <- t.Pao_common.progress.(arc_id) + 1)
        outcome.Exec.attempted;
      List.iter
        (fun { Exec.arc_id; unblocked } ->
          t.Pao_common.attempts.(arc_id) <- t.Pao_common.attempts.(arc_id) + 1;
          if unblocked then
            t.Pao_common.successes.(arc_id) <-
              t.Pao_common.successes.(arc_id) + 1)
        outcome.Exec.observations;
      Pao_common.after_observation t
    end

  let current (t : t) = t.Pao_common.cur
  let conjecture = Pao_common.conjecture
  let finished (t : t) = t.Pao_common.done_
  let serialize (t : t) = Persist.dfs_to_string t.Pao_common.cur
  let progress = Pao_common.telemetry
end

module Palo_learner = struct
  type t = { palo : Palo.t; mutable pending : Spec.dfs option }

  let name = "palo"

  let create ?config start = { palo = Palo.create ?config start; pending = None }

  let observe t ctx outcome =
    match Palo.observe t.palo ctx outcome with
    | Some climb -> t.pending <- Some climb.Pib.to_strategy
    | None -> ()

  let current t = Palo.current t.palo

  let conjecture t =
    let p = t.pending in
    t.pending <- None;
    p

  let finished t =
    match Palo.status t.palo with Palo.Stopped _ -> true | Palo.Running -> false

  let serialize t = Persist.dfs_to_string (current t)
  let palo t = t.palo

  (* PALO's stopping rule certifies the configured ε; until it stops,
     that target is the only honest bound to report (its internal
     neighbour UCBs are in the same units but per-neighbour). *)
  let progress t =
    let cfg = Palo.config t.palo in
    {
      samples = Palo.samples_total t.palo;
      samples_total = Palo.samples_total t.palo;
      climbs = List.length (Palo.climbs t.palo);
      epsilon = cfg.Palo.epsilon;
      delta = cfg.Palo.delta;
      finished = (match Palo.status t.palo with
                 | Palo.Stopped _ -> true
                 | Palo.Running -> false);
    }
end

type kind = [ `Pib | `Pib1 | `Pao | `Pao_adaptive | `Palo ]

let all_kinds = [ `Pib; `Pib1; `Pao; `Pao_adaptive; `Palo ]

let kind_to_string = function
  | `Pib -> "pib"
  | `Pib1 -> "pib1"
  | `Pao -> "pao"
  | `Pao_adaptive -> "pao-adaptive"
  | `Palo -> "palo"

let kind_of_string = function
  | "pib" -> Some `Pib
  | "pib1" -> Some `Pib1
  | "pao" -> Some `Pao
  | "pao-adaptive" | "pao_adaptive" -> Some `Pao_adaptive
  | "palo" -> Some `Palo
  | _ -> None

type config = {
  pib : Pib.config;
  palo : Palo.config;
  pib1_delta : float;
  pao_epsilon : float;
  pao_delta : float;
  pao_scale : float;
  pao_max_contexts : int;
}

let default_config =
  {
    pib = Pib.default_config;
    palo = Palo.default_config;
    pib1_delta = 0.05;
    pao_epsilon = 0.25;
    pao_delta = 0.05;
    pao_scale = 0.01;
    pao_max_contexts = 10_000;
  }

type t = {
  name : string;
  observe : Context.t -> Exec.outcome -> unit;
  current : unit -> Spec.dfs;
  conjecture : unit -> Spec.dfs option;
  finished : unit -> bool;
  serialize : unit -> string;
  progress : unit -> progress;
  reseed : Spec.dfs -> t;
}

let pack (type a) (module M : S with type t = a) ~reseed (st : a) =
  {
    name = M.name;
    observe = M.observe st;
    current = (fun () -> M.current st);
    conjecture = (fun () -> M.conjecture st);
    finished = (fun () -> M.finished st);
    serialize = (fun () -> M.serialize st);
    progress = (fun () -> M.progress st);
    reseed;
  }

let rec create ?(config = default_config) kind start =
  let reseed d = create ~config kind d in
  match kind with
  | `Pib ->
    pack (module Pib_learner) ~reseed
      (Pib_learner.create ~config:config.pib start)
  | `Pib1 ->
    pack (module Pib1_learner) ~reseed
      (Pib1_learner.create ~delta:config.pib1_delta start)
  | `Pao ->
    pack (module Pao_learner) ~reseed
      (Pao_learner.create ~epsilon:config.pao_epsilon ~delta:config.pao_delta
         ~scale:config.pao_scale ~max_contexts:config.pao_max_contexts start)
  | `Pao_adaptive ->
    pack (module Pao_adaptive_learner) ~reseed
      (Pao_adaptive_learner.create ~epsilon:config.pao_epsilon
         ~delta:config.pao_delta ~scale:config.pao_scale
         ~max_contexts:config.pao_max_contexts start)
  | `Palo ->
    pack (module Palo_learner) ~reseed
      (Palo_learner.create ~config:config.palo start)

let name t = t.name
let observe t ctx outcome = t.observe ctx outcome
let current t = t.current ()
let conjecture t = t.conjecture ()
let finished t = t.finished ()
let serialize t = t.serialize ()
let progress t = t.progress ()
let reseed t d = t.reseed d
