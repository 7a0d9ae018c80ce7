open Infgraph

type observation = { arc_id : int; unblocked : bool }

type outcome = {
  cost : float;
  succeeded : bool;
  success_arc : int option;
  observations : observation list;
  attempted : int list;
}

type tail = { successes : int list; extra : int list }

(* The processor's walk. It stops at the [k]-th successful retrieval, or,
   with [continue], records that satisficing outcome and walks on over the
   remaining paths untraced, collecting the [tail]. *)
let walk ?(tracer = Trace.null) ?(parent = Trace.dummy) ~continue k spec ctx
    =
  let g = Spec.graph spec in
  let n = Graph.n_arcs g in
  let paid = Array.make n false in
  let known_blocked = Array.make n false in
  let traced = ref (Trace.enabled tracer) in
  let cost = ref 0. in
  let observations = ref [] in
  let attempted = ref [] in
  let found = ref 0 in
  let stopped = ref None in
  let tail = ref [] in
  (* Walk one path; returns [true] if its retrieval succeeded. *)
  let walk_path path =
    let rec go = function
      | [] -> true (* reached and passed the retrieval *)
      | arc_id :: rest ->
        if known_blocked.(arc_id) then false
        else if paid.(arc_id) then go rest
        else begin
          let a = Graph.arc g arc_id in
          cost := !cost +. a.Graph.cost;
          paid.(arc_id) <- true;
          attempted := arc_id :: !attempted;
          let unblocked =
            if a.Graph.blockable then begin
              let unblocked = Context.unblocked ctx arc_id in
              observations := { arc_id; unblocked } :: !observations;
              if not unblocked then known_blocked.(arc_id) <- true;
              unblocked
            end
            else true
          in
          if !traced then
            Trace.event tracer parent ~kind:"arc" ~cost:a.Graph.cost
              ~attrs:
                [
                  ("arc_id", string_of_int arc_id);
                  ("blockable", if a.Graph.blockable then "true" else "false");
                  ("unblocked", if unblocked then "true" else "false");
                ]
              a.Graph.label;
          if unblocked then go rest else false
        end
    in
    go path
  in
  let outcome success_arc =
    {
      cost = !cost;
      succeeded = success_arc <> None;
      success_arc;
      observations = List.rev !observations;
      attempted = List.rev !attempted;
    }
  in
  let rec run_paths = function
    | [] -> ()
    | path :: rest ->
      if not (walk_path path) then run_paths rest
      else begin
        let last = List.nth path (List.length path - 1) in
        match !stopped with
        | Some _ ->
          tail := last :: !tail;
          run_paths rest
        | None ->
          incr found;
          if !found < k then run_paths rest
          else begin
            stopped := Some (outcome (Some last));
            if continue then begin
              traced := false;
              attempted := [];
              run_paths rest
            end
          end
      end
  in
  run_paths (Spec.to_paths spec);
  match !stopped with
  | Some o -> (o, { successes = List.rev !tail; extra = List.rev !attempted })
  | None -> (outcome None, { successes = []; extra = [] })

let first_k ?tracer ?parent k spec ctx =
  if k < 1 then invalid_arg "Exec.first_k: k must be at least 1";
  fst (walk ?tracer ?parent ~continue:false k spec ctx)

let run ?tracer ?parent spec ctx = first_k ?tracer ?parent 1 spec ctx

let run_on ?tracer ?parent spec ctx =
  walk ?tracer ?parent ~continue:true 1 spec ctx

let to_partial g outcome =
  let partial = Context.Partial.unknown g in
  List.iter
    (fun { arc_id; unblocked } ->
      Context.Partial.observe partial ~arc_id ~unblocked)
    outcome.observations;
  partial
