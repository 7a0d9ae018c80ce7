open Infgraph

type observation = { arc_id : int; unblocked : bool }

type outcome = {
  cost : float;
  succeeded : bool;
  success_arc : int option;
  observations : observation list;
  attempted : int list;
}

let first_k ?(tracer = Trace.null) ?(parent = Trace.dummy) k spec ctx =
  if k < 1 then invalid_arg "Exec.first_k: k must be at least 1";
  let g = Spec.graph spec in
  let n = Graph.n_arcs g in
  let paid = Array.make n false in
  let known_blocked = Array.make n false in
  let cost = ref 0. in
  let observations = ref [] in
  let attempted = ref [] in
  let found = ref 0 in
  let last_success = ref None in
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
          if Trace.enabled tracer then
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
  let rec run_paths = function
    | [] -> ()
    | path :: rest ->
      if walk_path path then begin
        incr found;
        (match List.rev path with
        | last :: _ -> last_success := Some last
        | [] -> ());
        if !found < k then run_paths rest
      end
      else run_paths rest
  in
  run_paths (Spec.to_paths spec);
  {
    cost = !cost;
    succeeded = !found >= k;
    success_arc = (if !found >= k then !last_success else None);
    observations = List.rev !observations;
    attempted = List.rev !attempted;
  }

let run ?tracer ?parent spec ctx = first_k ?tracer ?parent 1 spec ctx

let to_partial g outcome =
  let partial = Context.Partial.unknown g in
  List.iter
    (fun { arc_id; unblocked } ->
      Context.Partial.observe partial ~arc_id ~unblocked)
    outcome.observations;
  partial
