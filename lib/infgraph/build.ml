module D = Datalog

exception Not_disjunctive of D.Clause.t

type resolvent = { head : D.Atom.t; body : D.Atom.t }

type result = {
  graph : Graph.t;
  params : D.Term.var list;
  truncated : bool;
  identifying : bool;
  rule_arcs : (int * D.Clause.t) list;
  resolvents : resolvent option array;
}

(* Intermediate pure tree, emitted into the builder once complete. *)
type pre_arc = {
  pkind : Graph.kind;
  plabel : string;
  pcost : float;
  pblockable : bool;
  ppattern : D.Atom.t option;
  pclause : D.Clause.t option; (* the unfolded rule, for reductions *)
  presolvent : resolvent option; (* for retrievals *)
  pchild : pre_node option; (* None for retrievals *)
}

and pre_node = { pgoal : D.Atom.t; parcs : pre_arc list }

let build ?(max_depth = 64) ?(cost_reduction = fun _ -> 1.0)
    ?(cost_retrieval = fun _ -> 1.0) ?(edb = []) ~rulebase ~query_form () =
  let truncated = ref false in
  let identifying = ref false in
  let gen = ref 0 in
  let label_counts = Hashtbl.create 16 in
  let fresh_label base =
    let n = Option.value ~default:0 (Hashtbl.find_opt label_counts base) in
    Hashtbl.replace label_counts base (n + 1);
    if n = 0 then base else Printf.sprintf "%s#%d" base n
  in
  (* Parameter variables replace the bound (constant) positions of the
     query form; free positions keep their variables. *)
  let params = ref [] in
  let root_args =
    List.mapi
      (fun i t ->
        match t with
        | D.Term.Const _ ->
          let v = { D.Term.name = Printf.sprintf "Q%d" i; gen = 0 } in
          params := v :: !params;
          D.Term.Var v
        | D.Term.Var _ -> t)
      query_form.D.Atom.args
  in
  let params = List.rev !params in
  let root_goal = D.Atom.make_sym query_form.D.Atom.pred root_args in
  let param_set =
    List.fold_left (fun s v -> D.Term.Var_set.add v s) D.Term.Var_set.empty
      params
  in
  let is_edb pred =
    List.exists (fun name -> String.equal name (D.Symbol.to_string pred)) edb
  in
  (* Does [s] map two distinct variables of [goal] to one variable? *)
  let identifies s goal =
    let images =
      List.filter_map
        (fun v ->
          match D.Subst.walk s (D.Term.Var v) with
          | D.Term.Var w -> Some w
          | D.Term.Const _ -> None)
        (D.Atom.vars goal)
    in
    List.length (List.sort_uniq D.Term.compare_var images)
    < List.length images
  in
  (* [path] composes the unifiers of the rules chained from the root down
     to [goal], which it leaves unchanged. *)
  let rec expand goal path depth : pre_node option =
    let rules = D.Rulebase.rules_for rulebase goal.D.Atom.pred in
    let rule_arcs =
      if depth >= max_depth && rules <> [] then begin
        truncated := true;
        []
      end
      else
        List.filter_map
          (fun clause ->
            if D.Clause.is_fact clause then
              invalid_arg
                (Format.asprintf
                   "Build.build: fact %a belongs in the database, not the \
                    rule base"
                   D.Clause.pp clause);
            (match clause.D.Clause.body with
            | [ D.Clause.Pos _ ] -> ()
            | _ -> raise (Not_disjunctive clause));
            incr gen;
            let renamed = D.Clause.rename !gen clause in
            match
              D.Subst.unify_atoms renamed.D.Clause.head goal D.Subst.empty
            with
            | None -> None
            | Some s ->
              let body_atom =
                match renamed.D.Clause.body with
                | [ D.Clause.Pos a ] -> D.Subst.apply_atom s a
                | _ -> assert false
              in
              (* The arc is context-dependent iff unifying constrained a
                 parameter variable (bound it to a constant). *)
              let blockable =
                List.exists
                  (fun (v, t) ->
                    D.Term.Var_set.mem v param_set && D.Term.is_const t)
                  (D.Subst.to_alist s)
              in
              if identifies s goal then identifying := true;
              let path =
                List.fold_left
                  (fun acc (v, t) -> D.Subst.bind v t acc)
                  path (D.Subst.to_alist s)
              in
              (match expand body_atom path (depth + 1) with
              | None -> None
              | Some child ->
                Some
                  {
                    pkind = Graph.Reduction;
                    plabel =
                      fresh_label
                        (Printf.sprintf "R_%s_%s"
                           (D.Symbol.to_string goal.D.Atom.pred)
                           (D.Symbol.to_string body_atom.D.Atom.pred));
                    pcost = cost_reduction clause;
                    pblockable = blockable;
                    ppattern =
                      (if blockable then Some renamed.D.Clause.head else None);
                    pclause = Some clause;
                    presolvent = None;
                    pchild = Some child;
                  }))
          rules
    in
    let retrieval_arcs =
      if rules = [] || is_edb goal.D.Atom.pred then
        [
          {
            pkind = Graph.Retrieval;
            plabel =
              fresh_label
                (Printf.sprintf "D_%s" (D.Symbol.to_string goal.D.Atom.pred));
            pcost = cost_retrieval goal;
            pblockable = true;
            ppattern = Some goal;
            pclause = None;
            presolvent =
              Some { head = D.Subst.apply_atom path root_goal; body = goal };
            pchild = None;
          };
        ]
      else []
    in
    match rule_arcs @ retrieval_arcs with
    | [] -> None
    | arcs -> Some { pgoal = goal; parcs = arcs }
  in
  match expand root_goal D.Subst.empty 0 with
  | None ->
    invalid_arg "Build.build: the query form has no derivations at all"
  | Some pre_root ->
    let b = Graph.Builder.create ~goal:pre_root.pgoal
        (D.Atom.to_string pre_root.pgoal)
    in
    let rule_arcs = ref [] and resolvents = ref [] in
    let rec emit node_id pre =
      List.iter
        (fun pa ->
          match (pa.pkind, pa.pchild) with
          | Graph.Retrieval, None ->
            let arc_id =
              Graph.Builder.add_retrieval b ~src:node_id ~cost:pa.pcost
                ?pattern:pa.ppattern ~label:pa.plabel ()
            in
            resolvents := (arc_id, pa.presolvent) :: !resolvents
          | Graph.Reduction, Some child ->
            let child_id =
              Graph.Builder.add_node b ~goal:child.pgoal
                (D.Atom.to_string child.pgoal)
            in
            let arc_id =
              Graph.Builder.add_arc b ~src:node_id ~dst:child_id
                ~cost:pa.pcost ~blockable:pa.pblockable ?pattern:pa.ppattern
                ~label:pa.plabel Graph.Reduction
            in
            (match pa.pclause with
            | Some clause -> rule_arcs := (arc_id, clause) :: !rule_arcs
            | None -> ());
            emit child_id child
          | _ -> assert false)
        pre.parcs
    in
    emit (Graph.Builder.root b) pre_root;
    let graph = Graph.Builder.finish b in
    let by_arc = Array.make (Graph.n_arcs graph) None in
    List.iter (fun (arc_id, r) -> by_arc.(arc_id) <- r) !resolvents;
    {
      graph;
      params;
      truncated = !truncated;
      identifying = !identifying;
      rule_arcs = List.rev !rule_arcs;
      resolvents = by_arc;
    }

let query_of_consts result consts =
  if List.length consts <> List.length result.params then
    invalid_arg "Build.query_of_consts: wrong number of constants";
  let root_goal =
    match (Graph.node result.graph (Graph.root result.graph)).Graph.goal with
    | Some g -> g
    | None -> assert false
  in
  let assoc = List.combine result.params consts in
  let args =
    List.map
      (fun t ->
        match t with
        | D.Term.Var v -> (
          match
            List.find_opt (fun (pv, _) -> D.Term.equal_var pv v) assoc
          with
          | Some (_, c) -> D.Term.const c
          | None -> t)
        | D.Term.Const _ -> t)
      root_goal.D.Atom.args
  in
  D.Atom.make_sym root_goal.D.Atom.pred args
