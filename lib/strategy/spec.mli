(** Strategy representation.

    A strategy specifies the order in which a satisficing query processor
    searches the inference graph (Section 2.1). Two concrete classes:

    - {b DFS strategies}: a permutation of the children at every node,
      searched depth first. All of the paper's example strategies
      (Θ₁, Θ₂, Θ_ABCD, ...) and every PIB sibling-swap transformation live
      in this class.
    - {b Path strategies} (Note 3): an arbitrary order of the root-to-
      retrieval paths; shared prefix arcs are paid only once. DFS
      strategies are the special case in which the paths of a subtree are
      contiguous.

    Both linearize to the paper's flat arc-sequence notation. *)

open Infgraph

type dfs = private {
  graph : Graph.t;
  orders : int list array;  (** node id -> outgoing arc ids, visit order *)
}

type t =
  | Dfs of dfs
  | Paths of { graph : Graph.t; order : int list list }
      (** ordered root-to-retrieval paths, each a list of arc ids *)

val graph : t -> Graph.t

(** The graph's canonical left-to-right DFS strategy. *)
val default : Graph.t -> dfs

(** [dfs g orders] — validates that [orders.(n)] is a permutation of
    [Graph.children g n] for every node. *)
val make_dfs : Graph.t -> int list array -> dfs

(** [with_order d ~node ~order] replaces one node's child order. *)
val with_order : dfs -> node:int -> order:int list -> dfs

(** [of_paths g order] — validates that [order] lists each root-to-
    retrieval path of [g] exactly once. *)
val of_paths : Graph.t -> int list list -> t

(** Path decomposition (Note 3). For a DFS strategy this is its
    depth-first path order. *)
val to_paths : t -> int list list

(** [compile d] is [d] in path form: [Paths] holding its depth-first
    path order, so a caller that runs one strategy on many contexts
    decomposes it once. {!Exec} gives [compile d] and [Dfs d] the same
    outcome on every context. *)
val compile : dfs -> t

(** The paper's flat arc-sequence rendering: paths concatenated, each arc
    listed at its first occurrence, e.g. Θ₁ = ⟨R_p D_p R_g D_g⟩. *)
val arc_sequence : t -> int list

(** Retrieval arcs in visit order. *)
val retrieval_order : t -> int list

val equal : t -> t -> bool
val equal_dfs : dfs -> dfs -> bool

(** First node (in DFS discovery order of [a]) whose child order differs
    between the two DFS strategies. *)
val deviation_node : dfs -> dfs -> int option

(** Print as ⟨label label ...⟩ using arc labels. *)
val pp : Format.formatter -> t -> unit

val pp_dfs : Format.formatter -> dfs -> unit
