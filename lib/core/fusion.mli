(** Operator fusion for dynamic DNNs (§4.2).

    Fusion groups adjacent operators so the runtime executes them as one
    kernel, never materializing the tensors that stay inside a group.  The
    legality question for dynamic models is whether two operators' index
    spaces can be proven compatible {e before} shapes are concrete:

    - in [Static_only] mode (the SFusion baseline — what a fusion pass
      without RDP facts can do) an edge fuses only when both tensor shapes
      are fully known integer constants;
    - in [Rdp_based] mode an edge fuses when the shapes are {e
      symbolically} known and the broadcast pattern is resolved, or needs
      at most {!version_cap} code versions (each statically-unresolved
      broadcast dimension doubles the versions, Fig. 4).

    Structural rules follow DNNFusion: at most one compute-heavy anchor
    per group, reduction-like operators only in terminal position,
    one-to-one (view) operators fuse freely, and a producer fuses only
    into its sole consumer.  Control-flow and execution-determined
    operators never fuse. *)

type mode =
  | Static_only  (** fuse only fully-constant shapes (SFusion baseline) *)
  | Light
      (** epilogue-only fusion — short conv+bn+activation and pointwise
          chains, the depth engines like MNN reach after re-initialization *)
  | Rdp_based  (** use RDP symbolic equalities; allow bounded multi-version *)

type group = {
  gid : int;
  members : Graph.node_id list;  (** in topological order *)
  internal : Graph.tensor_id list;  (** tensors never materialized *)
  versions : int;  (** fused-code versions generated for this group *)
}

type plan = {
  groups : group array;
  group_of : int array;  (** node id → group id *)
  mode : mode;
}

val version_cap : int
(** Maximum fused-code versions generated per group (8, matching the
    2³ example of Fig. 4). *)

val plan : ?mode:mode -> Graph.t -> Rdp.t -> plan
(** Compute the fusion plan ([Rdp_based] by default). *)

val identity_plan : Graph.t -> plan
(** Every node in its own group — the unfused baseline. *)

val layer_count : plan -> int
(** Number of groups — the "layer count" metric of Fig. 7. *)

val materialized_tensors : Graph.t -> plan -> Graph.tensor_id list
(** Activation tensors that still have to be written to memory when every
    group runs as one fused kernel — the accounting of the dry and
    simulated paths.  The real memory plan ({!Mem_plan}) also gives group
    internals a slot, since a group run op by op writes them. *)

val intermediate_bytes : Graph.t -> plan -> Env.t -> Rdp.t -> int
(** Total bytes of materialized intermediate results under a concrete
    symbol valuation — the "IR size" metric of Fig. 7. *)

val pp : Graph.t -> Format.formatter -> plan -> unit
