(** CodeBERT-style transformer encoder with a symbolic sequence length [S]:
    token + position embeddings (positions produced by a [Range] over the
    runtime extent, as ONNX exports do) followed by pre-LN transformer
    layers. *)

val vocab : int
(** Vocabulary size of the (random) token embedding table. *)

val build : ?layers:int -> ?hidden:int -> ?heads:int -> unit -> Graph.t
