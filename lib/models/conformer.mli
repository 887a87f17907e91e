(** Conformer speech encoder with a symbolic time extent [T]: two stride-2
    convolutional subsampling layers, then blocks of half-FFN /
    self-attention / convolution module / half-FFN. *)

val build : ?blocks:int -> ?hidden:int -> ?heads:int -> unit -> Graph.t
