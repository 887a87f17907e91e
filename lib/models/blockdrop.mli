(** BlockDrop: a policy network inspects the input once and emits a
    keep/drop predicate for every residual block; dropped blocks are
    bypassed through [<Switch, Combine>].  Symbolic [H]×[W]. *)

val build : unit -> Graph.t
