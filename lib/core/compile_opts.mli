(** The compile surface as one value.

    Float precision, int8 weight quantization, the fusion toggle, the
    planning symbol value and the variant budget, collected behind
    {!Pipeline.compile}'s single [?opts] argument with a canonical string
    form, mirroring {!Executor.config} / [config_of_string] on the
    execution side.  Each choice is settable here only; int8 in
    particular is a property of the compiled artifact, not of execution.

    Canonical syntax (comma-separated, order-insensitive):
    ["f32,int8,variants=8"].  Tokens: [f32]|[f64] (float precision),
    [int8] (quantize eligible weights), [nofuse] (static-only fusion),
    [sym=N] (representative planning value for shape variables),
    [variants=N] (per-branch plan-variant budget; [0] disables),
    [aot=VEC] (explicitly pre-compile the variant for one outcome vector,
    e.g. [aot=010]; repeatable). *)

type t = {
  float_dtype : Tensor.dtype;  (** F32 (default) or F64 *)
  quant : bool;  (** quantize eligible constant weights to int8 *)
  fusion : bool;  (** RDP-based fusion; [false] = static-only *)
  plan_sym_value : int;  (** representative shape-variable value, default 64 *)
  variant_budget : int;
      (** max per-outcome plan variants kept per artifact; [0] disables
          variant compilation entirely *)
  variants_aot : int array list;
      (** outcome vectors to specialize at compile time, beyond whatever
          full enumeration the budget admits *)
}

val default : t
(** [f32], no quantization, fusion on, [sym=64], no variants. *)

val of_string : string -> (t, string) result
(** Parse the canonical comma-separated form.  [""] is {!default};
    unknown tokens are errors naming the expected vocabulary. *)

val to_string : t -> string
(** Canonical rendering, always leading with the dtype token.
    [of_string (to_string t) = Ok t] for every [t] constructible by
    {!of_string} (AOT vectors deduplicated, order preserved). *)

val parse_token : t -> string -> (t, string) result
(** Fold one token into an options value — how {!Executor.config_of_string}
    lets compile tokens ride in an [--exec] spec. *)

val to_tokens : t -> string list
(** Only the non-default fields, in canonical order; [[]] for {!default}. *)
