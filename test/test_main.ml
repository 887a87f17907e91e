let () =
  Alcotest.run "sod2"
    [
      "symbolic", Suite_symbolic.suite;
      "tensor", Suite_tensor.suite;
      "storage", Suite_storage.suite;
      "quant", Suite_quant.suite;
      "ir", Suite_ir.suite;
      "validate", Suite_validate.suite;
      "op-conformance", Suite_op_conformance.suite;
      "graph-io", Suite_graph_io.suite;
      "rdp", Suite_rdp.suite;
      "core", Suite_core.suite;
      "runtime", Suite_runtime.suite;
      "kernels", Suite_kernels.suite;
      "alloc", Suite_alloc.suite;
      "oracle", Suite_oracle.suite;
      "fused", Suite_fused.suite;
      "guard", Suite_guard.suite;
      "engine", Suite_engine.suite;
      "variants", Suite_variants.suite;
      "models", Suite_models.suite;
      "frameworks", Suite_frameworks.suite;
      "experiments", Suite_experiments.suite;
    ]
