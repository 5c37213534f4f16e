"""Names, units and sources of every metric the benchmark prints.

``BENCHMARK.json`` at the repository root lists the same names and units;
``run.py`` refuses to print a result when the two disagree.
"""

# End-to-end metrics, from the untraced run: (name, unit).
END_TO_END = (
    ("setup_s", "s"),        # spawn until the first op is ready, median of 5
    ("ops_per_s", "1/s"),    # ops completed per second of the timed phase
    ("op_p50_s", "s"),       # median op latency
    ("op_tail_s", "s"),      # latency at the workload's tail percentile
    ("peak_rss_mb", "MB"),   # peak RSS of the workload process (cli: its largest op)
    ("ok_frac", "1"),        # 1 - failed ops / attempted ops
)

# Per-layer metrics, from the traced run: (name, unit, source).
#   ("span", s)      self time of span s, per traced op
#   ("per_call", s)  self time of span s, per call
#   ("count", c)     counter c, per traced op
#   ("per_sample", s, c)  self time of span s divided by counter c
#   ("trace", key)   computed by the worker from the two phases of the run
PER_LAYER = (
    ("cli.startup_s", "s", ("span", "cli.startup")),
    ("cli.process_s", "s", ("span", "cli.process")),
    ("cli.main_validate_s", "s", ("span", "cli.main_validate")),
    ("cli.main_analyze_s", "s", ("span", "cli.main_analyze")),
    ("cli.main_solve_s", "s", ("span", "cli.main_solve")),
    ("cli.main_kernel_s", "s", ("span", "cli.main_kernel")),
    ("cli.main_compact_s", "s", ("span", "cli.main_compact")),
    ("cli.main_verify_s", "s", ("span", "cli.main_verify")),
    ("fileio.load_problem_s", "s", ("span", "fileio.load_problem")),
    ("fileio.render_report_s", "s", ("span", "fileio.render_report")),
    ("fileio.report_bytes", "count", ("count", "fileio.report_bytes")),
    ("coefficients.validate_s", "s", ("span", "coefficients.validate")),
    ("blocksystem.classify_jumps_s", "s", ("span", "blocksystem.classify_jumps")),
    ("blocksystem.make_partition_s", "s", ("span", "blocksystem.make_partition")),
    ("blocksystem.assemble_s", "s", ("span", "blocksystem.assemble")),
    ("blocksystem.moment_vectors_s", "s", ("span", "blocksystem.moment_vectors")),
    ("blocksystem.nullspace_s", "s", ("span", "blocksystem.nullspace")),
    ("blocksystem.subintervals", "count", ("count", "blocksystem.subintervals")),
    ("blocksystem.dense_bytes", "count", ("count", "blocksystem.dense_bytes")),
    ("propagation.fundamental_matrix_s", "s",
     ("span", "propagation.fundamental_matrix")),
    ("propagation.gaps", "count", ("count", "propagation.gaps")),
    ("propagation.evaluate_s_per_sample", "s",
     ("per_sample", "propagation.evaluate", "propagation.samples")),
    ("propagation.samples", "count", ("count", "propagation.samples")),
    ("propagation.w_pairing_s", "s", ("span", "propagation.w_pairing")),
    ("solutions.solve_system_s", "s", ("span", "solutions.solve_system")),
    ("solutions.compact_support_solutions_s", "s",
     ("span", "solutions.compact_support_solutions")),
    ("solutions.lift_kernel_vector_s", "s", ("span", "solutions.lift_kernel_vector")),
    ("solutions.kernel_dim", "count", ("count", "solutions.kernel_dim")),
    ("solutions.adjoint_kernel_dim", "count", ("count", "solutions.adjoint_kernel_dim")),
    ("solutions.lifts", "count", ("count", "solutions.lifts")),
    ("relations.t0_solve_s", "s", ("span", "relations.t0_solve")),
    ("relations.kernel_K0_s", "s", ("span", "relations.kernel_K0")),
    ("relations.weighted_norm_s", "s", ("span", "relations.weighted_norm")),
    ("relations.certificates", "count", ("count", "relations.certificates")),
    ("verify.suite_cbbc_s", "s", ("span", "verify.suite_cbbc")),
    ("verify.suite_wronskian_s", "s", ("span", "verify.suite_wronskian")),
    ("verify.suite_lift_s", "s", ("span", "verify.suite_lift")),
    ("verify.suite_functional_s", "s", ("span", "verify.suite_functional")),
    ("verify.suite_lagrange_s", "s", ("span", "verify.suite_lagrange")),
    ("verify.suite_t0_s", "s", ("span", "verify.suite_t0")),
    ("verify.checks", "count", ("count", "verify.checks")),
    ("fuzz.random_instance_s", "s", ("per_call", "fuzz.random_instance")),
    ("harness.op_self_s", "s", ("span", "op")),
    ("trace.ops", "count", ("trace", "ops")),
    ("trace.untraced_ops_per_s", "1/s", ("trace", "untraced_ops_per_s")),
    ("trace.traced_ops_per_s", "1/s", ("trace", "traced_ops_per_s")),
    ("trace.overhead_ops_per_s", "1/s", ("trace", "overhead_ops_per_s")),
    ("trace.spans_per_op", "count", ("trace", "spans_per_op")),
)
