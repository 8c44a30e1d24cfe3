"""Names and units of every metric the benchmark reports.

Kept apart from the measuring code so that the launcher and the self-test
can read them without importing the package under test.
"""

#: (name, unit) of the end-to-end metrics a plain run reports; failed_frac is
#: printed beside them but is not a bounded metric, since it is 0 when the
#: program is right.
END_TO_END = [
    ("setup_s", "s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
]

_CALLS = ("calls", "count")
_BUSY = ("busy_s", "s")
_SELF = ("self_s", "s")
#: (span name, [(suffix, unit)]) of the traced run's layer metrics.
SPAN_METRICS = [
    ("kernels.witness_search", [_CALLS, _BUSY]),
    ("kernels.find_induced_copy", [_CALLS, _BUSY, ("us_per_call", "us")]),
    ("search.ramsey_exact", [_SELF]),
    ("search.verify_witness", [_BUSY]),
    ("search.ground_permutation_tables", [_CALLS, _BUSY]),
    ("search.find_colored_copy", [_CALLS, _BUSY]),
    ("bounds.spindle_bound_report", [_CALLS, _BUSY, _SELF]),
    ("bounds.multipartite_bound_report", [_BUSY]),
    ("bounds.log2_interval", [_CALLS, _BUSY]),
    ("lattice.random_coloring", [_BUSY]),
    ("lattice.coloring_from_text", [_BUSY]),
    ("lattice.Coloring.blue_vertices", [_CALLS, _BUSY]),
    ("lattice.Coloring.is_blue", [_CALLS]),
    ("posets.max_antichain", [_BUSY]),
    ("posets.dilworth_cover", [_BUSY]),
    ("posets.find_poset_copy", [_CALLS, _BUSY]),
    ("posets.make_boolean_poset", [_BUSY]),
    ("extract.collect_chain_family", [_BUSY]),
    ("extract.find_blue_prefix_chain", [_CALLS, _BUSY]),
    ("extract.assemble_spindle", [_BUSY]),
    ("extract.distinctness_contradiction", [_BUSY]),
    ("extract.classify_clear", [_BUSY]),
    ("extract.verify_certificate", [_CALLS, ("us_per_call", "us")]),
    ("cli.main", [_SELF]),
]
#: Metrics derived from one span's results: (name, unit, span name).
DERIVED_METRICS = [
    ("kernels.witness_search.nodes", "count", "kernels.witness_search"),
    *[(f"kernels.witness_search.{g}.nodes_per_s", "1/s", "kernels.witness_search")
      for g in ("sym", "plain", "N4", "N5", "N6")],
    ("kernels.find_induced_copy.found_ratio", "ratio", "kernels.find_induced_copy"),
    ("search.dims_closed", "count", "kernels.witness_search"),
    ("search.witnesses", "count", "kernels.witness_search"),
    ("bounds.scan_steps", "count", "bounds.spindle_bound_report"),
]
#: Metrics from the harness's own op records: (name, unit).
_RUN_METRICS = [
    *[(f"extract.outcome.{o}", "count") for o in ("spindle", "contradiction", "cover", "red")],
    ("extract.certified_ratio", "ratio"),
    ("work.nodes_per_op", "count"),
    ("work.k_star_per_op", "count"),
    ("work.orderings_per_op", "count"),
    ("trace.untraced_ops_per_s", "1/s"),
    ("trace.traced_ops_per_s", "1/s"),
    ("trace.ops_per_s_ratio", "ratio"),
]

PER_LAYER = (
    [(f"{span}.{suffix}", unit) for span, items in SPAN_METRICS for suffix, unit in items]
    + [(name, unit) for name, unit, _ in DERIVED_METRICS]
    + _RUN_METRICS
)
SOURCE_SPAN = {
    **{f"{span}.{suffix}": span for span, items in SPAN_METRICS for suffix, _ in items},
    **{name: span for name, _, span in DERIVED_METRICS},
}
