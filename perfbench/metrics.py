"""Names, units and directions of every metric the benchmark reports.

Kept apart from the tracer so that ``run.py`` can read them without
importing qpart; ``BENCHMARK.json`` lists the same names and units.
"""

# (name, unit) of the end-to-end metrics, reported by untraced runs.  Times
# are in reference seconds (see calibration.py).
END_TO_END = (("wall_ref_s", "s"), ("work_per_s", "1/s"), ("peak_rss_mib", "MiB"),
              ("setup_s", "s"))

LAYERS = ("series", "partitions", "counting", "bijections", "verify", "cli")

TASK_IDS = ("T1", "T2", "T3", "T3x", "T4", "T5", "T6", "T7", "T7c", "T8", "T9",
            "T10", "T11", "T12")

# (name, unit, better) of every metric a traced run reports.  Counts that
# measure work done are "lower is better"; counts of work the workload fixes
# (cells, round-trips, output bytes) are "higher", so that losing any shows.
PER_LAYER = (
    [("series.calls", "count", "lower"),
     ("series.self_s", "s", "lower"),
     ("series.mul_calls", "count", "lower"),
     ("series.mul_s", "s", "lower"),
     ("series.mul_coeff_ops", "computed_ops", "lower"),
     ("series.reciprocal_calls", "count", "lower"),
     ("series.reciprocal_s", "s", "lower"),
     ("series.pochhammer_s", "s", "lower"),
     ("series.max_coeff_bits", "bits", "lower"),
     ("counting.self_s", "s", "lower"),
     ("counting.enum_calls", "count", "lower"),
     ("counting.enum_misses", "count", "lower"),
     ("counting.enum_hit_ratio", "ratio", "higher"),
     ("counting.members_enumerated", "count", "lower"),
     ("counting.enum_s", "s", "lower"),
     ("counting.members_per_s", "1/s", "higher"),
     ("counting.gf_calls", "count", "lower"),
     ("counting.gf_hit_ratio", "ratio", "higher"),
     ("counting.gf_s", "s", "lower"),
     ("counting.gf_coeffs", "count", "lower"),
     ("partitions.self_s", "s", "lower"),
     ("partitions.is_member_calls", "count", "lower"),
     ("partitions.is_member_s", "s", "lower"),
     ("bijections.self_s", "s", "lower"),
     ("bijections.forward_calls", "count", "lower"),
     ("bijections.forward_s", "s", "lower"),
     ("bijections.inverse_s", "s", "lower"),
     ("bijections.roundtrips", "count", "higher"),
     ("bijections.roundtrip_failures", "count", "lower"),
     ("verify.cells", "count", "higher"),
     ("verify.self_s", "s", "lower")]
    + [(f"verify.task_s.{t}", "s", "lower") for t in TASK_IDS]
    + [("cli.self_s", "s", "lower"),
       ("cli.output_bytes", "bytes", "higher"),
       ("trace.overhead_s", "s", "lower")]
)
