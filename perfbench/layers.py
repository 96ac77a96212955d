"""Which library callables are traced, and how per-layer metrics follow.

Span targets get a span per call.  The code-layer analysis functions that
`verify` calls are spanned too, so that their loops do not count as
cli.main's own time; parsing and printing do.  Count targets (the field
arithmetic, called millions of times) only count calls, in a separate
pass, so that their cost does not swamp the span times.  Time and call
metrics are per operation of the workload's timed phase (one decode, or
one construct-verify round); the fields.tower, code.spec and
geometry.arc_build metrics are per setup.
"""

PACKAGE = "hermitian_mds"

SPAN_TARGETS = [
    "fields.FieldTower.__init__",
    "linalg.MatrixFq.kernel_basis",
    "linalg.MatrixFq.rank",
    "linalg.MatrixFq.solve",
    "geometry.arc_condition_holds",
    "geometry.build_lambda",
    "geometry.points_on_line",
    "geometry.span_plane",
    "geometry.lines_of_plane",
    "code.CodeSpec.__init__",
    "code.form_eval",
    "code.encode",
    "code.enumerate_codewords",
    "code.generator_matrix",
    "code.min_distance",
    "code.is_mds",
    "code.weight_distribution",
    "code.pairwise_intersection_count",
    "code.common_zero_set",
    "decoder.geometric_decode",
    "decoder.find_external_line",
    "decoder.lift",
    "decoder.project_from",
    "decoder.fit_min_degree_curve",
    "decoder.extract_linear_factors",
    "decoder.plane_to_codeword",
    "decoder.plane_to_message",
    "cli.main",
]

COUNT_TARGETS = {
    "fields.mul_calls": "fields.FieldTower.mul",
    "fields.q_mul_calls": "fields.FieldTower.q_mul",
    "fields.pow_calls": "fields.FieldTower.pow",
    "fields.inv_calls": "fields.FieldTower.inv",
}

# (metric, unit, kind, span targets); kinds: "ms" inclusive time per op,
# "self_ms" self time per op, "calls" calls per op, "setup_ms" inclusive
# time per setup.
SPAN_METRICS = [
    ("decoder.decode_ms", "ms", "ms", ["decoder.geometric_decode"]),
    ("decoder.centers_ms", "ms", "ms", ["decoder.find_external_line"]),
    ("geometry.lines_of_plane_calls", "count", "calls", ["geometry.lines_of_plane"]),
    ("geometry.lines_of_plane_ms", "ms", "ms", ["geometry.lines_of_plane"]),
    ("geometry.points_on_line_calls", "count", "calls", ["geometry.points_on_line"]),
    ("decoder.project_ms", "ms", "ms", ["decoder.lift", "decoder.project_from"]),
    ("decoder.filter_ms", "ms", "self_ms", ["decoder.geometric_decode"]),
    ("decoder.curve_fit_ms", "ms", "ms", ["decoder.fit_min_degree_curve"]),
    ("decoder.curve_fit_calls", "count", "calls", ["decoder.fit_min_degree_curve"]),
    ("decoder.factor_ms", "ms", "ms", ["decoder.extract_linear_factors"]),
    ("decoder.factor_calls", "count", "calls", ["decoder.extract_linear_factors"]),
    ("decoder.plane_ms", "ms", "ms",
     ["geometry.span_plane", "decoder.plane_to_codeword", "decoder.plane_to_message"]),
    ("linalg.kernel_calls", "count", "calls", ["linalg.MatrixFq.kernel_basis"]),
    ("linalg.kernel_ms", "ms", "ms", ["linalg.MatrixFq.kernel_basis"]),
    ("linalg.rank_calls", "count", "calls", ["linalg.MatrixFq.rank"]),
    ("linalg.rank_ms", "ms", "ms", ["linalg.MatrixFq.rank"]),
    ("linalg.solve_ms", "ms", "ms", ["linalg.MatrixFq.solve"]),
    ("geometry.arc_check_ms", "ms", "ms", ["geometry.arc_condition_holds"]),
    ("code.form_eval_calls", "count", "calls", ["code.form_eval"]),
    ("code.form_eval_ms", "ms", "ms", ["code.form_eval"]),
    ("code.encode_ms", "ms", "ms", ["code.encode"]),
    ("code.pairwise_ms", "ms", "ms", ["code.pairwise_intersection_count"]),
    ("code.enumerate_ms", "ms", "ms", ["code.enumerate_codewords"]),
    ("code.spec_ms", "ms", "setup_ms", ["code.CodeSpec.__init__"]),
    ("fields.tower_ms", "ms", "setup_ms", ["fields.FieldTower.__init__"]),
    ("cli.command_ms", "ms", "ms", ["cli.main"]),
    ("cli.self_ms", "ms", "self_ms", ["cli.main"]),
]

# Metrics derived from several sources; listed here with their units so
# that the metric list in BENCHMARK.json can be checked against this file.
DERIVED_METRICS = [
    ("decoder.centers_tried", "count"),
    ("decoder.filter_pass_ratio", "ratio"),
    ("decoder.fit_hit_ratio", "ratio"),
    ("decoder.fail_returns", "count"),
    ("geometry.arc_build_ms", "ms"),
    ("fields.mul_calls", "count"),
    ("fields.q_mul_calls", "count"),
    ("fields.pow_calls", "count"),
    ("fields.inv_calls", "count"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_ratio", "ratio"),
]


def metric_units():
    return {name: unit for name, unit, *_ in SPAN_METRICS} | dict(DERIVED_METRICS)


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(*, timed, n_ops, setup, n_setups, arc_in_build_s, counts, n_counted,
               absent, code_length, decodes_returned, decodes_failed, traced_s, untraced_s):
    """Per-layer metrics as {name: (value, note)}; units are in metric_units().

    timed/setup: span totals (name -> [calls, inclusive s, self s]) over the
    timed phase and the setup phase; counts: field-call counts over the
    first n_counted timed operations; absent: hook targets the library
    lacks.  A metric whose every source is absent reads 0 with the note
    "absent".
    """
    out = {}

    def note_for(sources):
        return "absent" if all(s in absent for s in sources) else ""

    def total(table, sources, col):
        return sum(table.get(s, (0, 0.0, 0.0))[col] for s in sources)

    for name, _, kind, sources in SPAN_METRICS:
        if kind == "calls":
            value = _ratio(total(timed, sources, 0), n_ops)
        elif kind == "ms":
            value = 1e3 * _ratio(total(timed, sources, 1), n_ops)
        elif kind == "self_ms":
            value = 1e3 * _ratio(total(timed, sources, 2), n_ops)
        else:
            value = 1e3 * _ratio(total(setup, sources, 1), n_setups)
        base = f"per setup, {n_setups} setups" if kind == "setup_ms" else f"per op, {n_ops} ops"
        out[name] = (value, note_for(sources) or base)

    centers = _ratio(total(timed, ["decoder.project_from"], 0), code_length)
    fits = total(timed, ["decoder.fit_min_degree_curve"], 0)
    out["decoder.centers_tried"] = (
        _ratio(centers, n_ops),
        note_for(["decoder.project_from"]) or f"project_from calls / N={code_length}, per op")
    out["decoder.filter_pass_ratio"] = (
        _ratio(fits, centers), f"curve fits {fits} / centers tried {centers:g}")
    out["decoder.fit_hit_ratio"] = (
        _ratio(decodes_returned, fits),
        f"decodes returning a word {decodes_returned} / curve fits {fits}")
    out["decoder.fail_returns"] = (decodes_failed, f"decodes returning None, of {n_ops} ops")
    build_s = total(setup, ["geometry.build_lambda"], 1) - arc_in_build_s
    out["geometry.arc_build_ms"] = (
        1e3 * _ratio(build_s, n_setups),
        note_for(["geometry.build_lambda"])
        or f"build_lambda minus its arc check, per setup, {n_setups} setups")
    for name, target in COUNT_TARGETS.items():
        out[name] = (_ratio(counts.get(target, 0), n_counted),
                     note_for([target]) or f"per op, counting pass over {n_counted} ops")
    overhead = traced_s - untraced_s
    out["trace.overhead_s"] = (
        overhead, f"traced {traced_s:.3f} s - untraced {untraced_s:.3f} s, same {n_ops} ops")
    out["trace.overhead_ratio"] = (_ratio(overhead, untraced_s), "base: untraced wall time")
    return out
