"""Span tracing for the vkalex benchmark, from outside the program.

`Tracer.install()` replaces the public functions of each vkalex module with
wrappers that record a span (name, start, end, parent, attributes) per call,
then `uninstall()` puts the originals back.  A function is patched under
every name the CLI path resolves it by (e.g. `groups.gcd` as well as
`laurent.gcd`), because modules that did `from .laurent import gcd` hold
their own reference.  Spans stay in memory until `write()`.

`layer_metrics()` turns spans into the per-layer metrics that BENCHMARK.json
lists.
"""

import functools
import importlib
import json
import time


def _size(polys):
    """Total terms and largest coefficient bit length of LaurentPolys."""
    terms = sum(len(p.terms) for p in polys)
    bits = max((abs(c).bit_length() for p in polys for c in p.terms.values()),
               default=0)
    return {"terms": terms, "bits": bits}


def _det_attrs(args, result):
    m = args[0]
    attrs = _size([result])
    attrs.update(dim=m.rows, nnz=sum(1 for e in m.entries if e))
    return attrs


def _minors_attrs(args, result):
    attrs = _size(result)
    attrs["count"] = len(result)
    return attrs


def _zh_attrs(args, result):
    return {"chords": len(result.diagram.signs)}


def _row_attrs(args, result):
    name, code = args[0]
    return {"knot": "," not in code, "error": "error" in result}


def _patch_points():
    """(span name, owner, attribute, attrs function) for every wrapped
    callable; owners are modules or classes."""
    # The package re-exports the function zh under the submodule's name.
    alexander, cli, gauss, groups, laurent, sieve, zh = (
        importlib.import_module("vkalex." + m) for m in
        ("alexander", "cli", "gauss", "groups", "laurent", "sieve", "zh"))
    return [
        ("gauss.parse", gauss, "parse_gauss_code", None),
        ("gauss.to_diagram", gauss, "to_diagram", None),
        ("alexander.delta0", alexander, "delta0", None),
        ("alexander.writhe", alexander, "writhe_polynomial", None),
        ("laurent.det", laurent.PolyMatrix, "det", _det_attrs),
        ("laurent.minors", laurent.PolyMatrix, "minors", _minors_attrs),
        ("laurent.gcd", laurent, "gcd", None),
        ("laurent.gcd", groups, "gcd", None),
        ("laurent.canonicalize", laurent, "canonicalize", None),
        ("laurent.canonicalize", cli, "canonicalize", None),
        ("laurent.canonicalize", alexander, "canonicalize", None),
        ("laurent.render", laurent.LaurentPoly, "__str__", None),
        ("zh.zh", zh, "zh", _zh_attrs),
        ("zh.zh", cli, "_zh", _zh_attrs),
        ("zh.zh", groups, "_zh", _zh_attrs),
        ("groups.wirtinger", groups, "wirtinger", None),
        ("groups.wirtinger", groups, "reduced_group", None),
        ("groups.fox_matrix", groups, "alexander_matrix",
         lambda a, r: {"rows": r.rows, "cols": r.cols}),
        ("groups.ideals", groups, "elementary_ideals", None),
        ("groups.tietze", groups, "tietze_eliminate", None),
        ("sieve.load_census", sieve, "load_census", None),
        ("sieve.run_sieve", sieve, "run_sieve", None),
        ("sieve.merge_flags", sieve, "merge_external_flags", None),
        ("sieve.format", sieve.SieveReport, "to_json", None),
        ("sieve.format", sieve.SieveReport, "to_csv", None),
        ("sieve.format", sieve.SieveReport, "to_text", None),
        ("sieve.row", sieve, "_sieve_one", _row_attrs),
        ("sieve.pool", sieve, "ProcessPoolExecutor",
         lambda a, r: {"workers": r._max_workers}),
        ("cli.main", cli, "main", None),
    ]


class Tracer:
    """Spans are lists [name, start_ns, end_ns, parent index, attrs]."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []

    def _wrap(self, name, func, attrs_fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else None, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = func(*args, **kwargs)
            except BaseException:
                span[2] = clock()
                span[4] = {"raised": True}
                raise
            finally:
                stack.pop()
            span[2] = clock()
            if attrs_fn is not None:
                span[4] = attrs_fn(args, result)
            return result
        return wrapper

    def install(self):
        for name, owner, attr, attrs_fn in _patch_points():
            func = owner.__dict__[attr]
            self._saved.append((owner, attr, func))
            setattr(owner, attr, self._wrap(name, func, attrs_fn))

    def uninstall(self):
        while self._saved:
            owner, attr, func = self._saved.pop()
            setattr(owner, attr, func)

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _outermost(spans, lo, hi, names):
    """Spans of [lo, hi) named in `names` with no ancestor named in `names`."""
    out = []
    for span in spans[lo:hi]:
        if span[0] not in names:
            continue
        parent = span[3]
        while parent is not None and spans[parent][0] not in names:
            parent = spans[parent][3]
        if parent is None:
            out.append(span)
    return out


def _ancestor(spans, span, name):
    parent = span[3]
    while parent is not None and spans[parent][0] != name:
        parent = spans[parent][3]
    return None if parent is None else spans[parent]


def layer_metrics(spans, lo, hi):
    """Per-layer metrics over spans[lo:hi].  Busy times are summed span
    durations in seconds; a span nested in one of the same group counts
    once.  Metrics of a layer the pass never entered are 0."""
    def busy(*names):
        return sum(s[2] - s[1] for s in _outermost(spans, lo, hi, names)) / 1e9

    def named(name):
        return [s for s in spans[lo:hi] if s[0] == name]

    def attr_max(name, key):
        return max((s[4][key] for s in named(name) if s[4]), default=0)

    rows = named("sieve.row")
    knot_rows = [s for s in rows if s[4]["knot"]]
    parses = [s for s in named("gauss.parse") if not s[4]]
    delta0 = named("alexander.delta0")
    knot_delta0 = [s for s in delta0
                   if (row := _ancestor(spans, s, "sieve.row")) is not None
                   and row[4]["knot"]]
    dets = named("laurent.det")
    mp = [s for s in dets if s[4] and s[3] is not None
          and spans[s[3]][0] == "alexander.delta0"]
    results = [s for s in _outermost(spans, lo, hi,
                                     ("laurent.det", "laurent.minors"))
               if s[4]]
    cli_self = 0
    for s in spans[lo:hi]:
        if s[0] == "cli.main":
            cli_self += s[2] - s[1]
        elif s[3] is not None and spans[s[3]][0] == "cli.main":
            cli_self -= s[2] - s[1]
    return {
        "gauss.parse_s": busy("gauss.parse", "gauss.to_diagram"),
        "gauss.parses_per_row": len(parses) / len(rows) if rows else 0,
        "alexander.delta0_s": busy("alexander.delta0"),
        "alexander.delta0_calls": len(delta0),
        "alexander.delta0_per_row":
            len(knot_delta0) / len(knot_rows) if knot_rows else 0,
        "alexander.writhe_s": busy("alexander.writhe"),
        "laurent.det_s": busy("laurent.det"),
        "laurent.det_calls": len(dets),
        "laurent.det_dim_max": attr_max("laurent.det", "dim"),
        "laurent.det_nnz_frac":
            sum(s[4]["nnz"] for s in mp) / sum(s[4]["dim"] ** 2 for s in mp)
            if mp else 0,
        "laurent.minors_s": busy("laurent.minors"),
        "laurent.minors_count":
            sum(s[4]["count"] for s in named("laurent.minors") if s[4]),
        "laurent.gcd_s": busy("laurent.gcd"),
        "laurent.gcd_calls": len(named("laurent.gcd")),
        "laurent.canonicalize_s": busy("laurent.canonicalize"),
        "laurent.render_s": busy("laurent.render"),
        "laurent.result_terms": sum(s[4]["terms"] for s in results),
        "laurent.coeff_bits_max": max((s[4]["bits"] for s in results),
                                      default=0),
        "zh.zh_s": busy("zh.zh"),
        "zh.chords_out": attr_max("zh.zh", "chords"),
        "groups.wirtinger_s": busy("groups.wirtinger"),
        "groups.fox_matrix_s": busy("groups.fox_matrix"),
        "groups.ideals_s": busy("groups.ideals"),
        "groups.tietze_s": busy("groups.tietze"),
        "groups.matrix_rows": attr_max("groups.fox_matrix", "rows"),
        "groups.matrix_cols": attr_max("groups.fox_matrix", "cols"),
        "sieve.load_census_s": busy("sieve.load_census"),
        "sieve.run_sieve_s": busy("sieve.run_sieve"),
        "sieve.merge_flags_s": busy("sieve.merge_flags"),
        "sieve.format_s": busy("sieve.format"),
        "sieve.rows": len(rows),
        "sieve.error_rows": sum(1 for s in rows if s[4]["error"]),
        "sieve.workers": attr_max("sieve.pool", "workers"),
        "sieve.parallel_efficiency": 0,
        "cli.self_s": cli_self / 1e9,
    }
