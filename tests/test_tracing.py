"""The benchmark's span tracer (bench/tracing.py) still fits the library:
it patches the names it lists, reads the attributes it needs off a
PolyMatrix and a Fox matrix, and puts every original back."""

import importlib.util
from pathlib import Path

from vkalex import cli
from vkalex.laurent import PolyMatrix
from _util import TABLE1, table1_diagram, under_schur

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_delta_and_ideals(capsys):
    tracing = _tracing()
    code = TABLE1["4.12"]
    argvs = (["delta", code], ["ideals", "--reduced", "--kmax", "1", code])
    plain = []
    for argv in argvs:
        assert cli.main(argv) == 0
        plain.append(capsys.readouterr().out)
    det, minors = PolyMatrix.det, PolyMatrix.minors
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert PolyMatrix.det is not det
        traced = []
        for argv in argvs:
            assert cli.main(argv) == 0
            traced.append(capsys.readouterr().out)
    finally:
        tracer.uninstall()
    assert (PolyMatrix.det, PolyMatrix.minors) == (det, minors)
    assert traced == plain
    spans = tracer.spans
    assert not any(s[4] and s[4].get("raised") for s in spans)
    m = tracing.layer_metrics(spans, 0, len(spans))
    # delta0 takes one determinant, of the crossing matrix: the Schur
    # complement of the 8 x 8 M - P on the arcs entering U slots, 4 x 4
    n = under_schur(table1_diagram("4.12"))
    mp = [s for s in spans if s[0] == "laurent.det"
          and spans[s[3]][0] == "alexander.delta0"]
    assert [(s[4]["dim"], s[4]["nnz"]) for s in mp] == [(4, len(n.entries))]
    assert m["laurent.det_nnz_frac"] == mp[0][4]["nnz"] / 16
    assert m["laurent.det_calls"] > 1
    assert m["laurent.result_terms"] > 0
    assert m["groups.matrix_rows"] > 0 and m["groups.matrix_cols"] > 0
