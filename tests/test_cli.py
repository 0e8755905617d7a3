import json
import os
import subprocess
import sys

import pytest

import vkalex
from vkalex import alexander, cli, gauss, groups, laurent
from vkalex.laurent import NotDivisible, S
from _util import TABLE1, VIRTUAL_TREFOIL, writhe_from_delta0

DATA = os.path.join(os.path.dirname(__file__), "data")
CENSUS = os.path.join(DATA, "table1.census")
FLAGS = os.path.join(DATA, "table1.flags")


def run(capsys, *argv):
    rc = cli.main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_delta_text(capsys):
    rc, out, err = run(capsys, "delta", TABLE1["4.12"])
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("s - s^2 - t")
    assert lines[1] == "zero: false"
    assert lines[2] == "obstructed: true"


def test_delta_empty_code_prints_zero(capsys):
    rc, out, err = run(capsys, "delta", "")
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "0"
    assert lines[1] == "zero: true"
    assert "obstructed" not in out


def test_delta_bad_code_exits_2(capsys):
    rc, out, err = run(capsys, "delta", "O1+")
    assert rc == 2
    assert "error" in err


def test_delta_json(capsys):
    rc, out, err = run(capsys, "--format", "json", "delta", "O1+O2+U1+U2+")
    assert rc == 0
    doc = json.loads(out)
    assert doc["delta0"] == "1 - s - t + s^2*t + s*t^2 - s^2*t^2"
    assert doc["zero"] is False
    assert doc["obstructed"] is True


def test_global_flags_accepted_after_subcommand(capsys):
    rc1, out1, _ = run(capsys, "--format", "json", "delta", "")
    rc2, out2, _ = run(capsys, "delta", "--format", "json", "")
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_unit_class_flag(capsys):
    # 5.93 canonical under monomial-sign flips the printed sign relative to
    # st-powers, which keeps the determinant's own sign
    code = TABLE1["5.93"]
    _, mono, _ = run(capsys, "delta", code)
    _, stp, _ = run(capsys, "--unit-class", "st-powers", "delta", code)
    assert mono.split("\n")[0] != stp.split("\n")[0]
    _, exact, _ = run(capsys, "--unit-class", "exact", "delta", code)
    assert exact.split("\n")[0].startswith(("-", "s", "t", "1"))


def test_writhe(capsys):
    rc, out, _ = run(capsys, "writhe", "O1+O2+U1+U2+")
    assert rc == 0
    assert out.strip() == "t^-1 - 2 + t"
    rc, _, err = run(capsys, "writhe", "O1+U2+,U1+O2+")
    assert rc == 2  # links have no writhe polynomial


def test_zh_text(capsys):
    rc, out, _ = run(capsys, "zh", "O1+U1+")
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "O1+U2+U3-U1+,O2+O3-"
    assert lines[1] == "components: 2"
    assert lines[2] == "omega: 1"


def test_zh_json(capsys):
    rc, out, _ = run(capsys, "--format", "json", "zh", "O1+U1+")
    assert rc == 0
    doc = json.loads(out)
    assert doc["components"][-1]["omega"] is True
    assert all(not c["omega"] for c in doc["components"][:-1])
    assert doc["omega_index"] == 1
    assert doc["code"] == "O1+U2+U3-U1+,O2+O3-"


def test_group_text(capsys):
    rc, out, _ = run(capsys, "group", "O1+U2+O3+U1+O2+U3+")
    assert rc == 0
    assert out.startswith("gens: a1 a2 a3 ; rels: ")
    assert out.count(";") == 3


def test_group_reduced_simplify(capsys):
    rc, out, _ = run(capsys, "group", "--reduced", "--simplify",
                     TABLE1["4.12"])
    assert rc == 0
    gens = out.split(";")[0].split(":")[1].split()
    assert len(gens) == 2


def test_group_reduced_simplify_table1_bytes(capsys):
    # the eliminated Zh presentations of table 1, byte for byte
    with open(os.path.join(DATA, "table1_simplify.json")) as fh:
        expected = json.load(fh)
    assert list(expected) == list(TABLE1)
    for name, code in TABLE1.items():
        rc, out, err = run(capsys, "group", "--reduced", "--simplify", code)
        assert (rc, out, err) == (0, expected[name], ""), name


def test_group_json(capsys):
    rc, out, _ = run(capsys, "--format", "json", "group", "--reduced", "O1+U1+")
    assert rc == 0
    doc = json.loads(out)
    assert doc["deficiency"] == 1
    assert any(g["component"] == "omega" for g in doc["generators"])


def test_ideals(capsys):
    # the README example; the count is of all (g-k)-minors, C(3, 2)^2 = 9
    # for E_1, although the Fox formula lets the gcd take only 3 of them
    rc, out, err = run(capsys, "ideals", "--kmax", "1", "O1+U2+O3+U1+O2+U3+")
    assert (rc, err) == (0, "")
    assert out == ("E_0: gcd = 0 (1 generators)\n"
                   "E_1: gcd = 1 - t + t^2 (9 generators)\n")


def test_ideals_json_counts_every_minor(capsys):
    # E_2 of this 6-crossing knot is the full ring and its gcd stops after
    # 16 minors, but generator_count is still C(6, 4)^2
    rc, out, _ = run(capsys, "--format", "json", "ideals",
                     "O1-U2+O2+U3+O3+U4-U1-O4-O5+U6+U5+O6+")
    assert rc == 0
    assert out == json.dumps({"ideals": [
        {"k": 0, "gcd": "0", "zero": True, "generator_count": 1},
        {"k": 1, "gcd": "1 - t + t^2", "zero": False, "generator_count": 36},
        {"k": 2, "gcd": "1", "zero": False, "generator_count": 225},
    ]}, indent=2) + "\n"


def test_reduced_first_ideal_takes_one_determinant(capsys, monkeypatch):
    # the extension's Fox matrix of 4.12 is 12 x 13 with one omega column,
    # so E_1 is the minor without that column divided by 1 - s: one
    # determinant and no gcd
    dets = []
    det = laurent.PolyMatrix.det

    def spy(self):
        dets.append((self.rows, self.cols))
        return det(self)

    def no_gcd(p, q):
        raise AssertionError("gcd called")
    monkeypatch.setattr(laurent.PolyMatrix, "det", spy)
    monkeypatch.setattr(laurent, "gcd", no_gcd)
    monkeypatch.setattr(groups, "gcd", no_gcd)
    rc, out, err = run(capsys, "ideals", "--reduced", "--kmax", "1",
                       TABLE1["4.12"])
    assert (rc, err) == (0, "")
    assert dets == [(12, 12)]
    assert out == ("E_0: gcd = 0 (0 generators)\n"
                   "E_1: gcd = s^3 - s*t - s^2*t - 2*s^3*t + t^2 + 2*s*t^2"
                   " + 2*s^2*t^2 + s^3*t^2 - 2*t^3 - s*t^3 - s^2*t^3 + t^4"
                   " (13 generators)\n")


def test_reduced_first_ideal_not_divisible_exits_3(capsys, monkeypatch):
    calls = []

    def fail(a, b):
        calls.append((a, b))
    monkeypatch.setattr(groups, "_quo", fail)
    rc, out, err = run(capsys, "ideals", "--reduced", "--kmax", "1",
                       TABLE1["4.12"])
    assert calls
    assert rc == 3
    assert "internal error" in err and "1 - s" in err
    assert out == ""


def test_longitude(capsys):
    rc, out, _ = run(capsys, "longitude", "--comp", "0", "O1+U2+O3+U1+O2+U3+")
    assert rc == 0
    assert out.strip() == "a3 a1 a2 a1^-1 a1^-1 a1^-1"
    rc, _, err = run(capsys, "longitude", "--comp", "7", "O1+U1+")
    assert rc == 2


def test_sieve_text(capsys):
    rc, out, _ = run(capsys, "sieve", "--census", CENSUS, "--flags", FLAGS)
    assert rc == 0
    assert "total=12" in out
    assert "obstructed=9" in out
    assert "survivors=3" in out


def test_sieve_csv(capsys):
    rc, out, _ = run(capsys, "--format", "csv", "sieve", "--census", CENSUS)
    assert rc == 0
    assert out.split("\n")[0] == "name,crossings,delta0,delta0_zero,writhe,obstructed"


def test_sieve_json_serial_matches_parallel(capsys):
    rc1, out1, _ = run(capsys, "--format", "json", "sieve", "--census", CENSUS)
    rc2, out2, _ = run(capsys, "--format", "json", "--serial", "sieve",
                       "--census", CENSUS)
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_sieve_missing_file_exits_2(capsys):
    rc, _, err = run(capsys, "sieve", "--census", "/nonexistent/file")
    assert rc == 2
    assert "error" in err


def test_sieve_skip_bad(capsys, tmp_path):
    p = tmp_path / "c.census"
    p.write_text("k1 O1+O2+U1+U2+\nbroken\n")
    rc, _, err = run(capsys, "sieve", "--census", str(p))
    assert rc == 2
    rc, out, _ = run(capsys, "--skip-bad", "sieve", "--census", str(p))
    assert rc == 0
    assert "total=1" in out


def test_sieve_text_reports_skipped_lines(capsys, tmp_path):
    p = tmp_path / "c.census"
    p.write_text("k1 O1+O2+U1+U2+\nbroken\nk2 O1+U1+\n")
    rc, out, _ = run(capsys, "--skip-bad", "sieve", "--census", str(p))
    assert rc == 0
    assert out.splitlines()[-1] == \
        "total=2  delta0_zero=1  obstructed=1  skipped=1"
    # nothing skipped, nothing said
    p.write_text("k1 O1+O2+U1+U2+\n")
    rc, out, _ = run(capsys, "--skip-bad", "sieve", "--census", str(p))
    assert rc == 0
    assert "skipped" not in out


def test_sieve_non_utf8_census_line_is_malformed(capsys, tmp_path):
    p = tmp_path / "c.census"
    p.write_bytes(b"k1 O1+O2+U1+U2+\nk2 O1+U1+ \xff\nk3 O1+U1+\n")
    rc, out, err = run(capsys, "sieve", "--census", str(p))
    assert (rc, out) == (2, "")
    assert err == "error: line 2: line is not valid UTF-8\n"
    rc, out, _ = run(capsys, "--skip-bad", "sieve", "--census", str(p))
    assert rc == 0
    assert out.splitlines()[-1] == \
        "total=2  delta0_zero=1  obstructed=1  skipped=1"


def test_sieve_non_utf8_flags_line_is_malformed(capsys, tmp_path):
    f = tmp_path / "f.flags"
    f.write_bytes(b"4.12 graded_genus_zero=false\n5.114 note=\xe9t\xe9\n")
    rc, out, err = run(capsys, "sieve", "--census", CENSUS, "--flags", str(f))
    assert (rc, out) == (2, "")
    assert err == "error: line 2: line is not valid UTF-8\n"


def test_sieve_reads_flags_before_computing_rows(capsys, monkeypatch,
                                                 tmp_path):
    """A bad flags file is reported before any row is computed, and after
    the census's own errors."""
    calls = []
    monkeypatch.setattr("vkalex.sieve.run_sieve",
                        lambda *a, **k: calls.append(a))
    f = tmp_path / "f.flags"
    f.write_text("4.12 graded_genus_zero=maybe\n")
    rc, out, err = run(capsys, "sieve", "--census", CENSUS, "--flags", str(f))
    assert (rc, out, calls) == (2, "", [])
    assert err.startswith("error: line 1: graded_genus_zero")
    bad = tmp_path / "c.census"
    bad.write_text("junkline\n")
    rc, out, err = run(capsys, "sieve", "--census", str(bad), "--flags",
                       str(f))
    assert (rc, out, calls) == (2, "", [])
    assert err == "error: line 1: expected 'name gausscode'\n"


def test_csv_rejected_outside_sieve(capsys):
    rc, _, err = run(capsys, "--format", "csv", "delta", "")
    assert rc == 2
    assert "csv" in err


def test_parser_built_once_per_process(capsys, monkeypatch):
    built = []

    def spy():
        built.append(1)
        return build()
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", spy)
    cli._parser.cache_clear()
    rc1, out1, _ = run(capsys, "--format", "json", "delta", "")
    rc2, out2, _ = run(capsys, "delta", "--format", "json", "")
    assert built == [1]
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_delta_canonicalizes_once(capsys, monkeypatch):
    calls = []

    def spy(poly, mode):
        calls.append(mode)
        return canonicalize(poly, mode)
    canonicalize = cli.canonicalize
    for module in (cli, laurent):
        monkeypatch.setattr(module, "canonicalize", spy)
    run(capsys, "delta", TABLE1["4.12"])
    run(capsys, "--unit-class", "exact", "delta", TABLE1["4.12"])
    assert calls == ["monomial-sign", "exact"]
    calls.clear()
    rc, out, _ = run(capsys, "writhe", TABLE1["4.12"])
    assert rc == 0 and out.strip() and calls == []


def test_unknown_subcommand_exits_2(capsys):
    rc = cli.main(["frobnicate"])
    capsys.readouterr()
    assert rc == 2


def test_internal_invariant_breaks_exit_3(capsys, monkeypatch):
    def boom(d):
        raise NotDivisible("synthetic divisibility failure")
    monkeypatch.setattr("vkalex.cli.alexander.writhe_polynomial", boom)
    rc, _, err = run(capsys, "writhe", "O1+O2+U1+U2+")
    assert rc == 3
    assert "internal error" in err


def test_any_bug_exits_3(capsys, monkeypatch):
    def boom(d):
        raise KeyError("synthetic lookup failure")
    monkeypatch.setattr("vkalex.cli.alexander.delta0", boom)
    rc, out, err = run(capsys, "delta", TABLE1["4.12"])
    assert rc == 3
    assert "internal error" in err and "synthetic lookup failure" in err
    assert out == ""


def test_bareiss_division_failure_exits_3(capsys, monkeypatch):
    # 5.2430 leaves a 2x2 residual after the unit pivots, so its integer
    # Bareiss divides at least once
    calls = []

    def fail(a, b):
        calls.append((a, b))
        raise NotDivisible("synthetic Bareiss division failure")
    monkeypatch.setattr("vkalex.laurent._exact_quo", fail)
    rc, out, err = run(capsys, "delta", TABLE1["5.2430"])
    assert calls
    assert rc == 3
    assert "internal error" in err
    assert out == ""


def test_sieve_internal_error_exits_3(capsys, monkeypatch):
    def boom(d):
        raise NotDivisible("synthetic divisibility failure")
    monkeypatch.setattr("vkalex.sieve.alexander.delta0", boom)
    rc, _, err = run(capsys, "--serial", "sieve", "--census", CENSUS)
    assert rc == 3
    assert "internal error" in err


def test_writhe_guards_divisibility_by_one_minus_st(capsys, monkeypatch,
                                                   tmp_path):
    """The writhe no longer reads delta0.  With a delta0 that 1 - st does
    not divide, the route through delta0's terms raises NotDivisible, but
    writhe and the sieve print the writhe of the chord indices and exit 0.
    test_divisibility_by_one_minus_st and criterion 4 check that 1 - st
    divides delta0."""
    code = VIRTUAL_TREFOIL
    rc, want, _ = run(capsys, "writhe", code)
    assert (rc, want) == (0, "t^-1 - 2 + t\n")
    monkeypatch.setattr(alexander, "delta0", lambda d: S)
    d = gauss.to_diagram(gauss.parse_gauss_code(code))
    with pytest.raises(NotDivisible):
        writhe_from_delta0(alexander.delta0(d), d)
    assert run(capsys, "writhe", code) == (0, want, "")
    census = tmp_path / "one.census"
    census.write_text("vt  %s\n" % code)
    rc, out, err = run(capsys, "--serial", "--format", "csv", "sieve",
                       "--census", str(census))
    assert rc == 0 and err == ""
    assert out.splitlines()[1].split(",")[4] == want.strip()


def test_flags_cannot_mark_an_obstructed_knot_surviving(capsys, tmp_path):
    f = tmp_path / "f.flags"
    f.write_text("4.12 graded_genus_zero=true delta0_zero=true\n")
    rc, out, err = run(capsys, "--format", "json", "sieve", "--census",
                       CENSUS, "--flags", str(f))
    assert rc == 2
    assert "delta0_zero" in err
    assert out == ""


def test_flags_cannot_overwrite_crossings(capsys, tmp_path):
    f = tmp_path / "f.flags"
    f.write_text("4.12 crossings=x\n")
    rc, out, err = run(capsys, "sieve", "--census", CENSUS, "--flags", str(f))
    assert rc == 2
    assert "crossings" in err
    assert out == ""


def test_sieve_duplicate_census_name(capsys, tmp_path):
    p = tmp_path / "c.census"
    p.write_text("k1 O1+O2+U1+U2+\nk2 O1-U1-\nk1 O1+U1+\n")
    rc, out, err = run(capsys, "sieve", "--census", str(p))
    assert rc == 2
    assert "line 3" in err and "duplicate" in err
    rc, out, _ = run(capsys, "--format", "json", "--skip-bad", "sieve",
                     "--census", str(p))
    assert rc == 0
    doc = json.loads(out)
    assert [r["name"] for r in doc["rows"]] == ["k1", "k2"]
    assert doc["rows"][0]["obstructed"]
    assert doc["summary"]["skipped_lines"] == 1


def test_ideals_negative_kmax_exits_2(capsys):
    rc, out, err = run(capsys, "ideals", "--kmax", "-3", "O1+U2+O3+U1+O2+U3+")
    assert rc == 2
    assert "kmax" in err
    assert out == ""


@pytest.mark.parametrize("case", [
    "non-utf8 census", "non-utf8 flags", "census is a directory",
    "negative comp", "negative kmax", "csv outside sieve", "bad token",
    "unit class on sieve",
])
def test_input_errors_exit_2_without_traceback(case, tmp_path):
    # through the real entry point: a traceback the interpreter prints
    # never reaches an in-process main() test
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"k1 O1+U1+\n\xff\xfe\n")
    argv = {
        "non-utf8 census": ["sieve", "--census", str(bad)],
        "non-utf8 flags": ["sieve", "--census", CENSUS, "--flags", str(bad)],
        "census is a directory": ["sieve", "--census", str(tmp_path)],
        "negative comp": ["longitude", "--comp", "-1", "O1+U1+"],
        "negative kmax": ["ideals", "--kmax", "-1", "O1+U1+"],
        "csv outside sieve": ["--format", "csv", "delta", "O1+U1+"],
        "bad token": ["delta", "O1+X2+U1+"],
        "unit class on sieve": ["--unit-class", "exact", "--serial", "sieve",
                                "--census", CENSUS],
    }[case]
    src = os.path.dirname(os.path.dirname(os.path.abspath(vkalex.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "vkalex.cli"] + argv,
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 2, proc.stderr
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr


# Runs the CLI calls given as a JSON list of argvs in this fresh
# interpreter and prints their exit codes, the usable CPUs and which of the
# process pool's modules got imported.
_POOL_PROBE = """
import contextlib, io, json, sys
from vkalex import cli, sieve
with contextlib.redirect_stdout(io.StringIO()):
    rcs = [cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"rcs": rcs, "cpus": sieve._usable_cpus(),
                  "loaded": [m for m in ("concurrent.futures",
                                         "multiprocessing")
                             if m in sys.modules]}))
"""


def _pool_probe(argvs):
    src = os.path.dirname(os.path.dirname(os.path.abspath(vkalex.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", _POOL_PROBE,
                           json.dumps(argvs)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_only_a_parallel_sieve_imports_the_process_pool():
    """The pool's modules are a large share of a one-knot command's
    start-up, so no command but a parallel sieve may import them."""
    code = TABLE1["4.12"]
    probe = _pool_probe([
        ["delta", code], ["writhe", code], ["zh", code],
        ["group", "--reduced", "--simplify", code],
        ["ideals", "--reduced", code], ["longitude", code],
        ["--serial", "sieve", "--census", CENSUS]])
    assert probe["rcs"] == [0] * 7
    assert probe["loaded"] == []
    probe = _pool_probe([["sieve", "--census", CENSUS]])
    assert probe["rcs"] == [0]
    expected = ["concurrent.futures", "multiprocessing"]
    assert probe["loaded"] == (expected if probe["cpus"] > 1 else [])
