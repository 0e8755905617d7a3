import json
import os

import pytest

from vkalex import sieve
from _util import TABLE1, ZERO_NAMES

DATA = os.path.join(os.path.dirname(__file__), "data")
CENSUS = os.path.join(DATA, "table1.census")
FLAGS = os.path.join(DATA, "table1.flags")


def test_load_census():
    records, skipped = sieve.load_census(CENSUS)
    assert skipped == 0
    assert [r.name for r in records] == list(TABLE1)
    assert records[0].code == TABLE1["4.12"]


def test_load_census_skips_comments_and_blanks(tmp_path):
    p = tmp_path / "c.census"
    p.write_text("# header\n\nk1 O1+U1+\n   \n# tail\nk2 O1-U1-\n")
    records, skipped = sieve.load_census(str(p))
    assert [r.name for r in records] == ["k1", "k2"]
    assert skipped == 0


def test_load_census_bad_lines(tmp_path):
    p = tmp_path / "c.census"
    p.write_text("k1 O1+U1+\njunkline\nk2 O1-U1-\n")
    with pytest.raises(sieve.CensusParseError) as err:
        sieve.load_census(str(p))
    assert err.value.line_no == 2
    records, skipped = sieve.load_census(str(p), skip_bad=True)
    assert [r.name for r in records] == ["k1", "k2"]
    assert skipped == 1
    # a syntactically broken code is also a bad line
    p2 = tmp_path / "c2.census"
    p2.write_text("k1 O1+O2+\n")
    with pytest.raises(sieve.CensusParseError):
        sieve.load_census(str(p2))
    _, skipped2 = sieve.load_census(str(p2), skip_bad=True)
    assert skipped2 == 1


def test_run_sieve_counts():
    records, _ = sieve.load_census(CENSUS)
    report = sieve.run_sieve(records, parallel=False)
    assert report.summary["total"] == 12
    assert report.summary["delta0_zero_count"] == 3
    assert report.summary["obstructed_count"] == 9
    assert "errors" not in report.summary
    zero_rows = [r["name"] for r in report.rows if r["delta0_zero"]]
    assert zero_rows == list(ZERO_NAMES)
    for row in report.rows:
        assert row["obstructed"] == (not row["delta0_zero"])
        assert row["writhe"] != ""  # all census entries are knots


def test_parallel_and_serial_agree():
    records, _ = sieve.load_census(CENSUS)
    a = sieve.run_sieve(records, parallel=True)
    b = sieve.run_sieve(records, parallel=False)
    assert a.rows == b.rows
    assert a.summary == b.summary
    assert a.to_csv() == b.to_csv()
    assert a.to_json() == b.to_json()


def test_error_rows_do_not_poison_the_batch():
    records = [sieve.CensusRecord("good", "O1+O2+U1+U2+"),
               sieve.CensusRecord("bad", "O1+"),
               sieve.CensusRecord("also-good", "")]
    report = sieve.run_sieve(records, parallel=False)
    assert report.summary["total"] == 3
    assert report.summary["errors"] == 1
    assert "error" in report.rows[1]
    assert report.rows[0]["obstructed"]
    assert report.rows[2]["delta0_zero"]


def test_csv_shape():
    records, _ = sieve.load_census(CENSUS)
    report = sieve.run_sieve(records, parallel=False)
    lines = report.to_csv().strip().split("\n")
    assert lines[0] == "name,crossings,delta0,delta0_zero,writhe,obstructed"
    assert len(lines) == 13
    assert lines[3].startswith("5.114,5,0,true,")


def test_json_shape():
    records, _ = sieve.load_census(CENSUS)
    report = sieve.run_sieve(records, parallel=False)
    doc = json.loads(report.to_json())
    assert list(doc) == ["rows", "summary"]
    assert list(doc["rows"][0]) == ["name", "crossings", "delta0",
                                    "delta0_zero", "writhe", "obstructed"]


def test_merge_external_flags():
    records, _ = sieve.load_census(CENSUS)
    report = sieve.run_sieve(records, parallel=False)
    report = sieve.merge_external_flags(report, FLAGS)
    assert report.summary["survivor_count"] == 3
    survivors = [r["name"] for r in report.rows if r.get("survives")]
    assert survivors == list(ZERO_NAMES)
    # delta0 nonzero blocks survival even with the genus flag set
    for r in report.rows:
        assert r["survives"] == (bool(r.get("graded_genus_zero"))
                                 and r["delta0_zero"])


def test_merge_flags_warns_on_unknown_names(tmp_path):
    records, _ = sieve.load_census(CENSUS)
    report = sieve.run_sieve(records, parallel=False)
    f = tmp_path / "f.flags"
    f.write_text("4.12 graded_genus_zero=true\nnosuch graded_genus_zero=true\n")
    report = sieve.merge_external_flags(report, str(f))
    assert report.summary["survivor_count"] == 0  # 4.12 is obstructed
    assert any("nosuch" in w for w in report.summary["warnings"])


def test_flags_parse_errors(tmp_path):
    f = tmp_path / "f.flags"
    f.write_text("4.12 graded_genus_zero\n")
    with pytest.raises(sieve.CensusParseError):
        sieve.load_flags(str(f))


def test_load_census_non_utf8_line(tmp_path):
    p = tmp_path / "c.census"
    p.write_bytes(b"k1 O1+U1+\n# caf\xc3\xa9\nk2 O1-U1- \xff\nk3 O1-U1-\n")
    with pytest.raises(sieve.CensusParseError) as err:
        sieve.load_census(str(p))
    assert err.value.line_no == 3
    records, skipped = sieve.load_census(str(p), skip_bad=True)
    assert [r.name for r in records] == ["k1", "k3"]
    assert skipped == 1


def test_load_census_line_endings(tmp_path):
    # lines end at \n, \r\n or \r, as in text mode
    p = tmp_path / "c.census"
    p.write_bytes(b"k1 O1+U1+\r\nk2 O1-U1-\rjunk\nk3 O1+U1+")
    with pytest.raises(sieve.CensusParseError) as err:
        sieve.load_census(str(p))
    assert err.value.line_no == 3
    records, skipped = sieve.load_census(str(p), skip_bad=True)
    assert [(r.name, r.code) for r in records] == [
        ("k1", "O1+U1+"), ("k2", "O1-U1-"), ("k3", "O1+U1+")]
    assert skipped == 1


def test_load_flags_non_utf8_line(tmp_path):
    p = tmp_path / "f.flags"
    p.write_bytes(b"k1 graded_genus_zero=true\nk2 x=\xff\n")
    with pytest.raises(sieve.CensusParseError) as err:
        sieve.load_flags(str(p))
    assert err.value.line_no == 2
