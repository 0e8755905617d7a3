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
    assert records == list(TABLE1.items())


def test_load_census_skips_comments_and_blanks(tmp_path):
    p = tmp_path / "c.census"
    p.write_text("# header\n\nk1 O1+U1+\n   \n# tail\nk2 O1-U1-\n")
    records, skipped = sieve.load_census(str(p))
    assert records == [("k1", "O1+U1+"), ("k2", "O1-U1-")]
    assert skipped == 0


def test_load_census_bad_lines(tmp_path):
    p = tmp_path / "c.census"
    p.write_text("k1 O1+U1+\njunkline\nk2 O1-U1-\n")
    with pytest.raises(sieve.CensusParseError) as err:
        sieve.load_census(str(p))
    assert str(err.value).startswith("line 2: ")
    records, skipped = sieve.load_census(str(p), skip_bad=True)
    assert records == [("k1", "O1+U1+"), ("k2", "O1-U1-")]
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


def _fake_pool(sizes, chunks):
    """An in-process stand-in for the sieve's process pool that records the
    worker count and the chunk size of each pool."""
    class FakePool:
        def __init__(self, workers):
            sizes.append(workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            chunks.append(chunksize)
            return map(fn, items)
    return FakePool


def test_pool_sized_by_usable_cpus(monkeypatch):
    """One worker per CPU the process may run on; with one such CPU the rows
    are computed in-process, without a pool."""
    records, _ = sieve.load_census(CENSUS)
    serial = sieve.run_sieve(records, parallel=False).rows

    class NoPool:
        def __init__(self, *args, **kwargs):
            raise AssertionError("a process pool for one usable CPU")

    monkeypatch.setattr(sieve.os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    monkeypatch.setattr(sieve, "ProcessPoolExecutor", NoPool)
    assert sieve.run_sieve(records).rows == serial

    sizes = []
    monkeypatch.setattr(sieve.os, "sched_getaffinity", lambda pid: {0, 2, 5},
                        raising=False)
    monkeypatch.setattr(sieve, "ProcessPoolExecutor", _fake_pool(sizes, []))
    assert sieve.run_sieve(records).rows == serial
    # no more workers than rows: the pool forks all of them at once
    assert sieve.run_sieve(records[:2]).rows == serial[:2]
    # without sched_getaffinity the pool falls back on os.cpu_count
    monkeypatch.delattr(sieve.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(sieve.os, "cpu_count", lambda: 4)
    assert sieve.run_sieve(records).rows == serial
    assert sizes == [3, 2, 4]


def test_chunk_size_is_capped(monkeypatch):
    """About four chunks per worker, but never so large that one slow row
    holds back a long chunk of others."""
    chunks = []
    monkeypatch.setattr(sieve, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(sieve, "ProcessPoolExecutor", _fake_pool([], chunks))
    pairs = [("k%d" % i, "O1+U1+") for i in range(1000)]
    assert len(sieve.run_sieve(pairs).rows) == 1000
    # 398 rows, as in the benchmark census, still get 50 rows a chunk
    sieve.run_sieve(pairs[:398])
    assert chunks == [50, 50]


def test_error_rows_do_not_poison_the_batch():
    records = [("good", "O1+O2+U1+U2+"), ("bad", "O1+"), ("also-good", "")]
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
    report = sieve.merge_external_flags(report, sieve.load_flags(FLAGS))
    assert report.summary["survivor_count"] == 3
    survivors = [r["name"] for r in report.rows if r.get("survives")]
    assert survivors == list(ZERO_NAMES)
    # delta0 nonzero blocks survival even with the genus flag set
    for r in report.rows:
        assert r["survives"] == (r.get("graded_genus_zero") is True
                                 and r["delta0_zero"])


def test_merge_flags_warns_on_unknown_names(tmp_path):
    records, _ = sieve.load_census(CENSUS)
    report = sieve.run_sieve(records, parallel=False)
    f = tmp_path / "f.flags"
    f.write_text("4.12 graded_genus_zero=true\nnosuch graded_genus_zero=true\n")
    report = sieve.merge_external_flags(report, sieve.load_flags(str(f)))
    assert report.summary["survivor_count"] == 0  # 4.12 is obstructed
    assert any("nosuch" in w for w in report.summary["warnings"])


def test_flags_parse_errors(tmp_path):
    f = tmp_path / "f.flags"
    f.write_text("4.12 graded_genus_zero\n")
    with pytest.raises(sieve.CensusParseError):
        sieve.load_flags(str(f))
    # the genus flag is true or false: any other value would read as set
    for value in ("False", "0", "yes"):
        f.write_text("4.12 graded_genus_zero=true\n"
                     "5.114 graded_genus_zero=%s\n" % value)
        with pytest.raises(sieve.CensusParseError) as err:
            sieve.load_flags(str(f))
        assert str(err.value).startswith("line 2: ")


def test_load_census_non_utf8_line(tmp_path):
    p = tmp_path / "c.census"
    p.write_bytes(b"k1 O1+U1+\n# caf\xc3\xa9\nk2 O1-U1- \xff\nk3 O1-U1-\n")
    with pytest.raises(sieve.CensusParseError) as err:
        sieve.load_census(str(p))
    assert str(err.value).startswith("line 3: ")
    records, skipped = sieve.load_census(str(p), skip_bad=True)
    assert [name for name, _ in records] == ["k1", "k3"]
    assert skipped == 1


def test_load_census_line_endings(tmp_path):
    # lines end at \n, \r\n or \r, as in text mode
    p = tmp_path / "c.census"
    p.write_bytes(b"k1 O1+U1+\r\nk2 O1-U1-\rjunk\nk3 O1+U1+")
    with pytest.raises(sieve.CensusParseError) as err:
        sieve.load_census(str(p))
    assert str(err.value).startswith("line 3: ")
    records, skipped = sieve.load_census(str(p), skip_bad=True)
    assert records == [
        ("k1", "O1+U1+"), ("k2", "O1-U1-"), ("k3", "O1+U1+")]
    assert skipped == 1


def test_load_flags_non_utf8_line(tmp_path):
    p = tmp_path / "f.flags"
    p.write_bytes(b"k1 graded_genus_zero=true\nk2 x=\xff\n")
    with pytest.raises(sieve.CensusParseError) as err:
        sieve.load_flags(str(p))
    assert str(err.value).startswith("line 2: ")
