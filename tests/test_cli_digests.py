"""The CLI's exact output on a fixed corpus.  tests/data/cli_digests.json
holds the Gauss codes of table 1, of 80 distinct seeded knots and links
of 0-8 chords and of a few hand-written links, and one sha256 of (exit code, stdout, stderr) per command
line run on them, then one per sieve format over a census of the same
codes.  It also holds three seeded knots of 30-40 chords with the digests
of the LARGE commands alone, as E_2 and E_3 of the reduced group are slow
at that size.  The
tests replay every command line in-process; a change that is meant to keep
the program's behaviour must keep every digest.

    PYTHONPATH=src python tests/test_cli_digests.py

rewrites the file from the current code, for a change that is meant to
alter the output.  When the code lists are the recorded ones, it first
prints, per subcommand, how many recorded digests the rewrite changes,
for the corpus and for the large knots, so a re-pin shows its scope."""

import contextlib
import hashlib
import io
import json
import os
import random
import tempfile
import time
from collections import Counter

from vkalex import cli, gauss
from _util import TABLE1, random_knot, random_link

PATH = os.path.join(os.path.dirname(__file__), "data", "cli_digests.json")

# each is run with a code appended
COMMANDS = (
    ("delta", "--unit-class", "exact"),
    ("writhe",),
    ("ideals", "--kmax", "2"),
    ("ideals", "--reduced", "--kmax", "2"),
    ("ideals", "--reduced", "--kmax", "1", "--format", "json"),
    ("group", "--reduced", "--simplify"),
    ("group", "--simplify"),
    ("ideals", "--reduced", "--kmax", "3"),
    ("group", "--format", "json"),
    ("longitude",),
    ("longitude", "--comp", "1", "--format", "json"),
)

# each is run on the large knots, with a code appended
LARGE = (
    ("delta", "--unit-class", "exact"),
    ("writhe",),
    ("ideals", "--reduced", "--kmax", "1"),
    ("ideals", "--reduced", "--kmax", "1", "--unit-class", "exact"),
)


# circles with U slots only (of 1-3 slots), with one O slot, with O slots
# only, and with no slots at all
HAND_WRITTEN = (
    "U1+,O1+", "O1-,U1-", "U1+U2-,O2-O1+",
    "O1+U2-O3+,U1+U3+,O2-", ",U1+U2+,O2+O1+,",
    "O1+O2-,U1+U2-", "U1-U2+U3-,O1-O2+,O3-", "O1+O2-U1+U2-,,U3+,O3+",
)


def _corpus():
    """Table 1, then 80 distinct seeded codes, two knots to one link, then
    the hand-written links."""
    rng = random.Random(2026)
    codes = list(TABLE1.values())
    while len(codes) < len(TABLE1) + 80:
        n = rng.randint(0, 8)
        d = (random_knot(rng, n) if len(codes) % 3
             else random_link(rng, n, rng.randint(2, 3)))
        code = gauss.to_code(d)
        if code not in codes:
            codes.append(code)
    return codes + [code for code in HAND_WRITTEN if code not in codes]


def _large_codes():
    """Three seeded knots of 30-40 chords."""
    rng = random.Random(1)
    return [gauss.to_code(random_knot(rng, rng.randint(30, 40)))
            for _ in range(3)]


def _large_runs(codes):
    return [list(cmd) + [code] for code in codes for cmd in LARGE]


def _digest(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(argv))
    blob = json.dumps([rc, out.getvalue(), err.getvalue()])
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _scope(label, runs, old, new):
    """One line naming how many of the digests old the digests new change,
    by the subcommand of their command line."""
    moved = Counter(argv[0] for argv, a, b in zip(runs, old, new) if a != b)
    return "%s: %s" % (label, ", ".join(
        "%s: %d" % kv for kv in sorted(moved.items())) or "none changed")


def _sieve_files(codes, folder):
    """A census of the nonempty codes, named k0, k1, ... by their place in
    codes, with one line that fails to validate, and a flags file that
    marks every other row graded_genus_zero=true and names one row the
    census does not hold.  Returns the two paths."""
    census = os.path.join(folder, "corpus.census")
    flags = os.path.join(folder, "corpus.flags")
    names = ["k%d" % i for i, code in enumerate(codes) if code]
    with open(census, "w", encoding="utf-8") as fh:
        fh.write("# the digest corpus\n")
        for name, code in zip(names, filter(None, codes)):
            fh.write("%s  %s\n" % (name, code))
        fh.write("bad  O1+O1+\n")
    with open(flags, "w", encoding="utf-8") as fh:
        for i, name in enumerate(names):
            fh.write("%s  graded_genus_zero=%s\n"
                     % (name, "true" if i % 2 else "false"))
        fh.write("absent  graded_genus_zero=true\n")
    return census, flags


def _runs(codes, folder):
    """Every command on every code, then the sieve over the files of
    _sieve_files in each format."""
    census, flags = _sieve_files(codes, folder)
    return [list(cmd) + [code] for code in codes for cmd in COMMANDS] + [
        ["sieve", "--serial", "--skip-bad", "--census", census,
         "--flags", flags, "--format", fmt] for fmt in ("text", "json", "csv")]


def test_cli_bytes_match_the_recorded_digests(tmp_path):
    with open(PATH, encoding="utf-8") as fh:
        doc = json.load(fh)
    runs = _runs(doc["codes"], str(tmp_path))
    assert len(runs) == len(doc["sha256"])
    start = time.perf_counter()
    changed = [argv for argv, want in zip(runs, doc["sha256"])
               if _digest(argv) != want]
    elapsed = time.perf_counter() - start
    assert not changed, "%d of %d outputs changed, first %s" % (
        len(changed), len(runs), changed[:3])
    assert elapsed < 1.5


def test_large_knot_bytes_match_the_recorded_digests():
    with open(PATH, encoding="utf-8") as fh:
        doc = json.load(fh)
    runs = _large_runs(doc["large_codes"])
    assert len(runs) == len(doc["large_sha256"]) == 12
    changed = [argv for argv, want in zip(runs, doc["large_sha256"])
               if _digest(argv) != want]
    assert not changed, changed


def test_a_repin_counts_its_changes_by_subcommand():
    runs = [["delta", "a"], ["writhe", "a"], ["writhe", "b"], ["sieve", "x"]]
    old, new = ["1", "2", "3", "4"], ["1", "9", "9", "5"]
    assert _scope("corpus", runs, old, new) == "corpus: sieve: 1, writhe: 2"
    assert _scope("large knots", runs, old, old) == "large knots: none changed"


if __name__ == "__main__":
    old = {}
    if os.path.exists(PATH):
        with open(PATH, encoding="utf-8") as fh:
            old = json.load(fh)
    codes = _corpus()
    with tempfile.TemporaryDirectory() as folder:
        runs = _runs(codes, folder)
        doc = {"codes": codes, "sha256": [_digest(argv) for argv in runs]}
    large = _large_codes()
    large_runs = _large_runs(large)
    doc.update(large_codes=large,
               large_sha256=[_digest(argv) for argv in large_runs])
    for label, key, digests, argvs in (
            ("corpus", "codes", "sha256", runs),
            ("large knots", "large_codes", "large_sha256", large_runs)):
        if (old.get(key) == doc[key]
                and len(old.get(digests, ())) == len(doc[digests])):
            print(_scope(label, argvs, old[digests], doc[digests]))
        else:
            print("%s: the code or command list changed; every digest is "
                  "recorded anew" % label)
    with open(PATH, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
