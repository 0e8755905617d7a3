"""Batch slice-obstruction sieve over census files.

A census file holds one diagram per line, `name  gausscode`, with blank
lines and # comments skipped.  Each record gets the determinant polynomial
computed; a nonzero value obstructs sliceness.  An external flags file
(`name key=value ...`) can then be merged in, and a record survives the
sieve when its graded genus flag is zero and its polynomial vanishes.

Only a parallel sieve imports `concurrent.futures`: the package imports
this module in every `vkalex` process, and the pool's imports would be a
large share of the start-up of a one-knot command.  The factory that
defers them keeps the executor class's name, `ProcessPoolExecutor`, so
that callers which replace the pool by that module attribute, as the
benchmark's tracer and the tests do, still find it.
"""

import csv
import io
import json
import os

from . import alexander, gauss, laurent


# Row fields the sieve computes; a flags file may not set them.
_COMPUTED_FIELDS = ("name", "crossings", "delta0", "delta0_zero", "writhe",
                   "obstructed", "survives", "error")


class CensusParseError(Exception):
    def __init__(self, message, line_no):
        super().__init__("line %d: %s" % (line_no, message))


_NOT_UTF8 = "line is not valid UTF-8"


def _lines(path):
    """(line number, stripped text) of each line that is neither blank nor
    a # comment, split as text mode splits lines.  Each line is decoded as
    UTF-8 on its own; text is None where that fails."""
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh.read().splitlines(), start=1):
            try:
                text = raw.decode("utf-8").strip()
            except UnicodeDecodeError:
                yield line_no, None
                continue
            if text and not text.startswith("#"):
                yield line_no, text


def load_census(path, skip_bad=False):
    """Read census records, (name, code) pairs.  Returns (records,
    skipped_count); a malformed line (one that is not UTF-8 included), or
    one repeating an earlier name, raises CensusParseError unless skip_bad
    is set, in which case it is only counted."""
    records = []
    names = set()
    skipped = 0
    for line_no, text in _lines(path):
        parts = text.split(None, 1) if text is not None else ()
        error = None
        if text is None:
            error = _NOT_UTF8
        elif len(parts) != 2:
            error = "expected 'name gausscode'"
        elif parts[0] in names:
            error = "duplicate name %r" % parts[0]
        else:
            try:
                gauss.parse_gauss_code(parts[1])
            except (gauss.GaussSyntaxError,
                    gauss.GaussValidationError) as exc:
                error = str(exc)
        if error:
            if skip_bad:
                skipped += 1
                continue
            raise CensusParseError(error, line_no)
        names.add(parts[0])
        records.append((parts[0], parts[1]))
    return records, skipped


_ROW_ERRORS = (gauss.GaussSyntaxError, gauss.GaussValidationError)


def _sieve_one(item):
    """Worker: compute one row from (name, code).  Must stay module-level
    and take plain data so process pools can pickle it.  Only a code that
    fails to parse or validate becomes an error row, and only for a library
    caller of run_sieve: the CLI's census comes through load_census, which
    has already rejected or skipped such lines.  Anything else is a bug and
    propagates."""
    name, code = item
    try:
        d = gauss.to_diagram(gauss.parse_gauss_code(code))
        g = alexander.delta0(d)
        zero = g.is_zero()
        return {
            "name": name,
            "crossings": d.crossings,
            "delta0": str(laurent.canonicalize(g, laurent.MONOMIAL_SIGN)),
            "delta0_zero": zero,
            "writhe": (str(alexander.writhe_polynomial(d))
                       if len(d.components) == 1 else ""),
            "obstructed": not zero,
        }
    except _ROW_ERRORS as exc:
        return {"name": name, "error": "%s: %s" % (type(exc).__name__, exc)}


class SieveReport:
    def __init__(self, rows, summary):
        self.rows = rows
        self.summary = summary

    def to_json(self):
        return json.dumps({"rows": self.rows, "summary": self.summary},
                          indent=2)

    def to_csv(self):
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["name", "crossings", "delta0", "delta0_zero", "writhe",
                    "obstructed"])
        for row in self.rows:
            if "error" in row:
                w.writerow([row["name"], "", "error: " + row["error"], "", "",
                            ""])
                continue
            w.writerow([row["name"], row["crossings"], row["delta0"],
                        str(row["delta0_zero"]).lower(), row["writhe"],
                        str(row["obstructed"]).lower()])
        return buf.getvalue()

    def to_text(self):
        lines = []
        for row in self.rows:
            if "error" in row:
                lines.append("%-12s error: %s" % (row["name"], row["error"]))
                continue
            verdict = "obstructed" if row["obstructed"] else "no obstruction"
            extra = ""
            if "survives" in row:
                extra = "  survives=%s" % str(row["survives"]).lower()
            lines.append("%-12s n=%-3d %-14s delta0 = %s%s"
                         % (row["name"], row["crossings"], verdict,
                            row["delta0"], extra))
        lines.append("")
        parts = ["total=%d" % self.summary["total"],
                 "delta0_zero=%d" % self.summary["delta0_zero_count"],
                 "obstructed=%d" % self.summary["obstructed_count"]]
        if "errors" in self.summary:
            parts.append("errors=%d" % self.summary["errors"])
        if self.summary.get("skipped_lines"):
            parts.append("skipped=%d" % self.summary["skipped_lines"])
        if "survivor_count" in self.summary:
            parts.append("survivors=%d" % self.summary["survivor_count"])
        lines.append("  ".join(parts))
        for w in self.summary.get("warnings", []):
            lines.append("warning: %s" % w)
        return "\n".join(lines) + "\n"


# Most rows a pool worker takes at once.  A chunk's round trip costs about
# as much as one small row, so 50 rows keep it near 2 % of the chunk, and
# one slow row holds back at most 49 others.
_CHUNK_MAX = 50


def _usable_cpus():
    """The CPUs this process may run on, where the platform says."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def ProcessPoolExecutor(workers):
    """A process pool of `workers` workers, importing its module on first
    use (see the module docstring)."""
    from concurrent.futures import ProcessPoolExecutor as pool
    return pool(workers)


def run_sieve(records, parallel=True):
    """Compute rows for all (name, code) records, in input order, in a pool
    of one worker per usable CPU, and no more workers than records.
    parallel=False, or a single usable CPU, keeps everything in-process;
    the outputs are identical either way."""
    workers = min(_usable_cpus(), len(records)) if parallel else 1
    if workers > 1:
        # about four chunks per worker, at most _CHUNK_MAX rows each
        chunk = min(-(-len(records) // (4 * workers)), _CHUNK_MAX)
        with ProcessPoolExecutor(workers) as pool:
            rows = list(pool.map(_sieve_one, records, chunksize=chunk))
    else:
        rows = [_sieve_one(r) for r in records]
    errors = sum(1 for r in rows if "error" in r)
    summary = {
        "total": len(rows),
        "delta0_zero_count": sum(1 for r in rows if r.get("delta0_zero")),
        "obstructed_count": sum(1 for r in rows if r.get("obstructed")),
    }
    if errors:
        summary["errors"] = errors
    return SieveReport(rows, summary)


def load_flags(path):
    """Flags file: `name key=value [key=value ...]` per line, same comment
    and encoding rules as the census.  A key naming a computed row field is
    an error, and so is a graded_genus_zero other than true or false."""
    flags = {}
    for line_no, text in _lines(path):
        if text is None:
            raise CensusParseError(_NOT_UTF8, line_no)
        parts = text.split()
        if len(parts) < 2 or any("=" not in p for p in parts[1:]):
            raise CensusParseError("expected 'name key=value ...'", line_no)
        kv = {}
        for p in parts[1:]:
            k, _, v = p.partition("=")
            if k in _COMPUTED_FIELDS:
                raise CensusParseError(
                    "flag %r would overwrite a computed field" % k, line_no)
            if k == "graded_genus_zero" and v not in ("true", "false"):
                raise CensusParseError(
                    "graded_genus_zero must be true or false, not %r" % v,
                    line_no)
            kv[k] = {"true": True, "false": False}.get(v, v)
        flags.setdefault(parts[0], {}).update(kv)
    return flags


def merge_external_flags(report, flags):
    """Attach external flags, as load_flags returns them, to the report rows
    and mark survivors: a record survives when graded_genus_zero is true and
    its polynomial vanished.  Flag names that match no row become
    warnings."""
    known = set()
    survivors = 0
    for row in report.rows:
        known.add(row["name"])
        if "error" in row:
            continue
        kv = flags.get(row["name"], {})
        row.update(kv)
        row["survives"] = kv.get("graded_genus_zero", False) \
            and row["delta0_zero"]
        if row["survives"]:
            survivors += 1
    warnings = ["no census record named %r" % n
                for n in flags if n not in known]
    report.summary["survivor_count"] = survivors
    if warnings:
        report.summary["warnings"] = warnings
    return report
