"""Output checks for the vkalex benchmark.

Every call's stdout is checked against what was recorded from the program
by record.py (golden.json), and against two facts that need no recording:
table-1 Δ0 equals the published product forms, and every knot's Δ0 is
divisible by (1 - st).  The polynomial code here is deliberately separate
from vkalex.laurent, so that a bug there cannot hide itself.
"""

import hashlib
import json

import gen


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def row_digest(row):
    """Digest of the fields the sieve computes for one census row."""
    return digest(json.dumps([row["crossings"], row["delta0"],
                              row["delta0_zero"], row["writhe"],
                              row["obstructed"]]))


def parse_poly(text):
    """Printed polynomial ('1 - 2*s^2*t + t^-1') -> {(e_s, e_t): coeff}."""
    if text == "0":
        return {}
    out = {}
    for term in text.replace(" - ", " + -").split(" + "):
        coeff, exps = 1, [0, 0]
        if term.startswith("-"):
            coeff, term = -1, term[1:]
        for factor in term.split("*"):
            var, _, power = factor.partition("^")
            if var in ("s", "t"):
                exps[var == "t"] += int(power or 1)
            else:
                coeff *= int(factor)
        key = tuple(exps)
        if key in out:
            raise ValueError("repeated term in %r" % text)
        out[key] = coeff
    return out


def canonical(p):
    """Representative up to +-s^a t^b: both minimum exponents 0, first term
    in printed order (ascending t, then s) positive."""
    if not p:
        return {}
    ms = min(es for es, _ in p)
    mt = min(et for _, et in p)
    out = {(es - ms, et - mt): c for (es, et), c in p.items()}
    first = min(out, key=lambda k: (k[1], k[0]))
    return out if out[first] > 0 else {k: -c for k, c in out.items()}


def product(factors):
    acc = {(0, 0): 1}
    for poly, power in factors:
        for _ in range(power):
            nxt = {}
            for (a, b), c in acc.items():
                for (d, e), f in poly.items():
                    nxt[(a + d, b + e)] = nxt.get((a + d, b + e), 0) + c * f
            acc = {k: c for k, c in nxt.items() if c}
    return acc


def divisible_by_1_minus_st(p):
    """(1 - st) divides p iff p vanishes at t = 1/s, i.e. the coefficients
    on each line e_s - e_t = const sum to zero."""
    sums = {}
    for (es, et), c in p.items():
        sums[es - et] = sums.get(es - et, 0) + c
    return not any(sums.values())


TABLE1_CANONICAL = {name: canonical(product(f)) if f else {}
                    for name, f in gen.TABLE1_PRODUCTS.items()}
TABLE1_NAME = {code: name for name, code in gen.TABLE1.items()}


def row_invariants(name, code, row):
    """Facts about a sieve row that hold without a recording, or None."""
    poly = parse_poly(row["delta0"])
    if poly != canonical(poly) or row["delta0_zero"] != (not poly):
        return "row %s delta0 is not in canonical form" % name
    if code in TABLE1_NAME and poly != TABLE1_CANONICAL[TABLE1_NAME[code]]:
        return "table-1 knot %s differs from the published form" % name
    if "," not in code and not divisible_by_1_minus_st(poly):
        return "row %s delta0 not divisible by (1 - st)" % name
    return None


class Checker:
    """Checks call outputs against the recorded digests of golden.json."""

    def __init__(self, golden):
        self.digests = golden["digests"]
        self.sieve_rows = golden["sieve_rows"]

    def check(self, call, rc, out, err):
        """Return None if the call's output is correct, else the reason."""
        if rc != 0 or err:
            return "exit %r, stderr %r" % (rc, err[:200])
        kind, spec = call.check
        try:
            if kind == "digest":
                return self._check_digest(spec, out)
            return self._check_sieve(spec, out)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return "unreadable output: %s: %s" % (type(exc).__name__, exc)

    def _check_digest(self, key, out):
        if key not in self.digests:
            return "no recorded output for %r" % key
        if digest(out) != self.digests[key]:
            return "output differs from the recorded one for %r" % key
        if key.startswith("delta "):
            if not divisible_by_1_minus_st(parse_poly(out.split("\n")[0])):
                return "delta0 not divisible by (1 - st) for %r" % key
        return None

    def _check_sieve(self, spec, out):
        doc = json.loads(out)
        if json.dumps(doc, indent=2) + "\n" != out:
            return "sieve output is not the program's JSON layout"
        rows = doc["rows"]
        if [r["name"] for r in rows] != [n for n, _ in spec["rows"]]:
            return "sieve rows differ from the census (%d rows, %d expected)" \
                % (len(rows), len(spec["rows"]))
        flags = spec["flags"]
        survivors = 0
        for row, (name, code) in zip(rows, spec["rows"]):
            kv = flags.get(name, {})
            keys = ["name", "crossings", "delta0", "delta0_zero", "writhe",
                    "obstructed"] + list(kv) + ["survives"]
            if list(row) != keys:
                return "row %s has keys %s" % (name, list(row))
            if row_digest(row) != self.sieve_rows.get(code):
                return "row %s differs from the recorded one" % name
            if any(row[k] != v for k, v in kv.items()):
                return "row %s lost its flags" % name
            survives = bool(kv.get("graded_genus_zero")) and row["delta0_zero"]
            if row["survives"] != survives:
                return "row %s has survives=%s" % (name, row["survives"])
            survivors += survives
            reason = row_invariants(name, code, row)
            if reason:
                return reason
        summary = {
            "total": len(rows),
            "delta0_zero_count": sum(r["delta0_zero"] for r in rows),
            "obstructed_count": sum(r["obstructed"] for r in rows),
            "skipped_lines": spec["skipped"],
            "survivor_count": survivors,
            "warnings": ["no census record named %r" % n
                         for n in flags if n not in dict(spec["rows"])],
        }
        if doc["summary"] != summary or list(doc["summary"]) != list(summary):
            return "sieve summary %s, expected %s" % (doc["summary"], summary)
        return None
