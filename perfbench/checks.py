"""Output checks for benchmark operations.

Every seed gets oracle-free checks:

* `homfly`: the component count and writhe match the braid, the
  HOMFLY-PT polynomial satisfies P(t, z = t - 1/t) = 1 (which holds for
  every link under the repo's normalization t*P(L+) - t^-1*P(L-) = z*P(L0),
  P(unknot) = 1), and every h[g] equals p[g] * t^writhe * (t - 1/t).  Both
  identities are evaluated exactly at t = 2 and t = 3.
* `verify`: every report passes with lhs == rhs and an empty residual, and
  the report count is the one the CLI promises for the target.

For `REFERENCE_SEED`, the output bytes must also match the digests in
`reference-<workload>.json`, recorded once by `record_reference.py` after
cross-checking every result against an independent oracle.
"""

from __future__ import annotations

import hashlib
import json
import os
from fractions import Fraction

from corpus import Op

REFERENCE_SEED = 0
_POINTS = (Fraction(2), Fraction(3))


def reference_file(workload: str) -> str:
    return os.path.join(os.path.dirname(os.path.abspath(__file__)), f"reference-{workload}.json")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _bivar(quadruples, z0: Fraction, t0: Fraction) -> Fraction:
    return sum((Fraction(n, d) * z0**ez * t0**et for ez, et, n, d in quadruples), Fraction(0))


def _univar(triples, t0: Fraction) -> Fraction:
    return sum((Fraction(n, d) * t0**et for et, n, d in triples), Fraction(0))


def check_homfly(op: Op, obj: dict) -> str | None:
    if obj["components"] != op.components:
        return f"components {obj['components']} != {op.components}"
    if obj["writhe"] != op.writhe:
        return f"writhe {obj['writhe']} != {op.writhe}"
    if sorted(obj["h"]) != sorted(obj["p"]):
        return "h and p tables have different genus ranges"
    for t0 in _POINTS:
        if _bivar(obj["homfly"], t0 - 1 / t0, t0) != 1:
            return f"P(t, t - 1/t) != 1 at t = {t0}"
        for g in obj["h"]:
            p_side = _univar(obj["p"][g], t0) * t0 ** op.writhe * (t0 - 1 / t0)
            if _univar(obj["h"][g], t0) != p_side:
                return f"h[{g}] != p[{g}] * t^w * (t - 1/t) at t = {t0}"
    return None


def check_verify(op: Op, obj: dict) -> str | None:
    expected = {"thm13": op.components - 1, "skeinF": op.inter_crossings}.get(op.target, 1)
    reports = obj["reports"]
    if obj["skipped"]:
        return f"skipped: {obj['skipped']}"
    if len(reports) != expected:
        return f"{len(reports)} reports, expected {expected}"
    for r in reports:
        if r["identity"] != op.target:
            return f"report for {r['identity']}, expected {op.target}"
        if r["pass"] is not True or r["residual"] or r["lhs"] != r["rhs"]:
            return f"{op.target} failed: {r['context']}"
    if obj["passed"] is not True:
        return "passed is not true"
    return None


class Checker:
    """Checks one workload's outputs; holds the reference digests, if any."""

    def __init__(self, workload: str, seed: int):
        self.reference: dict[str, str] = {}
        path = reference_file(workload)
        if seed == REFERENCE_SEED and os.path.exists(path):
            with open(path, "r", encoding="utf-8") as handle:
                self.reference = json.load(handle)

    def check(self, op: Op, code: int, text: str) -> str | None:
        """None when the output is correct, else the reason it is not."""
        if code != 0:
            return f"exit code {code}"
        expected = self.reference.get(op.op_id)
        if expected is not None and digest(text) != expected:
            return "output differs from the recorded reference"
        try:
            obj = json.loads(text)
            return check_verify(op, obj) if op.target else check_homfly(op, obj)
        except (ValueError, KeyError, TypeError) as exc:
            return f"malformed output: {type(exc).__name__}: {exc}"
