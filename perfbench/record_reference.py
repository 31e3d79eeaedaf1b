"""Record the reference output digests of the default seed.

Run offline, from the repository root, once per workload (the homfly
workloads take a few minutes each; they can run side by side):

    python3 perfbench/record_reference.py homfly_braid

Every operation of the first `REFERENCE_BLOCKS` blocks of
`checks.REFERENCE_SEED` goes through the CLI.  Its output must pass the
oracle-free checks, and the framed invariant of the link (for `verify`, of
every sublink) must equal the one from the cache-free brute-force resolver
`framed_homfly_bruteforce`.  The brute force takes seconds for 2-strand
words of 11-12 letters and is out of reach for T(2,18).  A 2-strand closure
is the torus link T(2,n) with n the exponent sum, so for those the HOMFLY-PT
polynomial is compared with the independent recurrence
t*P(n) - t^-1*P(n-2) = z*P(n-1), P(0) = (t - t^-1)/z, P(1) = 1 instead.
Only then is the digest of the output bytes stored, in
`checks.reference_file(workload)`; any disagreement aborts the recording.
"""

from __future__ import annotations

import itertools
import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

from homflypt.cli import main  # noqa: E402
from homflypt.laurent import BivarLaurent, T, Z  # noqa: E402
from homflypt.links import close_braid, parse_braid  # noqa: E402
from homflypt.skein import SkeinEngine, framed_homfly_bruteforce  # noqa: E402

import checks  # noqa: E402
from corpus import WORKLOADS, Corpus  # noqa: E402
from run import call  # noqa: E402

REFERENCE_BLOCKS = {"homfly_braid": 40, "homfly_gauss": 40, "verify_targets": 6}


def torus_homfly(n: int) -> BivarLaurent:
    """HOMFLY-PT of T(2,n), any integer n, by its skein recurrence in n."""
    p = {0: (T - T**-1) * Z**-1, 1: BivarLaurent.one()}
    for k in range(2, n + 1):
        p[k] = (Z * p[k - 1]).shift(0, -1) + p[k - 2].shift(0, -2)
    for k in range(-1, n - 1, -1):
        p[k] = p[k + 2].shift(0, 2) - (Z * p[k + 1]).shift(0, 1)
    return p[n]


def cross_check(op, out: str, checked: set[str]) -> None:
    """Compare with an independent oracle; raise on disagreement."""
    diagram = close_braid(parse_braid(op.braid))
    if op.strands == 2:
        if json.loads(out)["homfly"] != torus_homfly(op.writhe).to_quadruples():
            raise SystemExit(f"{op.op_id}: T(2,{op.writhe}) disagrees with the recurrence")
        return
    if op.target is None:
        framed = json.loads(out)["framed"]
        if framed != framed_homfly_bruteforce(diagram).to_quadruples():
            raise SystemExit(f"{op.op_id}: framed invariant disagrees with brute force")
        return
    if op.braid in checked:
        return
    checked.add(op.braid)
    engine = SkeinEngine()
    n = diagram.num_components
    for size in range(1, n + 1):
        for subset in itertools.combinations(range(n), size):
            sub = diagram.sublink(subset)
            if engine.framed_invariant(sub) != framed_homfly_bruteforce(sub):
                raise SystemExit(f"{op.op_id}: sublink {subset} disagrees with brute force")


def main_record(workload: str) -> int:
    os.chdir(ROOT)
    corpus = Corpus(workload, checks.REFERENCE_SEED, ROOT)
    checker = checks.Checker(workload, seed=-1)
    digests = {}
    checked: set[str] = set()
    for b in range(REFERENCE_BLOCKS[workload]):
        for op in corpus.block(b):
            code, out, _, crash = call(main, op)
            error = crash or checker.check(op, code, out)
            if error is not None:
                raise SystemExit(f"{op.op_id}: {error}")
            cross_check(op, out, checked)
            digests[op.op_id] = checks.digest(out)
        print(f"{workload}: block {b + 1}/{REFERENCE_BLOCKS[workload]}", file=sys.stderr, flush=True)
    with open(checks.reference_file(workload), "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=0, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2 or sys.argv[1] not in WORKLOADS:
        sys.exit(f"usage: {sys.argv[0]} {{{','.join(WORKLOADS)}}}")
    sys.exit(main_record(sys.argv[1]))
