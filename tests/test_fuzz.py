"""Seeded fuzz of the command line: mutated braid text, mutated and
non-planar diagram JSON, and extreme numeric flags, each run through
`cli.main` under a small node budget.  Every run exits 0, 1, 2 or 3; a
nonzero exit prints exactly one `error:` line and no traceback; a rerun
prints the same stdout.  No case passes a flag that starts processes or
threads, and none asks for more than a few lines of output."""

import contextlib
import io
import json

import pytest

from homflypt import SplitMix64, random_braid
from homflypt import catalog as cat
from homflypt import cli

BUDGETS = ("40", "2000")
TARGETS = ["homfly", "prop31", "thm13", "thm14", "thm15", "skeinF", "splitF", "all"]
SMALL_LEMMAS = ["--m-max", "2", "--n-max", "2"]
BRAID_CHARS = "0123456789 -+;=sx\t"
JSON_CHARS = '0123456789-[]{}",:ou tx'


def run(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            code = cli.main(argv, out=out)
    except Exception as exc:  # any escape is a defect the fuzz found
        pytest.fail(f"{argv!r} raised {exc!r}")
    return code, out.getvalue(), err.getvalue()


def check(argv) -> int:
    code, out, err = run(argv)
    assert code in (0, 1, 2, 3), argv
    if code:
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    else:
        assert err == "", (argv, err)
    assert "Traceback" not in err, argv
    assert run(argv)[:2] == (code, out), argv
    return code


def argv_for(rng: SplitMix64, link: list[str]) -> list[str]:
    target = TARGETS[rng.below(len(TARGETS))]
    budget = ["--max-nodes", BUDGETS[rng.below(len(BUDGETS))]]
    fmt = ["--format", "json"] if rng.below(2) else []
    if target == "homfly":
        return ["homfly", *link, *budget, *fmt]
    return ["verify", target, *link, *budget, *SMALL_LEMMAS, *fmt]


def mutate(rng: SplitMix64, text: str, alphabet: str, times: int) -> str:
    """Delete, insert, duplicate or swap characters `times` times."""
    chars = list(text)
    for _ in range(times):
        k = rng.below(len(chars) + 1)
        op = rng.below(4) if chars else 1
        if op == 0:
            del chars[min(k, len(chars) - 1)]
        elif op == 1:
            chars.insert(k, alphabet[rng.below(len(alphabet))])
        elif op == 2:
            chars[k:k] = chars[k : k + 1 + rng.below(4)]
        else:
            j = rng.below(len(chars))
            k = min(k, len(chars) - 1)
            chars[j], chars[k] = chars[k], chars[j]
    return "".join(chars)


def test_mutated_braid_text():
    rng = SplitMix64(81)
    codes = set()
    for _ in range(400):
        n = 2 + rng.below(4)
        text = random_braid(rng, n, rng.below(9)).as_text()
        if rng.below(4):
            text = mutate(rng, text, BRAID_CHARS, 1 + rng.below(3))
        codes.add(check(argv_for(rng, ["--braid", text])))
    assert codes == {0, 1, 2}


def mutate_diagram(rng: SplitMix64, obj: dict) -> dict:
    """One structural change of a diagram JSON object."""
    obj = json.loads(json.dumps(obj))
    comps, crossings = obj["components"], obj["crossings"]
    op = rng.below(8)
    if op == 0 and crossings:
        rec = crossings[rng.below(len(crossings))]
        rec["sign"] = -rec["sign"]  # a flipped sign: often not planar
    elif op == 1 and crossings:
        rec = crossings[rng.below(len(crossings))]
        rec["over"], rec["under"] = rec["under"], rec["over"]
    elif op == 2 and comps and comps[0]:
        del comps[0][rng.below(len(comps[0]))]
    elif op == 3 and crossings:
        rec = crossings[rng.below(len(crossings))]
        key = ("id", "sign", "over", "under")[rng.below(4)]
        rec[key] = [True, 1.0, "1", None, [], 10**30, -1][rng.below(7)]
    elif op == 4:
        del obj[("components", "crossings")[rng.below(2)]]
    elif op == 5 and comps and comps[0]:
        k = rng.below(len(comps[0]))
        comps[0] = comps[0][k:] + comps[0][:k]  # refs now point elsewhere
    elif op == 6 and crossings:
        crossings.append(dict(crossings[rng.below(len(crossings))]))
    else:
        comps.append([])  # a crossingless circle
    return obj


def test_mutated_and_non_planar_json(tmp_path):
    rng = SplitMix64(82)
    bases = [cat.diagram(name).to_json_dict() for name in cat.names()]
    genus_one = {
        "components": [[[0, "o"], [1, "u"], [0, "u"], [1, "o"]]],
        "crossings": [
            {"id": 0, "sign": 1, "over": [0, 0], "under": [0, 2]},
            {"id": 1, "sign": 1, "over": [0, 3], "under": [0, 1]},
        ],
    }
    codes = set()
    for case in range(240):
        base = genus_one if case % 10 == 0 else bases[rng.below(len(bases))]
        if rng.below(3):
            text = json.dumps(mutate_diagram(rng, base))
        else:
            text = mutate(rng, json.dumps(base), JSON_CHARS, 1 + rng.below(3))
        path = tmp_path / f"case{case}.json"
        path.write_text(text)
        codes.add(check(argv_for(rng, ["--file", str(path)])))
    assert codes == {0, 1, 2}


EXTREME = ["0", "-1", "1", "2", str(2**63), str(10**30), "1e3", "-0", "0x10", "", "nan"]
SMALL = ("0", "-1", "1", "2", "-0", "1e3", "0x10", "", "nan")


def test_extreme_numeric_flags():
    codes = set()
    for value in EXTREME:
        for link in (["--catalog", "borromean"], ["--braid", "strands=3; 1 1 2 2"]):
            codes.add(check(["homfly", *link, "--max-nodes", value]))
            codes.add(check(["verify", "thm13", *link, "--max-nodes", value]))
        for flag in ("--m-max", "--n-max"):
            codes.add(check(["verify", "lemmas", *SMALL_LEMMAS, flag, value]))
        codes.add(check(["random", "--strands", value, "--length", "3"]))
        codes.add(check(["random", "--seed", value]))
        if value in SMALL:  # a large length or count is a large output
            codes.add(check(["random", "--length", value, "--count", "2"]))
            codes.add(check(["random", "--count", value]))
    for strands in ("1", "10000", str(10**5)):
        codes.add(check(["homfly", "--braid", f"strands={strands};", "--max-nodes", "50"]))
    assert codes == {0, 1, 2}
