"""Tests of the benchmark itself: corpus, checker, replay and output format.

Run from the repository root with `python3 -m pytest perfbench -q`.
"""

from __future__ import annotations

import io
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]

import pytest  # noqa: E402

from homflypt.cli import main  # noqa: E402
from homflypt.links import close_braid, parse_braid  # noqa: E402

import checks  # noqa: E402
import corpus  # noqa: E402
import replay  # noqa: E402
import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    BENCHMARK = json.load(_handle)


def _ops(workload: str, seed: int, blocks: int, root) -> list[corpus.Op]:
    c = corpus.Corpus(workload, seed, str(root))
    return [op for b in range(blocks) for op in c.block(b)]


def _gauss_files(ops, root) -> list[str]:
    out = []
    for op in ops:
        with open(os.path.join(root, op.path), encoding="utf-8") as handle:
            out.append(handle.read())
    return out


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_corpus_is_a_function_of_the_seed(workload, tmp_path):
    first = _ops(workload, 7, 3, tmp_path)
    first_files = _gauss_files(first, tmp_path) if workload == "homfly_gauss" else []
    again = _ops(workload, 7, 3, tmp_path)
    assert first == again
    if first_files:
        assert _gauss_files(again, tmp_path) == first_files
    assert [op.braid for op in _ops(workload, 8, 3, tmp_path)] != [op.braid for op in first]


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_corpus_facts_and_guards(workload, tmp_path):
    for op in _ops(workload, 3, 4, tmp_path):
        diagram = close_braid(parse_braid(op.braid))
        inter = sum(1 for c in diagram.crossing_ids() if not diagram.is_self_crossing(c))
        assert (op.components, op.inter_crossings, op.writhe) == (
            diagram.num_components,
            inter,
            diagram.writhe(),
        )
        assert op.crossings <= corpus.MAX_LETTERS
        if workload == "verify_targets":
            # `verify` without a link flag would read stdin and can block.
            assert "--braid" in op.argv
            assert 3 <= op.components <= 7 and op.crossings <= 12
            assert op.inter_crossings > 0


def _output(op) -> str:
    buf = io.StringIO()
    assert main(list(op.argv), out=buf) == 0
    return buf.getvalue()


def _first_ops(tmp_path):
    braid = _ops("homfly_braid", 2, 1, tmp_path)[0]
    verify = [op for op in _ops("verify_targets", 2, 1, tmp_path) if op.components == 3][:6]
    return braid, verify


def test_checker_accepts_correct_and_flags_corrupted_outputs(tmp_path):
    checker = checks.Checker("homfly_braid", seed=-1)
    braid, verify = _first_ops(tmp_path)
    text = _output(braid)
    assert checker.check(braid, 0, text) is None
    assert checker.check(braid, 1, text) == "exit code 1"

    obj = json.loads(text)
    obj["homfly"][0][2] += 1
    assert "P(t, t - 1/t)" in checker.check(braid, 0, json.dumps(obj))
    obj = json.loads(text)
    obj["components"] += 1
    assert checker.check(braid, 0, json.dumps(obj)).startswith("components")
    obj = json.loads(text)
    g = sorted(obj["h"])[0]
    obj["h"][g][0][1] += 1
    assert checker.check(braid, 0, json.dumps(obj)).startswith(f"h[{g}]")
    assert checker.check(braid, 0, text[:-20]).startswith("malformed output")

    checker.reference = {braid.op_id: checks.digest(text)}
    assert checker.check(braid, 0, text) is None
    assert "reference" in checker.check(braid, 0, text.replace("\n", "\n "))

    for op in verify:
        text = _output(op)
        assert checker.check(op, 0, text) is None
        obj = json.loads(text)
        obj["reports"][0]["pass"] = False
        assert checker.check(op, 0, json.dumps(obj)) is not None
        obj = json.loads(text)
        obj["reports"].pop()
        assert "reports, expected" in checker.check(op, 0, json.dumps(obj))


def test_traced_replay_reproduces_the_cli_bytes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    gauss = _ops("homfly_gauss", 2, 1, ".")[:3]
    braid, verify = _first_ops(tmp_path)
    tracer = replay.Tracer()
    for op in [braid, *gauss]:
        out, nodes, pairs = replay.replay_homfly(tracer, op)
        assert out == _output(op) and nodes > 0 and pairs
    for op in verify:
        out, nodes, pairs = replay.replay_verify(tracer, op)
        assert out == _output(op) and nodes > 0 and len(pairs) == 3
    metrics = replay.layer_metrics(tracer, 1, (1, 1e-6, 2), 1.1, 1.0)
    assert list(metrics) == [m["name"] for m in BENCHMARK["per_layer"]]
    assert {m["unit"] for m in metrics.values()} == {m["unit"] for m in BENCHMARK["per_layer"]}
    self_s = tracer.self_times()
    for name in ("cli.args", "links.parse", "links.load_json", "skein.framed", "skein.sublinks"):
        assert self_s[name] > 0
    assert set(self_s) >= {f"identities.{t}" for t in corpus.TARGETS}


def test_benchmark_json_names_every_workload_and_metric():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(corpus.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]


def test_timed_run_prints_every_end_to_end_metric():
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", "homfly_braid",
         "--seed", "4", "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, check=True, timeout=120,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 14
    assert result["metrics"] == {
        name: {"value": result["metrics"][name]["value"], "unit": unit}
        for name, unit in run.END_TO_END.items()
    }
    assert "failed_frac" in proc.stderr


def test_run_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "homfly_braid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0 and proc.stdout == ""
