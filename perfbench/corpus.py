"""Seeded corpora of `homflypt` CLI operations, one list of operations per block.

A workload's corpus is an endless stream of blocks drawn from one
SplitMix64 stream.  Every block has the same composition (the same
strand/crossing cells plus one torus link, or the same component counts),
so a run that stops at a block boundary measures the same mix of inputs
whatever its length.
Set-up generates `SETUP_BLOCKS[workload]` blocks; a run that gets further
generates the next blocks on demand, outside the timed calls, so no input
is ever repeated within a run.

Braid words stay far below the ~120 letters at which the recursive skein
resolver overflows the Python stack: the longest word has MAX_LETTERS
letters, and `Corpus` refuses to emit a longer one.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

from homflypt.links import BraidWord, LinkDiagram, close_braid
from homflypt.rng import SplitMix64, random_braid

WORKLOADS = ("homfly_braid", "homfly_gauss", "verify_targets")
TARGETS = ("prop31", "thm13", "thm14", "thm15", "skeinF", "splitF")

# One homfly block: a random closure per (strands, crossings) cell, with the
# 2-strand cells four times.  On 3 and 4 strands, 11-12 crossings cost
# 0.17-0.45 s each with a per-link spread (sd/mean) of 0.6-0.9, so a handful
# of them swings a run's total by +-10% between seeds; they are left out.
# The torus link and the 10-crossing 3-4 strand links lie above the p90; the
# four copies of the low-spread 2-strand words make the p90 fall among the
# 2-strand 11-12 crossing words, not in the sparse tail above them.
HOMFLY_CELLS = tuple((2, k) for k in range(7, 13)) * 4 + tuple(
    (n, k) for n in (3, 4) for k in (7, 8, 9, 10)
)
# T(2,n), one per block, n cycling through TORUS: a deterministic heavy tail
# (0.02-0.55 s each, about a quarter of a block's time).  Big and small n
# alternate, so a run that ends part-way through a cycle is not skewed.
TORUS = (18, 12, 17, 13, 16, 14, 15)
# One verify block: random closures with these component counts and at most
# VERIFY_MAX_CROSSINGS crossings, plus Hopf chains (strands=L; +-1 +-1 +-2
# +-2 ...) with random clasp signs.  Random closures with 12 crossings spend
# most of their time in the skein engine, with a per-link spread up to 1.3;
# at 10 crossings identity assembly dominates, as this workload intends.
# The 7-component chain costs ~3 s, mostly thm13 and skeinF; three copies of
# the smaller links per block keep it from dominating the p90.
VERIFY_COMPONENTS = (3, 4, 5, 5, 6, 6) * 3
HOPF_CHAINS = (5, 6) * 3 + (7,)
VERIFY_MAX_CROSSINGS = 10
MAX_LETTERS = 40

# Blocks made in set-up.  homfly_gauss makes one only: rewriting diagram
# files is the noisiest part of set-up on the ext4 disk where the benchmark
# was written (1320 files took 0.3-0.8 s from one repeat to the next).
SETUP_BLOCKS = {"homfly_braid": 40, "homfly_gauss": 1, "verify_targets": 6}
# Blocks replayed by a traced run; a fixed prefix, so counts repeat exactly.
TRACE_BLOCKS = {"homfly_braid": 24, "homfly_gauss": 24, "verify_targets": 1}

WORK_DIR = ".perfbench_run"


@dataclass(frozen=True)
class Op:
    """One CLI invocation on one link, with the facts the checker needs."""

    op_id: str
    argv: tuple[str, ...]
    braid: str
    strands: int
    crossings: int
    components: int
    writhe: int
    inter_crossings: int
    target: str | None = None
    path: str | None = None


def braid_facts(strands: int, letters: tuple[int, ...]) -> tuple[int, int]:
    """(components, inter-component crossings) of a braid closure.

    Computed from the strand permutation alone, independently of the
    program's `close_braid`.
    """
    pos = list(range(strands))
    pairs = []
    for x in letters:
        k = abs(x) - 1
        pairs.append((pos[k], pos[k + 1]))
        pos[k], pos[k + 1] = pos[k + 1], pos[k]
    succ = {line: k for k, line in enumerate(pos)}
    comp: dict[int, int] = {}
    for start in range(strands):
        line = start
        while line not in comp:
            comp[line] = start
            line = succ[line]
    components = len(set(comp.values()))
    inter = sum(1 for a, b in pairs if comp[a] != comp[b])
    return components, inter


def _sign(rng: SplitMix64) -> int:
    return 1 if rng.below(2) == 0 else -1


def _shuffled(rng: SplitMix64, items: list) -> list:
    items = list(items)
    for i in range(len(items) - 1, 0, -1):
        j = rng.below(i + 1)
        items[i], items[j] = items[j], items[i]
    return items


def random_link_word(rng: SplitMix64, components: int) -> tuple[int, tuple[int, ...]]:
    """A braid whose closure has exactly `components` components.

    Pure blocks (a clasp s*i s*i, or one conjugated by an adjacent letter)
    keep the strand permutation trivial; every generator gets one so the
    closure is not split.  With one strand to spare, a leading s*i s*i s*i
    joins two strands into one knotted component.
    """
    spare = 2 * components + 3 <= VERIFY_MAX_CROSSINGS and rng.below(2) == 0
    n = components + 1 if spare else components
    letters: list[int] = []
    if spare:
        letters += [_sign(rng) * (1 + rng.below(n - 1))] * 3

    def block(i: int, room: int) -> list[int]:
        s = _sign(rng)
        if room >= 4 and n > 2 and rng.below(2) == 0:
            j = i + 1 if i == 1 or (i < n - 1 and rng.below(2) == 0) else i - 1
            t = _sign(rng)
            return [t * j, s * i, s * i, -t * j]
        return [s * i, s * i]

    gens = _shuffled(rng, range(1, n))
    for left, i in enumerate(gens):
        room = VERIFY_MAX_CROSSINGS - len(letters) - 2 * (len(gens) - left - 1)
        letters += block(i, room)
    while VERIFY_MAX_CROSSINGS - len(letters) >= 2 and rng.below(3) != 0:
        letters += block(1 + rng.below(n - 1), VERIFY_MAX_CROSSINGS - len(letters))
    return n, tuple(letters)


def _gauss_json(rng: SplitMix64, strands: int, letters: tuple[int, ...]) -> str:
    """Diagram JSON of the closure with permuted crossing ids and rotated base points."""
    diagram = close_braid(BraidWord(strands, letters))
    ids = diagram.crossing_ids()
    relabel = dict(zip(ids, _shuffled(rng, [3 * c + 5 for c in ids])))
    comps = []
    for comp in diagram.components:
        shift = rng.below(len(comp)) if comp else 0
        comp = comp[shift:] + comp[:shift]
        comps.append([(relabel[c], role) for c, role in comp])
    signs = {relabel[c]: s for c, s in diagram.signs.items()}
    return json.dumps(LinkDiagram(comps, signs).to_json_dict(), sort_keys=True)


class Corpus:
    """The seeded operation stream of one workload."""

    def __init__(self, workload: str, seed: int, root: str = "."):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.rng = SplitMix64(seed * len(WORKLOADS) + WORKLOADS.index(workload))
        self.blocks: list[list[Op]] = []
        self.dir = os.path.join(WORK_DIR, f"work-{workload}")
        self.root = root
        if workload == "homfly_gauss":
            os.makedirs(os.path.join(root, self.dir), exist_ok=True)

    def block(self, index: int) -> list[Op]:
        while len(self.blocks) <= index:
            self.blocks.append(self._next_block(len(self.blocks)))
        return self.blocks[index]

    def _words(self, b: int) -> list[tuple[int, tuple[int, ...]]]:
        if self.workload == "verify_targets":
            words = [random_link_word(self.rng, L) for L in VERIFY_COMPONENTS]
            for L in HOPF_CHAINS:
                signs = [_sign(self.rng) for _ in range(1, L)]
                words.append((L, tuple(s * i for i, s in zip(range(1, L), signs) for _ in (0, 1))))
            return words
        words = [(n, random_braid(self.rng, n, k).letters) for n, k in HOMFLY_CELLS]
        words.append((2, (1,) * TORUS[b % len(TORUS)]))
        return words

    def _next_block(self, b: int) -> list[Op]:
        ops = []
        for i, (strands, letters) in enumerate(self._words(b)):
            if len(letters) > MAX_LETTERS:
                raise ValueError(f"braid word of {len(letters)} letters exceeds {MAX_LETTERS}")
            text = BraidWord(strands, letters).as_text()
            components, inter = braid_facts(strands, letters)
            facts = dict(
                braid=text,
                strands=strands,
                crossings=len(letters),
                components=components,
                writhe=sum(1 if x > 0 else -1 for x in letters),
                inter_crossings=inter,
            )
            op_id = f"{b:04d}-{i:02d}"
            if self.workload == "homfly_braid":
                argv = ("homfly", "--braid", text, "--format", "json")
                ops.append(Op(op_id, argv, **facts))
            elif self.workload == "homfly_gauss":
                path = os.path.join(self.dir, f"{op_id}.json")
                with open(os.path.join(self.root, path), "w", encoding="utf-8") as handle:
                    handle.write(_gauss_json(self.rng, strands, letters))
                argv = ("homfly", "--file", path, "--format", "json")
                ops.append(Op(op_id, argv, path=path, **facts))
            else:
                for target in TARGETS:
                    argv = ("verify", target, "--braid", text, "--format", "json")
                    ops.append(Op(f"{op_id}-{target}", argv, target=target, **facts))
        return ops
