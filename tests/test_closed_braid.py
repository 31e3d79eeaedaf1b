"""Braid-level links and the Hecke trace behind `verify`: every surgery and
query of `ClosedBraid` against the `close_braid` diagram, the trace against
skein resolution, the module functions on braids, and every link target's
reports on braids against the same reports on diagrams."""

import io
import itertools
import json

import pytest

from homflypt import (
    ClosedBraid,
    EmptySelection,
    ResourceLimitExceeded,
    SkeinEngine,
    SplitMix64,
    UnknownCrossing,
    close_braid,
    coeff_table,
    framed_homfly,
    homfly,
    intermediate_F,
    parse_braid,
)
from homflypt import catalog as cat
from homflypt import cli, skein
from homflypt.identities import _F_partition_sum

from conftest import seeded_closures

CHAIN5 = "strands=5; 1 1 2 2 3 3 4 4"
# Skein resolution of the reference reports stays fast up to here.
MAX_CROSSINGS = 10


def subsets(n: int):
    for size in range(1, n + 1):
        yield from itertools.combinations(range(n), size)


def pure_words(seed: int, components: int, count: int) -> list[str]:
    """Braids of at most MAX_CROSSINGS letters whose closures have exactly
    `components` components and are not split: a clasp (s*i s*i, or one
    conjugated by an adjacent letter) on every generator, in random order,
    and where there is room, on odd draws, a spare strand joined to its
    neighbour by s*1 s*1 s*1 into one knotted component."""
    rng = SplitMix64(seed)

    def sign() -> int:
        return 1 if rng.below(2) else -1

    words = []
    for _ in range(count):
        spare = 2 * components + 3 <= MAX_CROSSINGS and rng.below(2) == 1
        n = components + spare
        letters = [sign()] * 3 if spare else []
        gens = list(range(1, n))
        for k in range(len(gens) - 1, 0, -1):
            j = rng.below(k + 1)
            gens[k], gens[j] = gens[j], gens[k]
        for left, i in enumerate(gens):
            s = sign()
            room = MAX_CROSSINGS - len(letters) - 2 * (len(gens) - left)
            if n > 2 and room >= 2 and rng.below(2) == 0:
                j = i + 1 if i < n - 1 else i - 1
                t = sign()
                letters += [t * j, s * i, s * i, -t * j]
            else:
                letters += [s * i, s * i]
        words.append(f"strands={n}; " + " ".join(map(str, letters)))
    return words


def corpus() -> list[str]:
    words = [entry.braid for entry in cat.CATALOG]
    for components in range(2, 7):
        words += pure_words(100 + components, components, 6 if components < 6 else 3)
    return words


class TestQueries:
    def test_queries_match_the_diagram(self):
        words = [word for word, _ in seeded_closures(seed=61, count=60, strands=(2, 3, 4, 5))]
        for word in words + [entry.word() for entry in cat.CATALOG]:
            link, diagram = ClosedBraid(word), close_braid(word)
            text = word.as_text()
            assert link.word == word
            assert link.num_components == diagram.num_components, text
            assert link.num_crossings == diagram.num_crossings, text
            assert link.crossing_ids() == diagram.crossing_ids(), text
            assert link.signs == diagram.signs, text
            assert link.writhe() == diagram.writhe(), text
            assert link.total_linking() == diagram.total_linking(), text
            for cid in link.crossing_ids():
                assert link.is_self_crossing(cid) == diagram.is_self_crossing(cid), text
            for a, b in itertools.combinations(range(link.num_components), 2):
                assert link.linking_number(a, b) == diagram.linking_number(a, b), text

    def test_bad_crossing_and_component(self):
        link = ClosedBraid(parse_braid("strands=2; 1 1"))
        for surgery in (link.switch_crossing, link.smooth_crossing, link.is_self_crossing):
            with pytest.raises(UnknownCrossing):
                surgery(2)
        with pytest.raises(EmptySelection):
            link.sublink([])
        with pytest.raises(IndexError):
            link.sublink([2])
        with pytest.raises(ValueError):
            link.linking_number(1, 1)


class TestSurgeries:
    def test_sublinks_close_to_the_diagram_sublinks(self):
        # the closure of the reduced word is the diagram sublink, crossing
        # relabelling aside
        for word in corpus():
            link = ClosedBraid(parse_braid(word))
            diagram = close_braid(link.word)
            for subset in subsets(link.num_components):
                reduced = close_braid(link.sublink(subset).word)
                assert reduced.canonical_key() == diagram.sublink(subset).canonical_key(), (
                    word,
                    subset,
                )

    def test_switch_is_the_diagram_switch(self):
        for word, diagram in seeded_closures(seed=62, count=40, strands=(2, 3, 4)):
            link = ClosedBraid(word)
            for cid in link.crossing_ids():
                switched = close_braid(link.switch_crossing(cid).word)
                assert switched == diagram.switch_crossing(cid), word.as_text()

    def test_switched_and_smoothed_values_match_skein(self):
        for word, diagram in seeded_closures(seed=63, count=30, strands=(2, 3, 4), max_length=9):
            link, engine = ClosedBraid(word), SkeinEngine()
            for cid in link.crossing_ids():
                assert engine.framed_invariant(link.switch_crossing(cid)) == framed_homfly(
                    diagram.switch_crossing(cid)
                ), (word.as_text(), cid)
                assert engine.framed_invariant(link.smooth_crossing(cid)) == framed_homfly(
                    diagram.smooth_crossing(cid)
                ), (word.as_text(), cid)

    def test_union_is_the_diagram_union(self):
        words = [word for word, _ in seeded_closures(seed=64, count=20)]
        for left, right in zip(words, words[1:]):
            union = ClosedBraid(left).disjoint_union(ClosedBraid(right))
            expected = close_braid(left).disjoint_union(close_braid(right))
            assert close_braid(union.word).canonical_key() == expected.canonical_key()


class TestGenericApi:
    def test_no_engine_given_on_braids(self):
        # the module functions build their own engine for either link type
        for entry in cat.CATALOG:
            link, diagram = ClosedBraid(entry.word()), close_braid(entry.word())
            for function in (coeff_table, homfly, framed_homfly, intermediate_F):
                assert function(link) == function(diagram), (entry.name, function.__name__)


class TestEngine:
    def test_memo_and_budget_span_the_link(self):
        link = ClosedBraid(parse_braid(CHAIN5))
        engine = SkeinEngine()
        value = engine.framed_invariant(link)
        one_trace = engine.nodes
        assert engine.framed_invariant(link) == value and engine.nodes == one_trace
        other = link.switch_crossing(0)
        engine.framed_invariant(other)
        both = engine.nodes
        # the budget counts every trace of the engine, not each one alone
        tight = SkeinEngine(max_nodes=both - 1)
        tight.framed_invariant(link)
        with pytest.raises(ResourceLimitExceeded):
            tight.framed_invariant(other)

    def test_F_on_braids_matches_the_partition_sum_on_diagrams(self):
        for word in corpus():
            link = ClosedBraid(parse_braid(word))
            engine = SkeinEngine()
            value = intermediate_F(link, engine=engine)
            assert value == _F_partition_sum(close_braid(link.word)), word
            # the second call reads F off the memo: no engine work
            nodes = engine.nodes
            assert intermediate_F(link, engine=engine) == value and engine.nodes == nodes


def _reports(target: str, link) -> str:
    reports, skipped = cli._link_reports(target, "L", link, 10**7)
    return json.dumps([[r.to_json_dict() for r in reports], skipped], sort_keys=True)


class TestReports:
    @pytest.mark.parametrize("target", list(cli._LINK_TARGETS))
    def test_braid_reports_match_skein_reports(self, target):
        for word in corpus():
            link = ClosedBraid(parse_braid(word))
            assert _reports(target, link) == _reports(target, close_braid(link.word)), word

    def test_verify_on_braids_never_runs_skein(self, monkeypatch):
        def refuse(diagram):
            raise AssertionError("a braid input reached skein resolution")

        # every skein resolution step starts by looking for a violating crossing
        monkeypatch.setattr(skein, "is_descending", refuse)
        small = ["--m-max", "2", "--n-max", "2"]
        for link in (["--braid", CHAIN5], ["--catalog", "borromean"]):
            out = io.StringIO()
            assert cli.main(["verify", "all", *link, *small], out=out) == cli.EXIT_OK
            assert "FAIL" not in out.getvalue()
