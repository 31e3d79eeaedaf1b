"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
Every comparison is exact; there are no tolerances anywhere.
"""

import os
import subprocess
import sys

import pytest

from homflypt import (
    BivarLaurent,
    LinkDiagram,
    SkeinEngine,
    SplitMix64,
    T,
    Z,
    close_braid,
    coeff_table,
    framed_homfly,
    framed_homfly_bruteforce,
    homfly,
    verify_lemma,
    verify_partition_identity,
    verify_prop31,
    verify_thm13,
    verify_thm14,
    verify_thm15,
)
from homflypt import catalog as cat

from conftest import (
    add_kink,
    is_even_nonneg_in_z,
    markov_variant,
    reciprocal_t,
    seeded_closures,
    seeded_links_with_components,
)

TFAC = T - T**-1


def _finish(criterion: str, failures: list):
    print(f"ACCEPTANCE {criterion}: {'PASS' if not failures else 'FAIL'}")
    assert not failures, failures[:5]


@pytest.fixture(scope="module")
def random_corpus_200():
    return seeded_closures(seed=1001, count=200, max_length=12)


@pytest.fixture(scope="module")
def component_corpus():
    corpus = []
    for L, quota in ((2, 34), (3, 34), (4, 34)):
        corpus.extend(
            (L, word, diagram)
            for word, diagram in seeded_links_with_components(
                2000 + L, quota, L, max_length=10
            )
        )
    return corpus


def test_c01_base_values():
    failures = []
    if homfly(cat.diagram("unknot")) != BivarLaurent.one():
        failures.append("P(unknot) != 1")
    if framed_homfly(cat.diagram("unknot")) != TFAC:
        failures.append("framed unknot value wrong")
    if framed_homfly(LinkDiagram([], {})) != BivarLaurent.one():
        failures.append("framed empty value wrong")
    _finish("01 base-values", failures)


def test_c02_ring_membership(random_corpus_200):
    failures = []
    engine = SkeinEngine()
    for name in cat.names():
        value = engine.framed_invariant(cat.diagram(name))
        if not is_even_nonneg_in_z(value):
            failures.append(f"catalog {name}")
        if not all(c.denominator == 1 for _, c in value.terms()):
            failures.append(f"catalog {name}: non-integer coefficient")
    for word, diagram in random_corpus_200:
        value = engine.framed_invariant(diagram)
        if not is_even_nonneg_in_z(value):
            failures.append(word.as_text())
        if not all(c.denominator == 1 for _, c in value.terms()):
            failures.append(f"{word.as_text()}: non-integer coefficient")
    _finish("02 ring-membership", failures)


def test_c03_skein_and_framing(random_corpus_200):
    # on the memoized skein recursion itself: the engine would braid these
    # diagrams, taking their kinks off as a power of t
    failures = []
    engine = SkeinEngine()

    def framed(diagram):
        return engine.skein_invariant(diagram) * TFAC

    rng = SplitMix64(303)
    for word, diagram in random_corpus_200:
        ids = diagram.crossing_ids()
        cid = ids[rng.below(len(ids))]
        if diagram.signs[cid] > 0:
            plus, minus = diagram, diagram.switch_crossing(cid)
        else:
            plus, minus = diagram.switch_crossing(cid), diagram
        eps = 0 if diagram.is_self_crossing(cid) else 1
        lhs = framed(plus) - framed(minus)
        rhs = framed(diagram.smooth_crossing(cid)).shift(2 * eps)
        if lhs != rhs:
            failures.append(f"skein: {word.as_text()} c{cid}")
        comp = rng.below(diagram.num_components)
        sign = 1 if rng.below(2) == 0 else -1
        kinked = add_kink(diagram, comp, sign, over_first=rng.below(2) == 0)
        if framed(kinked) != framed(diagram) * T**sign:
            failures.append(f"kink: {word.as_text()} comp{comp} sign{sign}")
    _finish("03 skein-and-framing", failures)


def test_c04_derived_values_vs_bruteforce():
    failures = []
    hopf = cat.diagram("hopf+")
    expected_hopf = TFAC**2 + T * TFAC * Z**2
    if framed_homfly_bruteforce(hopf) != expected_hopf:
        failures.append("brute-force Hopf value")
    if framed_homfly(hopf) != expected_hopf:
        failures.append("engine Hopf value")
    tref = cat.diagram("trefoil")
    expected_tref_p = 2 * T**-2 - T**-4 + T**-2 * Z**2
    if homfly(tref) != expected_tref_p:
        failures.append("trefoil homfly value")
    if framed_homfly_bruteforce(tref) != framed_homfly(tref):
        failures.append("trefoil engine/brute-force mismatch")
    fig8 = cat.diagram("figure8")
    if framed_homfly_bruteforce(fig8) != framed_homfly(fig8):
        failures.append("figure8 engine/brute-force mismatch")
    table = coeff_table(fig8)
    for g in table.genus_range():
        if table.p_at(g) != reciprocal_t(table.p_at(g)):
            failures.append(f"figure8 p[{g}] not symmetric")
    _finish("04 derived-values", failures)


def test_c05_low_coefficient_vanishing(component_corpus):
    failures = []
    engine = SkeinEngine()
    for name in cat.names():
        diagram = cat.diagram(name)
        if diagram.num_components < 2:
            continue
        if not verify_prop31(diagram, engine=engine, label=name).passed:
            failures.append(f"catalog {name}")
    for L, word, diagram in component_corpus:
        if not verify_prop31(diagram, engine=engine).passed:
            failures.append(f"L={L}: {word.as_text()}")
    _finish("05 vanishing (prop31)", failures)


def test_c06_decomposition_identity(component_corpus):
    failures = []
    engine = SkeinEngine()
    seen_g2_on_L4 = 0
    for L, word, diagram in component_corpus:
        for g in range(L - 1):
            if not verify_thm13(diagram, g, engine=engine).passed:
                failures.append(f"L={L} g={g}: {word.as_text()}")
            if L == 4 and g == 2:
                seen_g2_on_L4 += 1
    for name in cat.names():
        diagram = cat.diagram(name)
        for g in range(diagram.num_components - 1):
            if not verify_thm13(diagram, g, engine=engine).passed:
                failures.append(f"catalog {name} g={g}")
    if seen_g2_on_L4 < 10:
        failures.append("too few 4-component g=2 cases exercised")
    _finish("06 decomposition identity (thm13)", failures)


def test_c07_coefficient_formulas_both_forms(component_corpus):
    failures = []
    engine = SkeinEngine()
    named = ["hopf+", "hopf-", "t24", "t26", "borromean", "trefoil-hopf+"]
    targets = [(name, cat.diagram(name)) for name in named]
    targets += [(w.as_text(), d) for _, w, d in component_corpus]
    for label, diagram in targets:
        r14 = verify_thm14(diagram, engine=engine, label=label)
        if not r14.passed:
            failures.append(f"thm14: {label}")
        if r14.context["h_form_pass"] != r14.context["p_form_pass"]:
            failures.append(f"thm14 forms disagree: {label}")
        if diagram.num_components >= 2:
            r15 = verify_thm15(diagram, engine=engine, label=label)
            if not r15.passed:
                failures.append(f"thm15: {label}")
            if r15.context["h_form_pass"] != r15.context["p_form_pass"]:
                failures.append(f"thm15 forms disagree: {label}")
    _finish("07 coefficient formulas (thm14/thm15)", failures)


def test_c08_counting_lemmas():
    failures = []
    for m in range(2, 11):
        if not verify_lemma("5.1", m).passed:
            failures.append(f"5.1 m={m}")
    for m in range(3, 11):
        if not verify_lemma("5.2", m).passed:
            failures.append(f"5.2 m={m}")
    for m in range(1, 11):
        if not verify_lemma("5.3", m).passed:
            failures.append(f"5.3 m={m}")
    for n in range(2, 13):
        if not verify_lemma("5.4", n).passed:
            failures.append(f"5.4 n={n}")
    for m in range(2, 9):
        if not verify_partition_identity(m).passed:
            failures.append(f"partition m={m}")
    edge = verify_lemma("5.4", 1)
    if edge.passed or edge.lhs != 1 or edge.rhs != 2:
        failures.append("5.4 n=1 edge not reported as documented")
    # both evaluation paths agreed on every report above (enforced inside
    # verify_lemma); spot-check the recorded values once more
    probe = verify_lemma("5.1", 10)
    if probe.context["lhs_enumerated"] != probe.context["lhs_closed_form"]:
        failures.append("5.1 m=10 path disagreement")
    _finish("08 counting lemmas", failures)


def test_c09_markov_invariance():
    failures = []
    rng = SplitMix64(909)
    pairs = []
    base_words = [w for w, _ in seeded_closures(seed=910, count=50, max_length=8)]
    for word in base_words:
        pairs.append((word, markov_variant(word, rng, moves=3)))
    engine = SkeinEngine()
    for word, variant in pairs:
        left = homfly(close_braid(word), engine=engine)
        right = homfly(close_braid(variant), engine=engine)
        if left != right:
            failures.append(f"{word.as_text()} vs {variant.as_text()}")
    _finish("09 markov invariance", failures)


CLI_BATTERY = [
    ["catalog"],
    ["catalog", "--format", "json"],
    ["homfly", "--catalog", "trefoil"],
    ["homfly", "--catalog", "borromean", "--format", "json"],
    ["homfly", "--braid", "strands=2; 1 1"],
    ["verify", "all", "--catalog", "borromean", "--m-max", "6", "--format", "json"],
    ["verify", "lemmas", "--m-max", "6"],
    ["verify", "thm14", "--catalog", "trefoil-hopf+"],
    ["random", "--strands", "3", "--length", "10", "--seed", "42", "--count", "5"],
]


def _run_battery(hash_seed: str) -> bytes:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    blob = b""
    for argv in CLI_BATTERY:
        proc = subprocess.run(
            [sys.executable, "-m", "homflypt", *argv],
            capture_output=True,
            env=env,
            check=True,
        )
        blob += b"$ " + " ".join(argv).encode() + b"\n" + proc.stdout
    return blob


def test_c10_cli_determinism():
    failures = []
    runs = [_run_battery(seed) for seed in ("0", "1", "0")]
    if not (runs[0] == runs[1] == runs[2]):
        failures.append("CLI battery output differs across runs/hash seeds")
    _finish("10 cli determinism", failures)
