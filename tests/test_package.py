"""The package namespace: each public name is listed once, in its module."""

import homflypt
from homflypt import catalog, combinatorics, identities, laurent, links, report, rng, skein

MODULES = (laurent, links, skein, combinatorics, identities, report, rng)

# every name `__all__` listed before it was made of the modules' lists,
# except `f_coefficients`, which left the package
FORMER_NAMES = """
    BivarLaurent PoleAtZero Z T OVER UNDER LinkDiagram ClosedBraid parse_braid
    close_braid DiagramError UnknownCrossing EmptySelection ParseError
    GeneratorOutOfRange DEFAULT_MAX_NODES ResourceLimitExceeded SkeinEngine
    CoeffTable is_descending descending_value framed_homfly
    framed_homfly_bruteforce coeff_table homfly InvalidRange partitions
    multiplicities aut_order set_partitions ordered_decompositions
    surjection_count surjection_count_enumerated surjection_count_partition_form
    verify_lemma verify_partition_identity FValue NotInterComponent GOutOfRange
    intermediate_F verify_prop31 verify_thm13 verify_thm13_all verify_thm14
    verify_thm15 verify_skein_F verify_split_F VerificationReport SplitMix64
    random_braid catalog
""".split()


def test_all_is_the_modules_lists():
    expected = [name for module in MODULES for name in module.__all__] + ["catalog"]
    assert list(homflypt.__all__) == expected
    assert len(set(expected)) == len(expected)


def test_every_name_resolves_to_its_module_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(homflypt, name) is getattr(module, name), name
    assert homflypt.catalog is catalog


def test_former_names_stay():
    assert set(FORMER_NAMES) <= set(homflypt.__all__)
    assert "f_coefficients" not in homflypt.__all__
    assert not hasattr(homflypt, "f_coefficients")
