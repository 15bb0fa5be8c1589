"""Presentation pipeline: relator construction, verification, census."""

import functools
import os
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from crystpres.cosets import (
    CosetTable,
    SchreierRank,
    coset_enumerate,
    order_check,
)
from crystpres.netgraph import (
    from_cayley,
    net_coordination_sequence,
    ring_size_counts,
)
from crystpres.bfs import coordination_sequence
from crystpres.pipeline import (
    PipelineError,
    bounded_consequence_check,
    build_extension_data,
    conjugation_relators,
    lattice_relators,
    lift_point_relators,
    ndia_generators,
    present,
    quotient_relators,
    relator_ring_census,
)
from crystpres.affine import AffineIsometry
from crystpres.symop import parse_generating_set
from crystpres.words import Presentation, evaluate, parse_word

from conftest import (
    load_document,
    quotient_coordination_sequence,
    sympy_order,
)

CORPUS_DOCS = [
    "i42d.json",
    "elv.json",
    "pnna_acd.json",
    "pnna_bcd.json",
    "hcb_p6.json",
    "dia_p212121.json",
    "dia_p1bar.json",
    "gis_i41a.json",
    "z2_diagonal_2.json",
    "z1_trivial.json",
]


def _check_words(report, texts):
    names = report.presentation.generator_names
    return {
        t: bounded_consequence_check(report, parse_word(t, names)) for t in texts
    }


def test_i42d_pipeline(i42d):
    rep = present(i42d.generators)
    assert rep.extension.point_order == 8
    assert rep.extension.rank == 3
    assert rep.verification["verdict"] == "pass"
    # the classical relator set for this group follows from the output
    verdicts = _check_words(
        rep, ["a^2", "b^2", "c^4", "bc^-1ac", "abcabac^-1b"]
    )
    assert set(verdicts.values()) == {"pass"}
    # and a non-identity word is refuted
    assert bounded_consequence_check(
        rep, parse_word("a", rep.presentation.generator_names)
    ) == "fail"


def test_i42d_provenance_tags(i42d):
    rep = present(i42d.generators)
    steps = {tag[0] for tag in rep.provenance}
    assert steps <= {
        "lifted point relator",
        "lattice relator",
        "conjugation relator",
    }
    assert len(rep.provenance) == len(rep.presentation.relators)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_rank2_diagonal_family(n):
    doc = load_document(f"z2_diagonal_{n}.json")
    rep = present(doc.generators)
    assert rep.extension.point_order == 1
    assert rep.extension.rank == 2
    assert rep.verification["verdict"] == "pass"
    # c together with the axis translations satisfies c = a^n b^n
    word = parse_word(f"ca^-{n}b^-{n}", rep.presentation.generator_names)
    assert bounded_consequence_check(rep, word) == "pass"


@pytest.mark.parametrize("name", ["pnna_acd.json", "pnna_bcd.json"])
def test_pnna_generating_sets(name):
    doc = load_document(name)
    rep = present(doc.generators)
    assert rep.extension.point_order == 8
    assert rep.extension.rank == 3
    assert rep.verification["verdict"] == "pass"


@pytest.mark.parametrize("name", CORPUS_DOCS)
def test_relators_evaluate_to_identity(name):
    doc = load_document(name)
    rep = present(doc.generators)
    ident = AffineIsometry.identity(doc.dimension)
    for r in rep.presentation.relators:
        assert evaluate(r, rep.extension.assignment) == ident


@pytest.mark.parametrize("name", ["i42d.json", "dia_p212121.json", "hcb_p6.json"])
def test_tietze_preserves_quotient_orders(name):
    doc = load_document(name)
    raw = present(doc.generators, simplify=False, prune=False)
    slim = present(doc.generators)
    E = slim.extension
    for m in (2, 3):
        expected = E.point_order * m ** E.rank
        for rep in (raw, slim):
            extra = quotient_relators(rep.extension, m)
            assert order_check(rep.presentation, extra, expected) == "pass"
    assert sum(len(r) for r in slim.presentation.relators) <= sum(
        len(r) for r in raw.presentation.relators
    )


@pytest.mark.parametrize("name", ["elv", "i42d", "pnna_bcd", "ndia_3"])
def test_quotient_order_does_not_change_report(name):
    # a prune trial drops a relator only when every m passes, so the order
    # of the checks cannot change a verdict
    gens = (ndia_generators(3) if name == "ndia_3"
            else load_document(name + ".json"))
    assert (present(gens, verify_orders=(3, 2)).to_dict()
            == present(gens, verify_orders=(2, 3)).to_dict())


def test_consequence_checks_trace_the_final_tables(i42d):
    rep = present(i42d.generators)
    assert sorted(rep.tables) == [2, 3]
    names = rep.presentation.generator_names
    with mock.patch.object(CosetTable, "run_hlt",
                           side_effect=AssertionError("enumerated again")):
        for text in ("c^4", "abcabac^-1b"):
            word = parse_word(text, names)
            assert bounded_consequence_check(rep, word) == "pass"


def test_present_deterministic(i42d):
    a = present(i42d.generators)
    b = present(i42d.generators)
    assert a.presentation.relators == b.presentation.relators
    assert a.to_dict() == b.to_dict()


def test_extension_data_pieces(i42d):
    E = build_extension_data(i42d.generators)
    assert E.point_order == 8
    assert E.rank == 3
    lifted = lift_point_relators(E)
    assert lifted  # one per point-group relator
    lat = lattice_relators(E)
    conj = conjugation_relators(E)
    ident = AffineIsometry.identity(3)
    for r in lat + conj:
        assert evaluate(r, E.assignment) == ident


@pytest.mark.parametrize("n,six,rings", [(2, 1, 3), (3, 3, 12), (4, 6, 30)])
def test_ndia_presentations_and_rings(n, six, rings):
    doc = ndia_generators(n)
    rep = present(doc.generators)
    assert rep.verification["verdict"] == "pass"
    involutions = [r for r in rep.presentation.relators if len(r) == 2]
    hexes = [r for r in rep.presentation.relators if len(r) == 6]
    assert len(involutions) == n + 1
    assert len(hexes) == six
    g = from_cayley(doc.generators)
    assert ring_size_counts(g, max_size=6) == {6: rings}


def test_gis_ring_census(i42d):
    # the Cayley graph of this body-centred group is a zeolite framework;
    # its ring census follows from the cycle relators of the presentation
    names = i42d.names
    texts = ["c^4", "bc^-1ac", "abcabac^-1b"]
    p = Presentation(names, [parse_word(t, names) for t in texts])
    # 16 group elements per conventional cell: point order 8, centering 2
    census = relator_ring_census(p, i42d.generators, 16)
    rings = {
        tuple(e.relator): e.rings_per_vertex for e in census
    }
    assert rings[parse_word("c^4", names)] == 1
    assert rings[parse_word("bc^-1ac", names)] == 2
    assert rings[parse_word("abcabac^-1b", names)] == 4


def test_ring_census_rejects_degenerate():
    doc = ndia_generators(2)
    p = Presentation(doc.names, [(1, 1)])
    with pytest.raises(PipelineError):
        relator_ring_census(p, doc.generators, 2)


@pytest.mark.parametrize("name", CORPUS_DOCS)
def test_quotient_cayley_coordination_consistency(name):
    doc = load_document(name)
    m = 7
    r_ok = (m - 2) // 2  # spheres agree while 2r + 1 < m
    finite = quotient_coordination_sequence(doc, m, r_ok)
    cs = coordination_sequence(doc.generators, r_ok)
    assert finite == cs


def test_cayley_net_cover_matches_group_ball():
    doc = load_document("dia_p212121.json")
    g = from_cayley(doc.generators)
    full = net_coordination_sequence(g, 0, 6)
    assert full == coordination_sequence(doc.generators, 6)


def test_bounded_consequence_inconclusive(i42d):
    rep = present(i42d.generators)
    word = parse_word("c^4", rep.presentation.generator_names)
    assert bounded_consequence_check(rep, word) == "pass"
    # starving the enumeration must be reported, never silently passed
    assert bounded_consequence_check(rep, word, max_cosets=40) == "inconclusive"


ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
# every corpus document and every document under tests/data
ALL_DOCS = sorted(
    f"{folder}/{name}" for folder in ("corpus", "tests/data")
    for name in os.listdir(os.path.join(ROOT, folder))
    if name.endswith(".json")
)


def _generators(path):
    with open(os.path.join(ROOT, path)) as fh:
        return parse_generating_set(fh.read()).generators


@functools.lru_cache(maxsize=None)
def _unpruned(path):
    """A document's Tietze output, the rank test on its G/2T table, the
    order of G/2T and the squares of the lattice words."""
    rep = present(_generators(path), prune=False)
    E = rep.extension
    return (rep.presentation, SchreierRank(rep.tables[2]),
            E.point_order * 2 ** E.rank, quotient_relators(E, 2))


@pytest.mark.parametrize("path", ALL_DOCS)
def test_unpruned_relators_are_never_refuted(path):
    pres, rank, _, squares = _unpruned(path)
    assert not rank.refutes(pres.relators + squares)
    # without the squares they present G, infinite: 2T is the kernel
    assert rank.refutes(pres.relators)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(ALL_DOCS), st.data())
def test_refuted_relator_sets_do_not_present_g_mod_2t(path, data):
    # a refuted subset of the Tietze output (with the squares) presents
    # a group larger than G/2T, so no enumeration finishes at |G/2T|:
    # neither sympy's (bounded to keep it fast) nor the prune trials' own
    pres, rank, order, squares = _unpruned(path)
    n = len(pres.relators)
    keep = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    relators = [r for r, k in zip(pres.relators, keep) if k] + squares
    assume(rank.refutes(relators))
    assert sympy_order(pres.generator_names, relators, 8 * order) != order
    table = CosetTable(len(pres.generator_names), relators, [], 64 * order)
    assert table.run_hlt().index() != order


@pytest.mark.parametrize("path", ALL_DOCS)
def test_refuted_trials_change_no_report(path, monkeypatch):
    gens = _generators(path)
    refutes, verdicts = SchreierRank.refutes, []

    def spy(self, relators):
        verdicts.append(refutes(self, relators))
        return verdicts[-1]

    monkeypatch.setattr(SchreierRank, "refutes", spy)
    report = present(gens).to_dict()
    assert any(verdicts) or path.endswith("z1_trivial.json")
    monkeypatch.setattr(SchreierRank, "refutes", lambda self, relators: False)
    assert present(gens).to_dict() == report
