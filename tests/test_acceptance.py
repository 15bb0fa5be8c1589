"""Acceptance gate: ten end-to-end criteria with time budgets.

Each test prints exactly one line of the form

    CRITERION <n> [budget]: PASS (elapsed)   or   ... FAIL (reason)

independent of pytest's output capturing, so the gate can be read off
any run log directly.
"""

import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from math import comb

import pytest

from crystpres.bfs import (
    coordination_sequence,
    geodesics,
    lattice_geodesic_count,
    odd_cycle_girth,
    shortest_translation_words,
)
from crystpres.cosets import is_consequence, order_check
from crystpres.netgraph import (
    catalog_load,
    from_cayley,
    quotient_by_sublattice,
    ring_size_counts,
    schlafli_symbol,
    topological_density,
)
from crystpres.pipeline import (
    bounded_consequence_check,
    ndia_generators,
    present,
    quotient_relators,
    relator_ring_census,
)
from crystpres.affine import AffineIsometry
from crystpres.words import Presentation, evaluate, parse_word

from conftest import load_document, quotient_coordination_sequence

FULL_CORPUS = [
    "i42d.json",
    "elv.json",
    "pnna_acd.json",
    "pnna_bcd.json",
    "hcb_p6.json",
    "dia_p212121.json",
    "dia_p1bar.json",
    "gis_i41a.json",
    "z2_diagonal_1.json",
    "z2_diagonal_2.json",
    "z2_diagonal_3.json",
    "z2_diagonal_4.json",
    "z1_trivial.json",
]


_CAPMAN = None


@pytest.fixture(autouse=True)
def _capture_manager(pytestconfig):
    global _CAPMAN
    _CAPMAN = pytestconfig.pluginmanager.getplugin("capturemanager")
    yield


def _report_line(text):
    # bypass pytest's fd-level capture so one line per criterion always
    # reaches the real stdout
    if _CAPMAN is not None:
        with _CAPMAN.global_and_fixture_disabled():
            sys.__stdout__.write(text + "\n")
            sys.__stdout__.flush()
    else:
        sys.__stdout__.write(text + "\n")
        sys.__stdout__.flush()


@contextmanager
def criterion(number, budget):
    start = time.monotonic()
    try:
        yield
    except Exception as exc:
        _report_line(f"CRITERION {number} [<{budget}s]: FAIL ({exc})")
        raise
    elapsed = time.monotonic() - start
    if elapsed > budget:
        _report_line(
            f"CRITERION {number} [<{budget}s]: FAIL (took {elapsed:.1f}s)"
        )
        pytest.fail(f"criterion {number} exceeded {budget}s: {elapsed:.1f}s")
    _report_line(f"CRITERION {number} [<{budget}s]: PASS ({elapsed:.1f}s)")


def _equivalence_verdicts(report, texts, ms=(2, 3)):
    """Two-sided bounded equivalence between the pipeline output and an
    expected relator set, one verdict string per check."""
    names = report.presentation.generator_names
    expected = [parse_word(t, names) for t in texts]
    verdicts = {}
    for t, w in zip(texts, expected):
        verdicts[f"=> {t}"] = bounded_consequence_check(report, w)
    E = report.extension
    for m in ms:
        q = Presentation(names, expected + quotient_relators(E, m))
        for r in report.presentation.relators:
            res = is_consequence(q, r)
            key = f"<= {r} (m={m})"
            verdicts[key] = (
                "pass" if res is True else "fail" if res is False else
                "inconclusive"
            )
    return verdicts


def _assert_all_pass(verdicts):
    bad = {k: v for k, v in verdicts.items() if v != "pass"}
    assert not bad, f"non-pass verdicts (inconclusive reported, not passed): {bad}"


def test_criterion_01_body_centred_tetragonal_pipeline():
    with criterion(1, 10):
        doc = load_document("i42d.json")
        report = present(doc.generators)
        ident = AffineIsometry.identity(3)
        for r in report.presentation.relators:
            assert evaluate(r, report.extension.assignment) == ident
        checks = report.verification["order_checks"]
        assert checks["2"] == {"expected": 64, "verdict": "pass"}
        assert checks["3"] == {"expected": 216, "verdict": "pass"}
        verdicts = _equivalence_verdicts(
            report, ["a^2", "b^2", "c^4", "bc^-1ac", "abcabac^-1b"]
        )
        _assert_all_pass(verdicts)


def test_criterion_02_planar_translation_families():
    with criterion(2, 5):
        doc = load_document("z2_diagonal_1.json")
        report = present(doc.generators)
        _assert_all_pass(_equivalence_verdicts(report, ["abc^-1", "bac^-1"]))
        for n in (2, 3, 4):
            doc = load_document(f"z2_diagonal_{n}.json")
            report = present(doc.generators)
            _assert_all_pass(
                _equivalence_verdicts(report, ["[a,b]", f"(ab)^{n}c^-1"])
            )
            assert odd_cycle_girth(doc.generators, "c") == 2 * n + 1


def test_criterion_03_rod_group_translation_words():
    with criterion(3, 30):
        doc = load_document("elv.json")
        h = shortest_translation_words(doc.generators)
        assert [len(w) for w, _ in h.lattice_words] == [3, 4, 4, 4]
        expected = [
            (Fraction(3, 2), Fraction(-3, 2), Fraction(3, 2)),
            (0, 0, 2),
            (0, 2, -1),
            (1, 0, 2),
        ]
        got = {
            frozenset({v, tuple(-x for x in v)}) for _, v in h.lattice_words
        }
        want = {
            frozenset(
                {tuple(map(Fraction, v)), tuple(-Fraction(x) for x in v)}
            )
            for v in expected
        }
        assert got == want
        by_vec = {v: w for w, v in h.words}
        key = (Fraction(-1, 2), Fraction(1, 2), Fraction(1, 2))
        assert len(by_vec[key]) == 6


def test_criterion_04_zeolite_ring_census():
    with criterion(4, 30):
        doc = load_document("i42d.json")
        names = doc.names
        p = Presentation(
            names,
            [parse_word(t, names) for t in ["c^4", "bc^-1ac", "abcabac^-1b"]],
        )
        census = relator_ring_census(p, doc.generators, 16)
        rings = {tuple(e.relator): e.rings_per_vertex for e in census}
        assert rings[parse_word("c^4", names)] == 1
        assert rings[parse_word("bc^-1ac", names)] == 2
        assert rings[parse_word("abcabac^-1b", names)] == 4
        g = from_cayley(load_document("gis_i41a.json").generators)
        assert schlafli_symbol(g, max_size=8) == "4^3.8^4"


def test_criterion_05_geodesic_counts():
    with criterion(5, 5):
        doc = load_document("z2_diagonal_1.json")
        gens = doc.generators[:2]
        for target, length, count in [((4, 12), 16, 1820), ((5, 12), 17, 6188)]:
            gs = geodesics(gens, target, 30)
            assert (gs.length, gs.count) == (length, count)
            assert lattice_geodesic_count(target) == count
        assert lattice_geodesic_count((4, 12)) == comb(16, 4)


def test_criterion_06_layered_quotients():
    with criterion(6, 120):
        ths = catalog_load("ths")
        table = [
            ((Fraction(5, 2), Fraction(5, 2), Fraction(1, 2)), 424,
             "10^10.12^3"),
            ((2, 2, 1), 445, "10^10.12^6"),
            ((Fraction(1, 2), Fraction(1, 2), Fraction(-3, 2)), 460,
             "10^10.12^9"),
        ]
        for vector, td10, symbol in table:
            q = quotient_by_sublattice(ths, [vector])
            assert topological_density(q, 0, 10) == td10
            assert schlafli_symbol(q, max_size=12) == symbol


def test_criterion_07_locally_isomorphic_pair():
    with criterion(7, 120):
        acd = load_document("pnna_acd.json")
        bcd = load_document("pnna_bcd.json")
        cs_a = coordination_sequence(acd.generators, 20)
        cs_b = coordination_sequence(bcd.generators, 20)
        assert cs_a[:20] == cs_b[:20]
        assert cs_a[20] != cs_b[20]
        for doc in (acd, bcd):
            g = from_cayley(doc.generators)
            counts = ring_size_counts(g, max_size=14)
            assert counts == {10: 5, 14: 14}


def test_criterion_08_higher_dimensional_diamonds():
    with criterion(8, 60):
        for n, rings in [(2, 3), (3, 12), (4, 30)]:
            doc = ndia_generators(n)
            report = present(doc.generators)
            relators = report.presentation.relators
            assert sum(1 for r in relators if len(r) == 2) == n + 1
            assert sum(1 for r in relators if len(r) == 6) == n * (n - 1) // 2
            g = from_cayley(doc.generators)
            assert ring_size_counts(g, max_size=6) == {6: rings}


def test_criterion_09_property_suites():
    with criterion(9, 600):
        # every emitted relator evaluates to the identity isometry
        reports = {}
        for name in FULL_CORPUS:
            doc = load_document(name)
            report = present(doc.generators)
            reports[name] = (doc, report)
            ident = AffineIsometry.identity(doc.dimension)
            for r in report.presentation.relators:
                assert evaluate(r, report.extension.assignment) == ident
        # quotient-Cayley consistency: sphere sizes of (G, S) match the
        # coset graph of G/mT while 2r + 1 < m, with m scaled by the
        # largest single-step lattice displacement (a generator that is
        # itself an n-cell translation crosses n lattice units per step)
        def translation_of(g):
            if g.linear == AffineIsometry.identity(g.dimension).linear:
                return g.translation
            return None

        for name in FULL_CORPUS:
            doc, report = reports[name]
            lat = report.extension.lattice
            step = 1
            for _, op in doc.generators:
                t = translation_of(op)
                if t is not None:
                    c = lat.coordinates(t)
                    step = max(step, int(max(abs(x) for x in c)))
            m = 7 * step
            r_ok = 2
            assert 2 * r_ok + 1 < m
            assert quotient_coordination_sequence(doc, m, r_ok) == (
                coordination_sequence(doc.generators, r_ok)
            )
        # GF(2) decomposition witnesses for all rejected cycles (size cap 8)
        from test_netgraph import test_rejected_cycles_have_decomposition_witness

        test_rejected_cycles_have_decomposition_witness()
        # Tietze preservation: raw and simplified outputs present the
        # same finite quotients
        for name in ("i42d.json", "hcb_p6.json"):
            doc, slim = reports[name]
            raw = present(doc.generators, simplify=False, prune=False)
            E = slim.extension
            for mm in (2, 3):
                expected = E.point_order * mm ** E.rank
                for rep in (raw, slim):
                    extra = quotient_relators(rep.extension, mm)
                    assert order_check(rep.presentation, extra, expected) == "pass"
            # simplification shortens and is deterministic
            total = lambda p: sum(len(r) for r in p.relators)
            assert total(slim.presentation) <= total(raw.presentation)
            again = present(doc.generators)
            assert again.presentation.relators == slim.presentation.relators


def test_criterion_10_corpus_equivalence_spot_checks():
    with criterion(10, 600):
        cases = [
            ("hcb_p6.json", ["a^2", "b^6", "(ab)^3"]),
            ("dia_p1bar.json",
             ["a^2", "b^2", "c^2", "d^2", "(bac)^2", "(dab)^2", "(cad)^2"]),
            ("dia_p212121.json", ["b^-1a^2ba^2", "a^-1b^2ab^2"]),
            ("gis_i41a.json", ["(ab)^2", "b^4", "(b^-1a^3)^2"]),
        ]
        for name, texts in cases:
            report = present(load_document(name).generators)
            verdicts = _equivalence_verdicts(report, texts)
            inconclusive = [k for k, v in verdicts.items() if v == "inconclusive"]
            if inconclusive:
                _report_line(
                    f"  criterion 10 inconclusive on {name}: {inconclusive}"
                )
            _assert_all_pass(verdicts)
