"""Cayley-graph exploration: balls, translation harvest, geodesics."""

import os
import time
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crystpres import bfs, pipeline
from crystpres.affine import compose, hnf_lattice, inverse
from crystpres.bfs import (
    DEFAULT_STABLE_SPHERES,
    BadGenerators,
    BallBoundExceeded,
    LatticeNotFound,
    TargetUnreachable,
    coordination_sequence,
    geodesics,
    lattice_geodesic_count,
    odd_cycle_girth,
    _cayley_quotient,
    _harvest,
    shortest_translation_words,
)
from crystpres.netgraph import catalog_load, from_cayley, net_geodesics
from crystpres.symop import parse_symop
from crystpres.words import evaluate

from conftest import (CORPUS, DOCUMENTS, generating_sets, load_document,
                      load_path)
from test_walk_kernel import _images, oracle_ball


def _translations(dim):
    gens = []
    for i in range(dim):
        v = [0] * dim
        v[i] = 1
        name = "abc"[i]
        gens.append((name, parse_symop(
            ", ".join(f"1+{ax}" if j == i else ax for j, ax in enumerate("xyz"[:dim])),
            dim,
        )))
    return gens


def test_cubic_lattice_coordination_sequence():
    cs = coordination_sequence(_translations(3), 6)
    # L1-sphere sizes in Z^3: 4k^2 + 2 for k >= 1
    assert cs == [1] + [4 * k * k + 2 for k in range(1, 7)]


def test_square_lattice_coordination_sequence():
    cs = coordination_sequence(_translations(2), 8)
    assert cs == [1] + [4 * k for k in range(1, 9)]


def test_ball_generator_order_invariance():
    gens = _translations(2) + [("c", parse_symop("-x, -y", 2))]
    a = coordination_sequence(gens, 5)
    b = coordination_sequence(list(reversed(gens)), 5)
    assert a == b


def test_ball_bound(monkeypatch):
    monkeypatch.setattr(bfs, "DEFAULT_MAX_ELEMENTS", 50)
    with pytest.raises(BallBoundExceeded):
        coordination_sequence(_translations(3), 10)


def test_harvest_shortest_translation_words(elv):
    h = shortest_translation_words(elv.generators)
    assert h.lattice.rank == 3
    assert [len(w) for w, _ in h.lattice_words] == [3, 4, 4, 4]
    expected = [
        (Fraction(3, 2), Fraction(-3, 2), Fraction(3, 2)),
        (0, 0, 2),
        (0, 2, -1),
        (1, 0, 2),
    ]
    got = {frozenset({v, tuple(-x for x in v)}) for _, v in h.lattice_words}
    want = {
        frozenset({tuple(map(Fraction, v)), tuple(-Fraction(x) for x in v)})
        for v in expected
    }
    assert got == want
    by_vec = dict((v, w) for w, v in h.words)
    key = (Fraction(-1, 2), Fraction(1, 2), Fraction(1, 2))
    assert key in by_vec
    assert len(by_vec[key]) == 6
    # every harvested word is a pure translation evaluating to its vector
    assign = {k + 1: op for k, (_, op) in enumerate(elv.generators)}
    for w, v in h.words[:20]:
        g = evaluate(w, assign)
        assert g.translation == v
        assert all(
            g.linear[i][j] == (i == j) for i in range(3) for j in range(3)
        )


def _fraction_harvest_reference(h):
    """The lattice and greedy word subset of a harvest, recomputed with
    Fraction HNFs of the harvested vectors (the pre-integer harvest)."""
    d = h.lattice.dimension
    lattice = hnf_lattice([v for _, v in h.words], dimension=d)
    chosen, span = [], None
    for w, v in h.words:
        cand = hnf_lattice([q for _, q in chosen] + [v], dimension=d)
        if span is None or cand != span:
            chosen.append((w, v))
            span = cand
        if span == lattice:
            break
    return lattice, chosen


@pytest.mark.parametrize("name", sorted(
    f for f in os.listdir(CORPUS) if f.endswith(".json")))
def test_integer_harvest_matches_fraction_reference_on_corpus(name):
    h = shortest_translation_words(load_document(name).generators)
    assert (h.lattice, h.lattice_words) == _fraction_harvest_reference(h)
    assert max(len(w) for w, _ in h.lattice_words) <= 2 * len(h.closure[2]) - 1


@settings(max_examples=60, deadline=None)
@given(gens=generating_sets())
def test_integer_harvest_matches_fraction_reference(gens):
    try:
        h = shortest_translation_words(gens)
    except LatticeNotFound:  # finite groups among them
        return
    assert (h.lattice, h.lattice_words) == _fraction_harvest_reference(h)
    assert max(len(w) for w, _ in h.lattice_words) <= 2 * len(h.closure[2]) - 1


def _pipeline_harvest(gens):
    """(the harvest build_extension_data used, shortest_translation_words),
    after checking that the first ends at the sphere that spans T (its
    last lattice word's) and that the extension data holds the closure
    and lattice words of the second."""
    spied = []

    def spy(generators, extra):
        spied.append(_harvest(generators, extra))
        return spied[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "_harvest", spy)
        E = pipeline.build_extension_data(gens)
    full = shortest_translation_words(gens)
    (h,) = spied
    assert h.radius_used == len(h.lattice_words[-1][0])
    assert h.words == full.words[:len(h.words)]
    assert ((E.lattice, E.lattice_words, E.elements)
            == (full.lattice, full.lattice_words, full.closure[2]))
    return h, full


@pytest.mark.parametrize("path", DOCUMENTS)
def test_pipeline_harvest_stops_at_the_spanning_sphere(path):
    h, full = _pipeline_harvest(load_path(path).generators)
    assert full.radius_used == h.radius_used + DEFAULT_STABLE_SPHERES
    if path == "corpus/elv.json":
        # criterion 3's 6-letter word lies past the spanning sphere
        assert (h.radius_used, full.radius_used) == (4, 7)


@settings(max_examples=40, deadline=None)
@given(gens=generating_sets())
def test_pipeline_harvest_matches_the_public_harvest(gens):
    try:
        _pipeline_harvest(gens)
    except LatticeNotFound:  # finite groups among them
        pass


def _oracle_translation_words(gens, radius):
    """(word, vector) of each translation in the Fraction ball of the
    radius, its first-discovered word read back through the oracle's
    entries; sphere by sphere, sorted by word within a sphere."""
    _, entries = oracle_ball(gens, radius)
    images, words = _images(gens), []
    for g, (dist, _) in entries.items():
        if dist and g.linear == g.identity(g.dimension).linear:
            word, h = [], g
            while entries[h][0]:
                x = entries[h][1]
                word.insert(0, x)
                h = compose(images[-x], h)
            words.append((tuple(word), g.translation))
    return sorted(words, key=lambda e: (len(e[0]), e[0]))


@settings(max_examples=200, deadline=None)
@given(gens=generating_sets())
def test_harvest_words_are_the_first_discovered_ones_of_the_ball(gens):
    # the harvest walks the cover of the Cayley quotient, with letter x on
    # the arc of x^-1; it must find the Cayley ball's words, in its order
    try:
        full = shortest_translation_words(gens)
    except LatticeNotFound:  # finite groups among them
        return
    h = _harvest(gens, 0)
    expected = _oracle_translation_words(gens, full.radius_used)
    assert full.words == expected
    assert h.words == [e for e in expected if len(e[0]) <= h.radius_used]


def test_harvest_element_bound(elv, monkeypatch):
    # the ball counts against DEFAULT_MAX_ELEMENTS: the first radius past
    # it raises, and a harvest that stops before it returns
    monkeypatch.setattr(bfs, "DEFAULT_MAX_ELEMENTS", 100)
    with pytest.raises(BallBoundExceeded) as raised:
        _harvest(elv.generators, 0)
    assert str(raised.value) == "ball exceeded 100 elements at radius 4"
    monkeypatch.setattr(bfs, "DEFAULT_MAX_ELEMENTS", 300)
    assert _harvest(elv.generators, 0).radius_used == 4
    with pytest.raises(BallBoundExceeded) as raised:
        _harvest(elv.generators, 3)
    assert str(raised.value) == "ball exceeded 300 elements at radius 5"


def test_harvest_trivial_group():
    gens = [("a", parse_symop("1+x", 1))]
    h = shortest_translation_words(gens)
    assert h.lattice.rank == 1
    assert h.lattice_words[0][0] in {(1,), (-1,)}


def test_geodesics_square_lattice():
    gens = _translations(2)
    g = geodesics(gens, (4, 12), 30)
    assert g.length == 16
    assert g.count == 1820
    g = geodesics(gens, (5, 12), 30)
    assert g.length == 17
    assert g.count == 6188


@settings(max_examples=100, deadline=None)
@given(gens=generating_sets())
def test_quotient_arc_j_is_the_inverse_of_letter_j(gens):
    # arc j of u_i is u_i * image(x_j)^-1 = t_s u_k, x_j the j-th letter
    # in walk order 1, -1, 2, -2, ..., and arc j ^ 1 of u_k comes back
    (kernel, reduce, elements, _), adj = _cayley_quotient(gens)
    images = _images(gens)
    letters = [x for k in range(1, len(gens) + 1) for x in (k, -k)]
    for i, u in enumerate(elements):
        for j, x in enumerate(letters):
            k, s = adj[i][j]
            assert (elements[k], s) == reduce(
                kernel.product(u, kernel.encode(inverse(images[x]))))
            assert adj[k][j ^ 1] == (i, tuple(-c for c in s))


def test_group_geodesics_count_words_not_cover_paths():
    # hcb_p6's a is an involution: a and a^-1 are two words for one edge
    # of its Cayley net, so the group counts more geodesics than the net
    gens = load_document("hcb_p6.json").generators
    targets = [(1, 0), (2, 1), (3, 3)]
    assert [(g.length, g.count) for g in
            (geodesics(gens, t, 40) for t in targets)] == [
                (4, 4), (6, 4), (12, 416)]
    net = from_cayley(gens)
    assert [net_geodesics(net, t) for t in targets] == [
        (4, 2), (6, 1), (12, 20)]


def test_geodesics_unreachable():
    gens = [("a", parse_symop("2+x, y", 2)), ("b", parse_symop("x, 1+y", 2))]
    with pytest.raises(TargetUnreachable):
        geodesics(gens, (1, 0), 10)


def test_geodesics_target_outside_the_group_answers_without_a_walk(
        elv, monkeypatch):
    # (1/3, 0, 0) is no translation of elv, nor (1/3, 0) of p2: the
    # point-group closure tells, and no walk is needed
    def no_walk(*args, **kwargs):
        raise AssertionError("walked")

    monkeypatch.setattr("crystpres.bfs.shell_geodesics", no_walk)
    p2 = _translations(2) + [("c", parse_symop("-x, -y", 2))]
    start = time.perf_counter()
    for gens, target in [(elv.generators, (Fraction(1, 3), 0, 0)),
                         (p2, (Fraction(1, 3), 0))]:
        with pytest.raises(TargetUnreachable,
                           match="is not an element of the group"):
            geodesics(gens, target, 200)
    assert time.perf_counter() - start < 1


# (length, count) as the one-sided walks over the whole ball gave them
@pytest.mark.parametrize("source, target, expected", [
    ("sql", (4, 12), (16, 1820)),
    ("pcu", (6, 6, 6), (18, 17153136)),
    ("dia", (8, 8, 8), (48, 9465511770)),
    ("qtz", (5, 5, 5), (15, 1)),
    ("srs", (6, 6, 6), (38, 3)),
    ("pcu", (30, 30, 30), (90, lattice_geodesic_count((30, 30, 30)))),
    ("i42d.json", (5, 5, 5), (40, 23718303629312)),
    ("pnna_acd.json", (4, 4, 4), (26, 20132659200)),
    ("elv.json", (3, 3, 3), (8, 4)),
    ("hcb_p6.json", (6, 6), (24, 337408)),
    ("gis_i41a.json", (3, 3, 3), (48, 841295344592)),
    ("z1_trivial.json", (150,), (150, 1)),
])
def test_far_target_geodesics(source, target, expected):
    if source.endswith(".json"):
        g = geodesics(load_document(source).generators, target, 200)
        assert (g.length, g.count) == expected
    else:
        assert net_geodesics(catalog_load(source), target) == expected


@pytest.mark.parametrize("walk", [
    lambda: coordination_sequence([], 1),
    lambda: geodesics([], (1, 0), 3),
], ids=["coordination_sequence", "geodesics"])
def test_empty_generating_set_is_rejected(walk):
    with pytest.raises(BadGenerators, match="empty generating set"):
        walk()


@settings(max_examples=40, deadline=None)
@given(v=st.lists(st.integers(min_value=-4, max_value=4), min_size=2, max_size=3))
def test_lattice_geodesic_oracle_matches_bfs(v):
    v = tuple(v)
    gens = _translations(len(v))
    expected = lattice_geodesic_count(v)
    got = geodesics(gens, v, sum(abs(c) for c in v) + 1)
    assert got.count == expected
    assert got.length == sum(abs(c) for c in v)


def test_lattice_geodesic_count_binomials():
    assert lattice_geodesic_count((4, 12)) == comb(16, 4)
    assert lattice_geodesic_count((5, 12)) == comb(17, 5)
    assert lattice_geodesic_count((0, 0)) == 1
    # past the interpreter's recursion limit
    assert lattice_geodesic_count((600, -600)) == comb(1200, 600)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_odd_cycle_girth_diagonal_family(n):
    doc = load_document(f"z2_diagonal_{n}.json")
    assert odd_cycle_girth(doc.generators, "c") == 2 * n + 1


def test_odd_cycle_girth_none():
    # without a relation the marked generator never closes an odd cycle
    gens = _translations(2)
    assert odd_cycle_girth(gens, "a", cap=6) is None
