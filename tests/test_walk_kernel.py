"""The integer walk kernel against plain Fraction arithmetic.

The oracles below walk the Cayley graph with AffineIsometry elements
and affine.compose, the way the walks did before they moved onto
integer codes.  Every walk in bfs must agree with them exactly,
including which shortest words it finds and in what order.
"""

import math
from fractions import Fraction
from functools import partial
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crystpres import bfs
from crystpres.affine import AffineIsometry, compose, inverse
from crystpres.bfs import (
    BallBoundExceeded,
    TargetUnreachable,
    WalkKernel,
    coordination_sequence,
    geodesics,
    odd_cycle_girth,
)
from crystpres.symop import parse_symop

from walk_oracles import _expand, _word


def _letters(n):
    return [x for k in range(1, n + 1) for x in (k, -k)]


def _images(generators):
    images = {}
    for k, (_, g) in enumerate(generators, start=1):
        images[k], images[-k] = g, inverse(g)
    return images


def _code_neighbours(kernel):
    """The neighbours of a walk on element codes, for _expand: (letter,
    image(letter) * g) for every letter, in walk order."""
    return lambda g: [(x, kernel.product(c, g))
                      for x, c in kernel.images.items()]


def oracle_ball(generators, radius):
    """Sphere sizes and first-discovered (distance, letter) per element."""
    images = _images(generators)
    ident = AffineIsometry.identity(generators[0][1].dimension)
    entries = {ident: (0, 0)}
    sphere = [ident]
    sizes = [1]
    for r in range(1, radius + 1):
        nxt = []
        for g in sphere:
            for x in _letters(len(generators)):
                h = compose(images[x], g)
                if h not in entries:
                    entries[h] = (r, x)
                    nxt.append(h)
        sizes.append(len(nxt))
        sphere = nxt
    return sizes, entries


def oracle_geodesics(generators, target, cap):
    """(length, count) or None if unreached."""
    images = _images(generators)
    letters = _letters(len(generators))
    ident = AffineIsometry.identity(target.dimension)
    dist, count, sphere = {ident: 0}, {ident: 1}, [ident]
    r = 0
    while target not in dist and sphere and r < cap:
        r += 1
        nxt = []
        for g in sphere:
            for x in letters:
                h = compose(images[x], g)
                if h not in dist:
                    dist[h], count[h] = r, 0
                    nxt.append(h)
                if dist[h] == r:
                    count[h] += count[g]
        sphere = nxt
    if target not in dist:
        return None
    return dist[target], count[target]


def oracle_girth(generators, marked, cap):
    images = _images(generators)
    ident = AffineIsometry.identity(generators[0][1].dimension)
    seen = {(ident, 0)}
    sphere = [(ident, 0)]
    for r in range(1, cap + 1):
        nxt = []
        for g, par in sphere:
            for x in _letters(len(generators)):
                state = (compose(images[x], g), par ^ (abs(x) == marked))
                if state == (ident, 1):
                    return r
                if state not in seen:
                    seen.add(state)
                    nxt.append(state)
        sphere = nxt
    return None


# -- strategies --------------------------------------------------------------


@st.composite
def unimodular(draw, d):
    """A signed permutation matrix times a few elementary shears."""
    perm = draw(st.permutations(range(d)))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=d, max_size=d))
    m = [[signs[i] * (j == perm[i]) for j in range(d)] for i in range(d)]
    if d > 1:
        for _ in range(draw(st.integers(0, 2))):
            i, j = draw(st.lists(st.integers(0, d - 1), min_size=2,
                                 max_size=2, unique=True))
            c = draw(st.sampled_from([1, -1]))
            m[i] = [a + c * b for a, b in zip(m[i], m[j])]
    return m


@st.composite
def affine_maps(draw, d, finite=False):
    """Maps with translations in (1/8)Z^d; `finite` keeps linear parts
    signed permutations so balls grow polynomially."""
    if finite:
        perm = draw(st.permutations(range(d)))
        signs = draw(st.lists(st.sampled_from([1, -1]), min_size=d,
                              max_size=d))
        lin = [[signs[i] * (j == perm[i]) for j in range(d)] for i in range(d)]
    else:
        lin = draw(unimodular(d))
    t = draw(st.lists(st.integers(-16, 16), min_size=d, max_size=d))
    return AffineIsometry(lin, [Fraction(x, 8) for x in t])


@st.composite
def generating_sets(draw, max_gens=3):
    d = draw(st.integers(1, 3))
    maps = draw(st.lists(affine_maps(d, finite=True), min_size=1,
                         max_size=max_gens))
    maps = [g for g in maps if not g.is_identity()]
    if not maps:
        maps = [AffineIsometry.from_translation([1] + [0] * (d - 1))]
    return [("abc"[i], g) for i, g in enumerate(maps)]


# -- kernel arithmetic ----------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_kernel_matches_affine_compose(data):
    d = data.draw(st.integers(1, 3))
    maps = data.draw(st.lists(affine_maps(d), min_size=1, max_size=3))
    kernel = WalkKernel(maps)
    for g in maps:
        assert kernel.decode(kernel.encode(g)) == g
    assert kernel.decode(kernel.identity) == AffineIsometry.identity(d)
    word = data.draw(st.lists(
        st.sampled_from(_letters(len(maps))), max_size=8))
    code = kernel.identity
    expect = AffineIsometry.identity(d)
    for x in word:
        code = kernel.product(kernel.images[x], code)
        step = maps[x - 1] if x > 0 else inverse(maps[-x - 1])
        expect = compose(step, expect)
        assert kernel.decode(code) == expect
        # a letter followed by its inverse is the identity move
        assert kernel.product(kernel.images[-x], code) == kernel.encode(
            compose(inverse(step), expect))
    assert kernel.encode(expect) == code


def test_kernel_scale_covers_points():
    g = AffineIsometry([[-1]], [Fraction(1, 2)])
    kernel = WalkKernel([g], points=[(Fraction(1, 3),)])
    assert kernel.scale == 6
    assert kernel.encode(g) == (kernel.encode(g)[0], 3)
    with pytest.raises(ValueError, match="outside the kernel's scale"):
        kernel.encode(AffineIsometry([[1]], [Fraction(1, 5)]))


# -- walks against the Fraction oracle ------------------------------------------


@settings(max_examples=40, deadline=None)
@given(gens=generating_sets())
def test_ball_matches_oracle(gens):
    radius = 4
    sizes, entries = oracle_ball(gens, radius)
    assert coordination_sequence(gens, radius) == sizes
    # _expand and _word on element codes: the same elements in the same
    # discovery order, with the same last letters and words
    kernel = WalkKernel([g for _, g in gens])
    codes = {kernel.identity: (0, 0)}
    for _ in _expand(_code_neighbours(kernel), codes, radius):
        pass
    assert [kernel.decode(c) for c in codes] == list(entries)
    assert list(codes.values()) == list(entries.values())
    images = _images(gens)
    move = {x: partial(kernel.product, c) for x, c in kernel.images.items()}
    for code, g in list(zip(codes, entries))[:40]:
        # the first-discovered word, read back through the oracle's entries
        word, h = [], g
        while entries[h][0]:
            x = entries[h][1]
            word.insert(0, x)
            h = compose(images[-x], h)
        assert _word(move, codes, code) == tuple(word)


@settings(max_examples=40, deadline=None)
@given(gens=generating_sets(), data=st.data())
def test_geodesics_match_oracle(gens, data):
    images = _images(gens)
    word = data.draw(st.lists(st.sampled_from(_letters(len(gens))),
                              max_size=5))
    target = AffineIsometry.identity(gens[0][1].dimension)
    for x in word:
        target = compose(images[x], target)
    got = geodesics(gens, target, len(word) + 1)
    assert (got.length, got.count) == oracle_geodesics(gens, target, len(word))


@settings(max_examples=30, deadline=None)
@given(gens=generating_sets(max_gens=2))
def test_odd_cycle_girth_matches_oracle(gens):
    for marked, (name, _) in enumerate(gens, start=1):
        assert odd_cycle_girth(gens, name, cap=5) == oracle_girth(
            gens, marked, 5)


# -- edge cases -----------------------------------------------------------------


def _expand_sizes(gens, radius, max_elements=math.inf):
    """Sphere sizes of the Cayley ball as _expand grows it on element
    codes, under an element bound of max_elements."""
    kernel = WalkKernel([g for _, g in gens])
    entries = {kernel.identity: (0, 0)}
    with mock.patch.object(bfs, "DEFAULT_MAX_ELEMENTS", max_elements):
        return [1] + [len(s) for s in _expand(_code_neighbours(kernel),
                                              entries, radius)]


@settings(max_examples=60, deadline=None)
@given(gens=generating_sets())
# a finite group (rank 0), a rod group in the plane (rank 1 of 2) and a
# layer group (rank 2 of 3)
@example(gens=[("a", parse_symop("-y, x, z", 3)),
               ("b", parse_symop("-x, -y, -z", 3))])
@example(gens=[("a", parse_symop("1/2+x, -y", 2))])
@example(gens=[("a", parse_symop("x+1, y, z", 3)),
               ("b", parse_symop("-y, x+1/2, -z", 3))])
def test_coordination_sequence_is_the_ball_on_the_quotient_cover(gens):
    # the shell walk on the cover of G/T against the whole Cayley ball
    assert coordination_sequence(gens, 6) == _expand_sizes(gens, 6)


def _square_lattice():
    return [("a", parse_symop("1+x, y", 2)), ("b", parse_symop("x, 1+y", 2))]


def test_ball_bound_fires_at_same_count():
    gens = _square_lattice()
    sizes, _ = oracle_ball(gens, 5)
    n = sum(sizes)
    assert _expand_sizes(gens, 5, max_elements=n) == sizes
    with pytest.raises(BallBoundExceeded, match=f"{n - 1} elements at radius 5"):
        _expand_sizes(gens, 5, max_elements=n - 1)


def test_coordination_sequence_bound_fires_at_same_count(monkeypatch):
    gens = _square_lattice()
    sizes, _ = oracle_ball(gens, 5)
    n = sum(sizes)
    monkeypatch.setattr(bfs, "DEFAULT_MAX_ELEMENTS", n)
    assert coordination_sequence(gens, 5) == sizes
    monkeypatch.setattr(bfs, "DEFAULT_MAX_ELEMENTS", n - 1)
    with pytest.raises(BallBoundExceeded, match=f"{n - 1} elements at radius 5"):
        coordination_sequence(gens, 5)


def test_coordination_sequence_bound_caps_the_point_group_closure(
        monkeypatch):
    # the coset representatives of G/T count against the element bound
    gens = [("a", parse_symop("-y, x, z", 3)),
            ("b", parse_symop("-x, -y, -z", 3))]
    monkeypatch.setattr(bfs, "DEFAULT_MAX_ELEMENTS", 8)
    assert coordination_sequence(gens, 4) == [1, 3, 3, 1, 0]
    monkeypatch.setattr(bfs, "DEFAULT_MAX_ELEMENTS", 7)
    with pytest.raises(BallBoundExceeded, match="point group exceeded 7"):
        coordination_sequence(gens, 1)
    # two involutions with an infinite product, in dimension 6: Minkowski's
    # bound (2,903,040) is far off, the element bound stops the closure
    gens = [("a", parse_symop("x2, x1, x3, x4, x5, x6", 6)),
            ("b", parse_symop("-x1, 2*x1+x2, x3, x4, x5, x6", 6))]
    monkeypatch.setattr(bfs, "DEFAULT_MAX_ELEMENTS", 1000)
    with pytest.raises(BallBoundExceeded, match="point group exceeded 1000"):
        coordination_sequence(gens, 4)


def test_geodesics_bound_counts_the_held_spheres(monkeypatch):
    # each end of the 20-step route to (10, 10) holds two spheres of at
    # most 40 nodes, well below the 841 nodes of the radius-20 ball
    gens = _square_lattice()
    monkeypatch.setattr(bfs, "DEFAULT_MAX_ELEMENTS", 200)
    assert geodesics(gens, (10, 10), 20).count == 184756
    monkeypatch.setattr(bfs, "DEFAULT_MAX_ELEMENTS", 20)
    with pytest.raises(BallBoundExceeded, match="ball exceeded 20 elements"):
        geodesics(gens, (10, 10), 20)


def test_geodesics_target_with_ungenerated_denominator():
    gens = _square_lattice()
    with pytest.raises(TargetUnreachable):
        geodesics(gens, (Fraction(1, 2), 0), 6)
