"""Affine isometries, translation lattices, and point-group images."""

from fractions import Fraction
from functools import reduce
from operator import mul

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from crystpres.affine import (
    AffineIsometry,
    DimensionMismatch,
    InfiniteOrder,
    NotUnimodular,
    TranslationLattice,
    WalkKernel,
    check_finite_order,
    compose,
    finite_closure,
    hnf_lattice,
    inverse,
    minkowski_bound,
)
from crystpres.bfs import _expand
from crystpres.symop import parse_symop

from conftest import fraction_closure


def _signed_perm(dim):
    perms = st.permutations(range(dim))
    signs = st.lists(st.sampled_from([1, -1]), min_size=dim, max_size=dim)
    trans = st.lists(
        st.fractions(
            min_value=-2, max_value=2, max_denominator=4
        ),
        min_size=dim,
        max_size=dim,
    )

    def build(p, s, t):
        lin = tuple(
            tuple(s[i] if j == p[i] else 0 for j in range(dim)) for i in range(dim)
        )
        return AffineIsometry(lin, tuple(t))

    return st.builds(build, perms, signs, trans)


def test_compose_apply_order():
    g = parse_symop("-y, x", 2)
    h = parse_symop("1+x, y", 2)
    # (g*h)(p) = g(h(p))
    assert (g * h).apply((0, 0)) == g.apply(h.apply((0, 0)))


def test_inverse_and_identity():
    g = parse_symop("-y, 1/2+x, 1/4-z", 3)
    assert (g * inverse(g)).is_identity()
    assert (inverse(g) * g).is_identity()
    assert AffineIsometry.identity(3).is_identity()


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        compose(parse_symop("x, y", 2), parse_symop("x, y, z", 3))


@pytest.mark.parametrize("entry", [Fraction(1, 2), 0.5, Fraction(-3, 2)],
                         ids=["1/2", "0.5", "-3/2"])
def test_non_integral_linear_entry_is_rejected(entry):
    with pytest.raises(ValueError, match="linear part entry"):
        AffineIsometry([[entry, 0], [0, 1]], [0, 0])


@pytest.mark.parametrize("entry", [1, Fraction(2), 2.0],
                         ids=["1", "Fraction(2)", "2.0"])
def test_integral_linear_entry_is_kept(entry):
    g = AffineIsometry([[entry, 0], [0, 1]], [0, 0])
    assert g.linear == ((int(entry), 0), (0, 1))
    assert all(type(x) is int for row in g.linear for x in row)


@settings(max_examples=120)
@given(g=_signed_perm(3), h=_signed_perm(3), k=_signed_perm(3))
def test_composition_associative(g, h, k):
    assert (g * h) * k == g * (h * k)


@settings(max_examples=120)
@given(g=_signed_perm(3))
def test_inverse_roundtrip(g):
    assert inverse(inverse(g)) == g
    assert (g * inverse(g)).is_identity()


def _shear(dim):
    def build(i, j, c):
        lin = [[int(r == s) for s in range(dim)] for r in range(dim)]
        lin[i][j] += c * (i != j)
        return AffineIsometry(lin, (0,) * dim)

    index = st.integers(min_value=0, max_value=dim - 1)
    return st.builds(build, index, index, st.integers(min_value=-3,
                                                      max_value=3))


def _unimodular(dim):
    """Products of integer shears and signed permutations."""
    factor = st.one_of(_shear(dim), _signed_perm(dim))
    return st.lists(factor, min_size=1, max_size=6).map(
        lambda factors: reduce(mul, factors))


@settings(max_examples=100)
@given(g=st.integers(min_value=1, max_value=4).flatmap(_unimodular),
       data=st.data())
def test_inverse_over_the_integers(g, data):
    assert (inverse(g) * g).is_identity()
    # scaling one row of the linear part scales its determinant
    row = data.draw(st.integers(min_value=0, max_value=g.dimension - 1))
    for factor in (0, 2, -2):
        linear = [[x * (factor if i == row else 1) for x in r]
                  for i, r in enumerate(g.linear)]
        with pytest.raises(NotUnimodular,
                           match="is not invertible over the integers"):
            inverse(AffineIsometry(linear, g.translation))


def test_lattice_canonical_basis():
    a = hnf_lattice([(1, 1), (1, -1)])
    b = hnf_lattice([(1, 1), (0, 2)])
    assert a == b
    assert a.rank == 2


def test_lattice_membership_and_coordinates():
    lat = hnf_lattice([(Fraction(1, 2), Fraction(1, 2)), (0, 1)])
    assert lat.coordinates((Fraction(1, 2), Fraction(3, 2))) is not None
    assert lat.coordinates((Fraction(1, 4), 0)) is None
    c = lat.coordinates((1, 0))
    assert c is not None
    got = tuple(
        sum(c[i] * lat.basis[i][j] for i in range(lat.rank)) for j in range(2)
    )
    assert got == (1, 0)


def test_lattice_index():
    full = hnf_lattice([(1, 0), (0, 1)])
    sub = hnf_lattice([(2, 0), (0, 3)])
    assert sub.index_in(full) == 6
    assert full.index_in(full) == 1


def test_rank_deficient_lattice():
    lat = hnf_lattice([(1, 0, 0)], dimension=3)
    assert lat.rank == 1
    assert lat.coordinates((5, 0, 0)) is not None
    assert lat.coordinates((0, 1, 0)) is None


def _reduced(g, lattice):
    """Decoded residual of g modulo the lattice, and the shift taken off."""
    kernel = WalkKernel([g], points=lattice.basis)
    residual, shift = kernel.modulo(lattice)(kernel.encode(g))
    return kernel.decode(residual), shift


def test_point_group_image_reduces_residual():
    lat = hnf_lattice([(1, 0), (0, 1)])
    g = parse_symop("3/2-x, 2+y", 2)
    p, shift = _reduced(g, lat)
    assert p.translation == (Fraction(1, 2), 0)
    assert p.linear == ((-1, 0), (0, 1))
    assert shift == (1, 2)


def test_point_group_image_keeps_transverse_part():
    # rod-group setting: only the z axis is periodic, the x shift must
    # survive reduction or the quotient map would not be faithful
    lat = hnf_lattice([(0, 0, 1)], dimension=3)
    g = parse_symop("1/2+x, y, 2+z", 3)
    p, shift = _reduced(g, lat)
    assert p.translation == (Fraction(1, 2), 0, 0)
    assert shift == (2,)


def test_finite_closure_point_group():
    r4 = parse_symop("-y, x", 2)
    m = parse_symop("y, x", 2)
    _, _, elems, lattice = finite_closure([r4, m])
    assert len(elems) == 8
    assert lattice.rank == 0


def test_finite_closure_schreier_order():
    # pnna_acd: the conjugates u^-1 x s of the Schreier translations span
    # an index-3 sublattice; the closure must use x s u^-1
    from conftest import load_document
    from crystpres.bfs import shortest_translation_words

    gens = load_document("pnna_acd.json").generators
    _, _, elems, lattice = finite_closure([g for _, g in gens])
    assert lattice == shortest_translation_words(gens).lattice
    assert lattice.rank == 3


def test_minkowski_bound():
    assert [minkowski_bound(d) for d in range(1, 5)] == [2, 24, 48, 5760]
    assert minkowski_bound(6) == 2903040


def _shears(draw, d):
    """A product of up to two elementary shears: a unimodular matrix."""
    m = [[int(i == j) for j in range(d)] for i in range(d)]
    for _ in range(draw(st.integers(0, 2)) if d > 1 else 0):
        i, j = draw(st.lists(st.integers(0, d - 1), min_size=2, max_size=2,
                             unique=True))
        c = draw(st.sampled_from([1, -1]))
        m[i] = [a + c * b for a, b in zip(m[i], m[j])]
    return AffineIsometry(m, (0,) * d)


@st.composite
def closure_cases(draw):
    """Generators of a group, and whether its point group is finite.

    Linear parts are signed permutations conjugated by shears, so each
    has finite order; with one shared conjugator the group they generate
    is finite too, otherwise it may be infinite.  Translations lie in
    (1/8)Z^d.  Up to d pure translations in (1/4)Z^d join them, so that
    the lattice takes ranks 0..d.
    """
    d = draw(st.integers(1, 3))
    shared = draw(st.booleans())
    u = _shears(draw, d)
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        if not shared:
            u = _shears(draw, d)
        perm = draw(st.permutations(range(d)))
        signs = draw(st.lists(st.sampled_from([1, -1]), min_size=d,
                              max_size=d))
        p = AffineIsometry([[signs[i] * (j == perm[i]) for j in range(d)]
                            for i in range(d)], (0,) * d)
        t = draw(st.lists(st.integers(-16, 16), min_size=d, max_size=d))
        gens.append(AffineIsometry((u * p * inverse(u)).linear,
                                   [Fraction(x, 8) for x in t]))
    # mostly zero coordinates, so that translations often span a proper
    # subspace
    coordinate = st.sampled_from([0, 0, 0, 0, 1, -2, 4, 6])
    gens += [AffineIsometry.from_translation([Fraction(x, 4) for x in v])
             for v in draw(st.lists(st.lists(coordinate, min_size=d,
                                             max_size=d).filter(any),
                                    max_size=d))]
    group = [AffineIsometry.identity(d).linear]
    for a in group:  # the linear group, while it stays small
        for g in gens:
            b = compose(AffineIsometry(a, (0,) * d), g).linear
            if b not in group and len(group) <= 48:
                group.append(b)
    # a finite subgroup of GL(d, Z), d <= 3, has at most 48 elements
    return gens, len(group) <= 48


@settings(max_examples=120, deadline=None)
@given(case=closure_cases())
def test_finite_closure_matches_fraction_reference(case):
    gens, finite = case
    event("finite" if finite else "infinite point group")
    if not finite:
        with pytest.raises(InfiniteOrder, match="infinite point group"):
            finite_closure(gens)
        return
    kernel, reduce, codes, lattice = finite_closure(gens)
    event(f"d={lattice.dimension} rank={lattice.rank}")
    elements = [kernel.decode(c) for c in codes]
    # a lattice short of T would leave G/T infinite: past 48 elements
    # the reference gives up
    assert fraction_closure(gens, lattice, 48) == [
        (g.linear, g.translation) for g in elements]
    # the shift the reduction takes off is the lattice part of the product
    for code, g in zip(codes, elements):
        for s in gens:
            residual, shift = reduce(kernel.product(code, kernel.encode(s)))
            full, rest = g * s, kernel.decode(residual)
            assert full.linear == rest.linear
            assert tuple(a - b for a, b in zip(full.translation,
                                                rest.translation)) == tuple(
                sum(k * b[j] for k, b in zip(shift, lattice.basis))
                for j in range(lattice.dimension))


@settings(max_examples=40, deadline=None)
@given(case=closure_cases())
def test_finite_closure_lattice_is_spanned_by_ball_translations(case):
    """T against a harvest with no radius cap: every pure translation in
    the Cayley ball lies in T, and they span T by radius 2|P| - 1, since
    each Schreier generator u_p s u_ps^-1 is that short (a u_p has
    length below |P|).  A finite group has no translation at all."""
    gens, finite = case
    # more letters make balls of 10^5 elements within a few spheres
    assume(finite and len(gens) <= 4)
    _, _, codes, lattice = finite_closure(gens)
    d = lattice.dimension
    kernel = WalkKernel(gens)
    span = hnf_lattice([], dimension=d)
    spheres = _expand(
        lambda g: [(x, kernel.product(c, g))
                   for x, c in kernel.images.items()],
        {kernel.identity: (0, 0)}, 2 * len(codes) - 1)
    for sphere in spheres:
        for h in sphere:
            if h[0] == kernel.identity[0]:
                v = kernel.vector(h)
                assert lattice.coordinates(v) is not None
                if span.coordinates(v) is None:
                    span = hnf_lattice(span.basis + (v,), dimension=d)
        if span == lattice and (lattice.rank or not sphere):
            break
    else:
        pytest.fail("the ball translations do not span T")


def _companion(coefficients):
    """Companion matrix of x^d + c_{d-1} x^{d-1} + ... + c_0."""
    d = len(coefficients)
    return tuple(
        tuple(int(j == i - 1) for j in range(d - 1)) + (-coefficients[i],)
        for i in range(d)
    )


@pytest.mark.parametrize("order,coefficients", [
    (2, (1,)),              # x + 1
    (3, (1, 1)),            # x^2 + x + 1
    (4, (1, 0)),            # x^2 + 1
    (6, (1, -1)),           # x^2 - x + 1
    (5, (1, 1, 1, 1)),      # x^4 + x^3 + x^2 + x + 1
    (8, (1, 0, 0, 0)),      # x^4 + 1
    (12, (1, 0, -1, 0)),    # x^4 - x^2 + 1
])
def test_finite_order_linear_parts(order, coefficients):
    a = _companion(coefficients)
    check_finite_order(a)
    power = a
    for _ in range(order - 1):
        power = compose(AffineIsometry(power, (0,) * len(a)),
                        AffineIsometry(a, (0,) * len(a))).linear
    assert power == AffineIsometry.identity(len(a)).linear


@pytest.mark.parametrize("linear", [
    ((1, 1), (0, 1)),                    # shear
    ((2, 1), (1, 1)),                    # hyperbolic
    ((0, 0, 1), (1, 0, 1), (0, 1, 0)),   # x^3 - x - 1, no root of unity
    ((-1, -1), (0, -1)),                 # -shear: order-2 parts multiplied
])
def test_infinite_order_linear_parts(linear):
    with pytest.raises(InfiniteOrder):
        check_finite_order(linear)
