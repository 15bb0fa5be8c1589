"""Affine isometries, translation lattices, and point-group images."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crystpres.affine import (
    AffineIsometry,
    ClosureBoundExceeded,
    DimensionMismatch,
    InfiniteOrder,
    TranslationLattice,
    check_finite_order,
    compose,
    finite_closure,
    hnf_lattice,
    inverse,
    point_group_image,
    translation_of,
)
from crystpres.symop import parse_symop


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


def test_translation_of():
    t = AffineIsometry.from_translation((1, Fraction(1, 2)))
    assert translation_of(t) == (1, Fraction(1, 2))
    assert translation_of(parse_symop("-x, y", 2)) is None


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        compose(parse_symop("x, y", 2), parse_symop("x, y, z", 3))


@settings(max_examples=120)
@given(g=_signed_perm(3), h=_signed_perm(3), k=_signed_perm(3))
def test_composition_associative(g, h, k):
    assert (g * h) * k == g * (h * k)


@settings(max_examples=120)
@given(g=_signed_perm(3))
def test_inverse_roundtrip(g):
    assert inverse(inverse(g)) == g
    assert (g * inverse(g)).is_identity()


def test_lattice_canonical_basis():
    a = hnf_lattice([(1, 1), (1, -1)])
    b = hnf_lattice([(1, 1), (0, 2)])
    assert a == b
    assert a.rank == 2


def test_lattice_membership_and_coordinates():
    lat = hnf_lattice([(Fraction(1, 2), Fraction(1, 2)), (0, 1)])
    assert lat.contains((1, 0))
    assert lat.contains((Fraction(1, 2), Fraction(3, 2)))
    assert not lat.contains((Fraction(1, 4), 0))
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
    assert lat.contains((5, 0, 0))
    assert not lat.contains((0, 1, 0))


def test_point_group_image_reduces_residual():
    lat = hnf_lattice([(1, 0), (0, 1)])
    g = parse_symop("3/2-x, 2+y", 2)
    p = point_group_image(g, lat)
    assert p.residual == (Fraction(1, 2), 0)
    assert p.linear == ((-1, 0), (0, 1))


def test_point_group_image_keeps_transverse_part():
    # rod-group setting: only the z axis is periodic, the x shift must
    # survive reduction or the quotient map would not be faithful
    lat = hnf_lattice([(0, 0, 1)], dimension=3)
    g = parse_symop("1/2+x, y, 2+z", 3)
    p = point_group_image(g, lat)
    assert p.residual == (Fraction(1, 2), 0, 0)


def test_finite_closure_point_group():
    lat = hnf_lattice([(1, 0), (0, 1)])
    r4 = parse_symop("-y, x", 2)
    m = parse_symop("y, x", 2)
    elems = finite_closure([r4, m], lat)
    assert len(elems) == 8


def test_finite_closure_bound():
    lat = hnf_lattice([(1, 0)], dimension=2)
    # y-translation maps to an infinite-order residual in the quotient
    g = parse_symop("x, 1+y", 2)
    with pytest.raises(ClosureBoundExceeded):
        finite_closure([g], lat, bound=50)


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
