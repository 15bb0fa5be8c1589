"""Exact integer and rational linear algebra."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crystpres.intmat import (
    frac_rows,
    gf2_reduce,
    hnf,
    hnf_with_transform,
    identity_matrix,
    independent,
    left_kernel,
    mat_inverse_frac,
    mat_mul_int,
    mat_vec,
    scale_to_int,
    smith_left_transform,
    solve_in_rowspan,
    vec_mat,
)

from test_pipeline import _gf2_rank

_entries = st.integers(min_value=-6, max_value=6)


def _matrices(max_rows=4, max_cols=3):
    return st.integers(min_value=1, max_value=max_rows).flatmap(
        lambda n: st.integers(min_value=1, max_value=max_cols).flatmap(
            lambda m: st.lists(
                st.lists(_entries, min_size=m, max_size=m).map(tuple),
                min_size=n,
                max_size=n,
            ).map(tuple)
        )
    )


def test_hnf_examples():
    assert hnf([(2, 0), (0, 2)]) == ((2, 0), (0, 2))
    assert hnf([(1, 1), (1, -1)]) == ((1, 1), (0, 2))
    assert hnf([(0, 0, 0)]) == ()
    # pivots positive, entries above reduced into [0, pivot)
    assert hnf([(-3, 1), (0, 5)]) == ((3, 4), (0, 5))


@settings(max_examples=150)
@given(a=_matrices())
def test_hnf_idempotent_and_basis_invariant(a):
    h = hnf(a)
    assert hnf(h) == h
    # prepending a row already in the span leaves the HNF unchanged
    if h:
        extra = tuple(sum(2 * x for x in col) for col in zip(h[0], h[0]))
        assert hnf((h[0],) + a) == h


@settings(max_examples=150)
@given(a=_matrices())
def test_hnf_transform_is_unimodular(a):
    h, u = hnf_with_transform(a)
    prod = mat_mul_int(u, a)
    assert tuple(tuple(r) for r in prod[: len(h)]) == h
    assert all(all(x == 0 for x in row) for row in prod[len(h) :])
    # u unimodular: it has an integer inverse, so det = +-1
    inv = mat_inverse_frac(u)
    assert all(f.denominator == 1 for row in inv for f in row)


@settings(max_examples=40, deadline=None)
@given(a=st.integers(min_value=1, max_value=4).flatmap(
    lambda m: st.lists(st.lists(st.integers(-50, 50), min_size=m,
                                max_size=m).map(tuple),
                       min_size=1, max_size=200)))
def test_hnf_without_transform_is_the_same_form(a):
    assert hnf(a) == hnf_with_transform(a)[0]


def test_left_kernel_fraction_rows():
    rows = [(Fraction(1, 2), Fraction(1, 2)), (1, 1), (0, 3)]
    k = left_kernel(rows)
    assert len(k) == 1
    x = k[0]
    assert all(
        sum(x[i] * Fraction(rows[i][j]) for i in range(3)) == 0 for j in range(2)
    )


@settings(max_examples=150)
@given(a=_matrices())
def test_left_kernel_annihilates(a):
    for x in left_kernel(a):
        assert all(sum(xi * row[j] for xi, row in zip(x, a)) == 0 for j in range(len(a[0])))


def test_solve_in_rowspan():
    rows = [(2, 0, 1), (0, 3, 1)]
    assert solve_in_rowspan(rows, (2, 3, 2)) == (1, 1)
    assert solve_in_rowspan(rows, (1, 0, 0)) is None
    assert solve_in_rowspan([], (0, 0)) == ()
    assert solve_in_rowspan([], (1, 0)) is None
    # rational rows are handled
    x = solve_in_rowspan([(Fraction(1, 2), 0), (0, Fraction(1, 3))], (1, 1))
    assert x == (2, 3)


@settings(max_examples=150)
@given(a=_matrices(), coeff=st.lists(_entries, min_size=4, max_size=4))
def test_solve_in_rowspan_roundtrip(a, coeff):
    target = tuple(
        sum(coeff[i] * a[i][j] for i in range(len(a))) for j in range(len(a[0]))
    )
    x = solve_in_rowspan(a, target)
    assert x is not None
    assert tuple(sum(x[i] * a[i][j] for i in range(len(a))) for j in range(len(a[0]))) == target


def test_smith_left_transform_torsion():
    u, diag = smith_left_transform([(2, 0, 0), (0, 3, 0)])
    assert diag == (1, 6) or diag == (2, 3) or sorted(diag) == [1, 6]
    # u unimodular over the 3x3 ambient space
    inv = mat_inverse_frac(u)
    assert all(f.denominator == 1 for row in inv for f in row)


def test_smith_left_transform_contract():
    rows = [(4, 0, 0), (2, 6, 0), (1, 1, 10)]
    u, diag = smith_left_transform(rows)
    assert len(diag) == 3 and all(d > 0 for d in diag)
    # in coordinates y = U x the row span is diag[i] * Z componentwise
    for r in rows:
        y = mat_vec(u, r)
        assert all(y[i] % diag[i] == 0 for i in range(3))
    # the subgroup index is preserved
    assert diag[0] * diag[1] * diag[2] == 4 * 6 * 10


def test_smith_left_transform_rejects_dependent_rows():
    with pytest.raises(ValueError):
        smith_left_transform([(1, 2, 0), (2, 4, 0)])


def _smith_lattice(u, diag):
    """HNF of the lattice that (U, diag) describes: x = U^-1 y, so it is
    spanned by diag[i] times column i of U^-1."""
    inv = mat_inverse_frac(u)
    assert all(x.denominator == 1 for row in inv for x in row)  # unimodular
    return hnf([tuple(int(d * row[i]) for row in inv)
                for i, d in enumerate(diag)])


@pytest.mark.parametrize("rows, index", [
    ([(2, 2, 0), (0, 2, 2)], 4),
    ([(-2, -2, 0), (0, -1, -1)], 2),
    ([(-2, -2, 0), (0, -2, 0)], 4),
])
def test_smith_left_transform_ends_on_equal_pivots(rows, index):
    # a pivot-and-clear loop with floor-division Euclid steps cycled
    # forever on these: the pivot stayed 2 while its row and column
    # kept refilling each other
    u, diag = smith_left_transform(rows)
    assert diag[0] * diag[1] == index
    assert _smith_lattice(u, diag) == hnf(rows)


_smith_entries = st.integers(min_value=-9, max_value=9)


def _row_sets():
    """k integer rows of length m, 1 <= k <= m <= 4."""
    return st.integers(min_value=1, max_value=4).flatmap(
        lambda m: st.integers(min_value=1, max_value=m).flatmap(
            lambda k: st.lists(
                st.lists(_smith_entries, min_size=m, max_size=m).map(tuple),
                min_size=k,
                max_size=k,
            )
        )
    )


@settings(max_examples=300)
@given(rows=_row_sets())
def test_smith_left_transform_spans_the_same_lattice(rows):
    if len(hnf(rows)) < len(rows):
        with pytest.raises(ValueError, match="linearly dependent"):
            smith_left_transform(rows)
        return
    u, diag = smith_left_transform(rows)
    assert len(diag) == len(rows) and all(d > 0 for d in diag)
    assert _smith_lattice(u, diag) == hnf(rows)


@settings(max_examples=150)
@given(rows=_row_sets(), coeff=st.lists(_smith_entries, min_size=4,
                                        max_size=4))
def test_smith_left_transform_rejects_a_row_combination(rows, coeff):
    extra = vec_mat(coeff[:len(rows)], rows)
    with pytest.raises(ValueError, match="linearly dependent"):
        smith_left_transform(rows + [extra])


def test_mat_inverse_frac():
    a = [(1, 2), (3, 5)]
    inv = mat_inverse_frac(a)
    d = len(a)
    prod = [
        [sum(Fraction(a[i][k]) * inv[k][j] for k in range(d)) for j in range(d)]
        for i in range(d)
    ]
    assert prod == [[1, 0], [0, 1]]


def test_vector_matrix_products():
    a = [(1, 2), (3, 4)]
    assert mat_vec(a, (1, 1)) == (3, 7)
    assert vec_mat((1, 1), a) == (4, 6)
    assert identity_matrix(3) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


_rationals = st.one_of(
    st.integers(-50, 50),
    st.fractions(max_denominator=36).filter(lambda x: abs(x) < 50),
    st.sampled_from([0.5, -0.25, 3.0]))


def _two_step_scale_to_int(rows):
    """scale_to_int as frac_rows followed by a common_denominator that
    wrapped every entry in Fraction again."""
    rows = frac_rows(rows)
    den = 1
    for row in rows:
        for x in row:
            den = math.lcm(den, Fraction(x).denominator)
    return tuple(tuple(x.numerator * (den // x.denominator) for x in row)
                 for row in rows), den


@settings(max_examples=200)
@given(rows=st.integers(0, 3).flatmap(lambda m: st.lists(
    st.lists(_rationals, min_size=m, max_size=m), max_size=4)))
def test_scale_to_int_is_the_two_step_form(rows):
    """One lcm over the normalised denominators gives the same (integer
    rows, denominator) as the two-step form."""
    old = _two_step_scale_to_int(rows)
    rows, den = scale_to_int(rows)
    assert (rows, den) == old
    assert all(type(x) is int for row in rows for x in row + (den,))


_echelon_entries = st.one_of(
    st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4))


@settings(max_examples=150)
@given(st.integers(1, 5).flatmap(lambda m: st.lists(
    st.lists(_echelon_entries, min_size=m, max_size=m).map(tuple),
    min_size=1, max_size=4).flatmap(lambda pool: st.lists(
        st.sampled_from(pool + [(0,) * m]), max_size=8))))
def test_independent_keeps_the_rows_that_raise_the_rank(rows):
    """Int and Fraction rows, zero rows and repeats: a row is kept iff it
    raises the HNF rank of the rows before it."""
    kept = []
    for k, row in enumerate(rows):
        before = len(kept)
        rank = len(hnf(scale_to_int(rows[:k + 1])[0]))
        assert independent(kept, row) == (rank > before)
        assert len(kept) == rank


@settings(max_examples=300)
@given(st.lists(st.integers(0, 2 ** 10 - 1), max_size=14),
       st.integers(0, 2 ** 10 - 1))
def test_gf2_reduce_builds_a_basis_of_the_span(rows, row):
    """Rows inserted as they reduce give a basis of the GF(2) rank of
    the rows; a row reduces to 0 iff it lies in their span."""
    basis = {}
    for r in rows:
        if r := gf2_reduce(basis, r):
            basis[r.bit_length()] = r
    assert len(basis) == _gf2_rank(rows)
    assert not any(gf2_reduce(basis, r) for r in rows)
    in_span = _gf2_rank(rows + [row]) == _gf2_rank(rows)
    assert (gf2_reduce(basis, row) == 0) == in_span
