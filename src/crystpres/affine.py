"""Exact affine isometries, translation lattices and point-group images.

Linear parts are integer matrices in the working (lattice) basis;
translations are exact rationals.  Everything is immutable and hashable,
so group elements deduplicate exactly in breadth-first searches.
"""

import math
from fractions import Fraction

from .intmat import (
    frac_rows,
    hnf,
    identity_matrix,
    mat_inverse_frac,
    mat_mul_int,
    mat_vec,
    scale_to_int,
    solve_in_rowspan,
)


class DimensionMismatch(ValueError):
    pass


class NotLatticeInvariant(ValueError):
    """The linear part of an element does not map the lattice into itself."""


class ClosureBoundExceeded(RuntimeError):
    """Finite closure did not terminate within the configured bound."""


class NotUnimodular(ValueError):
    """A linear part has no inverse over the integers."""


class InfiniteOrder(ValueError):
    """A linear part has infinite order: no crystallographic group has it."""


def check_finite_order(linear):
    """Raise InfiniteOrder unless the integer matrix A has finite order.

    Each finite order in GL(d, Z) is an lcm of orders k of roots of unity
    of degree phi(k) <= d, and phi(k) >= sqrt(k / 2).  So A has finite
    order iff A^N = I, N the lcm of all such k (12 for d = 2 or 3).
    """
    d = len(linear)
    n = math.lcm(*[k for k in range(1, 2 * d * d + 3)
                   if sum(math.gcd(j, k) == 1 for j in range(k)) <= d])
    power = linear
    for _ in range(n):  # a finite order divides n
        if power == identity_matrix(d):
            return
        power = mat_mul_int(power, linear)
    raise InfiniteOrder(f"linear part {linear} has infinite order")


class AffineIsometry:
    """An affine map x -> A x + t with integer A and rational t."""

    __slots__ = ("dimension", "linear", "translation", "_hash")

    def __init__(self, linear, translation):
        linear = tuple(tuple(int(x) for x in row) for row in linear)
        translation = tuple(Fraction(x) for x in translation)
        d = len(translation)
        if len(linear) != d or any(len(row) != d for row in linear):
            raise DimensionMismatch("linear part and translation disagree in dimension")
        object.__setattr__(self, "dimension", d)
        object.__setattr__(self, "linear", linear)
        object.__setattr__(self, "translation", translation)
        object.__setattr__(self, "_hash", hash((linear, translation)))

    def __setattr__(self, *args):
        raise AttributeError("AffineIsometry is immutable")

    @classmethod
    def identity(cls, dimension):
        return cls(identity_matrix(dimension), (0,) * dimension)

    @classmethod
    def from_translation(cls, vector):
        return cls(identity_matrix(len(vector)), vector)

    def __mul__(self, other):
        return compose(self, other)

    def __eq__(self, other):
        if not isinstance(other, AffineIsometry):
            return NotImplemented
        return self.linear == other.linear and self.translation == other.translation

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"AffineIsometry(linear={self.linear}, translation={self.translation})"

    def apply(self, point):
        point = tuple(Fraction(x) for x in point)
        return tuple(
            sum(self.linear[i][j] * point[j] for j in range(self.dimension))
            + self.translation[i]
            for i in range(self.dimension)
        )

    def is_identity(self):
        return (
            self.linear == identity_matrix(self.dimension)
            and all(x == 0 for x in self.translation)
        )


def compose(g, h):
    """g after h as maps: (g*h)(x) = g(h(x))."""
    if g.dimension != h.dimension:
        raise DimensionMismatch("cannot compose maps of different dimensions")
    lin = mat_mul_int(g.linear, h.linear)
    tr = tuple(
        a + b for a, b in zip(mat_vec(g.linear, h.translation), g.translation)
    )
    return AffineIsometry(lin, tr)


def inverse(g):
    inv_lin = mat_inverse_frac(g.linear)
    for row in inv_lin:
        if any(x.denominator != 1 for x in row):
            # inverse is still exact; keep integer storage by construction
            raise NotUnimodular(
                f"linear part {g.linear} is not invertible over the integers"
            )
    inv_lin = tuple(tuple(int(x) for x in row) for row in inv_lin)
    tr = tuple(-x for x in mat_vec(inv_lin, g.translation))
    return AffineIsometry(inv_lin, tr)


def translation_of(g):
    """The translation vector if g is a pure translation, else None."""
    if g.linear == identity_matrix(g.dimension):
        return g.translation
    return None


class TranslationLattice:
    """A rank-r lattice in Q^d with a canonical (HNF) rational basis."""

    __slots__ = ("dimension", "rank", "basis")

    def __init__(self, dimension, basis):
        basis = frac_rows(basis)
        object.__setattr__(self, "dimension", dimension)
        object.__setattr__(self, "rank", len(basis))
        object.__setattr__(self, "basis", basis)

    def __setattr__(self, *args):
        raise AttributeError("TranslationLattice is immutable")

    def __eq__(self, other):
        if not isinstance(other, TranslationLattice):
            return NotImplemented
        return self.dimension == other.dimension and self.basis == other.basis

    def __hash__(self):
        return hash((self.dimension, self.basis))

    def __repr__(self):
        return f"TranslationLattice(dim={self.dimension}, basis={self.basis})"

    def contains(self, vector):
        return self.coordinates(vector) is not None

    def coordinates(self, vector):
        """Integer coordinates of `vector` in the canonical basis, or None."""
        return solve_in_rowspan(self.basis, vector)

    def index_in(self, other):
        """Index [other : self] when self is a finite-index sublattice."""
        if self.rank != other.rank:
            return None
        sub = [other.coordinates(row) for row in self.basis]
        if any(c is None for c in sub):
            return None
        # |det| of the square integer coordinate matrix: its HNF is
        # triangular with positive pivots
        h = hnf(sub)
        if len(h) < self.rank:
            return None
        det = 1
        for i, row in enumerate(h):
            det *= row[i]
        return det


def hnf_lattice(vectors, dimension=None):
    """Canonical lattice generated by rational vectors (rows)."""
    vectors = [v for v in frac_rows(vectors) if any(x != 0 for x in v)]
    if not vectors:
        if dimension is None:
            raise ValueError("dimension required for an empty generating set")
        return TranslationLattice(dimension, ())
    d = len(vectors[0])
    int_rows, den = scale_to_int(vectors)
    h = hnf(int_rows)
    basis = tuple(tuple(Fraction(x, den) for x in row) for row in h)
    return TranslationLattice(d, basis)


class PointGroupElement:
    """Image of a group element in G/T: linear part plus residual shift.

    The residual translation is reduced so that its lattice coordinates
    lie in [0, 1); components transverse to the lattice are kept exactly
    (needed for subperiodic groups, where the quotient map must stay
    faithful on the residual part).
    """

    __slots__ = ("linear", "residual", "_hash")

    def __init__(self, linear, residual):
        linear = tuple(tuple(int(x) for x in row) for row in linear)
        residual = tuple(Fraction(x) for x in residual)
        object.__setattr__(self, "linear", linear)
        object.__setattr__(self, "residual", residual)
        object.__setattr__(self, "_hash", hash((linear, residual)))

    def __setattr__(self, *args):
        raise AttributeError("PointGroupElement is immutable")

    def __eq__(self, other):
        if not isinstance(other, PointGroupElement):
            return NotImplemented
        return self.linear == other.linear and self.residual == other.residual

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"PointGroupElement(linear={self.linear}, residual={self.residual})"

    def is_identity(self):
        d = len(self.residual)
        return self.linear == identity_matrix(d) and all(x == 0 for x in self.residual)


def lattice_frame(lattice):
    """Rows whose dot products with a vector give its lattice coordinates.

    The lattice basis is extended greedily by unit vectors to a basis of
    Q^d; the rows are those of the inverse basis matrix that belong to
    the lattice vectors.  Compute it once per lattice and pass it to the
    functions below.
    """
    d = lattice.dimension
    ext = [list(map(Fraction, row)) for row in lattice.basis]
    for j in range(d):
        if len(ext) == d:
            break
        trial = ext + [[Fraction(int(i == j)) for i in range(d)]]
        if len(hnf(scale_to_int(trial)[0])) == len(trial):
            ext = trial
    return mat_inverse_frac(tuple(zip(*ext)))[:lattice.rank]


def _reduce_mod_lattice(vector, lattice, frame=None):
    """Canonical residual of `vector` modulo the lattice.

    Moves the vector by lattice vectors until its coordinates along them
    (rows of `frame`, default `lattice_frame(lattice)`) lie in [0, 1);
    the part transverse to the lattice is kept.
    """
    out = [Fraction(x) for x in vector]
    if frame is None:
        frame = lattice_frame(lattice)
    for row, b in zip(frame, lattice.basis):
        k = math.floor(sum(a * x for a, x in zip(row, vector)))
        if k:
            out = [x - k * y for x, y in zip(out, b)]
    return tuple(out)


def point_group_image(g, lattice, frame=None):
    """Canonical representative of the coset g*T in G/T."""
    for row in lattice.basis:
        image = mat_vec(g.linear, row)
        if not lattice.contains(image):
            raise NotLatticeInvariant(
                f"linear part {g.linear} does not preserve the lattice"
            )
    return PointGroupElement(
        g.linear, _reduce_mod_lattice(g.translation, lattice, frame))


def point_group_compose(a, b, lattice, frame=None):
    lin = mat_mul_int(a.linear, b.linear)
    tr = tuple(
        x + y for x, y in zip(mat_vec(a.linear, b.residual), a.residual)
    )
    return PointGroupElement(lin, _reduce_mod_lattice(tr, lattice, frame))


def finite_closure(generators, lattice, bound=10000):
    """Closure of point-group generator images under multiplication.

    Returns the list of PointGroupElements in deterministic BFS order
    (identity first).  Raises ClosureBoundExceeded past `bound` elements.
    """
    d = lattice.dimension
    ident = PointGroupElement(identity_matrix(d), (0,) * d)
    frame = lattice_frame(lattice)
    gens = [point_group_image(g, lattice, frame) for g in generators]
    elements = [ident]
    seen = {ident}
    frontier = [ident]
    while frontier:
        new = []
        for x in frontier:
            for s in gens:
                y = point_group_compose(x, s, lattice, frame)
                if y not in seen:
                    seen.add(y)
                    elements.append(y)
                    new.append(y)
                    if len(elements) > bound:
                        raise ClosureBoundExceeded(
                            f"point-group closure exceeded {bound} elements"
                        )
        frontier = new
    return elements
