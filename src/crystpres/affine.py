"""Exact affine isometries, translation lattices and integer element codes.

Linear parts are integer matrices in the working (lattice) basis;
translations are exact rationals.  Everything is immutable and hashable,
so group elements deduplicate exactly in breadth-first searches.

WalkKernel is the one integer element code: x -> A x + t is the int
tuple (id(A), N t), id(A) an interned linear part and N the lcm of the
translation denominators.  Products and the reduction modulo a lattice
are integer-only.  A kernel holds its letters' images as codes
(WalkKernel.images), the plain data that the point-group closure
(finite_closure: P, its action and the lattice T), the arcs of the
Cayley quotient (bfs._quotient_arcs) and the evaluation of words read;
every walk then runs on the quotient's cover (bfs.CoverCode), not on
codes.
"""

import functools
import math
from fractions import Fraction

from .intmat import (
    frac_rows,
    hnf,
    hnf_with_transform,
    identity_matrix,
    independent,
    mat_inverse_frac,
    mat_mul_int,
    mat_vec,
    scale_to_int,
    solve_in_rowspan,
)


class DimensionMismatch(ValueError):
    pass


class NotUnimodular(ValueError):
    """A linear part has no inverse over the integers."""


class InfiniteOrder(ValueError):
    """A linear part, or the point group, is infinite: no crystallographic
    group has it."""


def check_finite_order(linear):
    """Raise InfiniteOrder unless the integer matrix A has finite order.

    Each finite order in GL(d, Z) is an lcm of orders k of roots of unity
    of degree phi(k) <= d, and phi(k) >= sqrt(k / 2).  So A has finite
    order iff A^N = I, N the lcm of all such k (12 for d = 2 or 3).
    """
    power, one = linear, identity_matrix(len(linear))
    for _ in range(_order_exponent(len(linear))):  # a finite order divides it
        if power == one:
            return
        power = mat_mul_int(power, linear)
    raise InfiniteOrder(f"linear part {linear} has infinite order")


@functools.cache
def _order_exponent(d):
    """check_finite_order's N in dimension d, phi(k) by a prime sieve."""
    phi = list(range(2 * d * d + 3))
    for p in range(2, len(phi)):
        if phi[p] == p:  # no smaller prime divides p
            phi[p::p] = [x - x // p for x in phi[p::p]]
    return math.lcm(*[k for k in range(1, len(phi)) if phi[k] <= d])


def _integer(x):
    """A linear part entry as an int; ValueError unless it is integral."""
    q = Fraction(x)
    if q.denominator != 1:
        raise ValueError(f"linear part entry {x} is not an integer")
    return int(q)


class AffineIsometry:
    """An affine map x -> A x + t with integer A and rational t."""

    __slots__ = ("dimension", "linear", "translation", "_hash")

    def __init__(self, linear, translation):
        linear = tuple(tuple(x if type(x) is int else _integer(x) for x in row)
                       for row in linear)
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
        return tuple(a + b for a, b in zip(mat_vec(self.linear, point),
                                           self.translation))

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
    # A is unimodular iff its HNF is I, and then U * A = I: U is A^-1
    h, inv_lin = hnf_with_transform(g.linear)
    if h != identity_matrix(g.dimension):
        raise NotUnimodular(
            f"linear part {g.linear} is not invertible over the integers"
        )
    tr = tuple(-x for x in mat_vec(inv_lin, g.translation))
    return AffineIsometry(inv_lin, tr)


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


class WalkKernel:
    """Integer codes of the group generated by `isometries`, N = `scale`.

    Signed letter k (-k) stands for isometries[k-1] (its inverse).
    `images` maps each letter, in the walk order 1, -1, 2, -2, ..., to
    its image's code; a letter moves g to product(images[letter], g).
    Denominators of the vectors in `points` are folded into the scale
    so those vectors encode exactly as well.
    Raises NotUnimodular when a generator has no integer inverse.
    """

    def __init__(self, isometries, points=()):
        self.dimension = d = isometries[0].dimension
        images = {}
        for k, g in enumerate(isometries, start=1):
            images[k], images[-k] = g, inverse(g)
        self.scale = scale_to_int(
            [g.translation for g in images.values()] + list(points))[1]
        self._linears = []
        self._ids = {}
        self._left = []  # per linear id: (sparse rows, {linear id: product})
        self.identity = self.encode(AffineIsometry.identity(d))
        self.images = {x: self.encode(g) for x, g in images.items()}

    def evaluate(self, word):
        """Code of the element a word evaluates to (words.evaluate)."""
        code, images, product = self.identity, self.images, self.product
        for x in word:
            code = product(images[x], code)
        return code

    def _intern(self, linear):
        lid = self._ids.get(linear)
        if lid is None:
            lid = self._ids[linear] = len(self._linears)
            self._linears.append(linear)
            # rows indexed into a code (offset 1 skips the linear id)
            self._left.append((tuple(
                tuple((j + 1, c) for j, c in enumerate(row) if c)
                for row in linear), {}))
        return lid

    def product(self, a, b):
        """Code of decode(a) * decode(b), on the sparse rows of a's linear
        part and the memo of its products."""
        rows, products = self._left[a[0]]
        p = products.get(b[0])
        if p is None:
            p = products[b[0]] = self._intern(mat_mul_int(
                self._linears[a[0]], self._linears[b[0]]))
        return (p, *[sum([c * b[j] for j, c in terms]) + s
                     for terms, s in zip(rows, a[1:])])

    def modulo(self, lattice):
        """The reduction of codes modulo N L: code -> (residual, shift).

        The residual codes the canonical representative of the coset
        g L: its translation has coordinates in [0, 1) along the basis
        of L, and its part transverse to L is kept (subperiodic groups
        need it for a faithful quotient).  `shift` holds the integer
        coordinates of g's translation minus the residual's in that
        basis.  The basis must lie on the kernel's scale (pass it among
        `points`).
        """
        # extend the basis of L by unit vectors to a basis of Q^d; the
        # first rows of the inverse give coordinates along L
        rows, d = [], self.dimension
        ext = [v for v in lattice.basis + identity_matrix(d)
               if len(rows) < d and independent(rows, v)]
        inv = mat_inverse_frac(tuple(zip(*ext)))
        frame, den = scale_to_int(inv[:lattice.rank])
        den *= self.scale
        terms = [(row, self.encode(AffineIsometry.from_translation(b))[1:])
                 for row, b in zip(frame, lattice.basis)]

        def reduce(code):
            t = code[1:]
            shift = tuple(sum([a * x for a, x in zip(row, t)]) // den
                          for row, _ in terms)
            for k, (_, b) in zip(shift, terms):
                if k:
                    t = [x - k * y for x, y in zip(t, b)]
            return (code[0], *t), shift

        return reduce

    def encode(self, g):
        t = [x * self.scale for x in g.translation]
        if any(x.denominator != 1 for x in t):
            raise ValueError("translation outside the kernel's scale")
        return (self._intern(g.linear), *map(int, t))

    def vector(self, code):
        return tuple(Fraction(v, self.scale) for v in code[1:])

    def decode(self, code):
        return AffineIsometry(self._linears[code[0]], self.vector(code))


def minkowski_bound(d):
    """Minkowski's bound M(d): the order of every finite subgroup of
    GL(d, Z) divides the product over primes p of p^e, e the sum of
    floor(d / (p^k (p - 1))) over k >= 0.  M(1..4) = 2, 24, 48, 5760."""
    bound = 1
    for p in range(2, d + 2):
        if all(p % q for q in range(2, p)):
            q = p - 1
            while q <= d:
                bound *= p ** (d // q)
                q *= p
    return bound


def finite_closure(generators):
    """The point group P and the translation lattice T of G = <generators>.

    One breadth-first closure from the identity, right-multiplying by the
    generators in order, keyed on the linear part: the first code u_p
    that reaches a linear part p stands for the coset T u_p.  Each
    product x * s whose linear part p was seen before gives the Schreier
    translation tau = t(x * s) - t(u_p), so that x * s = tau * u_p; by
    Schreier's lemma these generate T, which is their HNF.  (The order
    matters: the conjugate u_p^-1 * x * s can span a proper sublattice.)
    More than minkowski_bound(d) linear parts prove P infinite and raise
    InfiniteOrder.

    Returns (kernel, reduce, elements, lattice): the WalkKernel of the
    generators, reduce = kernel.modulo(lattice), the residual codes of
    P = G/T in discovery order (the identity first) and T, of rank 0
    when G is finite.
    """
    return _closure(WalkKernel(generators), math.inf)


def _closure(kernel, max_parts):
    """finite_closure on the kernel's generators (its positive letters),
    or None once it holds more than max_parts linear parts short of
    Minkowski's bound: a cap on its cost."""
    bound = minkowski_bound(kernel.dimension)
    gens = [code for x, code in kernel.images.items() if x > 0]
    first = {kernel.identity[0]: kernel.identity}  # linear id -> u_p
    taus = {}  # an insertion-ordered set of nonzero Schreier translations
    frontier = [kernel.identity]
    while frontier:
        new = []
        for x in frontier:
            for s in gens:
                y = kernel.product(x, s)
                u = first.get(y[0])
                if u is None:
                    first[y[0]] = y
                    new.append(y)
                    if len(first) > bound:
                        raise InfiniteOrder(
                            f"infinite point group: more than {bound} "
                            "linear parts"
                        )
                    if len(first) > max_parts:
                        return None
                elif y != u:
                    taus[tuple(a - b for a, b in zip(y[1:], u[1:]))] = None
        frontier = new
    lattice = TranslationLattice(kernel.dimension, [
        [Fraction(x, kernel.scale) for x in row] for row in hnf(list(taus))])
    reduce = kernel.modulo(lattice)
    return kernel, reduce, [reduce(u)[0] for u in first.values()], lattice
