"""Breadth-first exploration of Cayley graphs of affine isometry groups.

Vertices are group elements, edges are right multiplication by a
generator in the word sense: appending letter x to a word moves from g
to image(x) * g (letters act in reading order, see words.evaluate).
Provides coordination sequences, geodesic counting and the harvest of
shortest translation words that feeds the presentation pipeline.  The
pipeline (present, verify) stops that harvest at the first sphere whose
words span T; only the public shortest_translation_words walks
DEFAULT_STABLE_SPHERES more, for its `words`.

Every walk runs on the periodic cover of a labelled quotient graph,
for a group built on the integer element codes of affine.WalkKernel
(an interned linear part plus N times the translation, N also covering
any target the walk must recognise); elements are converted to and
from AffineIsometry only at the API boundary.

The reverse-arc rule: every arc of a walked cover has its reverse (a
net lists each edge both ways; arc j ^ 1 of a Cayley quotient reverses
arc j), so the neighbours N(S_r) of sphere S_r lie in S_(r-1), S_r and
S_(r+1), and S_(r+1) is N(S_r) minus S_r and S_(r-1).  No walk holds
its ball: sizes walk the cover breadth first from one node
(shell_sizes) on three spheres, in a reduced frame (_frame, on the
spanning tree of _tree that validates and places nets), on int bitsets
per slot, a packed int node (CoverCode) of the coordinates past the
bitsets' box; lengths and path counts walk it two spheres at a time
from both ends of a route (shell_geodesics), on CoverCode nodes that
carry path counts.
For a group the quotient is _cayley_quotient (netgraph.from_cayley
reads it as a net); the odd-cycle girth walks its parity double cover,
and the presentation pipeline reads the point group and every G/mT off
its arcs (_quotient_arcs: letter j steps along arc j; cosets.cover_table).
The one walk that needs words and discovery order, the harvest, holds
three spheres of CoverCode nodes and each node's first-discovered word;
finite Cayley graphs are cosets.CosetTable transversals.
"""

import math
from collections import namedtuple
from fractions import Fraction
from itertools import chain, cycle, islice
from operator import add, mul, sub

from .affine import AffineIsometry, WalkKernel, _closure, check_finite_order
from .intmat import (hnf, hnf_with_transform, identity_matrix, independent,
                     solve_hnf, vec_mat)
from .symop import format_symop

# Nodes a walk holds, and linear parts a point-group closure lists, at
# most: each walk reads it once per call, at its check.
DEFAULT_MAX_ELEMENTS = 2_000_000
DEFAULT_RADIUS_CAP = 30
DEFAULT_STABLE_SPHERES = 3


class BallBoundExceeded(RuntimeError):
    pass


class LatticeNotFound(RuntimeError):
    pass


class FiniteGroup(LatticeNotFound):
    """The group is finite, of the given order: it has no translations."""

    def __init__(self, order):
        super().__init__(f"finite group of order {order}: no translation lattice")


class BadGenerators(ValueError):
    """An empty generating list, a non-isometry or the identity."""


def _kernel(generators, points=()):
    """Kernel of named generators: a list of (name, AffineIsometry).

    Rejects an empty list, a non-isometry or the identity (BadGenerators),
    linear parts with no integer inverse (affine.NotUnimodular), then
    those of infinite order (affine.InfiniteOrder).
    """
    if not generators:
        raise BadGenerators("empty generating set")
    for name, g in generators:
        if not isinstance(g, AffineIsometry):
            raise BadGenerators(f"generator {name!r} is not an affine isometry")
        if g.is_identity():
            raise BadGenerators(f"generator {name!r} is the identity")
    kernel = WalkKernel([g for _, g in generators], points)
    for _, g in generators:
        check_finite_order(g.linear)
    return kernel


def _cayley_quotient(generators, points=()):
    """(closure, _quotient_arcs(closure)), closure affine.finite_closure
    on _kernel(generators, points); BallBoundExceeded past
    DEFAULT_MAX_ELEMENTS linear parts (M(6) = 2,903,040)."""
    bound = DEFAULT_MAX_ELEMENTS
    closure = _closure(_kernel(generators, points), bound)
    if closure is None:
        raise BallBoundExceeded(f"point group exceeded {bound} elements")
    return closure, _quotient_arcs(closure)


def _quotient_arcs(closure):
    """The Cayley graph of a closure modulo T in the words' own action:
    adj[i] lists per letter x_j, in walk order, the arc j = (k, s) with
    u_i * image(x_j)^-1 = t_s * u_k, t_s in T, u_i the coset
    representatives.  g -> g^-1 maps the words' g -> image(x) * g onto
    g -> g * image(x)^-1, fixing 1, so letter j steps along arc j and
    balls agree.  Arc j's reverse is arc j ^ 1, of the inverse letter."""
    kernel, reduce, elements, _ = closure
    index = {u: i for i, u in enumerate(elements)}
    inverses = [kernel.images[-x] for x in kernel.images]
    return [[(index[k], s) for k, s in
             (reduce(kernel.product(u, y)) for y in inverses)]
            for u in elements]


class CoverCode:
    """Cover nodes within `radius` edges of cell 0, packed into ints, for
    walks that keep something per node: shell_sizes' slots (bitsets),
    shell_geodesics' path counts, the harvest's words and the numbering
    of netgraph._ball.

    adj[v] lists the arcs (w, shift) leaving quotient vertex v, n =
    len(adj); the rank is read off any arc, as a vertex off the walk's
    component may have none.  Node (v, s) is the int v + n * sum_i s_i *
    B**i.  A node r edges from cell 0 has every |s_i| <= r * S, S the
    largest |shift component|, so with B = 2 * radius * S + 1 no two
    such nodes share a code.  Arc k of vertex p % n leads to node
    p + steps[p % n][k][1].
    """

    def __init__(self, adj, radius):
        self.n = len(adj)
        shifts = [tuple(map(abs, s)) for arcs in adj for _, s in arcs]
        self.top = max(chain(*shifts), default=0)
        self.top1 = max(map(sum, shifts), default=0)
        self.reach = max(radius, 1) * self.top
        self.radix = 2 * self.reach + 1
        rank = len(next((s for arcs in adj for _, s in arcs), ()))
        self.weights = [self.n * self.radix ** i for i in range(rank)]
        self.steps = [[(w, self.encode(w, t) - v) for w, t in arcs]
                      for v, arcs in enumerate(adj)]

    def encode(self, v, shift):
        return v + sum(w * x for w, x in zip(self.weights, shift))

    def within(self, a, b, k):
        """Whether shift b lies in the box that k arcs span from shift a:
        each coordinate within k S, the 1-norm within k S1 (the largest
        1-norm of a shift).  No cover path of k arcs leaves it."""
        offset = [abs(y - x) for x, y in zip(a, b)]
        return (max(offset, default=0) <= k * self.top
                and sum(offset) <= k * self.top1)

    def decode(self, p):
        v, e = p % self.n, p // self.n
        shift = []
        for _ in self.weights:
            digit = (e + self.reach) % self.radix - self.reach
            shift.append(digit)
            e = (e - digit) // self.radix
        return v, tuple(shift)


def _tree(adj, base):
    """(t, arcs, order) of a breadth-first spanning tree from base: t[v]
    is the shift of the tree path to v, None off base's component; arcs[v]
    lists (w, s + t_v - t_w) per arc (w, s) of adj[v] (none off it); order
    lists the component breadth first as (v, (u, i)), adj[u][i] the tree
    arc into v ((base, None) first).
    These shifts span the lattice L of the cover component of (base, 0);
    the cover over base's component is connected iff L = Z^rank."""
    t = [None] * len(adj)
    t[base] = (0,) * len(next((s for arcs in adj for _, s in arcs), ()))
    order = [(base, None)]
    for v, _ in order:
        for i, (w, s) in enumerate(adj[v]):
            if t[w] is None:
                t[w] = tuple(map(add, t[v], s))
                order.append((w, (v, i)))
    arcs = [[(w, tuple(map(sub, map(add, s, t[v]), t[w]))) for w, s in out]
            if t[v] is not None else [] for v, out in enumerate(adj)]
    return t, arcs, order


def _frame(adj, base):
    """The cover component of node (base, 0), relabelled: arcs[v] lists
    (w, c), c the integer coordinates in a basis B of L of the shift
    s + t_v - t_w that _tree gives the arc.  Node (v, t_v + c B) becomes
    (v, c), so spheres keep their sizes.  B is the shortest shifts that
    raise the rank (intmat.independent) if they generate L, else their
    HNF."""
    arcs = _tree(adj, base)[1]
    shifts = sorted({s for out in arcs for _, s in out},
                    key=lambda s: (sum(x * x for x in s), s))
    span, rows = hnf(shifts), []
    basis = tuple(islice((s for s in shifts if independent(rows, s)),
                         len(span)))
    for basis in basis, span:
        transform = hnf_with_transform(basis)
        coords = {s: solve_hnf(transform, s) for s in shifts}
        if None not in coords.values():
            return [[(w, coords[s]) for w, s in out] for out in arcs]


def _box_reach(frame, base, k, box):
    """The largest c_i, then -c_i, i < k, on walks of at most `box` arcs
    from node (base, 0) of _frame(adj, base).  An arc more maps it per
    vertex by a max-plus linear map, which commutes with adding a
    constant: once round t is round t0 plus a constant, the rounds repeat
    from t0 with period t - t0 (past a transient: max-plus cyclicity)."""
    reach = [{} for _ in frame]  # w: the largest +-c_i, i < k, on v -> w
    for v, out in enumerate(frame):
        for w, c in out:
            c = c[:k] + tuple(-x for x in c[:k])
            reach[v][w] = tuple(map(max, reach[v].get(w, c), c))
    far, seen, past = {base: (0,) * 2 * k}, {}, []  # far[v]: base -> v
    for t in range(box + 1):  # far only grows: one length, one vertex list
        key = tuple(map(sub, chain(*far.values()), cycle(far[base])))
        t0 = seen.setdefault(key, t)
        past.append((far[base], key))
        if t0 < t or t == box:
            break
        for v, ahead in list(far.items()):  # walks of one more arc
            for w, c in reach[v].items():
                c = tuple(map(add, ahead, c))
                far[w] = tuple(map(max, far.get(w, c), c))
    q, j = divmod(box - t0, t - t0 or 1)
    zero, key = past[t0 + j]
    return [z + q * (y - x) + max(key[i::2 * k]) for i, (z, y, x)
            in enumerate(zip(zero, far[base], past[t0][0]))]


def shell_sizes(adj, base, radius):
    """Sphere sizes |S_0|, ..., |S_radius| about node (base, 0) of the
    cover of adj, breadth first in _frame(adj, base).  A slot is the
    CoverCode(radius `box`) node of vertex v and the c_i past the m-th,
    m = 3 or the rank if lower, and per sphere it holds an int bitset
    over a box of the first m.  The walk holds three spheres by the
    module's reverse-arc rule: S_(r+1) is N(S_r) minus the bits of S_r
    and S_(r-1), slot by slot.  The box is what walks of `box` =
    min(radius, 64) arcs reach, read off the first rounds of _box_reach
    once they repeat; it doubles and the walk starts over while radius
    > box.  m drops while the box passes 64 bits a node of the ball it
    can hold (bound = DEFAULT_MAX_ELEMENTS nodes at most, and arcs^r at
    radius r); at m = 0 (a line, or m dropped) the box is one bit, and
    box = radius.  Raises BallBoundExceeded once the ball passes the
    bound.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    bound = DEFAULT_MAX_ELEMENTS
    frame = _frame(adj, base)
    n, rank = len(frame), len(next((c for out in frame for _, c in out), ()))
    m = k = min(rank, 3) if rank > 1 else 0
    arcs = max(map(len, frame))
    box = min(radius, 64) if m else radius
    while True:
        top = _box_reach(frame, base, k, box if m else 0)
        low = top[k:]
        extent = [hi + lo + 1 for hi, lo in zip(top, low)]
        ball = (arcs ** (box + 1) - 1) // (arcs - 1) if m else 1
        while m and math.prod(extent[:m]) > 64 * min(ball, bound):
            m -= 1
        box = box if m else radius
        strides = [math.prod(extent[:i]) for i in range(m)]
        cover = CoverCode([[(w, c[m:]) for w, c in out] for out in frame], box)
        steps = [[(dp, sum(map(mul, c, strides)))
                  for (_, dp), (_, c) in zip(packed, out)]
                 for packed, out in zip(cover.steps, frame)]
        prev, sphere = {}, {base: 1 << sum(map(mul, low, strides))}
        sizes, total = [1], 1
        for r in range(1, min(radius, box) + 1):
            nxt = {}
            for p, bits in sphere.items():
                for dp, d in steps[p % n]:
                    nxt[p + dp] = nxt.get(p + dp, 0) | (
                        bits << d if d >= 0 else bits >> -d)
            for p, bits in nxt.items():
                nxt[p] = bits ^ (bits & (sphere.get(p, 0) | prev.get(p, 0)))
            prev, sphere = sphere, {p: bits for p, bits in nxt.items() if bits}
            sizes.append(sum(map(int.bit_count, sphere.values())))
            total += sizes[-1]
            if total > bound:
                raise BallBoundExceeded(
                    f"ball exceeded {bound} elements at radius {r}")
        if radius <= box:
            return sizes
        box = min(2 * box, radius)


def shell_geodesics(adj, start, goal, radius):
    """(length, count) of the shortest cover paths of adj from node start
    to node goal, both (v, shift), or None past radius; None at once for
    a goal out of the box radius arcs span (CoverCode.within), which also
    keeps the CoverCode(adj, radius) codes of both ends' nodes distinct.
    Each end holds two spheres {code: path count}, by the module's
    reverse-arc rule (which also makes paths into goal paths out of it);
    the smaller grows.  The first new S_a to meet the other end's S_b
    gives a + b; each geodesic crosses S_a once, so the count sums f(x)
    b(x) over the meet.  Past DEFAULT_MAX_ELEMENTS held nodes, it raises
    BallBoundExceeded."""
    if start == goal:
        return 0, 1
    cover = CoverCode(adj, radius)
    if not cover.within(start[1], goal[1], radius):
        return None
    bound = DEFAULT_MAX_ELEMENTS
    ends = [[0, {}, {cover.encode(*node): 1}] for node in (start, goal)]
    while ends[0][0] + ends[1][0] < radius and all(e[2] for e in ends):
        end, other = sorted(ends, key=lambda e: len(e[2]))
        depth, prev, sphere = end
        nxt = {}
        for p, c in sphere.items():
            for _, d in cover.steps[p % cover.n]:
                nxt[p + d] = nxt.get(p + d, 0) + c
        for q in nxt.keys() & (sphere.keys() | prev.keys()):
            del nxt[q]
        end[:] = depth + 1, sphere, nxt
        length = depth + 1 + other[0]
        if sum(len(e[1]) + len(e[2]) for e in ends) > bound:
            raise BallBoundExceeded(
                f"ball exceeded {bound} elements at radius {length}")
        count = sum(c * other[2][q] for q, c in nxt.items() if q in other[2])
        if count:
            return length, count
    return None


def coordination_sequence(generators, radius):
    """Sphere sizes of the Cayley graph ball: |S_0|, |S_1|, ..., |S_r|.

    shell_sizes on the cover of _cayley_quotient, whose coset
    representatives count against DEFAULT_MAX_ELEMENTS too.
    """
    _, adj = _cayley_quotient(generators)
    return shell_sizes(adj, 0, radius)


class TranslationHarvest:
    """Result of shortest_translation_words.

    words: list of (word, vector) for every pure translation found, one
    shortest word per vector, ordered by (length, word).  lattice_words
    is a greedy shortest-first subset whose vectors generate the
    lattice (it may need more than rank(L) words), none longer than
    2|P| - 1 letters, P the point group.  (closure, adj) is the walk's
    _cayley_quotient, lattice its T.
    """

    def __init__(self, words, lattice_words, closure, adj, radius_used):
        self.words = words
        self.lattice_words = lattice_words
        self.closure = closure
        self.adj = adj
        self.lattice = closure[3]
        self.radius_used = radius_used


def shortest_translation_words(generators):
    """Harvest shortest words with identity linear part from the Cayley ball.

    T comes exactly from the closure of _cayley_quotient, on whose
    cover the walk holds three spheres {node: first-discovered word}
    by the module's reverse-arc rule; a new node gets the word of the
    node that first reaches it plus the arc's letter.  Each sphere's
    translations join `words`, sorted by word.  One span, the integer
    HNF of the coordinates in T spanned so far, takes in each vector
    until it is Z^rank; a word that grows it is a lattice word.
    The lattice words and the closure are final at the first sphere
    that spans T, where the presentation pipeline's harvest stops
    (_harvest with no extra spheres); this walk goes on for
    DEFAULT_STABLE_SPHERES more, which only add to `words`.  T is
    spanned by radius 2|P| - 1, P the point group: a coset
    representative u_p of the closure has a word shorter than |P|, so
    each Schreier generator u_p s u_ps^-1 of T is at most that long,
    and the radius limit 2|P| - 1 + DEFAULT_STABLE_SPHERES never cuts
    the walk short.  Raises FiniteGroup when T = 0.
    """
    return _harvest(generators, DEFAULT_STABLE_SPHERES)


def _harvest(generators, extra):
    """shortest_translation_words, walking `extra` spheres past the
    first sphere that spans T.  Its point-group closure has no bound."""
    closure = _closure(_kernel(generators), math.inf)
    (kernel, _, elements, lattice), adj = closure, _quotient_arcs(closure)
    if not lattice.rank:
        raise FiniteGroup(len(elements))
    radius = 2 * len(elements) - 1 + extra
    bound = DEFAULT_MAX_ELEMENTS
    cover, n = CoverCode(adj, radius), len(adj)
    letters = [x for k in range(1, len(adj[0]) // 2 + 1) for x in (k, -k)]
    steps = [list(zip(letters, (d for _, d in out))) for out in cover.steps]
    # node (0, c) is the translation by -c in T, each found once
    basis = [[-int(x * kernel.scale) for x in row] for row in lattice.basis]
    target = identity_matrix(lattice.rank)
    words, lattice_words, span = [], [], ()
    # the last sphere: `extra` after the first to span T
    stop = 1 + extra
    prev, sphere, total = {}, {0: ()}, 1
    for radius_used in range(1, radius + 1):
        nxt = {}
        for p, w in sphere.items():
            for x, d in steps[p % n]:
                q = p + d
                if q not in nxt and q not in sphere and q not in prev:
                    nxt[q] = w + (x,)
        total += len(nxt)
        if total > bound:
            raise BallBoundExceeded(
                f"ball exceeded {bound} elements at radius {radius_used}")
        prev, sphere = sphere, nxt
        for w, p in sorted((w, p) for p, w in sphere.items() if p % n == 0):
            c = cover.decode(p)[1]
            words.append((w, tuple(Fraction(x, kernel.scale)
                                   for x in vec_mat(c, basis))))
            if span != target:
                grown = hnf(span + (c,))
                if grown != span:
                    lattice_words.append(words[-1])
                    span = grown
        if span != target:
            stop = radius_used + 1 + extra
        elif radius_used == stop:
            break

    if span != target:
        raise LatticeNotFound(
            "the harvested words do not span the translation lattice")
    return TranslationHarvest(words, lattice_words, closure, adj, radius_used)


GeodesicSet = namedtuple("GeodesicSet", "target length count")


class TargetUnreachable(RuntimeError):
    pass


def geodesics(generators, target, cap):
    """Count the shortest words evaluating to target.

    shell_geodesics on the cover of _cayley_quotient, from the identity
    to target's node: its paths spell the words of target^-1, whose
    inverses are target's words, so lengths and counts agree.  A target
    outside G raises TargetUnreachable before any walk.
    """
    if not isinstance(target, AffineIsometry):
        target = AffineIsometry.from_translation([Fraction(t) for t in target])
    (kernel, reduce, elements, _), adj = _cayley_quotient(
        generators, [target.translation])
    rep, shift = reduce(kernel.encode(target))
    if rep not in elements:
        raise TargetUnreachable(
            f"target {format_symop(target)} is not an element of the group")
    found = shell_geodesics(adj, (0, (0,) * len(shift)),
                            (elements.index(rep), shift), cap)
    if found is None:
        raise TargetUnreachable(f"target not reached within length cap {cap}")
    return GeodesicSet(target, *found)


def lattice_geodesic_count(vector):
    """Monotone lattice paths from 0 to `vector` with unit steps.

    Independent oracle for geodesic counts on Z^d with the standard
    generators: the multinomial (sum_i |v_i|)! / prod_i |v_i|!, one
    binomial per coordinate.
    """
    count, total = 1, 0
    for c in (abs(int(v)) for v in vector):
        total += c
        count *= math.comb(total, c)
    return count


def odd_cycle_girth(generators, marked_name, cap=DEFAULT_RADIUS_CAP):
    """Length of the shortest identity word using the marked generator
    an odd number of times, or None if none exists within the cap.

    shell_geodesics from (0, even) to (0, odd) on the parity double
    cover of _cayley_quotient: vertex i + n * parity, flipped by the
    marked letters."""
    (_, _, _, lattice), adj = _cayley_quotient(generators)
    try:
        marked = [name for name, _ in generators].index(marked_name)
    except ValueError:
        raise ValueError(f"unknown generator {marked_name!r}") from None
    n = len(adj)
    double = [[(k + n * (parity ^ (j // 2 == marked)), s)
               for j, (k, s) in enumerate(arcs)]
              for parity in (0, 1) for arcs in adj]
    zero = (0,) * lattice.rank
    found = shell_geodesics(double, (0, zero), (n, zero), cap)
    return None if found is None else found[0]
