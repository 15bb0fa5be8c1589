"""Breadth-first exploration of Cayley graphs of affine isometry groups.

Vertices are group elements, edges are right multiplication by a
generator in the word sense: appending letter x to a word moves from g
to image(x) * g (letters act in reading order, see words.evaluate).
Provides coordination sequences, geodesic counting and the harvest of
shortest translation words that feeds the presentation pipeline.  The
pipeline (present, verify) stops that harvest at the first sphere whose
words span T; only the public shortest_translation_words walks
DEFAULT_STABLE_SPHERES more, for its `words`.

Every walk runs on the integer element codes of affine.WalkKernel (an
interned linear part plus N times the translation, N also covering any
target the walk must recognise); elements are converted to and from
AffineIsometry only at the API boundary.

Sizes, lengths and path counts walk the periodic cover of a labelled
quotient graph two spheres at a time: shell_sizes from one node, as int
bitsets in a reduced frame of the cover (_frame, on the spanning tree
of _tree that netgraph validates nets on), and shell_geodesics from
both ends of a route, on packed int nodes (CoverCode) that carry path
counts.
For a group the quotient is _cayley_quotient (netgraph.from_cayley
reads it as a net); the odd-cycle girth walks its parity double cover,
and the presentation pipeline reads the point group and every G/mT off
its arcs (_quotient_arcs).
Walks that need words or discovery order (the harvest, geodesic words,
finite Cayley graphs of cosets) grow their spheres with the one
routine _expand, given a neighbours function.
"""

import math
from collections import namedtuple
from fractions import Fraction
from operator import add, mul, sub

from .affine import AffineIsometry, WalkKernel, _closure, check_finite_order
from .intmat import hnf, hnf_with_transform, solve_hnf
from .symop import format_symop
from .words import free_reduce

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


def _group(generators, max_elements, points=()):
    """affine.finite_closure on _kernel(generators, points), raising
    BallBoundExceeded past max_elements linear parts (M(6) = 2,903,040)."""
    closure = _closure(_kernel(generators, points), max_elements)
    if closure is None:
        raise BallBoundExceeded(f"point group exceeded {max_elements} elements")
    return closure


def _cayley_quotient(generators, max_elements=DEFAULT_MAX_ELEMENTS,
                     points=()):
    """(closure, _quotient_arcs(closure)), closure the closure of _group."""
    closure = _group(generators, max_elements, points)
    return closure, _quotient_arcs(closure)


def _quotient_arcs(closure):
    """The Cayley graph of a closure modulo T: adj[i] lists per letter
    x, in walk order, the arc (j, s) with u_i * image(x) = t_s * u_j,
    t_s in T, u_i the coset representatives.  T acts on the left, so
    this covers g -> g * image(x), which g -> g^-1 maps onto g ->
    image(x) * g (the walks here) fixing 1: sphere sizes agree.  Arc
    k's reverse is arc k ^ 1, of the inverse letter."""
    kernel, reduce, elements, _ = closure
    index = {u: i for i, u in enumerate(elements)}
    letters = [move(kernel.identity) for _, move in kernel.steps]
    return [[(index[j], s) for j, s in
             (reduce(kernel.product(u, x)) for x in letters)]
            for u in elements]


def _expand(neighbours, entries, radius, max_elements=math.inf):
    """Yields spheres 1..radius of a walk that needs words or order.

    `neighbours(g)` lists (letter, h) for the edges leaving state g.
    `entries` starts as {start: (0, 0)}, maps every state seen so far to
    (distance, last letter) and grows in place.  Discovery order is
    frontier order, then the order of `neighbours`.
    """
    sphere = list(entries)
    for r in range(1, radius + 1):
        frontier, sphere = sphere, []
        for g in frontier:
            for x, h in neighbours(g):
                if h in entries:
                    continue
                if len(entries) >= max_elements:
                    raise BallBoundExceeded(
                        f"ball exceeded {max_elements} elements at radius {r}"
                    )
                entries[h] = (r, x)
                sphere.append(h)
        yield sphere


def _word(move, entries, h):
    """The first-discovered shortest word reaching state h."""
    letters = []
    while True:
        dist, x = entries[h]
        if dist == 0:
            return tuple(reversed(letters))
        letters.append(x)
        h = move[-x](h)


class CoverCode:
    """Cover nodes within `radius` edges of cell 0, packed into ints, for
    walks that keep something per node: shell_geodesics' path counts
    and the numbering of netgraph._ball.

    adj[v] lists the arcs (w, shift) leaving quotient vertex v, n =
    len(adj).  Node (v, s) is the int v + n * sum_i s_i * B**i.  A node
    r edges from cell 0 has every |s_i| <= r * S, S the largest |shift
    component|, so with B = 2 * radius * S + 1 no two such nodes share
    a code.  Arc k of vertex p % n leads to node p + steps[p % n][k][1].
    """

    def __init__(self, adj, radius):
        self.n = len(adj)
        shifts = [x for arcs in adj for _, s in arcs for x in s]
        self.reach = max(radius, 1) * max(map(abs, shifts), default=0)
        self.radix = 2 * self.reach + 1
        self.weights = [self.n * self.radix ** i
                        for i in range(len(adj[0][0][1]))]
        self.steps = [[(w, self.encode(w, t) - v) for w, t in arcs]
                      for v, arcs in enumerate(adj)]

    def encode(self, v, shift):
        return v + sum(w * x for w, x in zip(self.weights, shift))

    def decode(self, p):
        v, e = p % self.n, p // self.n
        shift = []
        for _ in self.weights:
            digit = (e + self.reach) % self.radix - self.reach
            shift.append(digit)
            e = (e - digit) // self.radix
        return v, tuple(shift)


def _tree(adj, base):
    """(t, arcs) of a breadth-first spanning tree from base: t[v] is the
    shift of the tree path to v, None off base's component, and arcs[v]
    lists (w, s + t_v - t_w) per arc (w, s) of adj[v] (none off it).
    These shifts span the lattice L of the cover component of (base, 0);
    the cover over base's component is connected iff L = Z^rank."""
    t = [None] * len(adj)
    t[base] = (0,) * len(next((s for arcs in adj for _, s in arcs), ()))
    order = [base]
    for v in order:
        for w, s in adj[v]:
            if t[w] is None:
                t[w] = tuple(map(add, t[v], s))
                order.append(w)
    arcs = [[(w, tuple(map(sub, map(add, s, t[v]), t[w]))) for w, s in out]
            if t[v] is not None else [] for v, out in enumerate(adj)]
    return t, arcs


def _frame(adj, base):
    """The cover component of node (base, 0), relabelled: arcs[v] lists
    (w, c), c the integer coordinates in a basis B of L of the shift
    s + t_v - t_w that _tree gives the arc.  Node (v, t_v + c B) becomes
    (v, c), so spheres keep their sizes.  B is the shortest shifts that
    raise the rank if they generate L, else their HNF."""
    arcs = _tree(adj, base)[1]
    shifts = sorted({s for out in arcs for _, s in out},
                    key=lambda s: (sum(x * x for x in s), s))
    span, basis = hnf(shifts), ()
    for s in shifts:
        if len(basis) < len(span) and len(hnf(basis + (s,))) > len(basis):
            basis += (s,)
    for basis in basis, span:
        transform = hnf_with_transform(basis)
        coords = {s: solve_hnf(transform, s) for s in shifts}
        if None not in coords.values():
            return [[(w, coords[s]) for w, s in out] for out in arcs]


def shell_sizes(adj, base, radius, max_elements=math.inf):
    """Sphere sizes |S_0|, ..., |S_radius| about node (base, 0) of the
    cover of adj, whose arcs must all have their reverse in adj: then
    S_(r+1) is the neighbourhood of S_r minus S_r and S_(r-1), so two
    spheres are kept.  In _frame(adj, base) a vertex holds a sphere as
    {coordinates past the m-th: int bitset over a box of the first m},
    m = 3 or the rank if lower; m = 0 on a line, whose spheres are two
    far ends.  The box is what walks of `box` = min(radius, 64) arcs
    reach; it doubles and the walk starts over while radius > box.  m
    drops while the box passes 64 bits a node of the ball it can hold
    (max_elements nodes at most, and arcs^r at radius r).
    Raises BallBoundExceeded once the ball passes max_elements nodes.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    frame = _frame(adj, base)
    rank = len(next((c for out in frame for _, c in out), ()))
    m = k = min(rank, 3) if rank > 1 else 0
    reach = [{} for _ in frame]  # w: the largest +-c_i, i < k, on v -> w
    for v, out in enumerate(frame):
        for w, c in out:
            c = c[:k] + tuple(-x for x in c[:k])
            reach[v][w] = tuple(map(max, reach[v].get(w, c), c))
    arcs = max(map(len, frame))
    box = min(radius, 64) if m else radius
    while True:
        far = {base: (0,) * 2 * k}  # v: the same on walks base -> v
        for _ in range(box if m else 0):  # of at most box arcs
            for v, ahead in list(far.items()):
                for w, c in reach[v].items():
                    c = tuple(map(add, ahead, c))
                    far[w] = tuple(map(max, far.get(w, c), c))
        top = [max(x) for x in zip(*far.values())]
        low = top[k:]
        extent = [hi + lo + 1 for hi, lo in zip(top, low)]
        ball = (arcs ** (box + 1) - 1) // (arcs - 1) if m else 1
        while m and math.prod(extent[:m]) > 64 * min(ball, max_elements):
            m -= 1
        box = box if m else radius
        strides = [math.prod(extent[:i]) for i in range(m)]
        steps = [[(w, sum(map(mul, c, strides)), c[m:]) for w, c in out]
                 for out in frame]
        prev, sphere = [{} for _ in frame], [{} for _ in frame]
        sphere[base][(0,) * (rank - m)] = 1 << sum(map(mul, low, strides))
        sizes, total = [1], 1
        for r in range(1, min(radius, box) + 1):
            nxt = [{} for _ in frame]
            for v, held in enumerate(sphere):
                for key, bits in held.items():
                    for w, d, tail in steps[v]:
                        at = tuple(map(add, key, tail))
                        nxt[w][at] = nxt[w].get(at, 0) | (
                            bits << d if d >= 0 else bits >> -d)
            prev, sphere = sphere, [
                {key: new for key, bits in held.items() if (new := bits & ~(
                    prev[w].get(key, 0) | sphere[w].get(key, 0)))}
                for w, held in enumerate(nxt)]
            sizes.append(sum(b.bit_count() for held in sphere
                             for b in held.values()))
            total += sizes[-1]
            if total > max_elements:
                raise BallBoundExceeded(
                    f"ball exceeded {max_elements} elements at radius {r}")
        if radius <= box:
            return sizes
        box = min(2 * box, radius)


def shell_geodesics(adj, start, goal, radius, max_elements=math.inf):
    """(length, count) of the shortest cover paths of adj from node start
    to node goal, both (v, shift), or None past radius; None at once for
    a goal out of the box (max norm, 1-norm) radius arcs span, which also
    keeps the CoverCode(adj, radius) codes of both ends' nodes distinct.
    Each end holds two spheres {code: path count} as in shell_sizes (all
    arcs have their reverse: paths into goal are paths out of it); the
    smaller grows.  The first new S_a to meet the other end's S_b gives
    a + b; each geodesic crosses S_a once, so the count sums f(x) b(x)
    over the meet.  Past max_elements held nodes: BallBoundExceeded."""
    if start == goal:
        return 0, 1
    cover = CoverCode(adj, radius)
    offset = [abs(b - a) for a, b in zip(start[1], goal[1])]
    if max(offset, default=0) > cover.reach or sum(offset) > radius * max(
            sum(map(abs, s)) for arcs in adj for _, s in arcs):
        return None
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
        if sum(len(e[1]) + len(e[2]) for e in ends) > max_elements:
            raise BallBoundExceeded(
                f"ball exceeded {max_elements} elements at radius {length}")
        count = sum(c * other[2][q] for q, c in nxt.items() if q in other[2])
        if count:
            return length, count
    return None


def coordination_sequence(generators, radius, max_elements=DEFAULT_MAX_ELEMENTS):
    """Sphere sizes of the Cayley graph ball: |S_0|, |S_1|, ..., |S_r|.

    shell_sizes on the cover of _cayley_quotient, whose coset
    representatives count against max_elements too.
    """
    _, adj = _cayley_quotient(generators, max_elements)
    return shell_sizes(adj, 0, radius, max_elements)


class TranslationHarvest:
    """Result of shortest_translation_words.

    words: list of (word, vector) for every pure translation found, one
    shortest word per vector, ordered by (length, word).  lattice_words
    is a greedy shortest-first subset whose vectors generate the
    lattice (it may need more than rank(L) words), none longer than
    2|P| - 1 letters, P the point group.  closure is the point-group
    closure of the generators (see _group) and lattice its T.
    """

    def __init__(self, words, lattice_words, closure, radius_used):
        self.words = words
        self.lattice_words = lattice_words
        self.closure = closure
        self.lattice = closure[3]
        self.radius_used = radius_used


def shortest_translation_words(generators):
    """Harvest shortest words with identity linear part from the Cayley ball.

    T comes exactly from the closure of _group.  Sphere by sphere, the
    walk appends each translation's first-discovered shortest word to
    `words`, sorted by word within the sphere.  One span, the integer
    HNF of N L (N the kernel's scale, L spanned so far), takes in each
    vector until it equals T; a word that grows it is a lattice word.
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
    first sphere that spans T."""
    kernel, _, elements, lattice = closure = _group(generators, math.inf)
    if not lattice.rank:
        raise FiniteGroup(len(elements))
    target = tuple(tuple(int(x * kernel.scale) for x in row)
                   for row in lattice.basis)
    ident_linear = kernel.identity[0]
    entries = {kernel.identity: (0, 0)}
    words, lattice_words, span = [], [], ()
    # the last sphere: `extra` after the first to span T
    stop = 1 + extra
    spheres = _expand(kernel.neighbours, entries,
                      2 * len(elements) - 1 + extra, DEFAULT_MAX_ELEMENTS)
    # distinct elements with the identity linear part are distinct
    # translations, so each found here is new
    for radius_used, sphere in enumerate(spheres, 1):
        for w, h in sorted((_word(kernel.move, entries, h), h)
                           for h in sphere if h[0] == ident_linear):
            words.append((w, kernel.vector(h)))
            if span != target:
                grown = hnf(span + (h[1:],))
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
    return TranslationHarvest(words, lattice_words, closure, radius_used)


GeodesicSet = namedtuple("GeodesicSet", "target length count words")


class TargetUnreachable(RuntimeError):
    pass


def geodesics(generators, target, cap, with_words=False, max_words=10000,
              max_elements=DEFAULT_MAX_ELEMENTS):
    """Count (and optionally list) the shortest words evaluating to target.

    shell_geodesics on the cover of _cayley_quotient, from the identity
    to target's node: reversing words maps the walk g -> image(x) * g
    onto the cover's g -> g * image(x), so lengths and counts agree.  A
    target outside G raises TargetUnreachable before any walk.  Only
    the words walk the Cayley ball, to the length already known.
    """
    if not isinstance(target, AffineIsometry):
        target = AffineIsometry.from_translation([Fraction(t) for t in target])
    (kernel, reduce, elements, _), adj = _cayley_quotient(
        generators, max_elements, [target.translation])
    goal = kernel.encode(target)
    rep, shift = reduce(goal)
    if rep not in elements:
        raise TargetUnreachable(
            f"target {format_symop(target)} is not an element of the group")
    found = shell_geodesics(adj, (0, (0,) * len(shift)),
                            (elements.index(rep), shift), cap, max_elements)
    if found is None:
        raise TargetUnreachable(f"target not reached within length cap {cap}")
    if not with_words:
        return GeodesicSet(target, *found, None)
    dist = {kernel.identity: (0, 0)}
    for _ in _expand(kernel.neighbours, dist, found[0], max_elements):
        pass
    words = []

    def back(h, suffix):
        if len(words) >= max_words:
            return
        r = dist[h][0]
        if r == 0:
            words.append(free_reduce(tuple(suffix)))
            return
        for x, _ in kernel.steps:
            g = kernel.move[-x](h)
            if dist.get(g, (None,))[0] == r - 1:
                back(g, [x] + suffix)

    back(goal, [])
    return GeodesicSet(target, *found, words)


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


def odd_cycle_girth(generators, marked_name, cap=DEFAULT_RADIUS_CAP,
                    max_elements=DEFAULT_MAX_ELEMENTS):
    """Length of the shortest identity word using the marked generator
    an odd number of times, or None if none exists within the cap.

    shell_geodesics from (0, even) to (0, odd) on the parity double
    cover of _cayley_quotient: vertex i + n * parity, flipped by the
    marked letters."""
    (kernel, _, _, lattice), adj = _cayley_quotient(generators, max_elements)
    try:
        marked = [name for name, _ in generators].index(marked_name) + 1
    except ValueError:
        raise ValueError(f"unknown generator {marked_name!r}") from None
    n = len(adj)
    double = [[(j + n * (parity ^ (abs(x) == marked)), s)
               for (j, s), (x, _) in zip(arcs, kernel.steps)]
              for parity in (0, 1) for arcs in adj]
    zero = (0,) * lattice.rank
    found = shell_geodesics(double, (0, zero), (n, zero), cap, max_elements)
    return None if found is None else found[0]
